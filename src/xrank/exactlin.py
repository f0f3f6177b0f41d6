"""Exact scalars and dense linear algebra over Q and GF(p).

Raw scalar values are `fractions.Fraction` over the rationals and plain
ints in [0, p) over a prime field; `FieldSpec` owns the raw arithmetic.
`Scalar` wraps a raw value with its field for the public surface and for
serialization ("a/b" or "a" over Q, a decimal residue over GF(p)).

`Echelon` is the incremental elimination kernel: an echelon basis of a
row span that grows one row at a time (`insert`, undone by `pop`),
reduces a vector against the span (`reduce`), and answers membership
(`contains`) and `rank` without eliminating the span again.  Each basis
row is scaled to 1 at its lead and is zero at the leads of the rows
inserted before it, so one pass over the rows in insertion order clears
every lead.  Over GF(p) it runs on plain ints with inline `% p`; over Q
on `Fraction`.  Build one `Echelon` per fixed span and query it many
times.

Rank over Q runs fraction-free (Bareiss) on denominator-cleared integer
rows; over GF(p) it is the rank of an `Echelon`.  `rref` gives the
reduced system that `solve_columns` reads coefficients from.  Pivoting
is deterministic: first nonzero entry, scanning rows in order.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, DivisionByZero, MixedFields

# Deterministic Miller-Rabin with these bases is exact below 3.18e23
# (Sorenson and Webster), which covers every modulus below MODULUS_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_BOUND = 2 ** 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n >= MODULUS_BOUND:
        raise ValueError("modulus %d is not supported: moduli must be "
                         "below 2**64" % n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FIELD_RE = re.compile(r"^GF\((\d+)\)$")


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (modulus None) or the prime field GF(modulus)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not is_prime(self.modulus):
            raise ValueError("modulus %r is not prime" % (self.modulus,))

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        if text == "QQ":
            return cls(None)
        m = _FIELD_RE.match(text)
        if m:
            return cls(int(m.group(1)))
        raise ValueError("unrecognized field %r (want 'QQ' or 'GF(p)')" % (text,))

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    def __str__(self):
        return "QQ" if self.modulus is None else "GF(%d)" % self.modulus

    # -- raw-value arithmetic -------------------------------------------

    def zero(self):
        return 0 if self.modulus else Fraction(0)

    def one(self):
        return 1 if self.modulus else Fraction(1)

    def coerce(self, value):
        """Normalize an int/Fraction into this field's raw representation."""
        p = self.modulus
        if p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise DivisionByZero("denominator divisible by %d" % p)
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

    def add(self, a, b):
        return (a + b) % self.modulus if self.modulus else a + b

    def sub(self, a, b):
        return (a - b) % self.modulus if self.modulus else a - b

    def mul(self, a, b):
        return (a * b) % self.modulus if self.modulus else a * b

    def neg(self, a):
        return (-a) % self.modulus if self.modulus else -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in %s" % self)
        return pow(a, -1, self.modulus) if self.modulus else 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in %s" % self)
        return a * pow(b, -1, self.modulus) % self.modulus if self.modulus else a / b

    def parse_scalar(self, text: str):
        """Parse "a" or "a/b" (decimal residue over GF(p))."""
        if self.modulus is None:
            return Fraction(text)
        return self.coerce(Fraction(text))

    def format_scalar(self, value) -> str:
        return str(value)

    def random_element(self, rng, box: int = 50, nonzero: bool = False):
        """Uniform raw element; over Q an integer from [-box, box]."""
        while True:
            if self.modulus is not None:
                v = rng.randrange(self.modulus)
            else:
                v = Fraction(rng.randint(-box, box))
            if v != 0 or not nonzero:
                return v


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field."""

    field: FieldSpec
    value: Fraction | int

    @classmethod
    def of(cls, field: FieldSpec, value) -> "Scalar":
        return cls(field, field.coerce(value))

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Scalar":
        return cls(field, field.parse_scalar(text))

    def _check(self, other: "Scalar"):
        if self.field != other.field:
            raise MixedFields("%s vs %s" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self):
        return self.field.format_scalar(self.value)


# -- elimination kernels on raw rows ------------------------------------


class Echelon:
    """Incremental echelon basis of a row span over one field.

    rows: raw-value vectors of one length, inserted in order.  Queries
    (`reduce`, `contains`, `rank`) never change the basis.
    """

    __slots__ = ("_p", "_rows", "_width")

    def __init__(self, field: FieldSpec, rows=()):
        self._p = field.modulus
        self._rows = []  # (lead, row): row[lead] == 1, zero at earlier leads
        self._width = None
        for r in rows:
            self.insert(r)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec) -> list:
        """vec minus a combination of the basis rows that clears every
        lead; the zero vector exactly when vec lies in the span."""
        if self._width is not None and len(vec) != self._width:
            raise DimensionMismatch("vector length %d vs span width %d"
                                    % (len(vec), self._width))
        p = self._p
        if p is None:
            v = list(vec)
            for lead, row in self._rows:
                c = v[lead]
                if c:
                    v = [x - c * y for x, y in zip(v, row)]
        else:
            v = [x % p for x in vec]
            for lead, row in self._rows:
                c = v[lead]
                if c:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec) -> bool:
        """Add vec to the basis unless the span already holds it; returns
        whether the rank grew."""
        v = self.reduce(vec)
        self._width = len(v)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        p = self._p
        if p is None:
            inv = 1 / Fraction(v[lead])
            row = tuple(x * inv for x in v)
        else:
            inv = pow(v[lead], -1, p)
            row = tuple(x * inv % p for x in v)
        self._rows.append((lead, row))
        return True

    def pop(self):
        """Remove the row inserted last (undo one successful insert)."""
        self._rows.pop()


def rref(field: FieldSpec, rows):
    """Reduced row echelon form.

    Returns (new_rows, pivot_cols).  Deterministic: for each column the
    first remaining row with a nonzero entry pivots.  Exact over both
    fields; over Q this is plain Fraction arithmetic (solving wants the
    actual reduced system, rank alone uses the Bareiss path below).
    """
    p = field.modulus
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        rr = work[r]
        piv = rr[c]
        if piv != 1:
            if p is None:
                inv = 1 / Fraction(piv)
                rr = [v * inv for v in rr]
            else:
                inv = pow(piv, -1, p)
                rr = [v * inv % p for v in rr]
            work[r] = rr
        for i in range(nrows):
            f = work[i][c]
            if i != r and f != 0:
                if p is None:
                    work[i] = [x - f * y for x, y in zip(work[i], rr)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _rank_bareiss(int_rows) -> int:
    """Fraction-free rank of integer rows (Bareiss one-step elimination)."""
    work = [list(r) for r in int_rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            lead = work[i][c]
            row_i, row_r = work[i], work[r]
            work[i] = [(piv * row_i[j] - lead * row_r[j]) // prev
                       for j in range(ncols)]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def rank_rows(field: FieldSpec, rows) -> int:
    """Rank of a list of raw-value row vectors."""
    if field.modulus is not None:
        return Echelon(field, rows).rank
    cleared = []
    for r in rows:
        if not any(v != 0 for v in r):
            continue
        r = [Fraction(v) for v in r]
        den = 1
        for v in r:
            den = den * v.denominator // _gcd(den, v.denominator)
        cleared.append([int(v * den) for v in r])
    return _rank_bareiss(cleared)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class CoordinateSolution(NamedTuple):
    """Solve result: coefficient list (None when inconsistent) and whether
    the generators were linearly independent."""

    coefficients: tuple | None
    independent: bool


def solve_columns(field: FieldSpec, columns, target) -> CoordinateSolution:
    """Express target as a combination of the given raw column vectors.

    Free variables (dependent generators) are set to zero, so the returned
    combination is one valid choice; it is unique iff independent.
    """
    ncols = len(columns)
    dim = len(target)
    for c in columns:
        if len(c) != dim:
            raise DimensionMismatch("column length %d vs target %d"
                                    % (len(c), dim))
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]]
           for i in range(dim)]
    red, pivots = rref(field, aug)
    independent = sum(1 for pc in pivots if pc < ncols) == ncols
    if any(pc == ncols for pc in pivots):
        return CoordinateSolution(None, independent)
    coeffs = [field.zero()] * ncols
    for i, pc in enumerate(pivots):
        coeffs[pc] = red[i][ncols]
    return CoordinateSolution(tuple(coeffs), independent)


# -- small vector helpers used across modules ---------------------------


def vec_add(field, a, b):
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths %d vs %d" % (len(a), len(b)))
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_sub(field, a, b):
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths %d vs %d" % (len(a), len(b)))
    return tuple(field.sub(x, y) for x, y in zip(a, b))


def vec_scale(field, c, a):
    return tuple(field.mul(c, x) for x in a)


def in_span(field, rows, vec) -> bool:
    """Whether vec lies in the row span of rows."""
    return Echelon(field, rows).contains(vec)
