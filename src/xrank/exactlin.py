"""Exact field elements and dense linear algebra over Q and GF(p).

Field elements are `fractions.Fraction` over the rationals and plain
ints in [0, p) over a prime field; `FieldSpec` owns their arithmetic and
their text form (`parse_scalar` and `format_scalar`: "a/b" or "a" over
Q, a decimal residue over GF(p)).

`Echelon` is the incremental elimination kernel: an echelon basis of a
row span that grows one row at a time (`insert`),
reduces a vector against the span (`reduce`), and answers membership
(`contains`) and `rank` without eliminating the span again.  Each basis
row is zero at the leads of the rows inserted before it, so one pass over
the rows in insertion order clears every lead.  Over GF(p) it runs on
plain ints with inline `% p`, each row scaled to 1 at its lead.  Over Q it
is fraction-free: a vector's denominators are cleared once (a vector of
plain ints, such as `geometry`'s integer tensor columns, enters as it
is), a lead is cleared by `v <- r[lead]*v - v[lead]*r` (both factors
divided by their gcd first), and each new row is divided by the gcd of
its entries, so rows stay primitive integer vectors and `Fraction`s
appear only in the values `reduce` returns.  Build one `Echelon` per
fixed span and query it many times.

`Echelon` is the only elimination: `rank_rows` is the rank of one;
`solve_columns` inserts the columns into one, each carrying its
combination of the columns, and reads the target's coefficients off the
same elimination; `rref` back-substitutes one through a second `Echelon`
to give a span's canonical basis.  Leads are deterministic: the first
nonzero entry of each reduced row, scanning in order.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import DimensionMismatch, DivisionByZero

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


_FIELD_RE = re.compile(r"GF\(([0-9]+)\)")


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (modulus None) or the prime field GF(modulus)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not is_prime(self.modulus):
            raise ValueError("modulus %r is not prime" % (self.modulus,))

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        if text == "QQ":
            return cls(None)
        m = _FIELD_RE.fullmatch(text)
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

    def mul(self, a, b):
        return (a * b) % self.modulus if self.modulus else a * b

    def parse_scalar(self, text: str):
        """Parse "a", "a/b" or "0.1" (decimal residue over GF(p)), or an
        int; ValueError when text names no finite rational, and for a
        bool or a float, whose binary expansion is no decimal's value."""
        if isinstance(text, (bool, float)):
            raise ValueError("bad scalar %r: want a string or an int" % text)
        try:
            value = Fraction(text)
        except (OverflowError, ZeroDivisionError) as e:
            raise ValueError("bad scalar %r: %s" % (text, e)) from e
        if self.modulus is None:
            return value
        return self.coerce(value)

    def format_scalar(self, value) -> str:
        return str(value)

    def random_element(self, rng, box: int = 50):
        """Uniform raw element; over Q an integer from [-box, box]."""
        if self.modulus is not None:
            return rng.randrange(self.modulus)
        return Fraction(rng.randint(-box, box))


# -- elimination kernels on raw rows ------------------------------------


def integer_row(vec):
    """(ints, den): den is the least common denominator of vec's entries
    and ints = den * vec, all plain ints.  A vec of plain ints is handed
    back as it is, with den 1."""
    if set(map(type, vec)) <= {int}:
        return vec, 1
    den = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // x.denominator) for x in vec], den


class Echelon:
    """Incremental echelon basis of a row span over one field.

    rows: raw-value vectors of one length, inserted in order.  Queries
    (`reduce`, `contains`, `rank`) never change the basis.
    """

    __slots__ = ("_p", "_rows", "_width")

    def __init__(self, field: FieldSpec, rows=()):
        self._p = field.modulus
        # (lead, row): row is nonzero at lead and zero at earlier leads;
        # over GF(p) row[lead] == 1, over Q row is a primitive int vector
        self._rows = []
        self._width = None
        for r in rows:
            self.insert(r)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, vec):
        """(v, scale): v is scale times `reduce(vec)`.  Over Q, v holds
        ints and scale is a nonzero int; over GF(p), scale is 1."""
        if self._width is not None and len(vec) != self._width:
            raise DimensionMismatch("vector length %d vs span width %d"
                                    % (len(vec), self._width))
        p = self._p
        if p is None:
            v, scale = integer_row(vec)
            for lead, row in self._rows:
                c = v[lead]
                if c:
                    a = row[lead]
                    g = gcd(a, c)
                    if g != 1:
                        a //= g
                        c //= g
                    v = [a * x - c * y for x, y in zip(v, row)]
                    scale *= a
            return v, scale
        v = [x % p for x in vec]
        for lead, row in self._rows:
            c = v[lead]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v, 1

    def reduce(self, vec) -> list:
        """vec minus a combination of the basis rows that clears every
        lead; the zero vector exactly when vec lies in the span."""
        v, scale = self._eliminate(vec)
        if self._p is None:
            return [Fraction(x, scale) for x in v]
        return v

    def contains(self, vec) -> bool:
        return not any(self._eliminate(vec)[0])

    def insert(self, vec) -> bool:
        """Add vec to the basis unless the span already holds it; returns
        whether the rank grew."""
        return self._insert(vec, len(vec))

    def _insert(self, vec, lead_width) -> bool:
        """`insert` with leads taken among the first lead_width entries
        only; the entries after them ride along through the elimination."""
        v = self._eliminate(vec)[0]
        self._width = len(v)
        for lead in range(lead_width):
            if v[lead]:
                break
        else:
            return False
        p = self._p
        if p is None:
            g = gcd(*v)
            row = tuple(x // g for x in v) if g != 1 else tuple(v)
        else:
            inv = pow(v[lead], -1, p)
            row = tuple([x * inv % p for x in v])
        self._rows.append((lead, row))
        return True


def rref(field: FieldSpec, rows):
    """Reduced row echelon form: (new_rows, pivot_cols).

    The rows enter an `Echelon`, whose rows are zero at the leads of the
    rows inserted before them.  Inserting those rows into a second
    `Echelon` in reverse order clears each one at the leads of the rows
    inserted after it (a lead stays the first nonzero entry of its row).
    The rows are sorted by lead and divided by it; zero rows pad the
    result to len(rows).  Gives the canonical basis of a row span
    (`geometry.canonical_basis_rows`).
    """
    rows = list(rows)
    reduced = Echelon(field)
    for _, row in reversed(Echelon(field, rows)._rows):
        reduced.insert(row)
    basis = sorted(reduced._rows)
    if field.modulus is None:
        out = [[Fraction(x, row[lead]) for x in row] for lead, row in basis]
    else:
        out = [list(row) for _, row in basis]
    width = len(rows[0]) if rows else 0
    out += [[field.zero()] * width for _ in range(len(rows) - len(out))]
    return out, [lead for lead, _ in basis]


def rank_rows(field: FieldSpec, rows) -> int:
    """Rank of a list of raw-value row vectors."""
    return Echelon(field, rows).rank


class CoordinateSolution(NamedTuple):
    """Solve result: coefficient list (None when inconsistent) and whether
    the generators were linearly independent."""

    coefficients: tuple | None
    independent: bool


def solve_columns(field: FieldSpec, columns, target) -> CoordinateSolution:
    """Express target as a combination of the given raw column vectors.

    Free variables (dependent generators) are set to zero, so the returned
    combination is one valid choice; it is unique iff independent.

    The columns enter an `Echelon` in order, each tagged with its unit
    combination vector, so every basis row carries the combination of
    columns it equals.  A column that reduces to zero is dependent and
    gets no row, so its coefficient stays zero; the columns that do get
    rows are the pivot columns of the reduced system.  The target reduces
    through the same rows, and its tag entries, negated and divided by the
    elimination's scale, are the coefficients.
    """
    ncols = len(columns)
    dim = len(target)
    for c in columns:
        if len(c) != dim:
            raise DimensionMismatch("column length %d vs target %d"
                                    % (len(c), dim))
    span = Echelon(field)
    independent = True
    for j, col in enumerate(columns):
        tag = [0] * ncols
        tag[j] = 1
        if not span._insert(list(col) + tag, dim):
            independent = False
    v, scale = span._eliminate(list(target) + [0] * ncols)
    if any(v[:dim]):
        return CoordinateSolution(None, independent)
    p = field.modulus
    if p is None:
        coeffs = tuple(Fraction(-x, scale) for x in v[dim:])
    else:
        coeffs = tuple(-x % p for x in v[dim:])
    return CoordinateSolution(coeffs, independent)


# -- small vector helpers -----------------------------------------------
# vec_add and vec_scale have no caller in src/: perfbench/workloads.py is
# their only user outside the tests until ROADMAP item 1 retires them.


def vec_add(field, a, b):
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths %d vs %d" % (len(a), len(b)))
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_scale(field, c, a):
    return tuple(field.mul(c, x) for x in a)


def in_span(field, rows, vec) -> bool:
    """Whether vec lies in the row span of rows."""
    return Echelon(field, rows).contains(vec)
