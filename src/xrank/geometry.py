"""Multiprojective spaces, points, tensors and monomial embeddings.

A space is a product P^{n_1} x ... x P^{n_k} with a multidegree
(d_1, ..., d_k); the embedding evaluates, per factor, all degree-d_i
monomials (exponent vectors in leading-first lexicographic order) and
nests factors left to right, so the last factor's index moves fastest.
Projective representatives are canonical: first nonzero coordinate 1.
This module is the one owner of that layout: `factor_image` evaluates one
factor's monomials on plain ints (over Q after clearing its
denominators), and `fiber_map` alone multiplies factor images together.
Over Q the product stays in ints: a point's integer image is a positive
multiple of its canonical column, the multiple being its first nonzero
entry, and the library keeps its own columns in that form (`embed_image`).
`embed` divides the image by that lead once; the constructions build
their candidates' columns with the same map.
"""

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (DimensionMismatch, FieldNotFinite, InvalidInput,
                     SpaceMismatch, ZeroFactor)
from .exactlin import FieldSpec, integer_row, rank_rows, rref

DEFAULT_COORD_BOX = 50


def as_size(value, what: str) -> int:
    """value as an int; InvalidInput for a bool, float, str or the like."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInput("%s must be an integer, got %r" % (what, value))
    return operator.index(value)


@dataclass(frozen=True)
class MultiProjectiveSpace:
    """P^{n_1} x ... x P^{n_k} with multidegree and coefficient field."""

    factor_dims: tuple
    multidegree: tuple
    field: FieldSpec

    def __post_init__(self):
        dims = tuple(as_size(n, "factor dim") for n in self.factor_dims)
        degs = tuple(as_size(d, "degree") for d in self.multidegree)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "multidegree", degs)
        if len(dims) == 0 or len(dims) != len(degs):
            raise InvalidInput("need matching nonempty dims and degrees")
        if any(n < 0 for n in dims):
            raise InvalidInput("factor dims must be >= 0")
        if any(d < 1 for d in degs):
            raise InvalidInput("degrees must be >= 1")

    @classmethod
    def segre(cls, dims, field: FieldSpec) -> "MultiProjectiveSpace":
        dims = tuple(dims)
        return cls(dims, (1,) * len(dims), field)

    @classmethod
    def veronese(cls, n: int, d: int, field: FieldSpec) -> "MultiProjectiveSpace":
        return cls((n,), (d,), field)

    @property
    def k(self) -> int:
        return len(self.factor_dims)

    @property
    def is_segre(self) -> bool:
        return all(d == 1 for d in self.multidegree)

    def factor_monomial_counts(self) -> tuple:
        return tuple(math.comb(n + d, n)
                     for n, d in zip(self.factor_dims, self.multidegree))

    def to_json(self) -> dict:
        return {"dims": list(self.factor_dims),
                "degrees": list(self.multidegree),
                "field": str(self.field)}

    @classmethod
    def from_json(cls, data: dict) -> "MultiProjectiveSpace":
        try:
            return cls(tuple(data["dims"]), tuple(data["degrees"]),
                       FieldSpec.parse(data["field"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInput("bad space document: %s" % e)


def ambient_dim(space: MultiProjectiveSpace) -> int:
    """Projective dimension N of the embedding target: prod binom(n_i+d_i, n_i) - 1."""
    return math.prod(space.factor_monomial_counts()) - 1


@lru_cache(maxsize=None)
def monomial_exponents(n_vars: int, degree: int) -> tuple:
    """Exponent vectors of all degree-`degree` monomials in `n_vars`
    variables, leading variable first: (d,0,..) down to (0,..,d)."""
    if n_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomial_exponents(n_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def canonical_vector(field: FieldSpec, vec):
    """Scale so the first nonzero coordinate is 1; raises ZeroFactor."""
    p = field.modulus
    if p is None:
        vec = tuple(vec)
        if set(map(type, vec)) <= {int}:
            # an int vector: one Fraction per entry, divided by its lead
            lead = next((v for v in vec if v), None)
            if lead is None:
                raise ZeroFactor("zero vector has no projective class")
            return tuple([Fraction(v, lead) for v in vec])
        vec = tuple(v if type(v) is Fraction else Fraction(v) for v in vec)
    else:
        vec = tuple(v % p if type(v) is int else field.coerce(v)
                    for v in vec)
    lead = next((v for v in vec if v), None)
    if lead is None:
        raise ZeroFactor("zero vector has no projective class")
    if lead == 1:
        return vec
    if p is None:
        inv = 1 / lead
        return tuple(inv * v for v in vec)
    inv = pow(lead, -1, p)
    return tuple(inv * v % p for v in vec)


def _parse_vector(field: FieldSpec, data) -> list:
    """The scalars of a document's vector; a string, which would be read
    one character at a time, raises TypeError."""
    if isinstance(data, str):
        raise TypeError("a vector must be a list, got %r" % data)
    return [field.parse_scalar(s) for s in data]


@dataclass(frozen=True)
class MppPoint:
    """A point of a multiprojective space, one canonical vector per factor."""

    space: MultiProjectiveSpace
    coords: tuple

    @classmethod
    def of(cls, space: MultiProjectiveSpace, vectors) -> "MppPoint":
        vectors = tuple(tuple(v) for v in vectors)
        if len(vectors) != space.k:
            raise DimensionMismatch("expected %d factors, got %d"
                                    % (space.k, len(vectors)))
        canon = []
        for n, v in zip(space.factor_dims, vectors):
            if len(v) != n + 1:
                raise DimensionMismatch("factor vector length %d, want %d"
                                        % (len(v), n + 1))
            canon.append(canonical_vector(space.field, v))
        return cls(space, tuple(canon))

    def replace_factor(self, i: int, vector) -> "MppPoint":
        vector = tuple(vector)
        if len(vector) != self.space.factor_dims[i] + 1:
            raise DimensionMismatch("factor vector length %d, want %d"
                                    % (len(vector),
                                       self.space.factor_dims[i] + 1))
        vecs = list(self.coords)
        vecs[i] = canonical_vector(self.space.field, vector)
        return MppPoint(self.space, tuple(vecs))

    def to_json(self) -> list:
        f = self.space.field
        return [[f.format_scalar(v) for v in vec] for vec in self.coords]

    @classmethod
    def from_json(cls, space: MultiProjectiveSpace, data) -> "MppPoint":
        try:
            vecs = [_parse_vector(space.field, vec) for vec in data]
        except (TypeError, ValueError) as e:
            raise InvalidInput("bad point document: %s" % e)
        return cls.of(space, vecs)


@dataclass(frozen=True)
class Tensor:
    """A point of the ambient projective space, canonical scaling."""

    space: MultiProjectiveSpace
    coords: tuple

    @classmethod
    def of(cls, space: MultiProjectiveSpace, coords) -> "Tensor":
        coords = tuple(coords)
        want = ambient_dim(space) + 1
        if len(coords) != want:
            raise DimensionMismatch("tensor length %d, ambient wants %d"
                                    % (len(coords), want))
        return cls(space, canonical_vector(space.field, coords))

    def to_json(self) -> list:
        f = self.space.field
        return [f.format_scalar(v) for v in self.coords]

    @classmethod
    def from_json(cls, space: MultiProjectiveSpace, data) -> "Tensor":
        try:
            coords = _parse_vector(space.field, data)
        except (TypeError, ValueError) as e:
            raise InvalidInput("bad tensor document: %s" % e)
        return cls.of(space, coords)


def _evaluate_monomials(vec, degree: int):
    """Values of all degree-`degree` monomials at the int vector vec,
    embedding order, unreduced.  rows[d] lists the degree-d monomials in
    the variables seen so far, leading variable first; a new leading
    variable x puts x times rows[d - 1] before the monomials free of x,
    so each monomial of each degree costs one product."""
    if degree == 1:
        return vec
    rows = [[1]] + [[] for _ in range(degree)]
    for x in reversed(vec):
        for d in range(1, degree + 1):
            rows[d] = [x * m for m in rows[d - 1]] + rows[d]
    return rows[degree]


def factor_image(field: FieldSpec, y, deg: int):
    """(v, s): v = s v_deg(y') as plain ints, for v_deg the degree-deg
    Veronese map in embedding order and y' the canonical vector of y.
    Over Q, v = v_deg(g) and s = lead(g)^deg for g the integer vector of
    y (`exactlin.integer_row`), as g = lead(g) y'; for a canonical y, g
    clears its least common denominator d, and s = d^deg.  Over GF(p),
    y must be canonical: s = 1 and v holds ints congruent to v_deg(y),
    reduced by whoever uses them."""
    if field.modulus is None:
        g = integer_row(y)[0]
        return _evaluate_monomials(g, deg), next(x for x in g if x) ** deg
    return _evaluate_monomials(y, deg), 1


def fiber_map(space: MultiProjectiveSpace, point: MppPoint, i: int):
    """The map v -> S L(v), where L(v_e(y)) is the Segre-Veronese image
    of `point` with factor i replaced by y: the product of the Veronese
    images of point's other factors with v_e(y), nested left to right,
    and S is the product of those factors' `factor_image` scales.  L is
    linear and injective, and the map runs on plain ints.  Called on the
    ints v of `factor_image(field, y, e) = (v, s)` for a canonical y, it
    gives s S times `embed(space, point.replace_factor(i, y)).coords`:
    over GF(p) s S = 1, so that is the canonical column itself; over Q it
    is the integer image, whose first nonzero entry is s S, as the image
    of a canonical vector has leading entry 1 and so has a product of
    such images."""
    p = space.field.modulus
    left, right = [1], [1]
    for t, (vec, deg) in enumerate(zip(point.coords, space.multidegree)):
        if t == i:
            continue
        vals = factor_image(space.field, vec, deg)[0]
        if t < i:
            left = [c * x for c in left for x in vals]
        else:
            right = [c * x for c in right for x in vals]
    if p is None:
        def fiber(v):
            return tuple([c * x * r for c in left for x in v for r in right])
    else:
        left = [c % p for c in left]
        right = [c % p for c in right]

        def fiber(v):
            return tuple([c * x * r % p
                          for c in left for x in v for r in right])
    return fiber


def embed_image(space: MultiProjectiveSpace, point: MppPoint) -> tuple:
    """The column the library keeps for a point's embedding: the fiber map
    of its last factor applied to that factor's image.  Over GF(p) these
    are `embed`'s coordinates; over Q the integer image, `embed`'s
    coordinates times the image's first nonzero entry (its lead).  A point
    built directly, not through `MppPoint.of`, may have unscaled factors;
    over GF(p) its image is scaled by its own lead, so it is canonical all
    the same, and over Q its lead may be negative."""
    if point.space is not space and point.space != space:
        raise SpaceMismatch("point does not live on the given space")
    last = space.k - 1
    field = space.field
    col = fiber_map(space, point, last)(factor_image(
        field, point.coords[last], space.multidegree[last])[0])
    if field.modulus is not None and next((c for c in col if c), None) != 1:
        col = canonical_vector(field, col)
    return col


def canonical_column(field: FieldSpec, col) -> tuple:
    """The canonical coordinates of a stored column (`embed_image`): over
    GF(p) the column itself, over Q each entry divided by its lead."""
    if field.is_finite:
        return col
    lead = next(x for x in col if x)
    return tuple([Fraction(x, lead) for x in col])


def embed(space: MultiProjectiveSpace, point: MppPoint) -> Tensor:
    """Segre-Veronese embedding of a point: the canonical coordinates of
    its `embed_image`."""
    return Tensor(space, canonical_column(space.field,
                                          embed_image(space, point)))


def random_point(space: MultiProjectiveSpace, rng_seed=0,
                 box: int = DEFAULT_COORD_BOX) -> MppPoint:
    """Deterministic pseudo-random point.

    rng_seed: an int seed or a random.Random instance (shared streams let
    callers draw sequences).  Over GF(p) each factor class is uniform;
    over Q raw coordinates are uniform integers in [-box, box], nonzero
    vectors only, then canonicalized.
    """
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    field = space.field
    vecs = []
    for n in space.factor_dims:
        while True:
            v = [field.random_element(rng, box) for _ in range(n + 1)]
            if any(x != 0 for x in v):
                break
        vecs.append(v)
    return MppPoint.of(space, vecs)


def _projective_vectors(field: FieldSpec, n: int):
    """All canonical representatives of P^n(GF(p)), ascending lex order:
    the later the first nonzero coordinate, the earlier the vector."""
    return [(0,) * first + (1,) + tail
            for first in range(n, -1, -1)
            for tail in itertools.product(range(field.modulus),
                                          repeat=n - first)]


def enumerate_points(space: MultiProjectiveSpace):
    """All points of a finite-field space, deterministic lexicographic order
    (factor-major, each factor's canonical vectors ascending)."""
    if not space.field.is_finite:
        raise FieldNotFinite("point enumeration needs GF(p)")
    per_factor = [_projective_vectors(space.field, n)
                  for n in space.factor_dims]
    return [MppPoint(space, coords)
            for coords in itertools.product(*per_factor)]


def count_points(space: MultiProjectiveSpace) -> int:
    if not space.field.is_finite:
        raise FieldNotFinite("point counting needs GF(p)")
    p = space.field.modulus
    return math.prod((p ** (n + 1) - 1) // (p - 1) for n in space.factor_dims)


# -- linear subspaces of a product space --------------------------------


def substitution_columns(field: FieldSpec, basis, degree: int):
    """Columns through which the degree-d Veronese of a subspace factors.

    basis: raw vectors b_1..b_r spanning a subspace of K^{n+1}.  Returns
    one ambient column per degree-d monomial c^beta in r variables
    (embedding order): column beta holds, for every ambient monomial
    x^alpha, the coefficient of c^beta in (sum_j c_j b_j)^alpha.  So
    v_d(sum_j c_j b_j) = sum_beta c^beta * column_beta as a polynomial
    identity in c, over any field and any degree.  Each x^alpha is
    expanded one linear form x_i = sum_j c_j b_j[i] at a time, on raw
    values, and reduced into the field once at the end.  Over Q each b_j
    is first cleared to plain ints, B_j = den_j b_j
    (`exactlin.integer_row`); the expansion in the B_j gives column beta
    times prod_j den_j^beta_j, so column beta is divided by that product
    once.
    """
    r = len(basis)
    dens = [1] * r
    if not field.is_finite:
        basis, dens = zip(*(integer_row(b) for b in basis))
    # c^beta is keyed by sum_j beta_j B^j with B > degree, so multiplying
    # by c_j adds B^j to the key
    steps = [(degree + 1) ** j for j in range(r)]
    forms = [[(s, b[i]) for s, b in zip(steps, basis) if b[i]]
             for i in range(len(basis[0]))]
    polys = []
    for expo in monomial_exponents(len(basis[0]), degree):
        poly = {0: 1}
        for form, e in zip(forms, expo):
            for _ in range(e):
                prod = {}
                for key, c in poly.items():
                    for s, x in form:
                        prod[key + s] = prod.get(key + s, 0) + c * x
                poly = prod
        polys.append(poly)
    cols = []
    for beta in monomial_exponents(r, degree):
        key = sum(e * s for e, s in zip(beta, steps))
        if not field.is_finite:
            den = math.prod(d ** e for d, e in zip(dens, beta))
            cols.append(tuple(Fraction(poly.get(key, 0), den)
                              for poly in polys))
        else:
            cols.append(tuple(field.coerce(poly.get(key, 0))
                              for poly in polys))
    return cols


@dataclass(frozen=True)
class SubspaceSpec:
    """Per-factor linear subspaces of a product space.

    factor_bases: one tuple of independent raw vectors per factor; the
    represented sub-multiprojective space is the product of their spans.
    """

    space: MultiProjectiveSpace
    factor_bases: tuple

    @classmethod
    def of(cls, space: MultiProjectiveSpace, factor_bases) -> "SubspaceSpec":
        bases = []
        if len(tuple(factor_bases)) != space.k:
            raise DimensionMismatch("expected %d factor bases" % space.k)
        for n, basis in zip(space.factor_dims, factor_bases):
            basis = tuple(tuple(space.field.coerce(v) for v in b)
                          for b in basis)
            if not basis:
                raise InvalidInput("empty factor basis")
            for b in basis:
                if len(b) != n + 1:
                    raise DimensionMismatch("basis vector length %d, want %d"
                                            % (len(b), n + 1))
            if rank_rows(space.field, basis) != len(basis):
                raise InvalidInput("factor basis is dependent")
            bases.append(basis)
        return cls(space, tuple(bases))

    @classmethod
    def full(cls, space: MultiProjectiveSpace) -> "SubspaceSpec":
        bases = []
        for n in space.factor_dims:
            bases.append(tuple(tuple(space.field.one() if i == j
                                     else space.field.zero()
                                     for j in range(n + 1))
                               for i in range(n + 1)))
        return cls(space, tuple(bases))

    @property
    def dims(self) -> tuple:
        """Projective dimension of each factor subspace."""
        return tuple(len(b) - 1 for b in self.factor_bases)

    @property
    def is_full(self) -> bool:
        return self.dims == self.space.factor_dims

    def reduced_space(self) -> MultiProjectiveSpace:
        return MultiProjectiveSpace(self.dims, self.space.multidegree,
                                    self.space.field)

    def contains_point(self, p: MppPoint) -> bool:
        if p.space != self.space:
            raise SpaceMismatch("point on a different space")
        f = self.space.field
        for basis, vec in zip(self.factor_bases, p.coords):
            if rank_rows(f, list(basis) + [vec]) != len(basis):
                return False
        return True

    def lift_point(self, reduced: MppPoint) -> MppPoint:
        """Map a point of the reduced space through the factor bases
        (raw sums; `MppPoint.of` reduces them into the field)."""
        vecs = []
        for basis, rv in zip(self.factor_bases, reduced.coords):
            if len(rv) != len(basis):
                raise DimensionMismatch("reduced factor length mismatch")
            vecs.append([sum(c * b[i] for c, b in zip(rv, basis))
                         for i in range(len(basis[0]))])
        return MppPoint.of(self.space, vecs)

    def span_columns(self):
        """Columns spanning the embedded image's linear span in the ambient
        tensor space (Kronecker product of per-factor substitution columns)."""
        f = self.space.field
        per_factor = [substitution_columns(f, basis, d)
                      for basis, d in zip(self.factor_bases,
                                          self.space.multidegree)]
        cols = [(f.one(),)]
        for fac in per_factor:
            cols = [tuple(f.mul(cv, fv) for cv in col for fv in fcol)
                    for col in cols for fcol in fac]
        return cols

    def to_json(self) -> dict:
        f = self.space.field
        return {"space": self.space.to_json(),
                "bases": [[[f.format_scalar(v) for v in b] for b in basis]
                          for basis in self.factor_bases]}

    @classmethod
    def from_json(cls, data: dict) -> "SubspaceSpec":
        try:
            space = MultiProjectiveSpace.from_json(data["space"])
            bases = [[_parse_vector(space.field, b) for b in basis]
                     for basis in data["bases"]]
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInput("bad subspace document: %s" % e)
        return cls.of(space, bases)


def canonical_basis_rows(field: FieldSpec, rows):
    """RREF nonzero rows: a deterministic canonical basis of a row span."""
    red, pivots = rref(field, rows)
    return tuple(tuple(r) for r in red[:len(pivots)])
