"""Shared builders for the test suite."""
import random
from functools import lru_cache

from xrank.exactlin import FieldSpec, vec_add, vec_scale
from xrank.geometry import (MppPoint, MultiProjectiveSpace, Tensor, embed,
                            random_point)

QQ = FieldSpec.parse("QQ")


def gf(p):
    return FieldSpec(p)


def segre(dims, field=QQ):
    return MultiProjectiveSpace.segre(tuple(dims), field)


def veronese(n, d, field=QQ):
    return MultiProjectiveSpace.veronese(n, d, field)


def pt(space, *vecs):
    return MppPoint.of(space, list(vecs))


def lin_comb(space, points, coeffs=None):
    """Tensor with coordinates sum_i c_i * embed(points[i]); c_i default 1."""
    field = space.field
    if coeffs is None:
        coeffs = [1] * len(points)
    acc = None
    for c, p in zip(coeffs, points):
        term = vec_scale(field, field.coerce(c), embed(space, p).coords)
        acc = term if acc is None else vec_add(field, acc, term)
    return Tensor.of(space, acc)


def line_point(field, a, w, t):
    """The vector a + t w over field, unnormalized; a and w have equal
    length."""
    tv = field.coerce(t)
    p = field.modulus
    if p is None:
        return tuple(x + tv * y for x, y in zip(a, w))
    return tuple((x + tv * y) % p for x, y in zip(a, w))


@lru_cache(maxsize=None)
def monomial_exponents(n_vars, degree):
    """Exponent vectors of all degree-`degree` monomials in `n_vars`
    variables in the embedding's order, leading variable first: (d,0,..)
    down to (0,..,d).  The tests' own statement of that order, apart from
    `geometry`'s monomial evaluation."""
    if n_vars == 1:
        return ((degree,),)
    return tuple((e0,) + rest for e0 in range(degree, -1, -1)
                 for rest in monomial_exponents(n_vars - 1, degree - e0))


def field_embed(space, coords):
    """The Segre-Veronese image of the factor vectors `coords`, computed
    apart from `embed`: monomials and Kronecker product entry by entry
    through the field's own `mul`, then `Tensor.of` to canonicalise."""
    f = space.field
    out = [f.one()]
    for vec, d in zip(coords, space.multidegree):
        vals = []
        for expo in monomial_exponents(len(vec), d):
            acc = f.one()
            for x, e in zip(vec, expo):
                for _ in range(e):
                    acc = f.mul(acc, f.coerce(x))
            vals.append(acc)
        out = [f.mul(c, v) for c in out for v in vals]
    return Tensor.of(space, out)


def distinct_points(space, count, rng, box=9):
    """Pairwise distinct canonical points.  No independence promise."""
    seen, out = set(), []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 400 * count:
            raise RuntimeError("point sampling starved")
        p = random_point(space, rng_seed=rng.getrandbits(32), box=box)
        if p.coords not in seen:
            seen.add(p.coords)
            out.append(p)
    return out


def fresh_rng(seed):
    return random.Random(seed)
