"""Spaces, embeddings, point enumeration, and subspaces."""
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (QQ, field_embed, gf, line_point, monomial_exponents,
                      pt, segre, veronese)

from xrank import geometry
from xrank.errors import FieldNotFinite, InvalidInput, ZeroFactor
from xrank.exactlin import solve_columns
from xrank.geometry import (MppPoint, MultiProjectiveSpace, SubspaceSpec,
                            Tensor, ambient_dim, canonical_vector,
                            count_points, embed, enumerate_points,
                            random_point)


# -------------------------------------------------------------- ambient dim

def test_ambient_dim_three_qubits():
    assert ambient_dim(segre((1, 1, 1))) == 7


def test_ambient_dim_plane_quintic():
    assert ambient_dim(veronese(2, 5)) == 20


def test_ambient_dim_mixed_degree():
    sp = MultiProjectiveSpace((1, 2), (1, 2), QQ)
    assert ambient_dim(sp) == 11
    # cross-check against the per-factor monomial counts
    assert sp.factor_monomial_counts() == (2, 6)
    n = 1
    for c in sp.factor_monomial_counts():
        n *= c
    assert ambient_dim(sp) == n - 1


@pytest.mark.parametrize("dims,degs", [((1.5, 1), (1, 1)),
                                       ((1, 2.0), (1, 1)),
                                       ((1, 1), (True, 1)),
                                       (("2",), (1,))])
def test_space_sizes_must_be_integers(dims, degs):
    with pytest.raises(InvalidInput):
        MultiProjectiveSpace(dims, degs, QQ)


def test_space_sizes_take_any_integer_type():
    sp = MultiProjectiveSpace((np.int64(1), 2), (1, np.int32(3)), QQ)
    assert sp == MultiProjectiveSpace((1, 2), (1, 3), QQ)
    assert all(type(n) is int for n in sp.factor_dims + sp.multidegree)


def test_monomial_count_matches_enumeration():
    # the tests' copy of the monomial order: every degree-d monomial once,
    # in descending lex order, (d,0,..) first
    for nvars, d in [(2, 1), (2, 4), (3, 2), (4, 3)]:
        monos = monomial_exponents(nvars, d)
        assert len(set(monos)) == len(monos) == math.comb(nvars - 1 + d, d)
        assert all(sum(m) == d and len(m) == nvars for m in monos)
        assert list(monos) == sorted(monos, reverse=True)


# -------------------------------------------------------------------- embed

def test_embed_basis_pair():
    S = segre((1, 1))
    t = embed(S, pt(S, (1, 0), (1, 0)))
    assert t.coords == (1, 0, 0, 0)


def test_embed_outer_product_expansion():
    S = segre((1, 1))
    t = embed(S, pt(S, (1, 1), (1, 2)))
    assert t.coords == (1, 2, 1, 2)


def test_embed_veronese_square():
    V = veronese(1, 2)
    t = embed(V, pt(V, (1, 1)))
    assert t.coords == (1, 1, 1)


def test_embed_rejects_zero_factor():
    S = segre((1, 1))
    with pytest.raises(ZeroFactor):
        MppPoint.of(S, [(0, 0), (1, 0)])


def test_point_canonical_scaling():
    S = segre((1, 1))
    p = pt(S, (2, 4), (0, 3))
    assert p.coords == ((1, 2), (0, 1))


def test_projective_invariance_of_embed():
    """Scaling any factor vector leaves the embedded tensor unchanged."""
    rng = random.Random(3)
    for field in (QQ, gf(7)):
        sp = MultiProjectiveSpace((1, 2), (2, 1), field)
        for _ in range(20):
            p = random_point(sp, rng_seed=rng.getrandbits(32), box=8)
            base = embed(sp, p)
            scaled = []
            for vec in p.coords:
                while True:
                    c = field.random_element(rng, 8)
                    if c != field.zero():
                        break
                scaled.append(tuple(field.mul(c, x) for x in vec))
            q = MppPoint.of(sp, scaled)
            assert embed(sp, q) == base


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 1, 1)])
def test_segre_multilinearity(dims):
    """All-ones multidegree tensors equal the nested outer product."""
    rng = random.Random(sum(dims))
    sp = segre(dims)
    for _ in range(10):
        p = random_point(sp, rng_seed=rng.getrandbits(32), box=6)
        expect = []
        for idx in itertools.product(*(range(n + 1) for n in dims)):
            v = Fraction(1)
            for i, j in enumerate(idx):
                v *= p.coords[i][j]
            expect.append(v)
        assert embed(sp, p).coords == canonical_vector(QQ, expect)


# Segre, Veronese (degrees 2-4) and mixed shapes: (factor dims, degrees)
_EMBED_SHAPES = [((1, 1), (1, 1)), ((2, 3), (1, 1)), ((1, 1, 1), (1, 1, 1)),
                 ((1,), (2,)), ((2,), (3,)), ((3,), (4,)),
                 ((1, 2), (2, 1)), ((1, 1, 2), (3, 1, 2))]


@pytest.mark.parametrize("field,digest", [
    (QQ, "62a3384d4d2b90d037d60e98f6f1e81b0027080bd5b5ef4bfcabc6acc6481ed4"),
    (gf(2),
     "c06986f1a808a4fda9644796e9683fc05c2a328b342eac3d49f8798eba071257"),
    (gf(11),
     "89149ccbf695987df3d454bfba46d7942df8046541ccee3f944a81418d103117"),
], ids=str)
def test_embed_frozen_digests(field, digest):
    """Images of seeded points on every shape; the repr pins the values and
    their types (Fraction over Q, int over GF(p)).  Recorded before
    `embed` moved onto integer monomials."""
    rng = random.Random(5150)
    h = hashlib.sha256()
    for dims, degs in _EMBED_SHAPES:
        sp = MultiProjectiveSpace(dims, degs, field)
        for _ in range(20):
            p = random_point(sp, rng)
            h.update(repr(embed(sp, p).coords).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("field", [QQ, gf(2), gf(11)], ids=str)
def test_embed_of_non_canonical_point_is_canonical(field):
    """A point built directly, skipping `MppPoint.of`, may carry unscaled
    factors; its image is still the canonical one."""
    rng = random.Random(77)
    for dims, degs in _EMBED_SHAPES:
        sp = MultiProjectiveSpace(dims, degs, field)
        for _ in range(10):
            coords = []
            for n in dims:
                v = [field.random_element(rng, 9) for _ in range(n)]
                lead = field.random_element(rng, 9)
                while lead == 0:
                    lead = field.random_element(rng, 9)
                v.insert(rng.randrange(n + 1), lead)
                if not field.is_finite:
                    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    v = [c * x for x in v]
                coords.append(tuple(v))
            p = MppPoint(sp, tuple(coords))
            assert embed(sp, p) == field_embed(sp, coords)
            assert embed(sp, p) == embed(sp, MppPoint.of(sp, coords))


def _monomial_values(vec, degree):
    """Every degree-`degree` monomial at vec, one exponent vector at a
    time."""
    return [math.prod(x ** e for x, e in zip(vec, expo))
            for expo in monomial_exponents(len(vec), degree)]


def test_evaluate_monomials_one_product_per_monomial():
    rng = random.Random(61)
    pools = ([0], [-1, 0, 1], list(range(-9, 10)), [-10 ** 30, 7, 10 ** 30])
    for n_vars in range(1, 7):
        for degree in range(1, 7):
            for pool in pools:
                vec = [rng.choice(pool) for _ in range(n_vars)]
                got = geometry._evaluate_monomials(vec, degree)
                assert list(got) == _monomial_values(vec, degree)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_factor_image_over_q(degree):
    # on a canonical y: (v_e(d y), d^e), d the least common denominator
    # of y; on any nonzero rational multiple of y, v = s v_e(y) exactly
    rng = random.Random(degree)
    for _ in range(60):
        n = rng.randint(1, 4)
        y = [0]
        while not any(y):
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(n + 1)]
        y = canonical_vector(QQ, y)
        d = math.lcm(*(x.denominator for x in y))
        v, s = geometry.factor_image(QQ, y, degree)
        assert (list(v), s) == (_monomial_values([d * x for x in y], degree),
                                d ** degree)
        want = _monomial_values(y, degree)
        for c in (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                  rng.randint(-50, -1), rng.randint(2, 50)):
            v, s = geometry.factor_image(QQ, [c * x for x in y], degree)
            assert all(type(x) is int for x in v)
            assert list(v) == [s * m for m in want]


def test_canonical_vector_of_an_int_vector_over_q():
    # one Fraction per entry, the values of the general path
    rng = random.Random(8)
    for _ in range(300):
        v = [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
        if not any(v):
            with pytest.raises(ZeroFactor):
                canonical_vector(QQ, v)
            continue
        got = canonical_vector(QQ, v)
        assert all(type(x) is Fraction for x in got)
        assert got == canonical_vector(QQ, [Fraction(x) for x in v])
        assert next(x for x in got if x) == 1


# -------------------------------------------------------------- enumeration

def test_enumerate_projective_line_gf2():
    S = MultiProjectiveSpace((1,), (1,), gf(2))
    pts = enumerate_points(S)
    assert [p.coords[0] for p in pts] == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_counts():
    assert len(enumerate_points(MultiProjectiveSpace((2,), (1,), gf(2)))) == 7
    assert len(enumerate_points(segre((1, 1), gf(3)))) == 16
    assert len(enumerate_points(segre((1, 1, 1), gf(3)))) == 64
    # degree does not change the point count, only the embedding
    assert len(enumerate_points(veronese(2, 2, gf(3)))) == 13


def test_enumerate_matches_closed_form():
    for dims, p in [((1, 2), 3), ((2, 1), 5), ((1, 1, 1), 2)]:
        sp = segre(dims, gf(p))
        expect = 1
        for n in dims:
            expect *= (p ** (n + 1) - 1) // (p - 1)
        got = enumerate_points(sp)
        assert len(got) == expect == count_points(sp)
        assert len({q.coords for q in got}) == expect


def test_enumerate_is_ascending_lexicographic():
    for dims, p in [((1,), 2), ((3,), 2), ((2,), 3), ((1, 2), 3),
                    ((2, 1, 1), 2), ((1, 1), 5), ((2,), 5)]:
        coords = [q.coords for q in enumerate_points(segre(dims, gf(p)))]
        assert all(a < b for a, b in zip(coords, coords[1:])), (dims, p)


def test_enumerate_requires_finite_field():
    with pytest.raises(FieldNotFinite):
        enumerate_points(segre((1, 1)))
    with pytest.raises(FieldNotFinite):
        count_points(segre((1, 1)))


# -------------------------------------------------------------- line points

def test_line_point_frozen():
    assert line_point(QQ, (1, 0), (0, 1), QQ.coerce(1)) == (1, 1)
    assert line_point(QQ, (1, 0), (0, 1), QQ.coerce(0)) == (1, 0)


def test_line_point_membership_solve():
    u = line_point(QQ, (1, 0), (0, 1), QQ.coerce(1))
    v = line_point(QQ, (1, 0), (0, 1), QQ.coerce(-1))
    sol = solve_columns(QQ, [u, v], (1, 0))
    assert sol.independent
    assert list(sol.coefficients) == [Fraction(1, 2), Fraction(1, 2)]


# ------------------------------------------------------------ random points

def test_random_point_deterministic():
    sp = segre((1, 2), gf(11))
    assert random_point(sp, rng_seed=9) == random_point(sp, rng_seed=9)


def test_random_point_gf2_line_lands_on_the_three_points():
    sp = MultiProjectiveSpace((1,), (1,), gf(2))
    allowed = {(0, 1), (1, 0), (1, 1)}
    for seed in range(20):
        assert random_point(sp, rng_seed=seed).coords[0] in allowed


def test_random_point_rational_box_never_zero():
    sp = segre((1, 1))
    for seed in range(30):
        p = random_point(sp, rng_seed=seed, box=1)
        assert all(any(x != 0 for x in vec) for vec in p.coords)


# ---------------------------------------------------------------- subspaces

def test_subspace_membership_and_lift():
    S = segre((1, 2), gf(7))
    y = SubspaceSpec.of(S, [((1, 0), (0, 1)), ((1, 0, 0),)])
    assert y.dims == (1, 0)
    assert y.contains_point(pt(S, (1, 3), (1, 0, 0)))
    assert not y.contains_point(pt(S, (1, 3), (1, 1, 0)))
    small = y.reduced_space()
    assert small.factor_dims == (1, 0)
    inner = MppPoint.of(small, [(1, 5), (1,)])
    lifted = y.lift_point(inner)
    assert lifted.space is S and y.contains_point(lifted)


@pytest.mark.parametrize("field", [QQ, gf(3), gf(11)], ids=str)
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_subspace_span_columns_hold_every_lifted_point(field, degree):
    """lift_point puts every point of the reduced space inside Y, at
    every degree and also when the characteristic is at most the degree
    (GF(3), degrees 3 and 4)."""
    rng = random.Random(degree)
    for dims, degs, bases in (
            ((2,), (degree,), [((1, 1, 0), (0, 2, 1))]),
            ((1, 2), (1, degree), [((1, 0), (0, 1)), ((1, 1, 0),)]),
            ((1, 2), (degree, degree), [((1, 2),),
                                        ((1, 1, 0), (0, 1, 1))])):
        space = MultiProjectiveSpace(dims, degs, field)
        y = SubspaceSpec.of(space, bases)
        for _ in range(4):
            lifted = y.lift_point(random_point(y.reduced_space(), rng, 5))
            assert y.contains_point(lifted)


def test_full_subspace_is_full():
    S = segre((2, 1))
    f = SubspaceSpec.full(S)
    assert f.is_full and f.dims == (2, 1)


# --------------------------------------------------------------------- json

def test_space_json_round_trip():
    for sp in (segre((1, 1, 1), gf(5)), MultiProjectiveSpace((1, 2), (1, 2), QQ)):
        assert MultiProjectiveSpace.from_json(sp.to_json()) == sp


def test_point_and_tensor_json_round_trip():
    sp = MultiProjectiveSpace((1, 2), (2, 1), QQ)
    p = pt(sp, (1, -3), (2, 1, 0))
    assert MppPoint.from_json(sp, p.to_json()) == p
    t = embed(sp, p)
    assert Tensor.from_json(sp, t.to_json()) == t
    assert all(isinstance(s, str) for s in t.to_json())


def test_subspace_json_round_trip():
    sp = segre((1, 2), gf(7))
    y = SubspaceSpec.of(sp, [((1, 0),), ((1, 0, 0), (0, 1, 6))])
    back = SubspaceSpec.from_json(y.to_json())
    assert back == y and back.dims == (0, 1)
