"""The four constructive procedures: contracts, determinism, error paths."""
import hashlib
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import (QQ, field_embed, gf, lin_comb, line_point, pt, segre,
                      veronese)

from xrank import construct, decomp, geometry
from xrank.construct import (ConstructionConfig, concise_plus_m, escape,
                             plus_one, sv_extend, veronese_extend)
from xrank.decomp import (Decomposition, fiber_condition, set_envelope,
                          verify_irredundant)
from xrank.exactlin import Echelon, in_span, rank_rows, solve_columns
from xrank.errors import (BadM, DegenerateSpace, FieldNotFinite, FieldTooSmall,
                          InvalidInput, MinimalityNotCertified, NotConcise,
                          NotContainedInY, NotIrredundantInput, NotVeronese,
                          TargetTooSmall, UnsupportedDegree, YEqualsW)
from xrank.geometry import (MppPoint, MultiProjectiveSpace, SubspaceSpec,
                            Tensor, canonical_vector, embed, random_point)
from xrank.oracle import brute_rank, ground_set

E0, E1 = (1, 0), (0, 1)


def _diag(field=QQ):
    S = segre((1, 1), field)
    A = [pt(S, E0, E0), pt(S, E1, E1)]
    return Decomposition(S, A, Tensor.of(S, (1, 0, 0, 1)))


# ----------------------------------------------------------------- plus_one

def test_plus_one_on_rank_one_point():
    S = segre((1, 1))
    a = pt(S, E0, E0)
    out = plus_one(Decomposition(S, [a], embed(S, a)),
                   ConstructionConfig(rng_seed=1))
    assert len(out.points) == 2
    assert verify_irredundant(out).irredundant
    # the two fresh points live in one fiber through a
    u, v = out.points
    assert sum(1 for i in range(2) if u.coords[i] != v.coords[i]) == 1


def test_plus_one_on_diagonal_pair():
    out = plus_one(_diag(), ConstructionConfig(rng_seed=5))
    assert len(out.points) == 3
    assert verify_irredundant(out).irredundant
    assert out.provenance["construction"] == "plus_one"
    assert out.provenance["retries_used"] == 0


def test_plus_one_output_always_breaks_the_fiber_condition():
    for seed in range(20):
        out = plus_one(_diag(), ConstructionConfig(rng_seed=seed))
        assert not fiber_condition(out).holds


def test_plus_one_deterministic():
    a = plus_one(_diag(), ConstructionConfig(rng_seed=12))
    b = plus_one(_diag(), ConstructionConfig(rng_seed=12))
    assert a.points == b.points and a.provenance == b.provenance


def test_plus_one_over_gf11():
    d = _diag(gf(11))
    out = plus_one(d, ConstructionConfig(rng_seed=3))
    assert len(out.points) == 3
    assert verify_irredundant(out).irredundant


def _assert_stored_columns(out):
    """A construction's stored columns are its points' images: bit for
    bit `geometry.embed_image` (over Q plain ints, at its scale), and
    over either field their canonical view equals fresh embeddings."""
    if not out.space.field.is_finite:
        assert all(type(x) is int for col in out.images for x in col)
    assert out.images == [geometry.embed_image(out.space, p)
                          for p in out.points]
    assert out.embedded_columns == [field_embed(out.space, p.coords).coords
                                    for p in out.points]


def test_plus_one_columns_match_fresh_embeddings():
    S = segre((1, 1, 1), gf(5))
    q = Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 0))  # W: rank 3, 225 witnesses
    for seed, w in enumerate(brute_rank(q).witnesses[:40]):
        _assert_stored_columns(plus_one(w, ConstructionConfig(rng_seed=seed)))
    rng = random.Random(55)
    for dims in ((1, 1), (2, 1), (1, 1, 1)):
        S = segre(dims)
        made = 0
        while made < 4:
            d = _irredundant_sum(S, rng, rng.randint(1, 2),
                                 lambda: random_point(S, rng, 5),
                                 lambda: rng.randint(1, 5))
            if d is not None:
                _assert_stored_columns(
                    plus_one(d, ConstructionConfig(rng_seed=made)))
                made += 1


def _assert_report_is_a_fresh_solve(out):
    """plus_one proves its output's report; it must equal, field by
    field, the report of a fresh exact solve of the same points."""
    fresh = verify_irredundant(Decomposition(out.space, out.points,
                                             out.target))
    assert fresh.irredundant
    assert verify_irredundant(out) == fresh


@pytest.mark.parametrize("coords, count", [
    ((0, 1, 1, 0, 1, 0, 0, 2), 2640),  # non-square hyperdeterminant
    ((0, 1, 1, 0, 1, 0, 0, 0), 3751),  # W
], ids=["nonsquare", "W"])
def test_plus_one_proved_reports_on_every_rank_3_witness_over_gf11(coords,
                                                                   count):
    S = segre((1, 1, 1), gf(11))
    wits = brute_rank(Tensor.of(S, coords), budget=10 ** 9).witnesses
    assert len(wits) == count
    for seed, w in enumerate(wits):
        _assert_report_is_a_fresh_solve(
            plus_one(w, ConstructionConfig(rng_seed=seed)))


def test_plus_one_draws_its_line_off_the_input_span():
    # a and b share the fiber P^2 x {e0} through a, so U meets its span
    # in a plane, and a line through a drawn in that plane would lie in
    # U.  plus_one draws the line's direction off that plane, so in one
    # draw the first new column lies outside U
    S = segre((2, 1), gf(3))
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    A = [pt(S, e[0], E0), pt(S, e[1], E0), pt(S, e[2], E1)]
    d = Decomposition(S, A, lin_comb(S, A))
    span = Echelon(S.field, [field_embed(S, p.coords).coords for p in A])
    for seed in range(20):
        out = plus_one(d, ConstructionConfig(rng_seed=seed))
        _assert_report_is_a_fresh_solve(out)
        assert (out.provenance["replaced_point"], out.provenance["factor"],
                out.provenance["retries_used"]) == (0, 0, 0)
        first_new = out.points[len(A) - 1]
        assert not span.contains(field_embed(S, first_new.coords).coords)


def _membership_tests_after_the_draw(monkeypatch, d, seed):
    """plus_one's output on d and the number of `Echelon.contains` calls
    it makes after its draw of a line direction has returned."""
    events = []

    def contains(*args):
        events.append("contains")
        return real_contains(*args)

    def draw(*args):
        out = real_draw(*args)
        events.append("drawn")
        return out

    real_contains = Echelon.contains
    real_draw = construct._draw_vector_off_span
    monkeypatch.setattr(Echelon, "contains", contains)
    monkeypatch.setattr(construct, "_draw_vector_off_span", draw)
    out = plus_one(d, ConstructionConfig(rng_seed=seed))
    monkeypatch.undo()
    assert events.count("drawn") == 1
    return out, events[events.index("drawn"):].count("contains")


def test_plus_one_tests_no_membership_after_the_draw(monkeypatch):
    # the draw proves _proved_move's condition 2, on P^1 and P^2 factors
    # alike, so no membership test follows it
    f = gf(11)
    w_target = Tensor.of(segre((1, 1, 1), f), (0, 1, 1, 0, 1, 0, 0, 0))
    rank2 = Tensor.of(segre((1, 1), f), (3, 1, 4, 1))
    p1_inputs = (list(brute_rank(w_target, budget=10 ** 9).witnesses[::50])
                 + list(brute_rank(rank2).witnesses[::10])
                 + [_diag(), _diag(f), _diag(gf(2))])
    for seed, w in enumerate(p1_inputs):
        out, tests = _membership_tests_after_the_draw(monkeypatch, w, seed)
        _assert_report_is_a_fresh_solve(out)
        assert tests == 0
    S = segre((2, 1), f)
    for seed in range(5):
        a = random_point(S, seed)
        d = Decomposition(S, [a], embed(S, a))
        out, tests = _membership_tests_after_the_draw(monkeypatch, d, seed)
        _assert_report_is_a_fresh_solve(out)
        assert out.provenance["factor"] == 0 and tests == 0


def _random_canonical(field, rng, length):
    """A random canonical vector; over Q its entries are non-integer
    fractions more often than not."""
    while True:
        if field.is_finite:
            v = [rng.randrange(field.modulus) for _ in range(length)]
        else:
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(length)]
        if any(v):
            return canonical_vector(field, v)


@pytest.mark.parametrize("field", [gf(2), gf(11), gf(2 ** 61 - 1), QQ],
                         ids=["GF2", "GF11", "GF61bit", "QQ"])
@pytest.mark.parametrize("dims, degrees", [
    ((1, 1, 1), (1, 1, 1)), ((2, 1), (1, 1)), ((1, 2, 1), (1, 1, 1)),
    ((2,), (1,)), ((2,), (3,)), ((1, 2), (2, 1)), ((1, 1, 2), (1, 3, 2)),
], ids=["P1P1P1", "P2P1", "P1P2P1", "P2", "V3P2", "P1P2_21", "P1P1P2_132"])
def test_fiber_map_equals_embed_of_the_replaced_point(field, dims, degrees):
    # (2,) has no factor left or right of the one replaced; field_embed
    # computes the image apart from fiber_map, which embed runs through
    S = MultiProjectiveSpace(dims, degrees, field)
    rng = random.Random("%s %s %s" % (dims, degrees, field))
    for _ in range(6):
        point = MppPoint.of(S, [_random_canonical(field, rng, n + 1)
                                for n in dims])
        for i, (n, deg) in enumerate(zip(dims, degrees)):
            fiber = geometry.fiber_map(S, point, i)
            # S: the product of the scales of the factors it multiplies out
            scale = 1
            for t, (vec, e) in enumerate(zip(point.coords, degrees)):
                if t != i:
                    scale *= geometry.factor_image(field, vec, e)[1]
            for _ in range(4):
                y = _random_canonical(field, rng, n + 1)
                v, s = geometry.factor_image(field, y, deg)
                image = fiber(v)
                want = field_embed(S, point.replace_factor(i, y).coords)
                assert all(type(x) is int for x in image)
                if field.is_finite:
                    assert image == want.coords
                else:
                    # the integer image: the canonical column times its
                    # lead, the product of the scales cleared
                    lead = next(x for x in image if x)
                    assert lead == s * scale
                    assert tuple(Fraction(x, lead)
                                 for x in image) == want.coords


def _on_ray(field, r):
    """Membership test of the span <r> of one nonzero vector, with no
    elimination: v lies on it iff v r[s] = v[s] r at an entry s with
    r[s] != 0.  It is the draw test that plus_one makes on a P^1 factor,
    where the draw's span K is a's ray."""
    s = next(j for j, x in enumerate(r) if x)
    rs, p = r[s], field.modulus
    if p is None:
        return lambda v: all(x * rs == v[s] * y for x, y in zip(v, r))
    return lambda v: all((x * rs - v[s] * y) % p == 0 for x, y in zip(v, r))


def _meets_condition_2(d, ai, i, vecs):
    """`_proved_move`'s condition 2, apart from construct's code: the
    fresh embeddings of the first k-1 new points are independent modulo
    the span of d's.  For k = 2 it is plus_one's test."""
    space = d.space
    span = Echelon(space.field, [field_embed(space, p.coords).coords
                                 for p in d.points])
    a = d.points[ai]
    return all(span.insert(field_embed(space,
                                       a.replace_factor(i, g).coords).coords)
               for g in vecs[:-1])


def _solved_gamma(field, deg, a_vec, vecs):
    """`_proved_move`'s condition 1 by an exact solve, apart from the line
    draw: the coefficients of v_e(a) in the v_e(g) for the canonical a
    and g, solved on `geometry.factor_image`'s images and rescaled by
    their scales, or None unless the images are independent and every
    coefficient is nonzero."""
    images = [geometry.factor_image(field, g, deg) for g in vecs]
    target, s_a = geometry.factor_image(field, a_vec, deg)
    sol = solve_columns(field, [v for v, _ in images], target)
    gamma = sol.coefficients
    if not (sol.independent and gamma is not None and all(gamma)):
        return None
    if field.modulus is None:
        return [g * s / s_a for g, (_, s) in zip(gamma, images)]
    return list(gamma)


@pytest.mark.parametrize("field", [gf(3), gf(5), QQ], ids=str)
def test_proved_move_accepts_exactly_what_verification_accepts(field):
    # moves of a = point 0 in factor 0 of P3 x P1, where b = point 1
    # shares a's fiber, so the fiber meets U in <x_a, x_b>.  The new
    # vectors g_1 .. g_(k-1) are drawn among a_0, b_0, a_0 + c b_0 and
    # random vectors, so their columns may lie in U, and
    # g_k = a_0 - sum_t lam_t g_t with lam_t at times 0, so a_0 lies in
    # the span of the g_t.  Condition 1, solved here, and condition 2,
    # which every construction proves from its draws, must together hold
    # exactly when a fresh verification accepts, and then the proof's
    # candidate is the verified one.  Line moves through a_0, in the
    # direction of b_0, a_0 + c b_0 or a random vector, take gamma off
    # the line, so they meet condition 1 and are accepted exactly when
    # they meet condition 2.  Over GF(p) the move takes canonical
    # vectors; over Q it gets them unscaled
    S = segre((3, 1), field)
    F = field
    rng = random.Random(str(field))

    def combo(x, c, y):
        return tuple(F.add(s, F.mul(F.coerce(c), t)) for s, t in zip(x, y))

    def check(d, report, vecs, gamma):
        """(accepted, in U): whether a fresh verification accepts the
        move of vecs, asserting that it does exactly when gamma (None
        where condition 1 fails) is given and the move meets condition
        2, and that the proof's candidate is then the verified one; and
        whether gamma is given though a new column lies in U."""
        A = list(d.points)
        pts = A[1:] + [A[0].replace_factor(0, g) for g in vecs]
        fresh = None
        if len(set(pts)) == len(pts):
            fresh = verify_irredundant(Decomposition(S, pts, d.target))
        accepted = fresh is not None and fresh.irredundant
        condition_2 = _meets_condition_2(d, 0, 0, vecs)
        assert (gamma is not None and condition_2) == accepted
        if accepted:
            cand = construct._proved_move(
                d, report, 0, 0, geometry.fiber_map(S, A[0], 0), vecs,
                gamma, {})
            assert list(cand.points) == pts
            assert verify_irredundant(cand) == fresh
            assert cand.embedded_columns == [
                field_embed(S, p.coords).coords for p in pts]
        return accepted, gamma is not None and not condition_2

    seen = {True: 0, False: 0}
    lines = {True: 0, False: 0}
    in_u = 0
    while min(seen.values()) < 40 or min(lines.values()) < 10:
        A = [pt(S, _random_canonical(F, rng, 4), E0) for _ in range(2)]
        A.append(pt(S, _random_canonical(F, rng, 4), E1))
        if len(set(A)) < 3:
            continue  # distinct a_0, b_0: the x_j are independent
        d = Decomposition(S, A, lin_comb(S, A, [rng.choice([1, 2])
                                                for _ in A]))
        report = verify_irredundant(d)
        a0, b0 = A[0].coords[0], A[1].coords[0]

        def draw():
            return rng.choice([a0, b0, combo(a0, rng.randint(1, 4), b0),
                               _random_canonical(F, rng, 4)])

        gs = [draw() for _ in range(rng.randint(1, 3))]
        last = a0
        for g in gs:
            last = combo(last, -rng.choice([0, 1, rng.randint(1, 4)]), g)
        if not any(last):
            continue
        vecs = gs + [last]
        if F.is_finite:
            vecs = [canonical_vector(F, g) for g in vecs]
        accepted, passes_in_u = check(d, report, vecs,
                                      _solved_gamma(F, 1, a0, vecs))
        seen[accepted] += 1
        in_u += passes_in_u
        w = draw()
        if _on_ray(F, a0)(w):
            continue
        pair, gamma = construct._line_candidates(F, rng, a0, w, 1)
        assert gamma == _solved_gamma(F, 1, a0, pair)
        lines[check(d, report, pair, gamma)[0]] += 1
    # some candidates pass the solve with a new column in U
    assert in_u


@pytest.mark.parametrize("field", [QQ, gf(5)], ids=["QQ", "GF5"])
def test_plus_one_on_a_middle_factor_fiber(field):
    # the fiber at point 0, factor 0, is spanned by the two input points,
    # so the first escaping fiber is (point 0, factor 1): the fiber map
    # has a factor on either side of the one replaced
    S = segre((1, 1, 1), field)
    A = [pt(S, E0, E0, E0), pt(S, E1, E0, E0)]
    d = Decomposition(S, A, lin_comb(S, A))
    for seed in range(10):
        out = plus_one(d, ConstructionConfig(rng_seed=seed))
        assert (out.provenance["replaced_point"],
                out.provenance["factor"]) == (0, 1)
        assert out.embedded_columns == [field_embed(S, p.coords).coords
                                        for p in out.points]
        _assert_report_is_a_fresh_solve(out)


def _assert_proved_and_distinct(out):
    _assert_report_is_a_fresh_solve(out)
    _assert_stored_columns(out)
    assert len(set(p.coords for p in out.points)) == len(out.points)


def test_plus_one_on_every_minimal_decomposition_over_gf2():
    # every nonzero 2x2x2 tensor over GF(2) is its own class; each of its
    # minimal decompositions grows, though a P^1 over GF(2) has 3 points
    S = segre((1, 1, 1), gf(2))
    classes = grown = 0
    for coords in itertools.product((0, 1), repeat=8):
        if not any(coords):
            continue
        classes += 1
        for seed, w in enumerate(brute_rank(Tensor.of(S, coords)).witnesses):
            _assert_proved_and_distinct(
                plus_one(w, ConstructionConfig(rng_seed=seed)))
            grown += 1
    assert (classes, grown) == (255, 873)


def test_plus_one_on_every_minimal_decomposition_of_w_over_gf3():
    """Over GF(3) a P^1 has 4 points.  Three minimal decompositions of W
    take 3 of them in every factor, so a fiber line (all of P^1) through
    one of their points meets the other two; plus_one still grows them,
    as it grows the other 36."""
    S = segre((1, 1, 1), gf(3))
    q = Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 0))
    wits = brute_rank(q).witnesses
    assert len(wits) == 39
    crowded = [w for w in wits
               if all(len({p.coords[i] for p in w.points}) == 3
                      for i in range(3))]
    assert len(crowded) == 3
    for w in wits:
        for seed in range(5):
            _assert_proved_and_distinct(
                plus_one(w, ConstructionConfig(rng_seed=seed)))


def test_plus_one_rejects_redundant_input():
    S = segre((1, 1))
    A = [pt(S, E0, E0), pt(S, E1, E1)]
    d = Decomposition(S, A, Tensor.of(S, (1, 0, 0, 0)))
    with pytest.raises(NotIrredundantInput):
        plus_one(d)


def test_plus_one_rejects_degenerate_space():
    Z = segre((0, 0))
    p = MppPoint.of(Z, [(1,), (1,)])
    with pytest.raises(DegenerateSpace):
        plus_one(Decomposition(Z, [p], embed(Z, p)))


def test_plus_one_rejects_veronese():
    V = veronese(1, 2)
    p = pt(V, (1, 1))
    with pytest.raises(UnsupportedDegree):
        plus_one(Decomposition(V, [p], embed(V, p)))


def test_plus_one_chains_with_verification():
    """Iterating on non-minimal inputs is best-effort but always verified."""
    S = segre((1, 1, 1))
    A = [pt(S, E0, E0, E0), pt(S, E1, E1, E1)]
    cur = Decomposition(S, A, lin_comb(S, A))
    for step in range(3):
        cur = plus_one(cur, ConstructionConfig(rng_seed=step))
        assert verify_irredundant(cur).irredundant
    assert len(cur.points) == 5


def test_plus_one_stops_when_the_span_is_everything():
    """Once the embedded set spans the ambient space no fiber can escape."""
    from xrank.errors import NoEscapingFiber
    cur = _diag()
    cur = plus_one(cur, ConstructionConfig(rng_seed=0))
    cur = plus_one(cur, ConstructionConfig(rng_seed=0))
    assert len(cur.points) == 4
    with pytest.raises(NoEscapingFiber):
        plus_one(cur, ConstructionConfig(rng_seed=0))


# ------------------------------------------------------------------- escape

def _slice_instance(field=QQ):
    S = segre((1, 1), field)
    y = SubspaceSpec.of(S, [(E0, E1), (E0,)])
    a = pt(S, (1, 1), E0)
    d = Decomposition(S, [a], embed(S, a))
    return S, y, d


def test_escape_leaves_the_subspace():
    S, y, d = _slice_instance()
    out = escape(d, y, ConstructionConfig(rng_seed=3))
    assert len(out.points) == 2
    assert verify_irredundant(out).irredundant
    assert any(not y.contains_point(p) for p in out.points)
    assert out.provenance["construction"] == "escape"


def test_escape_over_gf7():
    S, y, d = _slice_instance(gf(7))
    out = escape(d, y, ConstructionConfig(rng_seed=8))
    assert len(out.points) == 2
    assert any(not y.contains_point(p) for p in out.points)


def test_escape_deterministic():
    S, y, d = _slice_instance()
    a = escape(d, y, ConstructionConfig(rng_seed=21))
    b = escape(d, y, ConstructionConfig(rng_seed=21))
    assert a.points == b.points


def test_escape_rejects_target_off_the_subspace():
    # the point check refuses it: an irredundant input whose points lie in
    # Y has its target in the span of Y's image
    S = segre((1, 1))
    y = SubspaceSpec.of(S, [(E0, E1), (E0,)])
    d = Decomposition(S, [pt(S, E1, E1)], Tensor.of(S, (0, 0, 0, 1)))
    with pytest.raises(NotContainedInY):
        escape(d, y)


def test_escape_rejects_full_subspace():
    S = segre((1, 1))
    p = pt(S, E0, E0)
    with pytest.raises(YEqualsW):
        escape(Decomposition(S, [p], embed(S, p)), SubspaceSpec.full(S))


# ----------------------------------------------------------- concise_plus_m

def _slice_pair(field=QQ):
    W = segre((1, 2), field)
    o = (1, 0, 0)
    A = [pt(W, E0, o), pt(W, E1, o)]
    return W, Decomposition(W, A, lin_comb(W, A))


def test_concise_plus_m_fills_the_new_factor():
    W, d = _slice_pair()
    out = concise_plus_m(d, 2, ConstructionConfig(rng_seed=9))
    assert len(out.points) == 4
    assert verify_irredundant(out).irredundant
    assert set_envelope(W, out.points).is_full


def test_concise_plus_m_rank_one_needs_point_base():
    # the retained factors must already be spanned, so a rank-1 target
    # lives on a degenerate first factor
    W0 = segre((0, 2))
    o = (1, 0, 0)
    a = MppPoint.of(W0, [(1,), o])
    out = concise_plus_m(Decomposition(W0, [a], embed(W0, a)), 2,
                         ConstructionConfig(rng_seed=4))
    assert len(out.points) == 3
    assert set_envelope(W0, out.points).dims == (0, 2)


def test_concise_plus_m_rejects_deficient_retained_envelope():
    W = segre((1, 2))
    o = (1, 0, 0)
    a = pt(W, E0, o)
    with pytest.raises(NotConcise):
        concise_plus_m(Decomposition(W, [a], embed(W, a)), 2)


def test_concise_plus_m_rejects_bad_m():
    W, d = _slice_pair()
    with pytest.raises(BadM):
        concise_plus_m(d, 1)
    with pytest.raises(BadM):
        concise_plus_m(d, 3)


def test_concise_plus_m_needs_shared_base_point():
    W = segre((1, 2))
    A = [pt(W, E0, (1, 0, 0)), pt(W, E1, (0, 1, 0))]
    d = Decomposition(W, A, lin_comb(W, A))
    with pytest.raises(InvalidInput):
        concise_plus_m(d, 2)


def test_concise_plus_m_over_gf5():
    W, d = _slice_pair(gf(5))
    out = concise_plus_m(d, 2, ConstructionConfig(rng_seed=2))
    assert len(out.points) == 4
    assert set_envelope(W, out.points).is_full


def _passes_the_draw_filter(field, cs, o):
    """The filter that concise_plus_m once ran on blind draws, kept as a
    reference for condition 1: c_0..c_m of full rank, and o off the span
    of every m of them."""
    return rank_rows(field, cs) == len(cs) and not any(
        in_span(field, cs[:drop] + cs[drop + 1:], o)
        for drop in range(len(cs)))


@pytest.mark.parametrize("dims", [(1, 2), (1, 3)], ids=["P1xP2", "P1xP3"])
def test_concise_plus_m_grows_every_seed_over_gf2(dims):
    # blind draws over GF(2) passed the filter with probability 24/343
    # (m = 2) and 1344/50625 (m = 3), so 64 attempts refused some seeds;
    # the completion of o passes it on the first draw
    field = gf(2)
    W = segre(dims, field)
    m = dims[-1]
    o = (1,) + (0,) * m
    A = [pt(W, E0, o), pt(W, E1, o)]
    d = Decomposition(W, A, lin_comb(W, A))
    for seed in range(400):
        out = concise_plus_m(d, m, ConstructionConfig(rng_seed=seed))
        _assert_proved_and_distinct(out)
        assert set_envelope(W, out.points).is_full
        assert out.provenance["retries_used"] == 0
        cs = [p.coords[-1] for p in out.points[len(A) - 1:]]
        assert len(cs) == m + 1
        assert _passes_the_draw_filter(field, cs, o)


# --------------------------------------------------------- certify_minimal

def _certified_cases():
    """(construction, input) pairs over GF(3) whose oracle rank, inside Y
    for `escape` and inside Y' x {o} for `concise_plus_m`, is the input's
    cardinality."""
    S, y, d = _slice_instance(gf(3))
    W = segre((1, 1, 2), gf(3))
    o = (1, 1, 0)
    A = [pt(W, E0, E0, o), pt(W, E1, E1, o)]
    return [(plus_one, _diag(gf(3))),
            (lambda d, cfg, **kw: escape(d, y, cfg, **kw), d),
            (lambda d, cfg, **kw: concise_plus_m(d, 2, cfg, **kw),
             Decomposition(W, A, lin_comb(W, A)))]


@pytest.mark.parametrize("case", range(3),
                         ids=["plus_one", "escape", "concise_plus_m"])
def test_certify_minimal_records_the_oracle_certificate(case):
    # the oracle certifies the input; the output is the uncertified one's,
    # and its provenance says it was certified
    build, d = _certified_cases()[case]
    cfg = ConstructionConfig(rng_seed=1)
    out = build(d, cfg, certify_minimal=True)
    assert out.provenance["certified_minimal"] is True
    plain = build(d, cfg)
    assert plain.provenance["certified_minimal"] is False
    assert out.points == plain.points


def test_certify_minimal_refuses_a_redundant_cardinality():
    # (1,0)x(1,0) + (1,1)x(1,0) = (2,1)x(1,0): irredundant, but the
    # target has rank 1, so the pair is not minimal
    S = segre((1, 1), gf(3))
    A = [pt(S, E0, E0), pt(S, (1, 1), E0)]
    d = Decomposition(S, A, lin_comb(S, A))
    assert verify_irredundant(d).irredundant
    with pytest.raises(MinimalityNotCertified):
        plus_one(d, certify_minimal=True)


def test_certify_minimal_needs_a_finite_field():
    with pytest.raises(FieldNotFinite):
        plus_one(_diag(), certify_minimal=True)


# ---------------------------------------------------------- veronese_extend

def test_veronese_extend_line_to_plane_degree_two():
    V = veronese(2, 2)
    A = [pt(V, (1, 0, 0)), pt(V, (0, 1, 0))]
    d = Decomposition(V, A, lin_comb(V, A))
    out = veronese_extend(d, 2, ConstructionConfig(rng_seed=11))
    assert len(out.points) == 4
    assert verify_irredundant(out).irredundant
    assert set_envelope(V, out.points).dims == (2,)


def test_veronese_extend_line_to_plane_degree_three():
    V = veronese(2, 3)
    A = [pt(V, (1, 0, 0)), pt(V, (0, 1, 0))]
    d = Decomposition(V, A, lin_comb(V, A))
    out = veronese_extend(d, 2, ConstructionConfig(rng_seed=7))
    assert len(out.points) == 5
    assert set_envelope(V, out.points).dims == (2,)


def test_veronese_extend_zero_steps():
    V = veronese(2, 2)
    A = [pt(V, (1, 0, 0)), pt(V, (0, 1, 0))]
    d = Decomposition(V, A, lin_comb(V, A))
    out = veronese_extend(d, 1, ConstructionConfig(rng_seed=1))
    assert out.points == d.points
    assert out.provenance["steps"] == []


def test_veronese_extend_two_steps_from_a_point():
    V = veronese(2, 2)
    a = pt(V, (1, 0, 0))
    d = Decomposition(V, [a], embed(V, a))
    out = veronese_extend(d, 2, ConstructionConfig(rng_seed=11))
    assert len(out.points) == 5  # 1 + 2 steps of d new points each
    assert len(out.provenance["steps"]) == 2
    assert set_envelope(V, out.points).dims == (2,)


def test_veronese_extend_deterministic():
    V = veronese(2, 2)
    a = pt(V, (1, 0, 0))
    d = Decomposition(V, [a], embed(V, a))
    one = veronese_extend(d, 2, ConstructionConfig(rng_seed=6))
    two = veronese_extend(d, 2, ConstructionConfig(rng_seed=6))
    assert one.points == two.points


def test_veronese_extend_rejects_segre():
    with pytest.raises(NotVeronese):
        veronese_extend(_diag(), 1)


def test_veronese_extend_rejects_small_target():
    V = veronese(2, 2)
    A = [pt(V, (1, 0, 0)), pt(V, (0, 1, 0))]
    d = Decomposition(V, A, lin_comb(V, A))
    with pytest.raises(TargetTooSmall):
        veronese_extend(d, 0)


def test_veronese_extend_needs_enough_line_points():
    V = veronese(2, 2, gf(2))
    a = pt(V, (1, 0, 0))
    with pytest.raises(FieldTooSmall):
        veronese_extend(Decomposition(V, [a], embed(V, a)), 1)


def test_veronese_extend_with_no_step_needs_no_line_points():
    # target_n = 0 is the input's own span: no line is drawn, so GF(2)'s
    # two points per line refuse nothing, as over Q
    V = veronese(2, 2, gf(2))
    a = pt(V, (1, 0, 0))
    d = Decomposition(V, [a], embed(V, a))
    out = veronese_extend(d, 0)
    assert out.points == d.points
    assert out.provenance["steps"] == []


def test_veronese_extend_works_over_gf5_degree_four():
    # p = d + 1 exactly: the line has just enough points
    V = veronese(1, 4, gf(5))
    a = pt(V, (1, 0))
    out = veronese_extend(Decomposition(V, [a], embed(V, a)), 1,
                          ConstructionConfig(rng_seed=3))
    assert len(out.points) == 5
    assert set_envelope(V, out.points).dims == (1,)


# ---------------------------------------------------------------- sv_extend

_V22 = veronese(2, 2)
_SV12 = MultiProjectiveSpace((1, 1), (1, 2), QQ)
_S111 = segre((1, 1, 1))


@pytest.mark.parametrize("space, A, run", [
    (_V22, [pt(_V22, (1, 0, 0)), pt(_V22, (0, 1, 0))],
     lambda d: veronese_extend(d, 2, ConstructionConfig(rng_seed=11))),
    (_SV12, [pt(_SV12, E0, E0), pt(_SV12, E1, E0)],
     lambda d: sv_extend(d, ConstructionConfig(rng_seed=2))),
    (_S111, [pt(_S111, E0, E0, E0), pt(_S111, E1, E1, E0)],
     lambda d: sv_extend(d, ConstructionConfig(rng_seed=2))),
], ids=["veronese_extend", "sv_line_steps", "sv_escape"])
def test_wrappers_keep_the_proved_reports(monkeypatch, space, A, run):
    # each line step proves its report from the one before, and the last
    # step's output is returned as it is: the only solve of a
    # decomposition's report is the input's, and the output's report
    # needs no solve; sv_escape has a last factor of degree one
    d = Decomposition(space, A, lin_comb(space, A))
    calls = _count_solves(monkeypatch)
    out = run(d)
    assert calls == [(len(A), len(d.target.coords))]
    calls.clear()
    assert verify_irredundant(out).irredundant
    assert calls == []
    _assert_report_is_a_fresh_solve(out)


def _spy_line_step_work(monkeypatch):
    """Row widths of every `Echelon` that construct builds, and a list
    of its `set_envelope` calls."""
    widths, envelopes = [], []

    def echelon(field, rows=()):
        rows = list(rows)
        widths.append(len(rows[0]))
        return Echelon(field, rows)

    def envelope(*args):
        envelopes.append(args)
        return set_envelope(*args)

    monkeypatch.setattr(construct, "Echelon", echelon)
    monkeypatch.setattr(construct, "set_envelope", envelope)
    return widths, envelopes


_SV22 = MultiProjectiveSpace((1, 2), (1, 2), QQ)


@pytest.mark.parametrize("space, A, run", [
    (_V22, [pt(_V22, (1, 0, 0))],
     lambda d: veronese_extend(d, 2, ConstructionConfig(rng_seed=4))),
    (_SV22, [pt(_SV22, E0, (1, 0, 0)), pt(_SV22, E1, (1, 0, 0))],
     lambda d: sv_extend(d, ConstructionConfig(rng_seed=2))),
], ids=["veronese_extend", "sv_line_steps"])
def test_line_steps_work_at_factor_length(monkeypatch, space, A, run):
    # two line steps: construct's one `Echelon` is the factor span F, of
    # the factor vectors' width, so no step inserts or tests a tensor
    # column; the input's report is the only solve, as each candidate's
    # coefficients are read off its line, and no envelope is recomputed
    d = Decomposition(space, A, lin_comb(space, A))
    widths, envelopes = _spy_line_step_work(monkeypatch)
    calls = _count_solves(monkeypatch)
    out = run(d)
    assert len(out.provenance["steps"]) == 2
    assert set(widths) == {space.factor_dims[-1] + 1}
    assert envelopes == []
    assert calls == [(len(A), len(d.target.coords))]


def _same_span(field, span, cols):
    """Whether the `Echelon` span is the span of the columns."""
    return (span.rank == Echelon(field, cols).rank
            and all(span.contains(c) for c in cols))


@pytest.mark.parametrize("field", [QQ, gf(5), gf(11)], ids=str)
def test_line_steps_carry_their_spans(monkeypatch, field):
    # every step starts from the factor span F of its input's vectors and
    # hands the next the span of its output's; F and the factor envelope
    # grow by exactly one, and the proved report is the one a fresh solve
    # gives.  A step is a `_line_move` that `_line_steps` makes, drawing
    # off F: on_span is F's `Echelon.contains`, and w joins F after it, so
    # F after a step is checked as the next step's F before it, and after
    # the last step against the output.
    real = construct._line_move
    seen, last = [], []

    def carried(f_span, d, factor):
        assert _same_span(field, f_span, [p.coords[factor]
                                          for p in d.points])

    def move(d, report, ai, factor, fiber, on_span, rng, prov):
        assert sys._getframe(1).f_code.co_name == "_line_steps"
        f_span = on_span.__self__
        dim = set_envelope(d.space, d.points).dims[factor]
        carried(f_span, d, factor)
        assert f_span.rank == dim + 1
        out, w = real(d, report, ai, factor, fiber, on_span, rng, prov)
        assert set_envelope(d.space, out.points).dims[factor] == dim + 1
        _assert_stored_columns(out)
        _assert_report_is_a_fresh_solve(out)
        seen.append(d.space.multidegree[factor])
        last[:] = [f_span, factor]
        return out, w

    monkeypatch.setattr(construct, "_line_move", move)
    rng = random.Random(str(field))

    def coeff():
        return rng.randint(1, 4)

    def made(build):
        while True:
            d = build()
            if d is not None:
                return d

    for seed in range(3):
        cfg = ConstructionConfig(rng_seed=seed)
        for n, deg, r in ((3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 3, 2)):
            V = veronese(n, deg, field)
            d = made(lambda: _irredundant_sum(
                V, rng, r, lambda: random_point(V, rng, 5), coeff))
            out = veronese_extend(d, n, cfg)
            carried(last[0], out, last[1])   # F after the last step
            assert set_envelope(V, out.points).dims == (n,)
        SV = MultiProjectiveSpace((1, 2), (1, 2), field)
        d = made(lambda: _sliced_sum(SV, rng, 2, (1, 0, 0), coeff))
        out = sv_extend(d, cfg)
        carried(last[0], out, last[1])
        assert set_envelope(SV, out.points).dims[-1] == 2
    assert sorted(seen) == [1] * 15 + [2] * 12 + [3] * 3


@pytest.mark.parametrize("degree", [1, 2])
def test_sv_extend_rejects_a_point_last_factor(monkeypatch, degree):
    # on P1 x P0 the slice Y' x {o} is the whole space, in any degree;
    # the refusal comes before any solve
    S = MultiProjectiveSpace((1, 0), (1, degree), QQ)
    A = [pt(S, E0, (1,)), pt(S, E1, (1,))]
    d = Decomposition(S, A, lin_comb(S, A))
    calls = _count_solves(monkeypatch)
    with pytest.raises(YEqualsW):
        sv_extend(d)
    assert calls == []


def test_sv_extend_degree_two_line_steps():
    SV = MultiProjectiveSpace((1, 1), (1, 2), QQ)
    o = E0
    A = [pt(SV, E0, o), pt(SV, E1, o)]
    d = Decomposition(SV, A, lin_comb(SV, A))
    out = sv_extend(d, ConstructionConfig(rng_seed=2))
    assert len(out.points) == 4  # rho + e * m = 2 + 2
    assert verify_irredundant(out).irredundant
    assert set_envelope(SV, out.points).dims[-1] == 1


@pytest.mark.parametrize("field", [QQ, gf(3), gf(11)], ids=str)
def test_sv_extend_with_a_non_coordinate_base_point(field):
    SV = MultiProjectiveSpace((1, 2), (1, 2), field)
    o = (1, 1, 0)
    A = [pt(SV, E0, o), pt(SV, E1, o)]
    d = Decomposition(SV, A, lin_comb(SV, A))
    out = sv_extend(d, ConstructionConfig(rng_seed=4))
    assert len(out.points) == 2 + 2 * 2  # rho + e * m
    assert verify_irredundant(out).irredundant
    assert set_envelope(SV, out.points).dims[-1] == 2


def test_sv_extend_rejects_spread_out_input():
    # points off a common last-factor slice cannot define Y x {o}
    SV = MultiProjectiveSpace((1, 1), (1, 2), QQ)
    A = [pt(SV, E0, E0), pt(SV, E1, E1)]
    d = Decomposition(SV, A, lin_comb(SV, A))
    with pytest.raises(InvalidInput):
        sv_extend(d)


def test_sv_extend_deterministic():
    SV = MultiProjectiveSpace((1, 1), (1, 2), QQ)
    A = [pt(SV, E0, E0), pt(SV, E1, E0)]
    d = Decomposition(SV, A, lin_comb(SV, A))
    runs = [sv_extend(d, ConstructionConfig(rng_seed=13)) for _ in range(2)]
    assert runs[0].points == runs[1].points


# ------------------------------------------------------------------- solves

def _count_solves(monkeypatch):
    """A list that records (number of columns, target length) for every
    `solve_columns` call that decomp makes; construct has no solve."""
    assert not hasattr(construct, "solve_columns")
    calls = []

    def counting(*args, solve=decomp.solve_columns):
        calls.append((len(args[1]), len(args[2])))
        return solve(*args)

    monkeypatch.setattr(decomp, "solve_columns", counting)
    return calls


def test_plus_one_solves_an_oracle_witness_once(monkeypatch):
    # the witness carries the oracle's report, so it is never solved
    # again, and the candidate's coefficients are read off its line, so
    # plus_one makes no solve; a fresh copy of the witness costs one,
    # for its input
    S = segre((1, 1), gf(11))
    w = brute_rank(Tensor.of(S, (1, 0, 0, 1))).witnesses[0]
    calls = _count_solves(monkeypatch)
    out = plus_one(w)
    assert out.provenance["retries_used"] == 0
    assert calls == []
    again = plus_one(Decomposition(S, w.points, w.target))
    assert calls == [(2, 4)]
    assert again.points == out.points
    assert verify_irredundant(out).irredundant


_S11 = segre((1, 1))
_S12 = segre((1, 2))


@pytest.mark.parametrize("space, A, run", [
    (_S11, [pt(_S11, (1, 1), E0)],
     lambda d: escape(d, SubspaceSpec.of(_S11, [(E0, E1), (E0,)]),
                      ConstructionConfig(rng_seed=3))),
    (_S12, [pt(_S12, E0, (1, 0, 0)), pt(_S12, E1, (1, 0, 0))],
     lambda d: concise_plus_m(d, 2, ConstructionConfig(rng_seed=9))),
    (_S12, [pt(_S12, E0, (1, 1, 0)), pt(_S12, E1, (1, 1, 0))],
     lambda d: sv_extend(d, ConstructionConfig(rng_seed=2))),
    (_SV12, [pt(_SV12, E0, E0), pt(_SV12, E1, E0)],
     lambda d: sv_extend(d, ConstructionConfig(rng_seed=2))),
], ids=["escape", "concise_plus_m", "sv_extend_degree_1",
        "sv_extend_degree_2"])
def test_moves_in_y_solve_only_the_input_at_tensor_length(
        monkeypatch, space, A, run):
    # the input checks place the target in the span of Y's image, so the
    # one solve is the input's report; a line move reads its coefficients
    # off the line, and concise_plus_m off the leads of its completion
    d = Decomposition(space, A, lin_comb(space, A))
    calls = _count_solves(monkeypatch)
    run(d)
    assert calls == [(len(A), len(d.target.coords))]


def test_plus_one_embeds_nothing(monkeypatch):
    # the escape scan and the two new columns go through the fiber map
    S = segre((1, 1, 1), gf(11))
    wits = brute_rank(Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 2)),
                      budget=10 ** 9).witnesses
    embeds = []

    def spy(fn):
        def wrapped(*args):
            embeds.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(geometry, "embed", spy(geometry.embed))
    monkeypatch.setattr(geometry, "embed_image", spy(geometry.embed_image))
    monkeypatch.setattr(decomp, "embed_image", spy(decomp.embed_image))
    for seed, w in enumerate(wits[:20]):
        out = plus_one(w, ConstructionConfig(rng_seed=seed))
        assert len(out.points) == 4
    assert embeds == []


def test_json_round_trip_keeps_provenance():
    out = plus_one(_diag(), ConstructionConfig(rng_seed=5))
    back = Decomposition.from_json(out.to_json())
    assert back == out and back.provenance == out.provenance


# ------------------------------------------------- line draws by index

def _listed_line(field, a_vec, w_vec):
    """The p points of the line through a and w other than a, listed."""
    return ([line_point(field, a_vec, w_vec, t)
             for t in range(1, field.modulus)] + [tuple(w_vec)])


class _ZeroRng:
    """A stream whose every draw is 0, so every random vector is zero."""

    def randrange(self, *args):
        return 0

    def randint(self, *args):
        return 0


@pytest.mark.parametrize("field", [gf(2), gf(11), QQ], ids=str)
def test_draw_falls_back_to_the_first_unit_vector_off_the_span(field):
    # once the random draws are spent, the first unit vector off a proper
    # subspace is returned, so the draw never fails
    unit = [tuple(int(t == j) for t in range(3)) for j in range(3)]
    for rows, want in (([], 0), ([unit[0]], 1), ([unit[0], unit[1]], 2),
                       ([(1, 1, 0), (0, 0, 1)], 0), ([(0, 1, 1)], 0),
                       ([(1, 0, 0), (0, 1, 1)], 1)):
        span = Echelon(field, rows)
        got = construct._draw_vector_off_span(field, _ZeroRng(), 3,
                                              span.contains)
        assert got == unit[want] and not span.contains(got)


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_line_draws_by_index_match_the_listed_draws(p):
    # the index draws return the listed draws' points, canonical, and
    # leave the stream in the same state, so every seeded output stays
    # the same
    F = gf(p)
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        a = _random_canonical(F, rng, n)
        w = construct._draw_vector_off_span(F, rng, n, _on_ray(F, a))
        old, new = random.Random(seed), random.Random(seed)
        count = 1 + seed % min(p, 3)
        want = [canonical_vector(F, v)
                for v in old.sample(_listed_line(F, a, w), count)]
        got = construct._line_candidates(F, new, a, w, count - 1)[0]
        assert got == want
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("count", [2, 7, 100, 101, 150])
def test_line_candidates_over_q(count):
    # primitive integer vectors with a positive lead, on the line and off
    # a; up to 100 points the parameters are sampled from the box
    # [-50, 50], and from count 101 on from [-ceil(count/2), ceil(count/2)]
    for seed in range(5):
        rng = random.Random(seed)
        a = _random_canonical(QQ, rng, 3)
        w = construct._draw_vector_off_span(QQ, rng, 3, _on_ray(QQ, a))
        old, new = random.Random(seed), random.Random(seed)
        box = max(50, -(-count // 2))
        ts = old.sample([t for t in range(-box, box + 1) if t], count)
        got, gamma = construct._line_candidates(QQ, new, a, w, count - 1)
        assert new.getstate() == old.getstate()
        assert len(gamma) == count and all(gamma)
        assert [canonical_vector(QQ, g) for g in got] == [
            canonical_vector(QQ, line_point(QQ, a, w, t)) for t in ts]
        assert len(set(got)) == count
        for g in got:
            assert all(type(x) is int for x in g)
            assert next(x for x in g if x) > 0
            assert math.gcd(*g) == 1


@pytest.mark.parametrize("field", [gf(2), gf(3), gf(5), gf(11), QQ],
                         ids=str)
def test_line_coefficients_are_the_solved_coefficients(field):
    # the gamma read off the line equal the exact solve of v_e(a) in the
    # new points' images, rescaled to canonical points, in every degree
    # the field's lines allow up to 6; over GF(p) the draws come with and
    # without w itself (index p - 1), over GF(2) always with it
    p = field.modulus
    with_w = {True: 0, False: 0}
    for deg in range(1, 7 if p is None else min(p - 1, 6) + 1):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            a = _random_canonical(field, rng, n)
            w = construct._draw_vector_off_span(field, rng, n,
                                                _on_ray(field, a))
            vecs, gamma = construct._line_candidates(field, rng, a, w, deg)
            assert len(set(vecs)) == deg + 1
            assert all(gamma)
            assert gamma == _solved_gamma(field, deg, a, vecs)
            if p is not None:
                with_w[canonical_vector(field, w) in vecs] += 1
    if p is not None:
        assert with_w[True] and (p == 2) == (with_w[False] == 0)


_P61 = 2 ** 61 - 1  # the Mersenne prime 2305843009213693951


def test_constructions_over_a_61_bit_prime_end_in_bounded_time():
    # no construction lists the p points of a line
    F = gf(_P61)
    start = time.perf_counter()
    out = plus_one(_diag(F), ConstructionConfig(rng_seed=1))
    assert len(out.points) == 3 and verify_irredundant(out).irredundant
    S, y, d = _slice_instance(F)
    out = escape(d, y, ConstructionConfig(rng_seed=2))
    assert len(out.points) == 2
    assert any(not y.contains_point(p) for p in out.points)
    V = veronese(2, 2, F)
    A = [pt(V, (1, 0, 0)), pt(V, (0, 1, 0))]
    out = veronese_extend(Decomposition(V, A, lin_comb(V, A)), 2,
                          ConstructionConfig(rng_seed=3))
    assert len(out.points) == 4 and verify_irredundant(out).irredundant
    assert set_envelope(V, out.points).dims == (2,)
    assert time.perf_counter() - start < 10


# ------------------------------------------------------- frozen outputs

def _digest(outputs):
    h = hashlib.sha256()
    for d in outputs:
        h.update(json.dumps(d.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _irredundant_sum(space, rng, r, draw_point, coeff):
    """A random r-point irredundant decomposition, or None."""
    pts = [draw_point() for _ in range(r)]
    if len(set(p.coords for p in pts)) != r:
        return None
    f = space.field
    acc = [f.zero()] * (len(embed(space, pts[0]).coords))
    for p in pts:
        c = f.coerce(coeff())
        acc = [f.add(a, f.mul(c, x)) for a, x in zip(acc, embed(space, p).coords)]
    if not any(acc):
        return None
    d = Decomposition(space, pts, Tensor.of(space, acc))
    return d if verify_irredundant(d).irredundant else None


def test_plus_one_frozen_outputs_gf11():
    """Seeded plus_one outputs (points, target and provenance) on oracle
    witnesses of P1xP1 targets and on random P1xP1xP1 decompositions over
    GF(11).  The digest pins the arithmetic and the order of random draws;
    it was re-recorded when plus_one stopped drawing its line points
    around the input's points (16 of the 26 outputs changed, each with the
    same replaced point and factor)."""
    f = gf(11)
    rng = random.Random(4242)
    outs = []
    S = segre((1, 1), f)
    for _ in range(3):
        q = Tensor.of(S, [rng.randrange(1, 11) for _ in range(4)])
        wits = brute_rank(q).witnesses
        for i, w in enumerate(wits[::max(1, len(wits) // 6)][:6]):
            outs.append(plus_one(w, ConstructionConfig(rng_seed=i)))
    S = segre((1, 1, 1), f)
    made = 0
    while made < 8:
        d = _irredundant_sum(S, rng, 2 + made % 2,
                             lambda: random_point(S, rng),
                             lambda: rng.randrange(1, 11))
        if d is None:
            continue
        outs.append(plus_one(d, ConstructionConfig(rng_seed=made)))
        made += 1
    assert len(outs) == 26
    for out in outs:
        _assert_report_is_a_fresh_solve(out)
    assert _digest(outs) == (
        "2168553b287ff609b62af07ab8280bf696a0ee2e4050477cb2f5970794b861a1")


def test_plus_one_frozen_outputs_rationals():
    rng = random.Random(777)
    outs = []
    for dims in ((1, 1), (2, 2), (1, 1, 1), (2, 2, 2)):
        S = segre(dims)
        made = 0
        while made < 3:
            r = rng.randint(1, min(dims) + 1)
            d = _irredundant_sum(S, rng, r,
                                 lambda: random_point(S, rng, 5),
                                 lambda: rng.randint(1, 5))
            if d is None:
                continue
            outs.append(plus_one(d, ConstructionConfig(rng_seed=made)))
            made += 1
    assert len(outs) == 12
    for out in outs:
        _assert_report_is_a_fresh_solve(out)
    assert _digest(outs) == (
        "a4dfaf091bd8b62fc9aaa543f72aff24b28574db5a6f9ae92107b321be4801b4")


def test_plus_one_frozen_outputs_of_the_growth_mix():
    """plus_one on every minimal witness of a GF(11) W target on P1xP1xP1
    and of a rank-2 P1xP1 target, witness i with seed base + i as the
    growth benchmark seeds them.  The digest covers each output's
    document, its report's values and its stored columns; it was
    recorded before plus_one's GF(p) move was cut down to its proof."""
    f = gf(11)
    h = hashlib.sha256()
    count = 0
    for dims, coords, base, want in (
            ((1, 1, 1), (0, 1, 1, 0, 1, 0, 0, 0), 618033988, 3751),
            ((1, 1), (3, 1, 4, 1), 141421356, 66)):
        S = segre(dims, f)
        wits = brute_rank(Tensor.of(S, coords), budget=10 ** 9).witnesses
        assert len(wits) == want
        for i, w in enumerate(wits):
            out = plus_one(w, ConstructionConfig(rng_seed=base + i),
                           assert_minimal=True)
            h.update(json.dumps(
                [out.to_json(), list(verify_irredundant(out).values),
                 [list(c) for c in out.images]], sort_keys=True).encode())
            count += 1
    assert count == 3817
    assert h.hexdigest() == (
        "5fd320bf57449c42864b3b388ca60e1898f741de7177ccaef74b4bb21570891d")


def _sliced_sum(space, rng, r, o, coeff):
    """A random r-point irredundant decomposition on Y' x {o}: every point
    carries the last-factor vector o (None when the draw fails)."""
    last = space.k - 1
    return _irredundant_sum(
        space, rng, r,
        lambda: random_point(space, rng, 5).replace_factor(last, o), coeff)


def _frozen_cases(field):
    """Seeded outputs of escape, concise_plus_m, veronese_extend and
    sv_extend over one field, in a fixed order."""
    p = field.modulus
    rng = random.Random(9090 + (p or 0))

    def coeff():
        return rng.randrange(1, p) if p else rng.randint(1, 5)

    def made(build, count):
        outs = []
        while len(outs) < count:
            d = build()
            if d is not None:
                outs.append(d)
        return outs

    outs = []
    # escape: from inside Y = P1 x {o} and Y = <b0, b1> x P1
    S = segre((1, 1), field)
    y = SubspaceSpec.of(S, [(E0, E1), ((1, 1),)])
    for i, d in enumerate(made(lambda: _sliced_sum(
            S, rng, rng.randint(1, 2), (1, 1), coeff), 2)):
        outs.append(escape(d, y, ConstructionConfig(rng_seed=i)))
    S = segre((2, 1), field)
    y = SubspaceSpec.of(S, [((1, 0, 1), (0, 1, 2)), (E0, E1)])
    red = y.reduced_space()
    for i, d in enumerate(made(lambda: _irredundant_sum(
            S, rng, 2, lambda: y.lift_point(random_point(red, rng, 5)),
            coeff), 3)):
        outs.append(escape(d, y, ConstructionConfig(rng_seed=i),
                           assert_minimal=i == 1))
    # concise_plus_m: Y' x {o} with Y' = P1 and Y' = P2, m = 2
    for dims, r in (((1, 2), 2), ((2, 2), 3)):
        W = segre(dims, field)
        for i, d in enumerate(made(lambda: _sliced_sum(
                W, rng, r, (1, 0, 1), coeff), 2)):
            if set_envelope(W, d.points).dims[:-1] != dims[:-1]:
                continue
            outs.append(concise_plus_m(d, 2, ConstructionConfig(rng_seed=i)))
    # veronese_extend: a point or a line of P2 up to P2, degrees 2 and 3
    for deg, r in ((2, 1), (2, 2), (3, 2)):
        V = veronese(2, deg, field)
        for i, d in enumerate(made(lambda: _irredundant_sum(
                V, rng, r, lambda: random_point(V, rng, 5), coeff), 2)):
            if set_envelope(V, d.points).dims[0] != r - 1:
                continue
            outs.append(veronese_extend(d, 2, ConstructionConfig(rng_seed=i)))
    # sv_extend: last factors of degree 1 and 2
    for space in (segre((1, 1), field), segre((2, 1), field),
                  MultiProjectiveSpace((1, 1), (1, 2), field),
                  MultiProjectiveSpace((1, 2), (1, 2), field)):
        o = (1,) + (0,) * space.factor_dims[-1]
        for i, d in enumerate(made(lambda: _sliced_sum(
                space, rng, 2, o, coeff), 2)):
            outs.append(sv_extend(d, ConstructionConfig(rng_seed=i)))
    return outs


def _frozen_outputs_of(field, concise):
    """The frozen cases of concise_plus_m (concise True) or of escape,
    veronese_extend and sv_extend (concise False)."""
    return [out for out in _frozen_cases(field)
            if (out.provenance["construction"] == "concise_plus_m")
            == concise]


@pytest.mark.parametrize("field, count, digest", [
    (QQ, 19,
     "76ae746ae20d286607a0c33d37d7caac5c988b9fdc0931b904178e58cbfd5406"),
    (gf(11), 19,
     "d05f03296a2c836e8c463411f99835f2e9c5db0385549ff2279c333f6f6e9661"),
], ids=["QQ", "GF(11)"])
def test_other_constructions_frozen_outputs(field, count, digest):
    """Seeded outputs of escape, veronese_extend and sv_extend, points,
    target and provenance; recorded before their input checks and
    line-step loops were shared between them, re-recorded when sv_extend
    ran line steps for every last-factor degree (only the provenance of
    its degree-one outputs changed), and split from concise_plus_m's
    outputs with no output changed."""
    outs = _frozen_outputs_of(field, concise=False)
    for out in outs:
        assert verify_irredundant(out).irredundant
        if out.provenance["construction"] == "sv_extend":
            m = out.space.factor_dims[-1]
            assert len(out.provenance["steps"]) == m
            assert set_envelope(out.space, out.points).dims[-1] == m
    assert (len(outs), _digest(outs)) == (count, digest)


@pytest.mark.parametrize("field, digest", [
    (QQ, "00b64484d33f3b0f112d9f8735fb6979a336f0cbbdda5a242354fc62c536ef56"),
    (gf(11),
     "18b6e905b32dc2539f7f8877040335a4cd6dff79b96d4370fcafc9ff2bfecdff"),
], ids=["QQ", "GF(11)"])
def test_concise_plus_m_frozen_outputs(field, digest):
    """Seeded concise_plus_m outputs of the frozen cases, points, target
    and provenance; re-recorded when concise_plus_m stopped filtering
    blind draws and completed o instead (every output changed, as the
    draw did)."""
    outs = _frozen_outputs_of(field, concise=True)
    for out in outs:
        assert set_envelope(out.space, out.points).is_full
    assert (len(outs), _digest(outs)) == (4, digest)


@pytest.mark.parametrize("field", [QQ, gf(11)], ids=["QQ", "GF(11)"])
def test_other_constructions_prove_their_reports(field):
    # plus_one's banks check the same in their frozen-output tests
    for out in _frozen_cases(field):
        _assert_report_is_a_fresh_solve(out)
        _assert_stored_columns(out)


# ------------------------------------------ contract sweeps over small fields
#
# Each construction's docstring proves what its output satisfies, and no
# construction tests it again; these sweeps run the constructions over
# GF(2) and GF(3), where degenerate draws are common, and check it.

def _minimal_in(ysub, seed, targets=16, per_target=8):
    """Seeded minimal decompositions inside Y: of `targets` random nonzero
    tensors in the span of Y's embedded points (an echelon basis of the
    oracle's ground set of Y), at most `per_target` witnesses each,
    spread over the oracle's list."""
    space = ysub.space
    p = space.field.modulus
    span = Echelon(space.field)
    basis = [c for c in ground_set(space, ysub).columns if span.insert(c)]
    rng = random.Random(seed)
    out = []
    for _ in range(targets):
        cs = [0]
        while not any(cs):
            cs = [rng.randrange(p) for _ in basis]
        q = Tensor.of(space, [sum(c * col[i] for c, col in zip(cs, basis)) % p
                              for i in range(len(basis[0]))])
        wits = brute_rank(q, within=ysub).witnesses
        out += wits[::-(-len(wits) // per_target)]
    return out


def _assert_target_in_span_of(ysub, d):
    # escape and the slice constructions no longer solve this: their input
    # checks imply it (escape's docstring); d's points are GF(p) points of
    # Y, so its target lies in the span of Y's ground set, which lies in
    # the span of Y's image
    assert ground_set(ysub.space, ysub).span.contains(d.target.coords)


def _slice(space, o):
    """Y' x {o}, Y' the full retained factors."""
    last = space.k - 1
    return SubspaceSpec.of(
        space, SubspaceSpec.full(space).factor_bases[:last] + ((o,),))


_I2, _I3 = (E0, E1), ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("field", [gf(2), gf(3)], ids=str)
@pytest.mark.parametrize("dims, bases", [
    ((1, 1, 1), (_I2, _I2, ((1, 1),))),
    ((1, 1, 1), (((0, 1),), _I2, _I2)),
    ((1, 2), (_I2, ((1, 0, 1), (0, 1, 0)))),
    ((1, 2), (((1, 1),), _I3)),
    ((2, 2), (((1, 0, 0), (0, 1, 1)), _I3)),
    ((2, 2), (_I3, ((1, 1, 0),))),
], ids=["P1xP1xP1-o", "P1xP1xP1-point", "P1xP2-line", "P1xP2-point",
        "P2xP2-line", "P2xP2-o"])
def test_escape_sweep(field, dims, bases):
    space = segre(dims, field)
    ysub = SubspaceSpec.of(space, bases)
    for seed, d in enumerate(_minimal_in(ysub, seed=len(dims) + sum(dims))):
        _assert_target_in_span_of(ysub, d)
        out = escape(d, ysub, ConstructionConfig(rng_seed=seed))
        _assert_proved_and_distinct(out)
        assert len(out.points) == len(d.points) + 1
        assert all(not ysub.contains_point(p)
                   for p in out.points if p not in d.points)


@pytest.mark.parametrize("field", [gf(2), gf(3)], ids=str)
def test_concise_plus_m_sweep(field):
    space = segre((1, 1, 2), field)
    grown = 0
    for o in ((1, 0, 0), (1, 1, 1), (0, 1, 1)):
        ysub = _slice(space, o)
        for seed, d in enumerate(_minimal_in(ysub, seed=sum(o))):
            if set_envelope(space, d.points).dims[:2] != (1, 1):
                continue
            _assert_target_in_span_of(ysub, d)
            out = concise_plus_m(d, 2, ConstructionConfig(rng_seed=seed))
            _assert_proved_and_distinct(out)
            assert len(out.points) == len(d.points) + 2
            assert set_envelope(space, out.points).is_full
            grown += 1
    assert grown


@pytest.mark.parametrize("n, degree, field", [
    (3, 1, gf(2)), (2, 2, gf(3)), (2, 3, gf(5)), (2, 4, gf(5)),
], ids=["P3-deg1-GF(2)", "P2-deg2-GF(3)", "P2-deg3-GF(5)", "P2-deg4-GF(5)"])
def test_veronese_extend_sweep(n, degree, field):
    # single points and pairs, grown to all of P^n; in degree 4 over GF(5)
    # a line step takes every point of its line but the base point
    V = veronese(n, degree, field)
    rng = random.Random(n * degree)
    done = 0
    while done < 60:
        r = 1 + done % 2
        d = _irredundant_sum(V, rng, r, lambda: random_point(V, rng),
                             lambda: rng.randrange(1, field.modulus))
        if d is None or set_envelope(V, d.points).dims != (r - 1,):
            continue
        out = veronese_extend(d, n, ConstructionConfig(rng_seed=done))
        _assert_proved_and_distinct(out)
        assert len(out.points) == r + degree * (n - r + 1)
        assert set_envelope(V, out.points).dims == (n,)
        done += 1


@pytest.mark.parametrize("dims, degrees, field", [
    ((1, 1), (1, 1), gf(2)),
    ((1, 2), (1, 1), gf(2)),
    ((1, 1, 2), (1, 1, 1), gf(2)),
    ((1, 2), (1, 1), gf(3)),
    ((2, 2), (1, 1), gf(3)),
    ((1, 1), (1, 2), gf(3)),
    ((1, 2), (1, 2), gf(3)),
], ids=lambda v: str(v).replace(" ", ""))
def test_sv_extend_sweep(dims, degrees, field):
    # in degree one with m >= 2 the last factor fills only after m steps
    space = MultiProjectiveSpace(dims, degrees, field)
    m = dims[-1]
    for o in ((1,) + (0,) * m, (1,) * (m + 1)):
        ysub = _slice(space, o)
        for seed, d in enumerate(_minimal_in(ysub, seed=sum(dims))):
            _assert_target_in_span_of(ysub, d)
            out = sv_extend(d, ConstructionConfig(rng_seed=seed))
            _assert_proved_and_distinct(out)
            assert len(out.points) == len(d.points) + degrees[-1] * m
            assert set_envelope(space, out.points).dims[-1] == m


def _spy_condition_2(monkeypatch):
    """Make every `_proved_move` call assert condition 2 for its
    candidate (`_meets_condition_2`) and that its gamma are the solved
    ones (`_solved_gamma`); returns a list of the callers' construction
    names, one per candidate."""
    real = construct._proved_move
    moves = []

    def spy(d, report, ai, i, fiber, vecs, gamma, prov):
        assert _meets_condition_2(d, ai, i, vecs)
        assert list(gamma) == _solved_gamma(d.space.field,
                                            d.space.multidegree[i],
                                            d.points[ai].coords[i], vecs)
        moves.append(prov["construction"])
        return real(d, report, ai, i, fiber, vecs, gamma, prov)

    monkeypatch.setattr(construct, "_proved_move", spy)
    return moves


def _sweep_runs(field):
    """Runs of escape, concise_plus_m, veronese_extend and sv_extend on
    the sweeps' kind of inputs over GF(p), in every degree up to 3 that
    the field's lines allow."""
    p = field.modulus
    for dims, bases in (((1, 1, 1), (_I2, _I2, ((1, 1),))),
                        ((1, 1, 1), (((0, 1),), _I2, _I2)),
                        ((1, 2), (_I2, ((1, 0, 1), (0, 1, 0))))):
        ysub = SubspaceSpec.of(segre(dims, field), bases)
        for seed, d in enumerate(_minimal_in(ysub, seed=6)):
            yield lambda d=d, ysub=ysub, seed=seed: escape(
                d, ysub, ConstructionConfig(rng_seed=seed))
    space = segre((1, 1, 2), field)
    for o in ((1, 0, 0), (0, 1, 1)):
        for seed, d in enumerate(_minimal_in(_slice(space, o), seed=sum(o))):
            if set_envelope(space, d.points).dims[:2] == (1, 1):
                yield lambda d=d, seed=seed: concise_plus_m(
                    d, 2, ConstructionConfig(rng_seed=seed))
    for degree in range(1, min(p, 4)):
        V = veronese(2, degree, field)
        rng = random.Random(degree)
        for seed in range(20):
            r = 1 + seed % 2
            d = None
            while d is None or set_envelope(V, d.points).dims != (r - 1,):
                d = _irredundant_sum(V, rng, r, lambda: random_point(V, rng),
                                     lambda: rng.randrange(1, p))
            yield lambda d=d, seed=seed: veronese_extend(
                d, 2, ConstructionConfig(rng_seed=seed))
    for degree in range(1, min(p, 3)):
        space = MultiProjectiveSpace((1, 2), (1, degree), field)
        ysub = _slice(space, (1, 1, 1))
        for seed, d in enumerate(_minimal_in(ysub, seed=3)):
            yield lambda d=d, seed=seed: sv_extend(
                d, ConstructionConfig(rng_seed=seed))


@pytest.mark.parametrize("field", [gf(2), gf(3), gf(5), QQ], ids=str)
def test_moves_outside_plus_one_meet_condition_2(monkeypatch, field):
    # escape, concise_plus_m and the line steps prove condition 2 from
    # their draws and do not test it: each candidate they hand to
    # _proved_move must meet it.  Over Q the frozen cases' inputs
    moves = _spy_condition_2(monkeypatch)
    if field.is_finite:
        for run in _sweep_runs(field):
            run()
    else:
        _frozen_cases(field)
    assert set(moves) == {"escape", "concise_plus_m", "veronese_extend",
                          "sv_extend"}

