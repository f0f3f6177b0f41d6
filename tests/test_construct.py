"""The four constructive procedures: contracts, determinism, error paths."""
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import QQ, field_embed, gf, lin_comb, pt, segre, veronese

from xrank import construct, decomp, geometry
from xrank.construct import (ConstructionConfig, concise_plus_m, escape,
                             plus_one, sv_extend, veronese_extend)
from xrank.decomp import (Decomposition, fiber_condition, set_envelope,
                          verify_irredundant)
from xrank.exactlin import Echelon
from xrank.errors import (BadM, DegenerateSpace, FieldTooSmall, InvalidInput,
                          NotConcise, NotContainedInY, NotIrredundantInput,
                          NotVeronese, TargetTooSmall, UnsupportedDegree,
                          YEqualsW)
from xrank.geometry import (MppPoint, MultiProjectiveSpace, SubspaceSpec,
                            Tensor, canonical_vector, embed, line_point,
                            random_point)
from xrank.oracle import brute_rank

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
    assert out.provenance["retries_used"] <= 64


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


def test_plus_one_columns_match_fresh_embeddings():
    S = segre((1, 1, 1), gf(5))
    q = Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 0))  # W: rank 3, 225 witnesses
    for seed, w in enumerate(brute_rank(q).witnesses[:40]):
        out = plus_one(w, ConstructionConfig(rng_seed=seed))
        assert out.embedded_columns == [field_embed(S, p.coords).coords
                                        for p in out.points]


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


def test_plus_one_redraws_a_line_that_lies_in_the_input_span():
    # a and b share the fiber P^2 x {e0} through a, so U meets its span
    # in a plane, and a line through a drawn in that plane lies in U.
    # There the two-column solve still succeeds, but the candidate is
    # dependent: only the test x_u not in U sends plus_one to redraw.
    S = segre((2, 1), gf(3))
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    A = [pt(S, e[0], E0), pt(S, e[1], E0), pt(S, e[2], E1)]
    d = Decomposition(S, A, lin_comb(S, A))
    retried = 0
    for seed in range(20):
        out = plus_one(d, ConstructionConfig(rng_seed=seed))
        _assert_report_is_a_fresh_solve(out)
        retried += out.provenance["retries_used"] > 0
    assert retried


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
            for _ in range(4):
                y = _random_canonical(field, rng, n + 1)
                image = geometry.factor_image(field, y, deg)
                assert fiber(image) == field_embed(
                    S, point.replace_factor(i, y).coords).coords


@pytest.mark.parametrize("field", [gf(3), gf(5), QQ], ids=str)
def test_proved_move_accepts_exactly_what_verification_accepts(field):
    # moves of a = point 0 in factor 0 of P3 x P1, where b = point 1
    # shares a's fiber, so the fiber meets U in <x_a, x_b>.  The new
    # vectors g_1 .. g_(k-1) are drawn among a_0, b_0, a_0 + c b_0 and
    # random vectors, and g_k = a_0 - sum_t lam_t g_t with lam_t at times
    # 0, so a_0 lies in the span of the g_t: the proof must accept a
    # candidate exactly when a fresh verification does
    S = segre((3, 1), field)
    F = field
    rng = random.Random(str(field))

    def combo(x, c, y):
        return tuple(F.add(s, F.mul(F.coerce(c), t)) for s, t in zip(x, y))

    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
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
        cand = construct._proved_move(
            d, report, Echelon(F, d.embedded_columns), 0, 0,
            geometry.fiber_map(S, A[0], 0), gs + [last], {})
        pts = A[1:] + [A[0].replace_factor(0, g) for g in gs + [last]]
        fresh = None
        if len(set(pts)) == len(pts):
            fresh = verify_irredundant(Decomposition(S, pts, d.target))
        accepted = fresh is not None and fresh.irredundant
        assert (cand is not None) == accepted
        if accepted:
            assert list(cand.points) == pts
            assert verify_irredundant(cand) == fresh
            assert cand.embedded_columns == [
                field_embed(S, p.coords).coords for p in pts]
        seen[accepted] += 1


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


def test_veronese_extend_works_over_gf5_degree_four():
    # p = d + 1 exactly: the line has just enough points
    V = veronese(1, 4, gf(5))
    a = pt(V, (1, 0))
    out = veronese_extend(Decomposition(V, [a], embed(V, a)), 1,
                          ConstructionConfig(rng_seed=3))
    assert len(out.points) == 5
    assert set_envelope(V, out.points).dims == (1,)


# ---------------------------------------------------------------- sv_extend

def test_sv_extend_degree_one_delegates_to_escape():
    S = segre((1, 1))
    o = E0
    A = [pt(S, E0, o), pt(S, E1, o)]
    d = Decomposition(S, A, lin_comb(S, A))
    out = sv_extend(d, ConstructionConfig(rng_seed=2))
    assert len(out.points) == 3
    assert out.provenance["construction"] == "sv_extend"
    assert out.provenance["route"] == "escape"


def test_sv_extend_escape_route_solves_the_slice_once(monkeypatch):
    # the input's report, the target in Y' x {o} (4 columns), and the
    # candidate's proof in the replaced factor (2 columns of length 2):
    # escape's own checks are not run again
    S = segre((1, 1, 1))
    A = [pt(S, E0, E0, E0), pt(S, E1, E1, E0)]
    d = Decomposition(S, A, lin_comb(S, A))
    calls = _count_solves(monkeypatch)
    out = sv_extend(d, ConstructionConfig(rng_seed=2))
    assert out.provenance["route"] == "escape"
    assert out.provenance["retries_used"] == 0
    assert calls == [("xrank.decomp", 2, 8), ("xrank.construct", 4, 8),
                     ("xrank.construct", 2, 2)]


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
    # each line step proves its report from the one before, and the
    # sv_extend routes return the proved output itself: the only solve of
    # a decomposition's report is the input's, and the output's report
    # needs no solve
    d = Decomposition(space, A, lin_comb(space, A))
    calls = _count_solves(monkeypatch)
    out = run(d)
    assert [c for c in calls if c[0] == "xrank.decomp"] == [
        ("xrank.decomp", len(A), len(d.target.coords))]
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
def test_line_steps_eliminate_u_once(monkeypatch, space, A, run):
    # two line steps: U is eliminated once at tensor width, each step
    # hands the next its output's span, and no envelope is recomputed
    d = Decomposition(space, A, lin_comb(space, A))
    widths, envelopes = _spy_line_step_work(monkeypatch)
    out = run(d)
    assert len(out.provenance["steps"]) == 2
    assert widths.count(len(d.target.coords)) == 1
    assert set(widths) == {len(d.target.coords), space.factor_dims[-1] + 1}
    assert envelopes == []


def _same_span(field, span, cols):
    """Whether the `Echelon` span is the span of the columns."""
    return (span.rank == Echelon(field, cols).rank
            and all(span.contains(c) for c in cols))


@pytest.mark.parametrize("field", [QQ, gf(5), gf(11)], ids=str)
def test_line_steps_carry_their_spans(monkeypatch, field):
    # every step starts from the spans of its input and hands the next
    # the spans of its output: U of the columns, F of the replaced
    # factor's vectors; F and the factor envelope grow by exactly one,
    # and the proved report is the one a fresh solve gives.  P3 in
    # degree one has k = 2 points per step, so U must still grow there
    real = construct._extend_one_factor
    seen = []

    def fresh_columns(d):
        return [embed(d.space, p).coords for p in d.points]

    def step(d, u_span, f_span, factor, cfg):
        dim = set_envelope(d.space, d.points).dims[factor]
        assert _same_span(field, u_span, fresh_columns(d))
        assert _same_span(field, f_span, [p.coords[factor]
                                          for p in d.points])
        assert f_span.rank == dim + 1
        out, span = real(d, u_span, f_span, factor, cfg)
        assert set_envelope(d.space, out.points).dims[factor] == dim + 1
        assert _same_span(field, f_span, [p.coords[factor]
                                          for p in out.points])
        assert _same_span(field, span, fresh_columns(out))
        assert out.embedded_columns == fresh_columns(out)
        _assert_report_is_a_fresh_solve(out)
        seen.append(d.space.multidegree[factor])
        return out, span

    monkeypatch.setattr(construct, "_extend_one_factor", step)
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
            assert set_envelope(V, out.points).dims == (n,)
        SV = MultiProjectiveSpace((1, 2), (1, 2), field)
        d = made(lambda: _sliced_sum(SV, rng, 2, (1, 0, 0), coeff))
        out = sv_extend(d, cfg)
        assert set_envelope(SV, out.points).dims[-1] == 2
    assert sorted(seen) == [1] * 15 + [2] * 12 + [3] * 3


def test_sv_extend_rejects_a_point_last_factor():
    # on P1 x P0 the slice Y' x {o} is the whole space
    S = segre((1, 0))
    A = [pt(S, E0, (1,)), pt(S, E1, (1,))]
    with pytest.raises(YEqualsW):
        sv_extend(Decomposition(S, A, lin_comb(S, A)))


def test_sv_extend_degree_two_line_steps():
    SV = MultiProjectiveSpace((1, 1), (1, 2), QQ)
    o = E0
    A = [pt(SV, E0, o), pt(SV, E1, o)]
    d = Decomposition(SV, A, lin_comb(SV, A))
    out = sv_extend(d, ConstructionConfig(rng_seed=2))
    assert len(out.points) == 4  # rho + e * m = 2 + 2
    assert verify_irredundant(out).irredundant
    assert set_envelope(SV, out.points).dims[-1] == 1
    assert out.provenance["route"] == "line_steps"


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


def test_sv_extend_escape_route_records_its_certification():
    # the escape route runs escape without the flag; the provenance must
    # still record the oracle's certification of the input
    S = segre((1, 1, 1), gf(3))
    A = [pt(S, E0, E0, E0), pt(S, E1, E1, E0)]
    d = Decomposition(S, A, lin_comb(S, A))
    out = sv_extend(d, certify_minimal=True)
    assert out.provenance["route"] == "escape"
    assert out.provenance["certified_minimal"] is True
    plain = sv_extend(d)
    assert plain.provenance["certified_minimal"] is False
    assert plain.points == out.points


def test_sv_extend_rejects_spread_out_input():
    # points off a common last-factor slice cannot define Y x {o}; the
    # shape check fires before any containment question can arise
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


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidInput):
        ConstructionConfig(max_retries=0)


def _count_solves(monkeypatch):
    """A list that records (module, number of columns, target length) for
    every `solve_columns` call that construct and decomp make."""
    calls = []
    for module in (construct, decomp):
        def counting(*args, solve=module.solve_columns, name=module.__name__):
            calls.append((name, len(args[1]), len(args[2])))
            return solve(*args)

        monkeypatch.setattr(module, "solve_columns", counting)
    return calls


def test_plus_one_solves_an_oracle_witness_once(monkeypatch):
    # the witness carries the oracle's report, so it is never solved
    # again; the candidate costs one two-column solve in the replaced
    # factor's coordinates (length 2, not the 4 of a tensor), which
    # proves its report, and a fresh copy of the witness one more, for
    # its input
    S = segre((1, 1), gf(11))
    w = brute_rank(Tensor.of(S, (1, 0, 0, 1))).witnesses[0]
    calls = _count_solves(monkeypatch)
    out = plus_one(w)
    assert out.provenance["retries_used"] == 0
    assert calls == [("xrank.construct", 2, 2)]
    calls.clear()
    again = plus_one(Decomposition(S, w.points, w.target))
    assert calls == [("xrank.decomp", 2, 4), ("xrank.construct", 2, 2)]
    assert again.points == out.points
    assert verify_irredundant(out).irredundant


def test_plus_one_embeds_nothing(monkeypatch):
    # the escape scan and the two new columns go through the fiber map
    S = segre((1, 1, 1), gf(11))
    wits = brute_rank(Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 2)),
                      budget=10 ** 9).witnesses
    embeds = []

    def spy(*args):
        embeds.append(args)
        return embed(*args)

    monkeypatch.setattr(geometry, "embed", spy)
    monkeypatch.setattr(decomp, "embed", spy)
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


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_line_draws_by_index_match_the_listed_draws(p):
    # the index draws return the listed draws' points and leave the
    # stream in the same state, so every seeded output stays the same
    F = gf(p)
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        a = _random_canonical(F, rng, n)
        w = construct._draw_vector_off_span(F, rng, n,
                                            construct._on_ray(F, a))
        old, new = random.Random(seed), random.Random(seed)
        count = 1 + seed % min(p, 3)
        want = old.sample(_listed_line(F, a, w), count)
        assert construct._line_candidates(F, new, a, w, count) == want
        assert new.getstate() == old.getstate()


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


def _sliced_sum(space, rng, r, o, coeff):
    """A random r-point irredundant decomposition on Y' x {o}: every point
    carries the last-factor vector o (None when the draw fails)."""
    last = space.k - 1
    return _irredundant_sum(
        space, rng, r,
        lambda: random_point(space, rng, 5).replace_factor(last, o), coeff)


def _frozen_cases(field):
    """Seeded outputs of escape, concise_plus_m, veronese_extend and both
    sv_extend routes over one field, in a fixed order."""
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
    # sv_extend: the escape route (last degree 1) and the line steps
    for space in (segre((1, 1), field), segre((2, 1), field),
                  MultiProjectiveSpace((1, 1), (1, 2), field),
                  MultiProjectiveSpace((1, 2), (1, 2), field)):
        o = (1,) + (0,) * space.factor_dims[-1]
        for i, d in enumerate(made(lambda: _sliced_sum(
                space, rng, 2, o, coeff), 2)):
            outs.append(sv_extend(d, ConstructionConfig(rng_seed=i),
                                  assert_minimal=i == 0))
    return outs


@pytest.mark.parametrize("field, count, digest", [
    (QQ, 23,
     "872209acd95dfb7537d3a3861c2fa6c2f90c895e99d9313abf5543d27e9296c3"),
    (gf(11), 23,
     "7e2d2fa52cb1bdaaccd55970f6ebd0a522f45627d5992018fb3df284facf42d6"),
], ids=["QQ", "GF(11)"])
def test_other_constructions_frozen_outputs(field, count, digest):
    """Seeded outputs of the four constructions other than plus_one,
    points, target and provenance; recorded before their input checks
    and line-step loops were shared between them."""
    outs = _frozen_cases(field)
    routes = {o.provenance.get("route") for o in outs
              if o.provenance.get("construction") == "sv_extend"}
    assert routes == {"escape", "line_steps"}
    for out in outs:
        assert verify_irredundant(out).irredundant
    assert (len(outs), _digest(outs)) == (count, digest)


@pytest.mark.parametrize("field", [QQ, gf(11)], ids=["QQ", "GF(11)"])
def test_other_constructions_prove_their_reports(field):
    # plus_one's banks check the same in their frozen-output tests
    for out in _frozen_cases(field):
        _assert_report_is_a_fresh_solve(out)
