"""The four constructive procedures: contracts, determinism, error paths."""
import hashlib
import json
import random
import time

import pytest

from conftest import QQ, gf, lin_comb, pt, segre, veronese

from xrank import construct, decomp
from xrank.construct import (ConstructionConfig, concise_plus_m, escape,
                             plus_one, sv_extend, veronese_extend)
from xrank.decomp import (Decomposition, fiber_condition, set_envelope,
                          verify_irredundant)
from xrank.errors import (BadM, DegenerateSpace, FieldTooSmall, InvalidInput,
                          NotConcise, NotContainedInY, NotIrredundantInput,
                          NotVeronese, TargetTooSmall, UnsupportedDegree,
                          YEqualsW)
from xrank.exactlin import rank_rows
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
        assert out.embedded_columns == [embed(S, p).coords
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


def test_plus_one_fails_fast_when_every_p1_fiber_is_starved():
    """Over GF(3) a P^1 has 4 points.  Three minimal decompositions of W
    take 3 of them in every factor, so every viable fiber line (all of
    P^1) leaves one usable point: no redraw helps, and plus_one says so
    instead of spending every retry.  The other 36 still grow."""
    S = segre((1, 1, 1), gf(3))
    q = Tensor.of(S, (0, 1, 1, 0, 1, 0, 0, 0))
    wits = brute_rank(q).witnesses
    assert len(wits) == 39
    starved = [w for w in wits
               if all(len({p.coords[i] for p in w.points}) == 3
                      for i in range(3))]
    assert len(starved) == 3
    for w in wits:
        for seed in range(5):
            cfg = ConstructionConfig(rng_seed=seed)
            if w in starved:
                with pytest.raises(FieldTooSmall):
                    plus_one(w, cfg)
            else:
                assert verify_irredundant(plus_one(w, cfg)).irredundant


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


def test_plus_one_solves_an_oracle_witness_once(monkeypatch):
    # the witness carries the oracle's report, so it is never solved
    # again; the candidate costs one two-column solve, which proves its
    # report, and a fresh copy of the witness one more, for its input
    S = segre((1, 1), gf(11))
    w = brute_rank(Tensor.of(S, (1, 0, 0, 1))).witnesses[0]
    calls = []

    for module in (construct, decomp):
        def counting(*args, solve=module.solve_columns, name=module.__name__):
            calls.append((name, len(args[1])))
            return solve(*args)

        monkeypatch.setattr(module, "solve_columns", counting)
    out = plus_one(w)
    assert out.provenance["retries_used"] == 0
    assert calls == [("xrank.construct", 2)]
    calls.clear()
    again = plus_one(Decomposition(S, w.points, w.target))
    assert calls == [("xrank.decomp", 2), ("xrank.construct", 2)]
    assert again.points == out.points
    assert verify_irredundant(out).irredundant


def test_json_round_trip_keeps_provenance():
    out = plus_one(_diag(), ConstructionConfig(rng_seed=5))
    back = Decomposition.from_json(out.to_json())
    assert back == out and back.provenance == out.provenance


# ------------------------------------------------- line draws by index

def _listed_line(field, a_vec, w_vec):
    """The p points of the line through a and w other than a, listed."""
    return ([line_point(field, a_vec, w_vec, t)
             for t in range(1, field.modulus)] + [tuple(w_vec)])


def _listed_pair(field, rng, a_vec, w_vec, excluded):
    """plus_one's draw as it was before index sampling: list the line,
    keep the usable canonical points, sample two of them."""
    usable = [cv for cv in (canonical_vector(field, v)
                            for v in _listed_line(field, a_vec, w_vec))
              if cv not in excluded and cv != a_vec]
    return rng.sample(usable, 2) if len(usable) >= 2 else None


def _line_case(field, rng):
    """A canonical a, a w off <a>, and excluded canonical vectors: some
    of the line's points, at times a itself, and random vectors, which
    are off the line unless the vectors have two coordinates."""
    p = field.modulus
    n = rng.randint(2, 4)

    def draw():
        while True:
            v = [rng.randrange(p) for _ in range(n)]
            if any(v):
                return v

    a = canonical_vector(field, draw())
    w = draw()
    while rank_rows(field, [a, w]) < 2:
        w = draw()
    line = [canonical_vector(field, v) for v in _listed_line(field, a, w)]
    excluded = set(rng.sample(line, rng.randint(0, min(p, 4))))
    if rng.random() < 0.3:
        excluded.add(a)
    excluded.update(canonical_vector(field, draw())
                    for _ in range(rng.randint(0, 3)))
    return a, w, excluded


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_line_draws_by_index_match_the_listed_draws(p):
    # the index draws return the listed draws' points and leave the
    # stream in the same state, so every seeded output stays the same
    F = gf(p)
    seen = {"on": 0, "off": 0, "starved": 0}
    for seed in range(200):
        a, w, excluded = _line_case(F, random.Random(seed))
        for e in excluded:
            seen["on" if rank_rows(F, [a, w, e]) == 2 else "off"] += 1
        old, new = random.Random(seed), random.Random(seed)
        want = _listed_pair(F, old, a, w, excluded)
        assert construct._usable_line_pair(F, new, a, w, excluded) == want
        assert new.getstate() == old.getstate()
        seen["starved"] += want is None
        count = 1 + seed % min(p, 3)
        want = old.sample(_listed_line(F, a, w), count)
        assert construct._line_candidates(F, new, a, w, count) == want
        assert new.getstate() == old.getstate()
    assert seen["on"] and seen["off"]
    assert seen["starved"] or p > 5  # GF(11) never loses 10 points


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
    it was recorded before the echelon kernel replaced the two-rank span
    test."""
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
        "3e6eb4722310279f60eb9524d027cf95c8636adf641814b28721f660023cc648")


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
