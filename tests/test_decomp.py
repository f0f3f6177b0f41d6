"""Irredundancy verification, envelopes, and the fiber condition."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import QQ, distinct_points, gf, lin_comb, pt, segre, veronese

from xrank.decomp import (Decomposition, IrredundancyReport,
                          extend_from_envelope, fiber_condition,
                          restrict_to_envelope, set_envelope, tensor_envelope,
                          verify_irredundant, verify_irredundant_exhaustive)
from xrank.errors import EmptySet, NotContained, SpaceMismatch, UnsupportedDegree
from xrank.exactlin import rank_rows, solve_columns
from xrank.geometry import MultiProjectiveSpace, Tensor, ambient_dim, embed

E0, E1 = (1, 0), (0, 1)


def _diag_instance():
    S = segre((1, 1))
    A = [pt(S, E0, E0), pt(S, E1, E1)]
    return S, A, Tensor.of(S, (1, 0, 0, 1))


# ------------------------------------------------------------- verification

def test_verify_diagonal_pair():
    S, A, q = _diag_instance()
    rep = verify_irredundant(Decomposition(S, A, q))
    assert rep.independent and rep.in_span and rep.irredundant
    assert list(rep.values) == [1, 1]


def test_verify_zero_coefficient_is_redundant():
    S, A, _ = _diag_instance()
    rep = verify_irredundant(Decomposition(S, A, Tensor.of(S, (1, 0, 0, 0))))
    assert rep.independent and rep.in_span
    assert not rep.irredundant
    assert rep.values[1] == 0


def test_verify_three_point_line_instance():
    S = segre((1, 1))
    B = [pt(S, E1, E1), pt(S, (1, 1), E0), pt(S, (1, -1), E0)]
    rep = verify_irredundant(Decomposition(S, B, Tensor.of(S, (1, 0, 0, 1))))
    assert rep.irredundant
    assert list(rep.values) == [1, Fraction(1, 2), Fraction(1, 2)]


def test_dependent_set_is_never_irredundant():
    S = segre((1, 1))
    B = [pt(S, E0, E0), pt(S, E0, E1), pt(S, E0, (1, 1))]
    d = Decomposition(S, B, Tensor.of(S, (1, 1, 0, 0)))
    rep = verify_irredundant(d)
    assert not rep.independent and not rep.irredundant
    assert not verify_irredundant_exhaustive(d).irredundant


def test_verify_rejects_foreign_points():
    S, A, q = _diag_instance()
    other = segre((1, 2))
    with pytest.raises(SpaceMismatch):
        Decomposition(S, [pt(other, E0, (1, 0, 0))], q)


def _random_decomposition(sp, rng):
    """Instances of all three shapes: irredundant-looking, zero-coefficient,
    and arbitrary-target."""
    size = rng.randint(1, 5)
    pts = distinct_points(sp, size, rng, box=5)
    field = sp.field
    style = rng.random()
    if style < 0.6:
        coeffs = [field.random_element(rng, 5) for _ in pts]
        if style < 0.25 and size > 1:
            coeffs[rng.randrange(size)] = field.zero()
        vec = lin_comb(sp, pts, coeffs).coords if any(
            c != field.zero() for c in coeffs) else None
        if vec is None:
            return None
        return Decomposition(sp, pts, Tensor.of(sp, vec))
    vec = tuple(field.random_element(rng, 5)
                for _ in range(len(embed(sp, pts[0]).coords)))
    if all(v == field.zero() for v in vec):
        return None
    return Decomposition(sp, pts, Tensor.of(sp, vec))


@pytest.mark.parametrize("field", [QQ, gf(5)], ids=str)
def test_fast_route_agrees_with_subset_route(field):
    rng = random.Random(2024)
    spaces = [segre((1, 1), field), segre((1, 2), field), segre((1, 1, 1), field)]
    checked = 0
    while checked < 60:
        d = _random_decomposition(rng.choice(spaces), rng)
        if d is None:
            continue
        fast = verify_irredundant(d)
        slow = verify_irredundant_exhaustive(d)
        assert fast.irredundant == slow.irredundant, d.to_json()
        assert fast.in_span == slow.in_span
        checked += 1


@pytest.mark.parametrize("space", [
    segre((1, 1)), segre((1, 2)), segre((1, 1, 1)), veronese(1, 2),
    veronese(2, 2), MultiProjectiveSpace((1, 1), (1, 2), QQ),
    MultiProjectiveSpace((1, 2), (2, 1), QQ),
], ids=["P1P1", "P1P2", "P1P1P1", "V2P1", "V2P2", "P1P1_12", "P1P2_21"])
def test_rescaled_report_equals_a_solve_on_canonical_columns(space):
    # over Q verify_irredundant solves on the integer images and
    # multiplies each coefficient by its column's lead; every field of the
    # report must equal a solve on the canonical columns.  Up to N + 2
    # points on an ambient space of dimension N - 1: independent sets,
    # dependent ones, targets off the span and zero coefficients
    rng = random.Random(str(space.factor_dims + space.multidegree))
    width = ambient_dim(space) + 1
    seen = Counter()
    for _ in range(80):
        pts = distinct_points(space, rng.randint(1, width + 2), rng, box=5)
        if rng.random() < 0.7:
            coeffs = [rng.randint(-3, 3) for _ in pts]
            if not any(coeffs):
                continue
            q = lin_comb(space, pts, coeffs)
        else:
            vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(width)]
            if not any(vec):
                continue
            q = Tensor.of(space, vec)
        d = Decomposition(space, pts, q)
        ref = solve_columns(QQ, d.embedded_columns, q.coords)
        values = ref.coefficients
        in_span = values is not None
        assert verify_irredundant(d) == IrredundancyReport(
            ref.independent, in_span, QQ, values,
            ref.independent and in_span and all(values))
        leads = [next(x for x in col if x) for col in d.images]
        seen["unscaled"] += any(lead != 1 for lead in leads)
        seen["distinct leads"] += len(set(leads)) > 1
        seen["dependent"] += in_span and not ref.independent
        seen["off span"] += not in_span
        seen["zero coefficient"] += (ref.independent and in_span
                                     and not all(values))
        seen["irredundant"] += ref.independent and in_span and all(values)
    assert min(seen.values()) >= 3 and len(seen) == 6, seen


# ---------------------------------------------------------------- envelopes

def test_set_envelope_constant_factor():
    S = segre((1, 1))
    env = set_envelope(S, [pt(S, E0, E0), pt(S, E0, E1)])
    assert env.dims == (0, 1)


def test_set_envelope_full_diagonal():
    S, A, _ = _diag_instance()
    assert set_envelope(S, A).dims == (1, 1)


def test_set_envelope_single_point():
    S = segre((2, 1, 1))
    assert set_envelope(S, [pt(S, (1, 0, 0), E0, E1)]).dims == (0, 0, 0)


def test_set_envelope_empty_input():
    with pytest.raises(EmptySet):
        set_envelope(segre((1, 1)), [])


def test_tensor_envelope_rank_one():
    S = segre((1, 1))
    assert tensor_envelope(Tensor.of(S, (1, 0, 0, 0))).dims == (0, 0)


def test_tensor_envelope_diagonal_is_concise():
    S = segre((1, 1))
    env = tensor_envelope(Tensor.of(S, (1, 0, 0, 1)))
    assert env.dims == (1, 1) and env.is_full


def test_tensor_envelope_slice_support():
    S = segre((1, 2))
    o = (1, 0, 0)
    q = lin_comb(S, [pt(S, E0, o), pt(S, E1, o)])
    assert tensor_envelope(q).dims[1] == 0


def test_tensor_envelope_needs_segre():
    V = veronese(1, 2)
    q = embed(V, pt(V, (1, 1)))
    with pytest.raises(UnsupportedDegree):
        tensor_envelope(q)


def test_envelope_monotonicity_random():
    """Each tensor-envelope factor sits inside the set-envelope factor."""
    rng = random.Random(31)
    for field in (QQ, gf(7)):
        sp = segre((1, 1, 1), field)
        for _ in range(15):
            pts = distinct_points(sp, rng.randint(2, 4), rng, box=5)
            coeffs = []
            for _ in pts:
                while True:
                    c = field.random_element(rng, 5)
                    if c != field.zero():
                        break
                coeffs.append(c)
            q = lin_comb(sp, pts, coeffs)
            te = tensor_envelope(q)
            se = set_envelope(sp, pts)
            for i in range(sp.k):
                tb = te.subspace.factor_bases[i]
                sb = se.subspace.factor_bases[i]
                assert rank_rows(field, list(sb) + list(tb)) == len(sb)


def test_point_embeddings_are_never_concise():
    rng = random.Random(5)
    for dims in [(1, 1), (1, 2), (1, 1, 1)]:
        sp = segre(dims, gf(5))
        for _ in range(5):
            p = distinct_points(sp, 1, rng)[0]
            assert tensor_envelope(embed(sp, p)).dims == tuple(0 for _ in dims)


# --------------------------------------------------------- restrict / extend

def test_restrict_rank_one_to_its_own_envelope():
    S = segre((1, 1))
    q = embed(S, pt(S, (1, 2), (1, 3)))
    env = tensor_envelope(q)
    r = restrict_to_envelope(q, env)
    assert r.space.factor_dims == (0, 0)
    assert r.coords == (1,)
    assert extend_from_envelope(r, env) == q


def test_restrict_concise_tensor_is_identity_shaped():
    S = segre((1, 1))
    q = Tensor.of(S, (1, 0, 0, 1))
    env = tensor_envelope(q)
    r = restrict_to_envelope(q, env)
    assert r.space.factor_dims == (1, 1)
    assert extend_from_envelope(r, env) == q


def test_restrict_rejects_outside_tensor():
    S = segre((1, 1))
    env = set_envelope(S, [pt(S, E0, E0), pt(S, E0, E1)])
    with pytest.raises(NotContained):
        restrict_to_envelope(Tensor.of(S, (0, 0, 1, 1)), env)


def _round_trips(rng, spaces, count):
    """Restrict random tensors of random envelopes and extend them back."""
    done = 0
    while done < count:
        field = rng.choice([QQ, gf(5), gf(11)])
        dims, degrees = rng.choice(spaces)
        sp = MultiProjectiveSpace(dims, degrees, field)
        pts = distinct_points(sp, rng.randint(1, 3), rng, box=4)
        coeffs = [field.random_element(rng, 4) for _ in pts]
        if all(c == field.zero() for c in coeffs):
            continue
        vec = lin_comb(sp, pts, coeffs).coords
        if all(v == field.zero() for v in vec):
            continue
        q = Tensor.of(sp, vec)
        env = set_envelope(sp, pts)
        r = restrict_to_envelope(q, env)
        assert extend_from_envelope(r, env) == q
        done += 1


def test_restrict_extend_round_trip_random():
    rng = random.Random(17)
    _round_trips(rng, [(dims, (1,) * len(dims)) for dims in
                       [(1, 1), (1, 2), (2, 2), (1, 1, 1)]], 50)
    # the lift sums raw products at every degree
    _round_trips(rng, [((1, 2), (1, 2)), ((2,), (2,)), ((1, 1), (2, 1))],
                 60)


# ------------------------------------------------------------------- fibers

def test_fiber_condition_holds_for_diagonal():
    S, A, q = _diag_instance()
    assert fiber_condition(Decomposition(S, A, q)).holds


def test_fiber_condition_flags_shared_fiber():
    S = segre((1, 1))
    d = Decomposition(S, [pt(S, E0, E0), pt(S, E0, E1)],
                      Tensor.of(S, (1, 1, 0, 0)))
    rep = fiber_condition(d)
    assert not rep.holds
    v = rep.violations[0]
    assert (v.i, v.j, v.free_factor) == (0, 1, 1)


def test_fiber_condition_requires_segre():
    V = veronese(1, 2)
    p = pt(V, (1, 1))
    with pytest.raises(UnsupportedDegree):
        fiber_condition(Decomposition(V, [p], embed(V, p)))


# --------------------------------------------------------------------- json

def test_decomposition_json_round_trip():
    S, A, q = _diag_instance()
    d = Decomposition(S, A, q, provenance={"construction": "test", "seed": 3})
    back = Decomposition.from_json(d.to_json())
    assert back == d and back.provenance == d.provenance
    bare = Decomposition(S, A, q)
    assert Decomposition.from_json(bare.to_json()) == bare


def test_report_json_has_string_coefficients():
    S, A, q = _diag_instance()
    rep = verify_irredundant(Decomposition(S, A, q))
    j = rep.to_json()
    assert j["irredundant"] is True
    assert j["coefficients"] == ["1", "1"]
