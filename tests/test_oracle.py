"""Finite-field brute-force search: ranks, witness sets, gaps, concision."""
import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gf, lin_comb, pt, segre, veronese

from xrank import quotient
from xrank.decomp import Decomposition, set_envelope, verify_irredundant
from xrank.errors import (BudgetExceeded, FieldNotFinite, InvalidInput,
                          ModulusTooLarge, TargetNotSpanned)
from xrank.exactlin import Echelon, FieldSpec, solve_columns
from xrank.geometry import (SubspaceSpec, Tensor, canonical_vector,
                            count_points, embed, enumerate_points)
from xrank.oracle import (brute_rank, gap_profile, ground_set,
                          min_concise_t, spanning_sets)
from xrank.quotient import _canonical, candidates

E0, E1 = (1, 0), (0, 1)


def _is_witness(field, cols, qvec):
    """The definition: columns independent, q in their span, every
    coefficient nonzero."""
    sol = solve_columns(field, cols, qvec)
    return (sol.independent and sol.coefficients is not None
            and all(c != 0 for c in sol.coefficients))


def _witnesses_by_definition(field, cols, qvec, t):
    return [tup for tup in itertools.combinations(range(len(cols)), t)
            if _is_witness(field, [cols[i] for i in tup], qvec)]


def _naive(q, t, within=None):
    """The reference search: the point tuples of every size-t subset of
    the ground points that is a witness by the definition.  It rebuilds
    the ground points itself and shares no code with `spanning_sets`."""
    space = q.space
    if within is None:
        pts = list(enumerate_points(space))
    else:
        pts = [within.lift_point(p)
               for p in enumerate_points(within.reduced_space())]
    cols = [embed(space, p).coords for p in pts]
    return [tuple(pts[i] for i in tup)
            for tup in _witnesses_by_definition(space.field, cols, q.coords,
                                                t)]


def _naive_rank(q, within=None):
    """The smallest t with a witness by the definition, and the point
    tuples of its witnesses."""
    for t in itertools.count(1):
        found = _naive(q, t, within)
        if found:
            return t, found


def _points(res):
    return [w.points for w in res.witnesses]


def _engine_against_the_definition(field, cols, qvec, t):
    """The engine's candidates, checked against the definition: strictly
    ascending, and their witnesses are exactly the definition's.  For
    t <= 3 the engine's filters are exact, so its candidates are the
    witnesses themselves."""
    found = list(candidates(field, cols, qvec, t))
    assert found == sorted(set(found))
    want = _witnesses_by_definition(field, cols, qvec, t)
    if t <= 3:
        assert found == want
    else:
        assert [c for c in found
                if _is_witness(field, [cols[i] for i in c], qvec)] == want
    return want


# --------------------------------------------------------------- ground set

def test_ground_set_counts_and_caching():
    S = segre((1, 1), gf(5))
    g = ground_set(S)
    assert len(g.points) == count_points(S) == 36
    assert ground_set(S) is g  # cached
    y = SubspaceSpec.of(S, [(E0, E1), (E0,)])
    gy = ground_set(S, y)
    assert len(gy.points) == 6 == count_points(y.reduced_space())
    assert all(y.contains_point(p) for p in gy.points)


@pytest.mark.parametrize("space, within", [
    (segre((1, 1, 1), gf(11)), None),
    (segre((1, 2), gf(5)), [(E0, E1), ((1, 1, 0), (0, 2, 1))]),
    (segre((2, 2), gf(3)), [((1, 0, 0), (0, 1, 1)), ((1, 2, 0),)]),
], ids=["full", "within_P1xP1", "within_P1xP0"])
def test_ground_span_matches_the_span_of_every_column(space, within):
    # the ground span stops inserting columns once its rank is the
    # column length; a within ground set's span is never full
    if within is not None:
        within = SubspaceSpec.of(space, within)
    g = ground_set(space, within)
    every = Echelon(space.field, g.columns)
    assert g.span.rank == every.rank
    assert (g.span.rank == len(g.columns[0])) == (within is None)
    rng = random.Random(5)
    F = space.field
    vecs = list(g.columns) + [
        [F.random_element(rng) for _ in g.columns[0]] for _ in range(40)]
    vecs += [[F.add(x, y) for x, y in zip(a, b)]
             for a, b in zip(g.columns, g.columns[1:])]
    answers = [g.span.contains(v) for v in vecs]
    assert answers == [every.contains(v) for v in vecs]
    assert (False in answers) == (within is not None)


def test_ground_set_needs_finite_field():
    with pytest.raises(FieldNotFinite):
        ground_set(segre((1, 1)))


# -------------------------------------------------------------- brute ranks

def test_identity_rank_over_gf2():
    S = segre((1, 1), gf(2))
    cert = brute_rank(Tensor.of(S, (1, 0, 0, 1)))
    assert cert.rank == 2
    assert len(cert.witnesses) == 3
    assert cert.search_space_size == 45  # all 1- and 2-subsets of 9 points
    for w in cert.witnesses:
        assert verify_irredundant(w).irredundant
    assert len(set(cert.minimal_decompositions)) == 3


def test_rank_one_certificate_is_the_point_itself():
    S = segre((1, 1), gf(3))
    a = pt(S, (1, 2), (1, 1))
    cert = brute_rank(embed(S, a))
    assert cert.rank == 1
    assert any(w.points == (a,) for w in cert.witnesses)


def test_rank_respects_within_restriction():
    S = segre((1, 2), gf(5))
    y = SubspaceSpec.of(S, [(E0, E1), ((1, 0, 0), (0, 1, 0))])
    A = [pt(S, E0, (1, 0, 0)), pt(S, E1, (0, 1, 0))]
    q = lin_comb(S, A)
    cert = brute_rank(q, within=y)
    assert cert.rank == 2
    assert all(y.contains_point(p)
               for w in cert.witnesses for p in w.points)


def test_rank_unspanned_target_raises():
    S = segre((1, 1), gf(3))
    y = SubspaceSpec.of(S, [(E0,), (E0, E1)])
    with pytest.raises(TargetNotSpanned):
        brute_rank(Tensor.of(S, (0, 0, 0, 1)), within=y)


def test_rank_needs_finite_field():
    S = segre((1, 1))
    with pytest.raises(FieldNotFinite):
        brute_rank(Tensor.of(S, (1, 0, 0, 1)))


# ------------------------------------------------------------ spanning sets

def test_spanning_sets_all_witnesses_verify():
    S = segre((1, 1), gf(3))
    q = Tensor.of(S, (1, 0, 0, 1))
    for t in (2, 3):
        res = spanning_sets(q, t, mode="all")
        assert res.complete
        for w in res.witnesses:
            assert verify_irredundant(w).irredundant
            assert len(w.points) == t


def test_spanning_sets_exists_mode_short_circuits():
    S = segre((1, 1), gf(3))
    q = Tensor.of(S, (1, 0, 0, 1))
    hit = spanning_sets(q, 2, mode="exists")
    assert hit.witnesses and not hit.complete and hit.count == 1
    empty = spanning_sets(q, 1, mode="exists")
    assert not empty.witnesses and empty.complete


def test_spanning_sets_input_validation():
    S = segre((1, 1), gf(3))
    q = Tensor.of(S, (1, 0, 0, 1))
    with pytest.raises(InvalidInput):
        spanning_sets(q, 0)
    with pytest.raises(InvalidInput):
        spanning_sets(q, 2, mode="some")


def test_budget_is_enforced_and_mentions_the_override():
    S = segre((1, 1, 1), gf(11))
    q = Tensor.of(S, (1, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(BudgetExceeded) as err:
        spanning_sets(q, 3, budget=1000)
    assert "budget" in str(err.value)


def test_budget_is_checked_before_the_ground_set_is_enumerated():
    # (p+1)^2 ~ 10^18 points: enumerating them would never end
    S = segre((1, 1), gf(1000000007))
    q = Tensor.of(S, (1, 0, 0, 1))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        spanning_sets(q, 2)
    with pytest.raises(BudgetExceeded):
        brute_rank(q)
    y = SubspaceSpec.of(S, [(E0, E1), (E0,)])
    with pytest.raises(BudgetExceeded):
        spanning_sets(q, 1, within=y)
    assert time.perf_counter() - start < 2


def test_witness_columns_are_the_embeddings_of_their_points():
    S = segre((1, 1), gf(5))
    y = SubspaceSpec.of(S, [(E0, E1), ((1, 1), E1)])
    q = Tensor.of(S, (1, 2, 3, 4))
    for within in (None, y):
        for t in (2, 3):
            for w in spanning_sets(q, t, within=within).witnesses:
                assert w.embedded_columns == [embed(S, p).coords
                                              for p in w.points]


# ------------------------------------------------- the search vs. definition

def _random_targets(space, rng, n):
    out = []
    field = space.field
    dim = len(ground_set(space).columns[0])
    while len(out) < n:
        vec = tuple(field.random_element(rng, 5) for _ in range(dim))
        if any(v != field.zero() for v in vec):
            out.append(Tensor.of(space, vec))
    return out


def test_engines_agree_on_small_segre():
    S = segre((1, 1), gf(3))
    rng = random.Random(99)
    for q in _random_targets(S, rng, 12):
        cert = brute_rank(q)
        assert (cert.rank, list(cert.minimal_decompositions)) == \
            _naive_rank(q), q.coords


def test_engines_agree_inside_a_subspace():
    S = segre((1, 2), gf(3))
    y = SubspaceSpec.of(S, [(E0, E1), ((1, 0, 0), (0, 1, 0))])
    rng = random.Random(4)
    A = [pt(S, E0, (1, 0, 0)), pt(S, E1, (0, 1, 0)), pt(S, (1, 1), (1, 1, 0))]
    q = lin_comb(S, A)
    cert = brute_rank(q, within=y)
    assert (cert.rank, list(cert.minimal_decompositions)) == \
        _naive_rank(q, y)


def test_engines_agree_at_fixed_cardinality():
    S = segre((1, 1), gf(3))
    rng = random.Random(123)
    for q in _random_targets(S, rng, 6):
        for t in (1, 2, 3, 4):
            assert _points(spanning_sets(q, t)) == _naive(q, t), (q.coords, t)


@pytest.mark.parametrize("within", [False, True], ids=["full", "within"])
def test_engines_agree_at_t1(within):
    # the t=1 scan compares the canonical ground columns with the
    # canonical target directly; targets are ground points (rescaled
    # before Tensor.of), points off Y and random tensors
    S = segre((1, 2), gf(5))
    F = S.field
    y = (SubspaceSpec.of(S, [(E0, E1), ((1, 1, 0), (0, 2, 1))])
         if within else None)
    g = ground_set(S, y)
    rng = random.Random(31)
    points = rng.sample(g.columns, 24)
    targets = [Tensor.of(S, [F.mul(c, k) for c in col])
               for col, k in zip(points, rng.choices(range(1, 5), k=24))]
    targets.append(embed(S, pt(S, E1, (0, 0, 1))))  # off Y
    targets += _random_targets(S, rng, 8)
    found = []
    for q in targets:
        points = _points(spanning_sets(q, 1, within=y))
        assert points == _naive(q, 1, y), q.coords
        found.append(len(points))
    assert found[:24] == [1] * 24 and found[24] == (not within)


@pytest.mark.parametrize("t", [4, 5])
def test_engines_agree_above_t3_on_p1xp2_over_gf2(t):
    S = segre((1, 2), gf(2))  # 21 points
    rng = random.Random(40 + t)
    for q in _random_targets(S, rng, 3):
        assert _points(spanning_sets(q, t)) == _naive(q, t), q.coords


def test_engines_agree_on_the_quartic_over_gf11_above_t3():
    q = _rnc_target(11)
    counts = []
    for t in (4, 5, 6):
        found = _points(spanning_sets(q, t))
        assert found == _naive(q, t), t
        counts.append(len(found))
    assert counts == [20, 512, 0]


def _e(*idx):
    """The 2x2x2 tensor with ones at the given indices 4i + 2j + k."""
    return tuple(int(i in idx) for i in range(8))


# one target per GL2^3 orbit of nonzero 2x2x2 tensors over GF(3): rank 1,
# the three orbits with one flattening of rank 1, W, and a nonzero square
# and a non-square hyperdeterminant
ORBITS_2X2X2 = (_e(0), _e(0, 3), _e(0, 5), _e(0, 6), _e(1, 2, 4), _e(0, 7),
                (0, 1, 1, 0, 1, 0, 0, 2))


def test_t3_engine_matches_naive_witnesses():
    rng = random.Random(303)
    S = segre((1, 1, 1), gf(3))  # 64 points
    T = segre((1, 2), gf(3))  # 52 points
    targets = ([Tensor.of(S, c) for c in ORBITS_2X2X2]
               + _random_targets(S, rng, 1) + _random_targets(T, rng, 3))
    for q in targets:
        assert _points(spanning_sets(q, 3)) == _naive(q, 3), q.coords


@pytest.mark.parametrize("coords,count,digest", [
    ((0, 1, 1, 0, 1, 0, 0, 2), 2640,  # non-square hyperdeterminant
     "076612529b7bc7a40feffeb232459129640275c216eb8fdb54cc5fa5c09031dc"),
    (_e(1, 2, 4), 3751,  # W
     "0ec4ca9022a144353931bbbaf9feda195d2483853e8acb0520943b607e3b353f"),
], ids=["nonsquare", "W"])
def test_t3_witnesses_frozen_over_gf11(coords, count, digest):
    # recorded before the anchor engine existed, so they check it
    # independently
    res = spanning_sets(Tensor.of(segre((1, 1, 1), gf(11)), coords), 3,
                        budget=10 ** 9)
    triples = sorted(tuple(w.provenance["indices"]) for w in res.witnesses)
    assert len(triples) == count
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


@pytest.mark.parametrize("coords, count", [
    ((0, 1, 1, 0, 1, 0, 0, 2), 2640), (_e(1, 2, 4), 3751),
], ids=["nonsquare", "W"])
def test_t3_hands_the_verifier_only_witnesses(coords, count):
    # the frozen counts above are the witnesses; at t=3 the engine's
    # filters are exact, so it yields those and nothing else
    S = segre((1, 1, 1), gf(11))
    found = list(candidates(S.field, ground_set(S).residues, coords, 3))
    assert len(found) == count


def test_t4_witnesses_frozen_over_gf3():
    # W; recorded with the depth-first t>=4 engine that the prefix walk
    # replaced, so they check the walk independently
    res = spanning_sets(Tensor.of(segre((1, 1, 1), gf(3)), _e(1, 2, 4)), 4,
                        budget=10 ** 9)
    quads = sorted(tuple(w.provenance["indices"]) for w in res.witnesses)
    assert len(quads) == 1428
    assert hashlib.sha256(repr(quads).encode()).hexdigest() == \
        "458767bde3c358442f379c712290cdc2a9c50c495ce3cf030d94dad3d5d322d1"


def test_t5_candidates_frozen_over_gf3():
    # W; recorded while the engine still reduced with numpy's `%` and
    # filtered every anchor block alone.  The t=3 and t=4 digests reach
    # prefix depths 0 and 1; this one walks depth 2
    S = segre((1, 1, 1), gf(3))
    W = Tensor.of(S, _e(1, 2, 4))
    found = list(candidates(S.field, ground_set(S).residues, W.coords, 5))
    assert len(found) == 70955
    assert hashlib.sha256(repr(found).encode()).hexdigest() == \
        "629a531ff6c1242ab7c99a5fd8cbd08a26241d0c69f6c13be617e9fed3910f23"


def _first_prefix_node(found):
    """The candidates of the first prefix node of a t=4 search."""
    first = next(found)
    return [first] + list(itertools.takewhile(lambda c: c[0] == first[0],
                                              found))


def _peak_memory(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_t3_engine_peak_memory_stays_small():
    S = segre((1, 1, 1), gf(11))
    cols = ground_set(S).columns  # 1728 points, C(1728, 2) ~ 1.5M pairs
    q = (0, 1, 1, 0, 1, 0, 0, 2)
    found, peak = _peak_memory(lambda: list(candidates(S.field, cols, q, 3)))
    assert len(found) == 2640
    assert peak < 16 * 2 ** 20
    # t=4: one whole prefix node, an anchor search on the 1727 later rows
    found, peak = _peak_memory(
        lambda: _first_prefix_node(candidates(S.field, cols, q, 4)))
    assert found and all(c[0] == found[0][0] for c in found)
    assert peak < 16 * 2 ** 20


def test_numpy_engines_at_the_largest_modulus_they_take():
    # (p-1)^2 < 2^63 still holds; ray keys need two int64 words here
    F = FieldSpec(3037000493)
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert list(candidates(F, cols, (1, 2, 3), 3)) == \
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert list(candidates(F, cols, (1, 1, 0), 2)) == [(0, 1), (2, 3)]
    # every 4 of the 5 columns is a witness of (1, 2, 3, 4)
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 1, 1)]
    assert _engine_against_the_definition(F, cols, (1, 2, 3, 4), 4) == \
        list(itertools.combinations(range(5), 4))


def test_numpy_engines_on_64_coordinates_over_gf2():
    # a GF(2) key word holds 63 digits; with q = e1^(x)6 the image of the
    # all-ones point in V/<q> is one in each of the first 63 coordinates
    S = segre([1] * 6, gf(2))
    q = Tensor.of(S, embed(S, pt(S, *[E1] * 6)).coords)
    counts = [len(spanning_sets(q, t, budget=math.comb(729, t)).witnesses)
              for t in (2, 3)]
    assert counts == [6, 60]
    # against the definition, on the points that differ from q in at most
    # two of the first four factors, and the all-ones point
    g = ground_set(S)
    near = [i for i, p in enumerate(g.points)
            if p.coords[4:] == (E1, E1)
            and sum(v != E1 for v in p.coords) <= 2
            or p.coords == ((1, 1),) * 6]
    cols = [g.columns[i] for i in near]
    assert len(cols) == 34
    for t in (2, 3, 4):
        assert _engine_against_the_definition(S.field, cols, q.coords, t)


def _clustered_columns(p, n, seed):
    """Distinct canonical columns of length n over GF(p) in a random
    4-dimensional subspace, so that many triples are witnesses, plus
    columns that the t=3 engine's two filters must drop: c = b + q
    (b and c parallel modulo q) and c = a + b (a, b, c collinear)."""
    F = FieldSpec(p)
    rng = random.Random(seed)
    basis = [[rng.randrange(p) for _ in range(n)] for _ in range(4)]

    def comb(coeffs):
        return [sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                for i in range(n)]

    q = tuple(comb([rng.randrange(p) for _ in range(4)]))
    cols = []
    for _ in range(24):
        v = comb([rng.randrange(p) for _ in range(4)])
        if any(v):
            cols.append(canonical_vector(F, v))
    for k in range(3):
        cols.append(canonical_vector(F, [(x + y) % p for x, y in
                                         zip(cols[2 * k], q)]))
        cols.append(canonical_vector(F, [(x + y) % p for x, y in
                                         zip(cols[2 * k], cols[2 * k + 1])]))
    return F, sorted(set(cols)), q


# _clustered_columns gives 30 columns at these n, so the t=3 search is
# one block of 28 anchors and 29 rows: 812 pairs, 10 position bits.  A
# ray key has n - 1 digits, as q's lead column is dropped, and a GF(11)
# key word holds 18
@pytest.mark.parametrize("n, key_shape", [
    (5, ()),      # one word, anchor and position folded in; 11^4 < 2^31
    (14, ()),     # 28 * 11^13 << 10 < 2^63: folded, at the fit; int64
    (15, (2,)),   # 28 * 11^14 < 2^63, but << 10 it is not: lexsort
    (18, (2,)),   # one word (11^17 < 2^63), but 28 * 11^17 > 2^63
    (20, (3,)),   # 19 digits, two words: lexsort
], ids=["folded", "folded_at_the_fit", "unfolded_by_the_position",
        "unfolded", "two_words"])
def test_t3_key_shapes_against_the_definition(monkeypatch, n, key_shape):
    F, cols, q = _clustered_columns(11, n, seed=n)
    assert len(cols) == 30
    shapes = []
    runs = quotient._equal_key_runs

    def spy(keys, bits=0):
        shapes.append(keys.shape[1:])
        return runs(keys, bits)

    monkeypatch.setattr(quotient, "_equal_key_runs", spy)
    found = _engine_against_the_definition(F, cols, q, 3)
    assert shapes == [key_shape]  # the columns fit in one block
    assert len(found) >= 20
    # t=4 runs one anchor search per prefix node; a node left with few
    # rows folds a one-word key that its largest nodes cannot
    shapes.clear()
    assert len(_engine_against_the_definition(F, cols, q, 4)) >= 20
    assert key_shape in shapes
    if n in (15, 18):
        assert () in shapes


def _filter_batches(monkeypatch):
    """Two lists: one that gets, for each filter batch of the anchor
    search, the run-member counts of the blocks it gathered, and one
    that gets each block's pair count."""
    batches, blocks, sizes = [], [], []
    runs, filter_runs = quotient._equal_key_runs, quotient._filter_runs

    def runs_spy(keys, bits=0):
        pos, start = runs(keys, bits)
        blocks.append(len(pos))
        sizes.append(len(keys))
        return pos, start

    def filter_spy(*args):
        batches.append(blocks[:])
        blocks.clear()
        return filter_runs(*args)

    monkeypatch.setattr(quotient, "_equal_key_runs", runs_spy)
    monkeypatch.setattr(quotient, "_filter_runs", filter_spy)
    return batches, sizes


@pytest.mark.parametrize("block_rows", [1, 2, 7, 32])
def test_anchor_search_at_small_block_sizes(monkeypatch, block_rows):
    # at 1 and 2 every block holds one anchor, and a block with a run
    # fills a filter batch; at 7 and 32 the blocks near the end hold
    # several anchors, a batch gathers the runs of several blocks, and
    # the last block, cut short at anchor M - 2, ends a partial batch
    monkeypatch.setattr(quotient, "_T3_BLOCK_ROWS", block_rows)
    F, cols, q = _clustered_columns(11, 5, seed=block_rows)
    batches, sizes = _filter_batches(monkeypatch)
    assert len(_engine_against_the_definition(F, cols, q, 3)) >= 20
    # one anchor per block: each block's tail is one row shorter
    assert (sizes == list(range(sizes[0], 1, -1))) == (block_rows <= 2)
    # a batch is filtered at the first block that fills it
    assert all(sum(b[:-1]) < block_rows <= sum(b) for b in batches[:-1])
    assert sum(batches[-1][:-1]) < block_rows
    if block_rows > 2:
        assert any(len(b) > 1 for b in batches)
        assert sum(batches[-1]) < block_rows
    assert len(_engine_against_the_definition(F, cols, q, 4)) >= 20


@pytest.mark.parametrize("p, dtype, exhaustive", [
    (11, np.int8, True),      # the last prime of each dtype
    (181, np.int16, True),
    (46337, np.int32, False),
    (3037000493, np.int64, False),
])
def test_mod_matches_python_over_the_operand_range(p, dtype, exhaustive):
    # the engine reduces x in [-(p-1)^2, (p-1)^2 + p]: products and
    # differences of residues
    lo, hi = -(p - 1) ** 2, (p - 1) ** 2 + p
    if exhaustive:
        xs = list(range(lo, hi + 1))
    else:
        rng = random.Random(p)
        xs = ([lo, lo + 1, hi - 1, hi, 0, 1, -1, p, -p, p - 1, 1 - p]
              + [rng.randint(lo, hi) for _ in range(20000)])
    want = [x % p for x in xs]
    x = np.array(xs, dtype=dtype)
    got = quotient._mod(x, p)
    assert got.dtype == dtype and got.tolist() == want
    assert x.tolist() == xs
    assert quotient._mod(x, p, out=x) is x
    assert x.dtype == dtype and x.tolist() == want


def _residue_dtype(p):
    """The dtype `_quotient` holds GF(p) residues in."""
    return quotient._quotient(FieldSpec(p), [(1,)], (1,))[0].dtype


@pytest.mark.parametrize("p, dtype", [
    (11, np.int8),      # the last prime with (p-1)^2 + p < 2^7
    (13, np.int16),
    (181, np.int16),    # the last prime with (p-1)^2 + p < 2^15
    (191, np.int32),
    (46337, np.int32),  # the last prime with (p-1)^2 + p < 2^31
    (46349, np.int64),
])
def test_numpy_engines_at_the_residue_dtype_edges(p, dtype):
    F, cols, q = _clustered_columns(p, 5, seed=p)
    emb, img = quotient._quotient(F, cols, q)
    assert emb.dtype == img.dtype == dtype
    for t in (2, 3, 4):
        assert _engine_against_the_definition(F, cols, q, t)


_ROWS = st.sampled_from([2, 3, 11, 13, 181, 191, 46337, 46349,
                         3037000493]).flatmap(
    lambda p: st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(p), st.lists(
            st.one_of(st.just([0] * n),
                      st.lists(st.integers(0, p - 1), min_size=n,
                               max_size=n)),
            min_size=1, max_size=8))))


@settings(max_examples=80, deadline=None)
@given(_ROWS)
def test_canonical_rows_match_canonical_vector(case):
    p, rows = case
    got, lead = _canonical(np.array(rows, dtype=_residue_dtype(p)), p)
    for row, out, li in zip(rows, got.tolist(), lead.tolist()):
        if any(row):
            assert tuple(out) == canonical_vector(FieldSpec(p), row)
            assert li == next(i for i, x in enumerate(row) if x)
        else:
            assert out == row and li == 0


@pytest.mark.parametrize("p", [11, 13, 181, 191, 46337, 46349])
def test_ground_set_residues_are_its_columns_in_the_engine_dtype(p):
    g = ground_set(segre((1,), gf(p)))
    assert g.residues.dtype == _residue_dtype(p)
    assert np.array_equal(g.residues,
                          np.array(g.columns, dtype=_residue_dtype(p)))
    assert not g.residues.flags.writeable


@pytest.mark.parametrize("t, p, coords", [(2, 5, _e(0, 7)),
                                           (3, 5, _e(1, 2, 4)),
                                           (4, 3, _e(1, 2, 4))],
                         ids=["t2", "t3", "t4"])
def test_spanning_sets_runs_the_engines_on_the_ground_residues(
        monkeypatch, t, p, coords):
    S = segre((1, 1, 1), gf(p))
    g = ground_set(S)
    seen = []

    def spy(field, cols, qvec, tt):
        seen.append((cols, tt))
        return candidates(field, cols, qvec, tt)

    monkeypatch.setattr(quotient, "candidates", spy)
    res = spanning_sets(Tensor.of(S, coords), t)
    assert len(seen) == 1 and seen[0][0] is g.residues and seen[0][1] == t
    found = [tuple(w.provenance["indices"]) for w in res.witnesses]
    assert found == [c for c in candidates(S.field, list(g.columns), coords,
                                           t)
                     if _is_witness(S.field, [g.columns[i] for i in c],
                                    coords)]
    assert found


def test_ground_sets_build_over_a_modulus_the_engines_refuse():
    # no residue dtype holds (p-1)^2 + p: t=1 still answers, t=2 and
    # t=4 refuse
    S = segre((1, 1), FieldSpec(2 ** 61 - 1))
    y = SubspaceSpec.of(S, [(E0,), (E0,)])
    q = Tensor.of(S, (1, 0, 0, 0))
    assert ground_set(S, y).residues is None
    assert brute_rank(q, within=y).rank == 1
    with pytest.raises(ModulusTooLarge):
        spanning_sets(q, 2, within=y)
    with pytest.raises(ModulusTooLarge):
        spanning_sets(q, 4, within=y)


@pytest.mark.parametrize("space, coords, t", [
    (segre((1, 1), gf(3)), (1, 0, 0, 0), 1),
    (segre((1, 1), gf(3)), (1, 0, 0, 1), 2),
    (segre((1, 1, 1), gf(3)), (0, 1, 1, 0, 1, 0, 0, 0), 3),  # W
    (segre((1, 1), gf(3)), (1, 0, 0, 1), 4),
], ids=["t1", "t2", "t3", "t4"])
def test_witness_report_matches_a_fresh_solve(space, coords, t):
    # the oracle's exact solve is cached as each witness's report
    q = Tensor.of(space, coords)
    res = spanning_sets(q, t, budget=10 ** 6)
    assert res.witnesses
    for w in res.witnesses:
        rep = verify_irredundant(w)
        fresh = verify_irredundant(Decomposition(space, w.points, q))
        assert (rep.independent, rep.in_span, rep.irredundant) == \
            (fresh.independent, fresh.in_span, fresh.irredundant) == \
            (True, True, True)
        assert rep.values == fresh.values
        assert len(rep.values) == t


# -------------------------------------------------------------- gap profile

def _rnc_target(p):
    V = veronese(1, 4, gf(p))
    return Tensor.of(V, (1, 0, 0, 0, 1))


def test_gap_profile_quartic_over_gf5():
    prof = gap_profile(_rnc_target(5))
    assert prof.rank == 2
    # the top cardinality N+1 is empty here: small fields can starve it
    assert [(t, c) for t, c, _ in prof.entries] == \
        [(2, 1), (3, 0), (4, 1), (5, 0)]
    assert prof.gaps == (3,)


def test_gap_profile_quartic_over_gf7():
    prof = gap_profile(_rnc_target(7))
    assert prof.rank == 2
    assert [(t, c) for t, c, _ in prof.entries] == \
        [(2, 1), (3, 0), (4, 2), (5, 28)]
    assert prof.gaps == (3,)


def test_gap_profile_csv_shape():
    prof = gap_profile(_rnc_target(5))
    rows = prof.csv_rows()
    assert rows[0] == ("t", "nonempty", "witness_count_or_bound")
    assert rows[1:] == [("2", "true", "1"), ("3", "false", "0"),
                        ("4", "true", "1"), ("5", "false", "0")]


def test_gap_profile_witnesses_verify():
    prof = gap_profile(_rnc_target(7))
    for t, c, w in prof.entries:
        if c:
            assert w is not None and len(w.points) == t
            assert verify_irredundant(w).irredundant


# ------------------------------------------------------------ min concise t

def test_min_concise_t_basis_tensor_gf3():
    S = segre((1, 1), gf(3))
    res = min_concise_t(Tensor.of(S, (1, 0, 0, 0)))
    assert (res.t, res.rank, res.non_concise_ts) == (3, 1, (1, 2))
    assert verify_irredundant(res.witness).irredundant
    assert set_envelope(S, res.witness.points).is_full
    # the first concise witness in ascending order, and every layer
    # counted once: sum of C(16, t) for t = 1..3
    assert res.witness.points == (pt(S, E1, E1), pt(S, E1, (1, 1)),
                                  pt(S, (1, 1), E0))
    assert res.witness.provenance["indices"] == [0, 2, 9]
    assert res.search_space_size == 16 + 120 + 560 == 696


def test_min_concise_t_concise_target_needs_no_extra():
    S = segre((1, 1), gf(3))
    res = min_concise_t(Tensor.of(S, (1, 0, 0, 1)))
    assert (res.t, res.rank, res.non_concise_ts) == (2, 2, ())
    assert res.witness.points == (pt(S, E1, E1), pt(S, E0, E0))
    assert res.search_space_size == 16 + 120


def test_min_concise_t_veronese_uses_span_concision():
    res = min_concise_t(_rnc_target(5))
    assert res.t == res.rank == 2
    assert set_envelope(res.witness.space, res.witness.points).dims == (1,)


def test_min_concise_t_needs_finite_field():
    S = segre((1, 1))
    with pytest.raises(FieldNotFinite):
        min_concise_t(Tensor.of(S, (1, 0, 0, 1)))


# --------------------------------------------------------------------- json

def test_certificate_json_shape():
    S = segre((1, 1), gf(2))
    cert = brute_rank(Tensor.of(S, (1, 0, 0, 1)))
    j = cert.to_json()
    assert j["rank"] == 2
    assert j["search_space_size"] == 45
    assert len(j["minimal_decompositions"]) == 3
    assert all(isinstance(w, list) for w in j["minimal_decompositions"])


def test_gap_profile_json_shape():
    j = gap_profile(_rnc_target(5)).to_json()
    assert j["rank"] == 2 and j["gaps"] == [3]
    assert [e["t"] for e in j["entries"]] == [2, 3, 4, 5]
    assert [e["nonempty"] for e in j["entries"]] == [True, False, True, False]


def test_t3_engine_refuses_moduli_that_overflow_int64():
    # (p-1)^2 >= 2^63 would wrap in the int64 residue products
    big = FieldSpec(2 ** 61 - 1)
    # 3037000507 is the first prime with (p-1)^2 >= 2^63 (the prime
    # before it is 3037000493)
    edge = FieldSpec(3037000507)
    assert (3037000493 - 1) ** 2 < 2 ** 63 <= (edge.modulus - 1) ** 2
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    for t in (3, 4):
        for field in (big, edge):
            with pytest.raises(ModulusTooLarge):
                list(candidates(field, cols, (1, 1, 0), t))
        assert list(candidates(FieldSpec(101), cols, (1, 1, 0), t)) == []
