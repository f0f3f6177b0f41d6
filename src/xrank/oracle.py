"""Finite-field brute-force rank oracle.

Enumerates all rational points of the embedded variety over GF(p) and
searches size-t subsets that give irredundant decompositions of a target.
Witness sets are found by quotienting out the target: a size-t subset
works iff its points are independent and their images in V/<q> carry a
dependency with full support (a circuit).  t=1 scans for the points
whose columns are parallel to q.  Every t >= 2 runs one numpy engine,
`xrank.quotient.candidates`, on the residue matrix a ground set builds
once: ray buckets in V/<q> for t=2, and for t >= 3 a walk over the
prefixes of t-3 points independent in V/<q> with an anchor search in
V/<q, prefix, anchor> at each.  That module, and numpy with it, is
imported only when the first GF(p) ground set is built, so this module
loads without numpy.  A naive subset scan is kept as a reference engine
for cross-testing.  Every candidate passes through
`verify_irredundant`, the exact verification used everywhere else, so
engine bugs can only lose witnesses, not invent them; the test suite
compares engines against the naive scan to guard the losing direction.
The report that verification caches on a witness is the one the
constructions read, so a witness is solved only once.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .decomp import Decomposition, set_envelope, verify_irredundant
from .errors import (BudgetExceeded, FieldNotFinite, InvalidInput,
                     NoConciseWitness, SpaceMismatch, TargetNotSpanned)
from .exactlin import Echelon
from .geometry import (MultiProjectiveSpace, SubspaceSpec, Tensor,
                       ambient_dim, canonical_vector, count_points, embed,
                       enumerate_points)

DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------- ground sets

@dataclass(frozen=True)
class GroundSet:
    """All rational points of the (sub)variety with embedded coordinates.
    `residues` holds the columns as the read-only numpy matrix the
    quotient engine runs on (`quotient.residue_matrix`), or None when the
    modulus is too large for it; `span` is the columns' echelon basis
    (never mutated).  Neither takes part in equality or hashing."""
    space: MultiProjectiveSpace
    within: Optional[SubspaceSpec]
    points: tuple
    columns: tuple
    residues: object = dataclass_field(default=None, compare=False,
                                       repr=False)
    span: Optional[Echelon] = dataclass_field(default=None, compare=False,
                                              repr=False)

    @property
    def size(self) -> int:
        return len(self.points)


def _ground(space, within, pts, cols):
    # the first GF(p) ground set imports the numpy engine
    from .quotient import residue_matrix
    return GroundSet(space, within, pts, cols,
                     residue_matrix(space.field.modulus, cols),
                     Echelon(space.field, cols))


@lru_cache(maxsize=64)
def _ground_full(space: MultiProjectiveSpace) -> GroundSet:
    pts = tuple(enumerate_points(space))
    cols = tuple(embed(space, p).coords for p in pts)
    return _ground(space, None, pts, cols)


@lru_cache(maxsize=64)
def _ground_within(ysub: SubspaceSpec) -> GroundSet:
    space = ysub.space
    reduced = ysub.reduced_space()
    pts = []
    cols = []
    for rp in enumerate_points(reduced):
        ap = ysub.lift_point(rp)
        pts.append(ap)
        cols.append(embed(space, ap).coords)
    return _ground(space, ysub, tuple(pts), tuple(cols))


def _ground_space(space, within):
    """The space whose points make up the ground set."""
    if not space.field.is_finite:
        raise FieldNotFinite("the oracle enumerates points over GF(p) only")
    if within is not None and within.space != space:
        raise SpaceMismatch("subspace spec is for a different space")
    return space if within is None else within.reduced_space()


def ground_set(space: MultiProjectiveSpace,
               within: Optional[SubspaceSpec] = None) -> GroundSet:
    _ground_space(space, within)
    return _ground_full(space) if within is None else _ground_within(within)


def _search_size(space, within, t, budget):
    """C(M, t) for the M ground points, counted without enumerating them;
    raises BudgetExceeded above the budget."""
    M = count_points(_ground_space(space, within))
    size = math.comb(M, t)
    if size > budget:
        raise BudgetExceeded(
            "search space C(%d,%d)=%d exceeds budget %d; pass budget>=%d "
            "to run anyway" % (M, t, size, budget, size))
    return size


# ----------------------------------------------------------------- results

@dataclass(frozen=True)
class SpanningSets:
    """Witness search result at fixed cardinality t.  `complete` is False
    when exists-mode (or a result cap) cut the enumeration short."""
    target: Tensor
    t: int
    witnesses: tuple
    search_space_size: int
    complete: bool

    @property
    def count(self) -> int:
        return len(self.witnesses)

    def to_json(self):
        return {"t": self.t, "count": self.count,
                "complete": self.complete,
                "search_space_size": self.search_space_size,
                "witnesses": [w.to_json() for w in self.witnesses]}


@dataclass(frozen=True)
class RankCertificate:
    """Exhaustively certified rank with every minimal decomposition."""
    target: Tensor
    rank: int
    witnesses: tuple
    search_space_size: int
    within: Optional[SubspaceSpec] = None

    @property
    def minimal_decompositions(self) -> tuple:
        return tuple(w.points for w in self.witnesses)

    def to_json(self):
        out = {"rank": self.rank,
               "search_space_size": self.search_space_size,
               "minimal_decompositions":
                   [[p.to_json() for p in pts]
                    for pts in self.minimal_decompositions]}
        if self.within is not None:
            out["within"] = self.within.to_json()
        return out


@dataclass(frozen=True)
class GapProfile:
    """Witness landscape for every cardinality from the rank to N+1.

    entries: tuple of (t, count, witness Decomposition or None).  A gap is
    an empty t strictly between the rank and N+1.
    """
    target: Tensor
    rank: int
    max_t: int
    entries: tuple
    search_space_size: int

    @property
    def gaps(self) -> tuple:
        return tuple(t for t, c, _ in self.entries
                     if c == 0 and self.rank < t < self.max_t)

    def to_json(self):
        return {"rank": self.rank, "max_t": self.max_t,
                "entries": [{"t": t, "nonempty": c > 0, "witness_count": c,
                             "witness": (None if w is None
                                         else [p.to_json()
                                               for p in w.points])}
                            for t, c, w in self.entries],
                "gaps": list(self.gaps),
                "search_space_size": self.search_space_size}

    def csv_rows(self):
        """Rows for the CSV export: t, nonempty, witness_count_or_bound."""
        out = [("t", "nonempty", "witness_count_or_bound")]
        for t, c, _ in self.entries:
            out.append((str(t), "true" if c > 0 else "false", str(c)))
        return out


class ConciseResult(NamedTuple):
    t: int
    witness: Decomposition
    rank: int
    non_concise_ts: tuple
    search_space_size: int

    def to_json(self):
        return {"t": self.t, "rank": self.rank,
                "non_concise_ts": list(self.non_concise_ts),
                "search_space_size": self.search_space_size,
                "witness": self.witness.to_json()}


# ------------------------------------------------------------- public API

def spanning_sets(q: Tensor, t: int, mode: str = "all", *,
                  within: Optional[SubspaceSpec] = None,
                  budget: int = DEFAULT_BUDGET,
                  engine: str = "auto",
                  predicate: Optional[Callable] = None) -> SpanningSets:
    """Irredundant size-t decompositions of q from ground points, in
    ascending index order.  mode="exists" stops at the first witness;
    `predicate` filters verified witnesses before they count.
    engine="auto" scans for columns parallel to q at t=1 and runs
    `quotient.candidates` at every t >= 2; engine="naive" tries every
    size-t subset.  Either way each candidate is verified exactly."""
    space = q.space
    if t < 1:
        raise InvalidInput("t must be >= 1")
    if mode not in ("all", "exists"):
        raise InvalidInput("mode must be 'all' or 'exists'")
    if engine not in ("auto", "naive"):
        raise InvalidInput("engine must be auto or naive")
    size = _search_size(space, within, t, budget)
    g = ground_set(space, within)
    field = space.field
    if not g.span.contains(q.coords):
        return SpanningSets(q, t, (), size, True)
    if engine == "naive":
        cand = itertools.combinations(range(g.size), t)
    elif t == 1:  # q.coords is canonical; runs without residues too
        cand = ((i,) for i, col in enumerate(g.columns)
                if canonical_vector(field, col) == q.coords)
    else:
        from . import quotient  # loaded with the ground set
        cand = quotient.candidates(field, g.residues, q.coords, t)
    witnesses = []
    complete = True
    for tup in cand:
        d = Decomposition(space, [g.points[i] for i in tup], q,
                          {"source": "oracle", "t": t, "indices": list(tup)}
                          )._with_columns([g.columns[i] for i in tup])
        if not verify_irredundant(d).irredundant:
            continue
        if predicate is not None and not predicate(d):
            continue
        witnesses.append(d)
        if mode == "exists":
            complete = False
            break
    return SpanningSets(q, t, tuple(witnesses), size, complete)


def brute_rank(q: Tensor, *, within: Optional[SubspaceSpec] = None,
               budget: int = DEFAULT_BUDGET,
               engine: str = "auto") -> RankCertificate:
    """Smallest t admitting an irredundant size-t decomposition from
    ground points, with all minimal decompositions.  Raises
    TargetNotSpanned when the ground set cannot express the target."""
    space = q.space
    _search_size(space, within, 1, budget)
    g = ground_set(space, within)
    big = g.span.rank
    if not g.span.contains(q.coords):
        raise TargetNotSpanned(
            "target lies outside the span of the %d ground points" % g.size)
    searched = 0
    for t in range(1, big + 1):
        ss = spanning_sets(q, t, "all", within=within, budget=budget,
                           engine=engine)
        searched += ss.search_space_size
        if ss.witnesses:
            return RankCertificate(q, t, ss.witnesses, searched, within)
    raise TargetNotSpanned("no witness found up to the ground rank %d; "
                           "this should be unreachable" % big)


def gap_profile(q: Tensor, *, within: Optional[SubspaceSpec] = None,
                budget: int = DEFAULT_BUDGET) -> GapProfile:
    """Full witness landscape for t from the rank up to N+1, N the
    projective dimension of the searched span."""
    cert = brute_rank(q, within=within, budget=budget)
    if within is None:
        N = ambient_dim(q.space)
    else:
        N = ambient_dim(within.reduced_space())
    searched = cert.search_space_size
    entries = []
    for t in range(cert.rank, N + 2):
        if t == cert.rank:
            wits = cert.witnesses
            entries.append((t, len(wits), wits[0]))
            continue
        ss = spanning_sets(q, t, "all", within=within, budget=budget)
        searched += ss.search_space_size
        entries.append((t, ss.count,
                        ss.witnesses[0] if ss.witnesses else None))
    return GapProfile(q, cert.rank, N + 1, tuple(entries), searched)


def min_concise_t(q: Tensor, *, budget: int = DEFAULT_BUDGET) -> ConciseResult:
    """Smallest t admitting an irredundant size-t decomposition whose set
    envelope is the whole space, with a witness.  Cardinalities below the
    answer are fully enumerated and reported as non-concise-only."""
    space = q.space
    cert = brute_rank(q, budget=budget)
    big = ground_set(space).span.rank

    def full_env(d):
        return set_envelope(space, d.points).is_full

    searched = cert.search_space_size
    non_concise = []
    for t in range(cert.rank, big + 1):
        ss = spanning_sets(q, t, "exists", budget=budget,
                           predicate=full_env)
        searched += ss.search_space_size
        if ss.witnesses:
            return ConciseResult(t, ss.witnesses[0], cert.rank,
                                 tuple(non_concise), searched)
        non_concise.append(t)
    raise NoConciseWitness(
        "no irredundant decomposition with full envelope up to t=%d" % big)
