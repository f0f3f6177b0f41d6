"""Finite-field brute-force rank oracle.

Enumerates all rational points of the embedded variety over GF(p) and
searches size-t subsets that give irredundant decompositions of a target.
Witness sets are found by quotienting out the target: a size-t subset
works iff its points are independent and their images in V/<q> carry a
dependency with full support (a circuit).  Engines: t=1 scans for points
parallel to q; t=2 buckets by quotient ray; t=3 buckets point pairs by
quotient plane (numpy); t>=4 runs a depth-first search over
independent-quotient prefixes.  A naive subset scan is kept as a
reference engine for cross-testing.  Every candidate passes through the
same exact verification used everywhere else, so engine bugs can only
lose witnesses, not invent them; the test suite compares engines against
the naive scan to guard the losing direction.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .decomp import Decomposition, set_envelope
from .errors import (BudgetExceeded, FieldNotFinite, InvalidInput,
                     ModulusTooLarge, NoConciseWitness, SpaceMismatch,
                     TargetNotSpanned)
from .exactlin import Echelon, solve_columns
from .geometry import (MultiProjectiveSpace, SubspaceSpec, Tensor,
                       ambient_dim, embed, enumerate_points)

DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------- ground sets

@dataclass(frozen=True)
class GroundSet:
    """All rational points of the (sub)variety with embedded coordinates."""
    space: MultiProjectiveSpace
    within: Optional[SubspaceSpec]
    points: tuple
    columns: tuple

    @property
    def size(self) -> int:
        return len(self.points)


@lru_cache(maxsize=64)
def _ground_full(space: MultiProjectiveSpace) -> GroundSet:
    pts = tuple(enumerate_points(space))
    cols = tuple(embed(space, p).coords for p in pts)
    return GroundSet(space, None, pts, cols)


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
    return GroundSet(space, ysub, tuple(pts), tuple(cols))


def ground_set(space: MultiProjectiveSpace,
               within: Optional[SubspaceSpec] = None) -> GroundSet:
    if not space.field.is_finite:
        raise FieldNotFinite("the oracle enumerates points over GF(p) only")
    if within is not None:
        if within.space != space:
            raise SpaceMismatch("subspace spec is for a different space")
        return _ground_within(within)
    return _ground_full(space)


# ------------------------------------------------------------ span caching

@lru_cache(maxsize=64)
def _ground_span(g: GroundSet) -> Echelon:
    """Echelon basis of the ground columns' span (never mutated)."""
    return Echelon(g.space.field, g.columns)


# ------------------------------------------------------------ exact verifier

def _is_witness(field, cols, qvec):
    """Definitional check: columns independent, q in their span, all
    coefficients nonzero.  Returns (ok, coefficients)."""
    sol = solve_columns(field, cols, qvec)
    if not sol.independent or sol.coefficients is None:
        return False, None
    if any(c == 0 for c in sol.coefficients):
        return False, None
    return True, sol.coefficients


def _project_rows(field, cols, qvec):
    """Images of the columns in V/<q>, as coordinate rows with the pivot
    coordinate of q dropped."""
    s = next(i for i, x in enumerate(qvec) if x != 0)
    inv = field.inv(qvec[s])
    qhat = tuple(field.mul(x, inv) for x in qvec)
    out = []
    for v in cols:
        c = v[s]
        w = tuple(field.sub(x, field.mul(c, y)) for x, y in zip(v, qhat))
        out.append(w[:s] + w[s + 1:])
    return out


# ------------------------------------------------------- candidate engines

def _t1_candidates(field, cols, qvec) -> Iterator[tuple]:
    proj = _project_rows(field, cols, qvec)
    for i, w in enumerate(proj):
        if all(x == 0 for x in w):
            yield (i,)


def _t2_candidates(field, cols, qvec) -> Iterator[tuple]:
    proj = _project_rows(field, cols, qvec)
    buckets = {}
    for i, w in enumerate(proj):
        lead = next((j for j, x in enumerate(w) if x != 0), None)
        if lead is None:
            continue
        inv = field.inv(w[lead])
        key = tuple(field.mul(x, inv) for x in w)
        buckets.setdefault(key, []).append(i)
    pairs = []
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            pairs.append((a, b))
    pairs.sort()
    return iter(pairs)


def _dfs_candidates(field, cols, qvec, t) -> Iterator[tuple]:
    """Lex-ordered subsets whose quotient images have rank t-1 with the
    last point closing the dependency.  Superset of the witnesses; the
    exact verifier rejects dependencies with missing support."""
    proj = _project_rows(field, cols, qvec)
    M = len(cols)
    span = Echelon(field)  # quotient images of the chosen prefix

    def rec(start, chosen):
        if len(chosen) == t - 1:
            for l in range(start, M):
                if span.contains(proj[l]):
                    yield chosen + (l,)
            return
        for i in range(start, M - (t - 1 - len(chosen))):
            if not span.insert(proj[i]):
                continue
            yield from rec(i + 1, chosen + (i,))
            span.pop()

    yield from rec(0, ())


def _inv_table(p):
    """Inverse table mod p by vectorized binary exponentiation."""
    v = np.arange(p, dtype=np.int64)
    r = np.ones(p, dtype=np.int64)
    base = v.copy()
    e = p - 2
    while e:
        if e & 1:
            r = (r * base) % p
        base = (base * base) % p
        e >>= 1
    r[0] = 0
    return r


def _pack_digits(digits, p):
    """Pack base-p digit rows into int64 key words."""
    n, nd = digits.shape
    dpw = max(1, int(63 // math.log2(max(2, p))))
    nwords = (nd + dpw - 1) // dpw
    words = np.zeros((n, nwords), dtype=np.int64)
    for wi in range(nwords):
        chunk = digits[:, wi * dpw:(wi + 1) * dpw]
        acc = np.zeros(n, dtype=np.int64)
        for c in range(chunk.shape[1]):
            acc = acc * p + chunk[:, c]
        words[:, wi] = acc
    return words


def _pair_plane_keys(canon, lead, ii, jj, p, INV):
    """Canonical RREF key of the plane spanned by each (non-parallel)
    projected pair, packed into int64 words."""
    A, B = canon[ii], canon[jj]
    la, lb = lead[ii], lead[jj]
    swap = la > lb
    A2 = np.where(swap[:, None], B, A)
    B2 = np.where(swap[:, None], A, B)
    l2 = np.maximum(la, lb)
    neq = la != lb
    # distinct leads: reduce the first row at the second row's lead
    coef = np.take_along_axis(A2, l2[:, None], 1)
    r1_neq = (A2 - coef * B2) % p
    # equal leads: the normalized difference becomes the second row
    Ceq = (B2 - A2) % p
    leadC = np.argmax(Ceq != 0, axis=1).astype(np.int64)
    valC = np.take_along_axis(Ceq, leadC[:, None], 1)[:, 0]
    Chat = (Ceq * INV[valC][:, None]) % p
    coef2 = np.take_along_axis(A2, leadC[:, None], 1)
    r1_eq = (A2 - coef2 * Chat) % p
    row1 = np.where(neq[:, None], r1_neq, r1_eq)
    row2 = np.where(neq[:, None], B2, Chat)
    return _pack_digits(np.concatenate([row1, row2], axis=1), p)


_T3_CHUNK = 200_000
_INT64_LIMIT = 2 ** 63


def _t3_candidates(field, cols, qvec):
    """Plane-bucketed pair search: every witness triple (i<j<k) is found
    from its pair (i,j) plus a third point on the same quotient plane.
    Pairs are processed in chunks to bound memory."""
    p = field.modulus
    if (p - 1) ** 2 >= _INT64_LIMIT:
        raise ModulusTooLarge(
            "the t=3 engine multiplies residues in int64; GF(%d) needs "
            "(p-1)^2 < 2^63" % p)
    emb = np.array(cols, dtype=np.int64)
    qarr = np.array(qvec, dtype=np.int64)
    s = int(np.flatnonzero(qarr)[0])
    qhat = (qarr * pow(int(qarr[s]), p - 2, p)) % p
    proj = (emb - emb[:, s:s + 1] * qhat[None, :]) % p
    proj = np.delete(proj, s, axis=1)
    nzmask = proj.any(axis=1)
    idx = np.flatnonzero(nzmask)
    P = proj[idx]
    Dm = P.shape[1]
    if len(idx) < 3 or Dm < 2:
        return []
    INV = _inv_table(p)
    lead = np.argmax(P != 0, axis=1).astype(np.int64)
    lv = np.take_along_axis(P, lead[:, None], 1)[:, 0]
    canon = (P * INV[lv][:, None]) % p
    rwords = _pack_digits(canon, p)
    ii, jj = np.triu_indices(len(idx), 1)
    par = (rwords[ii] == rwords[jj]).all(axis=1)
    ii, jj = ii[~par], jj[~par]
    npairs = len(ii)
    if npairs == 0:
        return []
    key_parts = []
    for a in range(0, npairs, _T3_CHUNK):
        b = min(a + _T3_CHUNK, npairs)
        key_parts.append(_pair_plane_keys(canon, lead, ii[a:b], jj[a:b],
                                          p, INV))
    keys = np.concatenate(key_parts, axis=0)
    order = np.lexsort(keys.T[::-1])
    ii, jj, keys = ii[order], jj[order], keys[order]
    diff = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.concatenate([[0], np.flatnonzero(diff) + 1, [npairs]])
    lengths = np.diff(starts)
    # a circuit contributes all three of its pairs to one bucket
    big_runs = np.flatnonzero(lengths >= 3)
    triples = []
    for run in big_runs:
        a, b = int(starts[run]), int(starts[run + 1])
        gi, gj = ii[a:b], jj[a:b]
        loc = np.unique(np.concatenate([gi, gj]))
        if Echelon(field, [cols[int(idx[x])] for x in loc]).rank <= 2:
            continue
        rays = {int(x): tuple(int(w) for w in rwords[x]) for x in loc}
        spts = sorted(rays)
        for a1, b1 in zip(gi.tolist(), gj.tolist()):
            i1, j1 = (a1, b1) if a1 < b1 else (b1, a1)
            ri, rj = rays[i1], rays[j1]
            for k1 in spts:
                if k1 <= j1:
                    continue
                rk = rays[k1]
                if rk == ri or rk == rj:
                    continue
                triples.append((int(idx[i1]), int(idx[j1]), int(idx[k1])))
    triples.sort()
    return triples


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

    @property
    def nonempty(self) -> bool:
        return bool(self.witnesses)

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

    def nonempty_at(self, t: int) -> bool:
        for tt, c, _ in self.entries:
            if tt == t:
                return c > 0
        raise InvalidInput("t=%d outside the profiled range" % t)

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
    `predicate` filters verified witnesses before they count."""
    space = q.space
    if t < 1:
        raise InvalidInput("t must be >= 1")
    if mode not in ("all", "exists"):
        raise InvalidInput("mode must be 'all' or 'exists'")
    if engine not in ("auto", "naive", "dfs"):
        raise InvalidInput("engine must be auto, naive, or dfs")
    g = ground_set(space, within)
    field = space.field
    M = g.size
    size = math.comb(M, t)
    if size > budget:
        raise BudgetExceeded(
            "search space C(%d,%d)=%d exceeds budget %d; pass budget>=%d "
            "to run anyway" % (M, t, size, budget, size))
    if not _ground_span(g).contains(q.coords):
        return SpanningSets(q, t, (), size, True)
    if engine == "naive":
        cand = itertools.combinations(range(M), t)
    elif engine == "dfs" and t >= 2:
        cand = _dfs_candidates(field, g.columns, q.coords, t)
    elif t == 1:
        cand = _t1_candidates(field, g.columns, q.coords)
    elif t == 2:
        cand = _t2_candidates(field, g.columns, q.coords)
    elif t == 3:
        cand = _t3_candidates(field, g.columns, q.coords)
    else:
        cand = _dfs_candidates(field, g.columns, q.coords, t)
    witnesses = []
    complete = True
    for tup in cand:
        cols = [g.columns[i] for i in tup]
        ok, _ = _is_witness(field, cols, q.coords)
        if not ok:
            continue
        d = Decomposition(space, [g.points[i] for i in tup], q,
                          {"source": "oracle", "t": t,
                           "indices": list(tup)})
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
    g = ground_set(space, within)
    span = _ground_span(g)
    big = span.rank
    if not span.contains(q.coords):
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
                budget: int = DEFAULT_BUDGET,
                engine: str = "auto") -> GapProfile:
    """Full witness landscape for t from the rank up to N+1, N the
    projective dimension of the searched span."""
    cert = brute_rank(q, within=within, budget=budget, engine=engine)
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
        ss = spanning_sets(q, t, "all", within=within, budget=budget,
                           engine=engine)
        searched += ss.search_space_size
        entries.append((t, ss.count,
                        ss.witnesses[0] if ss.witnesses else None))
    return GapProfile(q, cert.rank, N + 1, tuple(entries), searched)


def min_concise_t(q: Tensor, *, budget: int = DEFAULT_BUDGET,
                  engine: str = "auto") -> ConciseResult:
    """Smallest t admitting an irredundant size-t decomposition whose set
    envelope is the whole space, with a witness.  Cardinalities below the
    answer are fully enumerated and reported as non-concise-only."""
    space = q.space
    cert = brute_rank(q, budget=budget, engine=engine)
    big = _ground_span(ground_set(space)).rank

    def full_env(d):
        return set_envelope(space, d.points).is_full

    searched = cert.search_space_size
    non_concise = []
    for t in range(cert.rank, big + 1):
        ss = spanning_sets(q, t, "exists", budget=budget, engine=engine,
                           predicate=full_env)
        searched += ss.search_space_size
        if ss.witnesses:
            return ConciseResult(t, ss.witnesses[0], cert.rank,
                                 tuple(non_concise), searched)
        non_concise.append(t)
    raise NoConciseWitness(
        "no irredundant decomposition with full envelope up to t=%d" % big)
