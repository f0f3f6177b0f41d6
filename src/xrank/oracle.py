"""Finite-field brute-force rank oracle.

Enumerates all rational points of the embedded variety over GF(p) and
searches size-t subsets that give irredundant decompositions of a target.
Witness sets are found by quotienting out the target: a size-t subset
works iff its points are independent and their images in V/<q> carry a
dependency with full support (a circuit).  Engines: t=1 scans for points
parallel to q; t=2 buckets the points by ray in V/<q>; t=3 takes each
point a as an anchor and buckets the later points by ray in V/<q, a>
(numpy, O(M) memory), sorting one int64 key word per (anchor, point)
row whenever the ray key and the block's anchor index fit in one; t>=4
runs a depth-first search over independent-quotient prefixes.  The numpy
engines hold residues in the narrowest of int16, int32 and int64 that
holds (p-1)^2 + p, so a product of two residues fits, and pack ray keys
into int64 words.  A naive subset scan is kept as a reference engine
for cross-testing.  Every candidate passes through `verify_irredundant`,
the exact verification used everywhere else, so engine bugs can only
lose witnesses, not invent them; the test suite compares engines against
the naive scan to guard the losing direction.  The report that
verification caches on a witness is the one the constructions read, so
a witness is solved only once.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .decomp import Decomposition, set_envelope, verify_irredundant
from .errors import (BudgetExceeded, FieldNotFinite, InvalidInput,
                     ModulusTooLarge, NoConciseWitness, SpaceMismatch,
                     TargetNotSpanned)
from .exactlin import Echelon
from .geometry import (MultiProjectiveSpace, SubspaceSpec, Tensor,
                       ambient_dim, count_points, embed,
                       enumerate_points)

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


# ------------------------------------------------------------ span caching

@lru_cache(maxsize=64)
def _ground_span(g: GroundSet) -> Echelon:
    """Echelon basis of the ground columns' span (never mutated)."""
    return Echelon(g.space.field, g.columns)


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


_INT64_LIMIT = 2 ** 63
_RESIDUE_DTYPES = (np.int16, np.int32, np.int64)
# (anchor, point) rows the t=3 engine projects at once: bounds its memory
# and keeps a block's arrays in cache (2^13 ran ~25% faster than 2^15)
_T3_BLOCK_ROWS = 2 ** 13


def _inverses(vals, p):
    """Inverses of nonzero residues mod p by vectorised exponentiation."""
    out = np.ones_like(vals)
    e = p - 2
    while e:
        if e & 1:
            out = out * vals % p
        vals = vals * vals % p
        e >>= 1
    return out


def _canonical(rows, p):
    """Each nonzero row divided by its lead entry, and the lead indices.
    A zero row stays zero (its lead index is 0)."""
    lead = np.argmax(rows != 0, axis=1)
    vals = np.take_along_axis(rows, lead[:, None], 1)
    return rows * _inverses(vals, p) % p, lead


def _project(rows, hat, lead, p):
    """Images of the rows in V/<h>, h canonical (one, or one per row):
    row - row[lead] h.  The lead column becomes zero and is kept."""
    return (rows - hat * np.take_along_axis(rows, lead[:, None], 1)) % p


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


def _ray_keys(rows, p):
    """Packed key of the ray of each nonzero row."""
    return _pack_digits(_canonical(rows, p)[0], p)


def _bucket_pairs(keys):
    """Row pairs (u, v), u < v, whose keys are equal, in no set order.
    A 1-D key (one int64 word per row) is sorted by `argsort`; a 2-D key
    of several words per row by `lexsort`."""
    order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    sk = keys[order]
    new = np.ones(len(order), dtype=bool)
    diff = sk[1:] != sk[:-1]
    new[1:] = diff if keys.ndim == 1 else diff.any(axis=1)
    ends = np.append(np.flatnonzero(new)[1:], len(order))
    later = ends[np.cumsum(new) - 1] - 1 - np.arange(len(order))
    first = np.repeat(np.arange(len(order)), later)
    step = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    u, v = order[first], order[first + 1 + step]
    return np.minimum(u, v), np.maximum(u, v)


def _quotient(field, cols, qvec):
    """The columns as residue rows, and their images in V/<q>.  Both are
    in the narrowest of int16, int32 and int64 that holds (p-1)^2 + p
    (int16 up to GF(181), int32 up to GF(46337)), and every residue
    product the engines form stays in that dtype; a modulus with
    (p-1)^2 >= 2^63 fits none and raises ModulusTooLarge."""
    p = field.modulus
    dtype = next((d for d in _RESIDUE_DTYPES
                  if (p - 1) ** 2 + p <= np.iinfo(d).max), None)
    if dtype is None:
        raise ModulusTooLarge(
            "the numpy engines multiply residues in int64; GF(%d) needs "
            "(p-1)^2 < 2^63" % p)
    emb = np.array(cols, dtype=dtype)
    img = _project(emb, *_canonical(np.array([qvec], dtype), p), p)
    return emb, img


def _t2_candidates(field, cols, qvec) -> list:
    """Pairs (i<j) whose images in V/<q> share a ray: the t=3 search
    below with no anchor."""
    _, img = _quotient(field, cols, qvec)
    idx = np.flatnonzero(img.any(axis=1))
    u, v = _bucket_pairs(_ray_keys(img[idx], field.modulus))
    return sorted(zip(idx[u].tolist(), idx[v].tolist()))


def _t3_candidates(field, cols, qvec) -> list:
    """Anchor-quotient search: triples (a<b<c), ascending, with b and c on
    one ray of V/<q, a>.

    Each point a with a nonzero image a' in V/<q> is an anchor in turn;
    the later points are projected into V/<q, a> and bucketed by ray, in
    blocks of anchors of at most _T3_BLOCK_ROWS rows, so memory is O(M)
    rather than O(M^2).  An (anchor a, point) row sorts on one int64
    word, (a - a0) * p**L + its ray key, for a block from anchor a0 on
    rows of L coordinates, when the ray key is one word and the block's
    anchors fit below 2^63 (checked in Python ints); otherwise the anchor
    and the key words are lexsorted.  A witness {a, b, c} is independent
    and has a dependency x a' + y b' + z c' = 0 in V/<q> with x, y, z
    nonzero, so b and c are on one ray modulo a'.  Two kinds of bucket
    pairs are dropped, and neither can be a witness:
    - b' and c' parallel in V/<q>: a dependency y b' + z c' = 0 leaves a
      out, and the dependency of a rank-2 image triple is unique up to
      scale (a rank-1 triple spans at most a plane with q, so a, b, c are
      dependent).  This also drops the pairs of points whose images are
      parallel to a', which all share the zero key;
    - b and c on one ray of V/<a>: a, b, c are collinear in V, hence
      dependent.
    What is left is exactly the witnesses, but every candidate still
    goes through the exact verifier."""
    p = field.modulus
    emb, img = _quotient(field, cols, qvec)
    idx = np.flatnonzero(img.any(axis=1))
    emb, img = emb[idx], img[idx]
    M = len(idx)
    hat, lead = _canonical(img, p)
    qkeys = _pack_digits(hat, p)
    ehat, elead = _canonical(emb, p)
    base = p ** img.shape[1]  # bounds every one-word ray key
    found = [np.zeros((0, 3), np.int64)]
    a0 = 0
    while a0 < M - 2:
        a1 = min(M - 2, a0 + max(1, _T3_BLOCK_ROWS // (M - 1 - a0)))
        ai, bi = np.nonzero(np.arange(a0 + 1, M)
                            > np.arange(a0, a1)[:, None])
        ai, bi = ai + a0, bi + a0 + 1
        keys = _ray_keys(_project(img[bi], hat[ai], lead[ai], p), p)
        if keys.shape[1] == 1 and (a1 - a0) * base < _INT64_LIMIT:
            keys = (ai - a0) * base + keys[:, 0]
        else:
            keys = np.column_stack([ai, keys])
        u, v = _bucket_pairs(keys)
        a, b, c = ai[u], bi[u], bi[v]
        keep = (qkeys[b] != qkeys[c]).any(axis=1)
        a, b, c = a[keep], b[keep], c[keep]
        keep = (_ray_keys(_project(emb[b], ehat[a], elead[a], p), p)
                != _ray_keys(_project(emb[c], ehat[a], elead[a], p), p)
                ).any(axis=1)
        found.append(np.column_stack([a[keep], b[keep], c[keep]]))
        a0 = a1
    return sorted(map(tuple, idx[np.concatenate(found)].tolist()))


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
    size = _search_size(space, within, t, budget)
    g = ground_set(space, within)
    field = space.field
    if not _ground_span(g).contains(q.coords):
        return SpanningSets(q, t, (), size, True)
    if engine == "naive":
        cand = itertools.combinations(range(g.size), t)
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
