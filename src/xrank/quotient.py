"""The numpy quotient engine of the finite-field oracle, for t >= 2.

A size-t subset of ground points is a witness for a target q iff its
points are independent and their images in V/<q> carry a dependency with
full support.  `candidates` buckets the points by ray in V/<q> for t=2.
For t >= 3 it walks the prefixes P of t-3 points independent in V/<q>;
at each it takes every later point a as an anchor and buckets the points
after it by ray in V/<q, P, a>, in O(M) memory.  t=3 is the walk with an
empty prefix.

Residues are held in the narrowest of int8, int16, int32 and int64 that
holds (p-1)^2 + p, so a product of two residues fits: int8 up to GF(11),
int16 up to GF(181), int32 up to GF(46337), int64 up to GF(3037000493).
Residues are reduced by floor division, x - (x // p) p (`_mod`), never
by numpy's integer `%`: numpy divides an array by one invariant integer
on a vectorised path that `%` does not take, and on 64K int8 or int16
entries the reduction ran 30-40 times faster.  `_mod` argues why it is
exact in these dtypes.

Ray keys are packed into int64 words, base-p digits accumulated in
place.  The anchor search sorts one int64 word per (anchor, point) pair,
the anchor and the pair's position folded in, and keeps only the runs of
equal words; a run member's ray in V/<P, a> is keyed once per member,
and a run's members are paired only across its groups of equal keys, so
the pairs of points on one line with the anchor are never formed.  The
oracle imports this module, and with it numpy, only when it builds its
first GF(p) ground set (`residue_matrix`); verification and the
constructions never load it.
"""

import math

import numpy as np

from .errors import ModulusTooLarge

_INT64_LIMIT = 2 ** 63
_RESIDUE_DTYPES = (np.int8, np.int16, np.int32, np.int64)
# (anchor, point) pairs the anchor search projects at once, and the run
# members it filters at once: bounds its memory.  2^14 ran growth's t=3
# searches about 10% faster than 2^13, but raised growth's peak RSS by
# 1.0-1.4 MB
_T3_BLOCK_ROWS = 2 ** 13


def _residue_dtype(p):
    """The narrowest dtype that holds (p-1)^2 + p, or None."""
    return next((d for d in _RESIDUE_DTYPES
                 if (p - 1) ** 2 + p <= np.iinfo(d).max), None)


def residue_matrix(p, cols):
    """The columns as a read-only residue matrix in the dtype the engines
    use for GF(p), or None when no dtype holds (p-1)^2 + p."""
    dtype = _residue_dtype(p)
    if dtype is None:
        return None
    emb = np.array(cols, dtype=dtype)
    emb.flags.writeable = False
    return emb


def _mod(x, p, out=None):
    """x mod p, in [0, p) and in x's dtype, as x - (x // p) p.  `out=x`
    works in place; either way the one scratch array is x // p.

    Floor division by p > 0 rounds x / p towards -inf for either sign of
    x, so x - (x // p) p lies in [0, p): it is Python's x % p, provided
    no step overflows.  The engine reduces products of two residues, in
    [0, (p-1)^2], and differences r - h s of residues, in
    [-(p-1)^2, p-1]: every x lies in [-(p-1)^2, (p-1)^2 + p].  As
    (x // p) p lies in [x - (p-1), x], it lies in
    [-p(p-1), (p-1)^2 + p], and p(p-1) < (p-1)^2 + p, the bound that
    `_residue_dtype` picks the dtype to hold."""
    q = np.floor_divide(x, p)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def _inverses(vals, p):
    """Inverses of nonzero residues mod p by vectorised exponentiation,
    vals^(p-2), with no product by the initial one or final square."""
    out = None
    e = p - 2
    while e:
        if e & 1:
            out = vals if out is None else _mod(out * vals, p)
        e >>= 1
        if e:
            vals = _mod(vals * vals, p)
    return np.ones_like(vals) if out is None else out


def _canonical(rows, p):
    """Each nonzero row divided by its lead entry, and the lead indices.
    A zero row stays zero (its lead index is 0)."""
    lead = np.argmax(rows != 0, axis=1)
    vals = rows[np.arange(len(rows)), lead][:, None]
    out = rows * _inverses(vals, p)
    return _mod(out, p, out=out), lead


def _canonical_columns(cols, p):
    """`_canonical` in place on vectors held by coordinate, one per
    column of cols.  Each vector's lead entry is found by folding the
    coordinates from the last, lead = c + (c == 0) lead, in whole-row
    passes."""
    lead = cols[-1].copy()
    for c in cols[-2::-1]:
        lead *= c == 0
        lead += c
    cols *= _inverses(lead, p)
    _mod(cols, p, out=cols)


def _project(rows, hat, lead, p):
    """Images of the rows in V/<h>, h canonical (one, or one per row):
    row - row[lead] h.  The lead column becomes zero and is kept."""
    x = rows - hat * rows[np.arange(len(rows)), lead][:, None]
    return _mod(x, p, out=x)


def _pack_digits(digits, p):
    """Pack base-p digit rows into int64 key words: an (n, words) array.
    Each word is accumulated in place, a digit column at a time, so the
    digits are never cast to int64 as a whole."""
    n, nd = digits.shape
    dpw = max(1, int(63 // math.log2(max(2, p))))
    nwords = (nd + dpw - 1) // dpw
    words = np.zeros((nwords, n), dtype=np.int64)
    for wi, acc in enumerate(words):
        for c in range(wi * dpw, min(nd, (wi + 1) * dpw)):
            acc *= p
            acc += digits[:, c]
    return words.T


def _ray_keys(rows, p):
    """Packed key of the ray of each nonzero row."""
    return _pack_digits(_canonical(rows, p)[0], p)


def _equal_key_runs(keys, bits=0):
    """The runs of two or more equal keys: the positions of their
    members, run after run and ascending within each, and a flag on each
    run's first member.  A 1-D key holds its position in its low `bits`
    bits and is sorted by `np.sort`; the rows of a 2-D key (int64 words)
    are lexsorted, which is stable, and a row's position is its index."""
    if keys.ndim == 1:
        sk = np.sort(keys)
        hi = sk >> bits
        same = hi[1:] == hi[:-1]
    else:
        order = np.lexsort(keys.T[::-1])
        sk = keys[order]
        same = (sk[1:] == sk[:-1]).all(axis=1)
    member = np.zeros(len(sk), dtype=bool)
    member[1:] = same
    member[:-1] |= same
    m = np.flatnonzero(member)
    start = np.ones(len(m), dtype=bool)
    start[1:] = ~same[m[1:] - 1]
    if keys.ndim == 1:
        return sk[m] & np.int64((1 << bits) - 1), start
    return order[m], start


def _run_ends(start):
    """For each member, the index one past the last member of its run."""
    ends = np.append(np.flatnonzero(start)[1:], len(start))
    return ends[np.cumsum(start) - 1]


def _pairs(lo, hi):
    """Index pairs (u, v), one for every u and every v in [lo[u], hi[u])."""
    n = hi - lo
    u = np.repeat(np.arange(len(n)), n)
    v = np.arange(len(u)) - np.repeat(np.cumsum(n) - n - lo, n)
    return u, v


def _quotient(field, cols, qvec):
    """The columns as residue rows, and their images in V/<q>.  `cols` is
    a list of columns or a `residue_matrix`, which is used as it is.
    Both results are in the dtype `residue_matrix` picks, and every
    residue product the engine forms stays in it; a modulus with
    (p-1)^2 >= 2^63 fits none and raises ModulusTooLarge."""
    p = field.modulus
    dtype = _residue_dtype(p)
    if dtype is None:
        raise ModulusTooLarge(
            "the numpy engine multiplies residues in int64; GF(%d) needs "
            "(p-1)^2 < 2^63" % p)
    emb = np.asarray(cols, dtype=dtype)
    img = _project(emb, *_canonical(np.array([qvec], dtype), p), p)
    return emb, img


def candidates(field, residues, qvec, t):
    """Index tuples, in ascending lex order, that may be size-t witnesses
    of q (t >= 2): every witness, and for t >= 4 some sets the exact
    verifier rejects.  `residues` is a list of columns or a
    `residue_matrix`.

    t=2 buckets the points with nonzero images in V/<q> by ray.  For
    t >= 3 the search walks the prefixes P of t-3 points independent in
    V/<q>.  At each prefix node the later points are projected once into
    V/<q, P> and V/<P>, those whose image in V/<q, P> is zero are
    dropped, and `_anchor_triples` picks the last three points from the
    rest.  A witness's images in V/<q> have rank t-1 and one dependency,
    with full support, so any t-1 of them are independent: every prefix
    of a witness is walked, and none of its later points is dropped.
    Output is lazy, one prefix node at a time, so a caller that stops at
    the first witness skips the rest of the walk."""
    p = field.modulus
    emb, img = _quotient(field, residues, qvec)
    idx = np.flatnonzero(img.any(axis=1))
    if len(idx) < t:  # a witness has t nonzero images
        return
    # q's lead column is zero in every image; dropping the columns zero
    # in every row changes no ray and shortens every ray key
    emb, img = emb[idx], img[idx][:, img[idx].any(axis=0)]
    if t == 2:
        pos, start = _equal_key_runs(_ray_keys(img, p))
        u, v = _pairs(np.arange(1, len(pos) + 1), _run_ends(start))
        yield from sorted(zip(idx[pos[u]].tolist(), idx[pos[v]].tolist()))
        return
    yield from _prefix_walk(p, idx, emb, img, t - 3, ())


def _prefix_walk(p, idx, emb, img, depth, prefix):
    """Extend `prefix` by `depth` more points, then the anchor search.
    Rows are the points after the prefix, with their images in V/<P>
    (emb) and V/<q, P> (img), all nonzero in V/<q, P>.  A node's anchor
    search runs whole before its first triple is yielded: interleaving
    its blocks with the caller's verification made growth's t=3 targets
    about 10% slower; the triples become tuples one filter batch at a time."""
    if depth == 0:
        for block in _anchor_triples(p, emb, img):
            for triple in sorted(map(tuple, idx[block].tolist())):
                yield prefix + triple
        return
    ehat, elead = _canonical(emb, p)
    hat, lead = _canonical(img, p)
    for i in range(len(idx) - depth - 2):
        e = _project(emb[i + 1:], ehat[i], elead[i:i + 1], p)
        m = _project(img[i + 1:], hat[i], lead[i:i + 1], p)
        keep = np.flatnonzero(m.any(axis=1))
        yield from _prefix_walk(p, idx[i + 1:][keep], e[keep], m[keep],
                                depth - 1, prefix + (int(idx[i]),))


def _anchor_triples(p, emb, img):
    """Row triples (a, b, c), a < b < c, with b and c on one ray of
    V/<q, P, a>: one int64 array per filter batch, in anchor order.

    Each row a is an anchor in turn; the later rows are projected into
    V/<q, P, a> and bucketed by ray.  A block takes the anchors
    [a0, a1) and the contiguous tail of R = M - 1 - a0 rows after a0,
    and projects the whole tail against every anchor of the block at
    once by broadcasting: an (L, a1 - a0, R) array for rows of L
    coordinates, held by coordinate so that every pass runs along the
    pairs, reduced and canonicalised in place.  The block holds at most
    _T3_BLOCK_ROWS (anchor, row) pairs, or one anchor's tail when that
    is longer, so memory is O(M) rather than O(M^2).

    The pair of block anchor k and row j, at position k R + j, sorts on
    one int64 word, ((k p^L + its ray key) << bits) + its position,
    bits the width of A R - 1 for A anchors, when A p^L 2^bits < 2^63
    (checked in Python ints): `np.sort` groups the pairs by anchor and
    ray, and the low bits give each pair's position back.  The ray key
    is accumulated digit by digit in int32 when p^L < 2^31, else in
    int64, and shifted into int64 once; no block is cast to int64 as a
    whole.  A ray key of several words, or a block whose words do not
    fit, is lexsorted on the anchor and the key words instead.  Only the
    runs of two or more equal keys go on; on growth's P1xP1xP1 targets
    over GF(11) about 97% of the pairs are alone on their ray.  For a
    witness P + {a, b, c}, its dependency maps to x a' + y b' + z c' = 0
    in V/<q, P>, with x, y, z nonzero, so b and c are on one ray modulo
    a': (a, b) and (a, c) lie in one run.

    The runs of consecutive blocks are gathered into a batch of at least
    _T3_BLOCK_ROWS members, or what the last blocks leave, and
    `_filter_runs` pairs the members of each run.  It drops the members
    with b <= a, at most a triangle of each block, and two kinds of
    pair; neither can be a witness:
    - b' and c' parallel in V/<q, P>: a dependency y b' + z c' = 0 gives
      one of P + {b, c} in V/<q> that leaves a out.  This also drops the
      pairs of rows whose images are parallel to a', which all share
      the zero key;
    - b and c on one ray of V/<P, a>: P + {a, b, c} is dependent in V.
    Both tests compare a key of row b with the same key of row c, and
    each key depends on the row and its anchor alone: its ray in
    V/<q, P>, and its ray in V/<P, a>.  So each key is computed once
    per run member, not once per pair, and the V/<P, a> test is made by
    grouping: a run's members are ordered by their V/<P, a> key, and
    each is paired only with the members after its group of equal keys.
    A pair is formed exactly when the two keys differ, as testing it
    would find, so the triples are those of testing every pair of every
    run, and the pairs whose rows lie with a on one line of the variety,
    about 96% of the run pairs on growth's targets, are never formed.
    For t=3 (no prefix) what is left is exactly the witnesses, but every
    candidate still goes through the exact verifier."""
    M, L = img.shape
    hat, lead = _canonical(img, p)
    qkeys = _pack_digits(hat, p)
    ehat, elead = _canonical(emb, p)
    imgT, hatT = np.ascontiguousarray(img.T), np.ascontiguousarray(hat.T)
    base = p ** L  # bounds every one-word ray key
    found, batch, held = [], [], 0
    a0 = 0
    while a0 < M - 2:
        R = M - 1 - a0
        a1 = min(M - 2, a0 + max(1, _T3_BLOCK_ROWS // R))
        A = a1 - a0
        # cols[:, k, j]: row a0 + 1 + j minus its lead-column entry
        # times the canonical anchor a0 + k, the row's image in
        # V/<q, P, a>, held by coordinate
        cols = hatT[:, a0:a1, None] * imgT[lead[a0:a1], a0 + 1:]
        np.subtract(imgT[:, None, a0 + 1:], cols, out=cols)
        _mod(cols, p, out=cols)
        cols = cols.reshape(L, A * R)
        _canonical_columns(cols, p)
        bits = (A * R - 1).bit_length()
        if A * base << bits < _INT64_LIMIT:
            # ((k p^L + ray key) << bits) + k R + j, the ray key
            # accumulated in int32 when p^L < 2^31
            ray = np.zeros(A * R, np.int32 if base < 2 ** 31 else np.int64)
            for c in cols:
                ray *= p
                ray += c
            keys = np.left_shift(ray, bits, dtype=np.int64).reshape(A, R)
            keys += np.arange(A * R, dtype=np.int64).reshape(A, R)
            keys += (np.arange(A, dtype=np.int64) * (base << bits))[:, None]
            keys = keys.reshape(A * R)
        else:
            keys = np.column_stack([np.arange(A * R, dtype=np.int64) // R,
                                    _pack_digits(cols.T, p)])
        pos, start = _equal_key_runs(keys, bits)
        k = pos // R
        batch.append((a0 + k, a0 + 1 + pos - k * R, start))
        held += len(pos)
        a0 = a1
        if held >= _T3_BLOCK_ROWS or a0 >= M - 2:
            a, b, start = (np.concatenate(col) for col in zip(*batch))
            batch, held = [], 0
            found.append(_filter_runs(p, emb, ehat, elead, qkeys,
                                      a, b, start))
    return found


def _filter_runs(p, emb, ehat, elead, qkeys, a, b, start):
    """The triples (a, b, c), a < b < c, from the pairs of members of
    one run whose rows' rays differ in V/<P, a> and in V/<q, P>
    (`_anchor_triples` argues why).  A member is a pair (anchor a,
    row b); runs group them by ray in V/<q, P, a>, and `start` flags
    each run's first member."""
    run = np.cumsum(start)
    keep = b > a
    a, b, run = a[keep], b[keep], run[keep]
    ekeys = _ray_keys(_project(emb[b], ehat[a], elead[a], p), p)
    # order each run's members by ray in V/<P, a>, stably
    order = np.lexsort(np.vstack([ekeys.T[::-1], run]))
    a, b, run, ekeys = a[order], b[order], run[order], ekeys[order]
    new_run = np.ones(len(run), dtype=bool)
    new_run[1:] = run[1:] != run[:-1]
    new_group = new_run.copy()
    new_group[1:] |= (ekeys[1:] != ekeys[:-1]).any(axis=1)
    # pair each member with the members after its group in its run
    u, v = _pairs(_run_ends(new_group), _run_ends(new_run))
    qk = qkeys[b]
    keep = (qk[u] != qk[v]).any(axis=1)
    u, v = u[keep], v[keep]
    bu, bv = b[u], b[v]
    return np.column_stack([a[u], np.minimum(bu, bv), np.maximum(bu, bv)])
