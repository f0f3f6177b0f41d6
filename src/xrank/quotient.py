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
exact in these dtypes.  Ray keys are packed into int64 words.  The oracle
imports this module, and with it numpy, only when it builds its first
GF(p) ground set (`residue_matrix`); verification and the constructions
never load it.
"""

import math

import numpy as np

from .errors import ModulusTooLarge

_INT64_LIMIT = 2 ** 63
_RESIDUE_DTYPES = (np.int8, np.int16, np.int32, np.int64)
# (anchor, point) rows the anchor search projects at once, and the bucket
# pairs it filters at once: bounds its memory.  Larger blocks buy no clear
# time: 2^14 and 2^15 ran growth's t=3 searches within 10% of 2^13 either
# way, and raised growth's peak RSS by about 2.4 and 5 MB
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


def _canonical(rows, p, out=None):
    """Each nonzero row divided by its lead entry, and the lead indices.
    A zero row stays zero (its lead index is 0).  `out=rows` works in
    place."""
    lead = np.argmax(rows != 0, axis=1)
    vals = rows[np.arange(len(rows)), lead][:, None]
    out = np.multiply(rows, _inverses(vals, p), out=out)
    return _mod(out, p, out=out), lead


def _project(rows, hat, lead, p):
    """Images of the rows in V/<h>, h canonical (one, or one per row):
    row - row[lead] h.  The lead column becomes zero and is kept."""
    x = rows - hat * rows[np.arange(len(rows)), lead][:, None]
    return _mod(x, p, out=x)


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
    emb, img = emb[idx], img[idx]
    if t == 2:
        u, v = _bucket_pairs(_ray_keys(img, p))
        yield from sorted(zip(idx[u].tolist(), idx[v].tolist()))
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
    [a0, a1) and the contiguous tail of rows after a0, and projects the
    whole tail against every anchor of the block at once by
    broadcasting: an (a1 - a0, M - 1 - a0, L) array for rows of L
    coordinates, reduced and canonicalised in place.  The block holds at
    most _T3_BLOCK_ROWS (anchor, row) pairs, or one anchor's tail when
    that is longer, so memory is O(M) rather than O(M^2).  The pairs
    with b <= a, at most a triangle of the block, are dropped before the
    bucketing.  An (anchor a, row) pair sorts on one int64 word,
    (a - a0) * p**L + its ray key, when the ray key is one word and the
    block's anchors fit below 2^63 (checked in Python ints); otherwise
    the anchor and the key words are lexsorted.  For a witness
    P + {a, b, c}, its dependency maps to x a' + y b' + z c' = 0 in
    V/<q, P>, with x, y, z nonzero, so b and c are on one ray modulo a'.
    The bucket pairs of consecutive blocks are gathered into a batch of
    at least _T3_BLOCK_ROWS triples, or what the last blocks leave, and
    two kinds are dropped from it; neither can be a witness:
    - b' and c' parallel in V/<q, P>: a dependency y b' + z c' = 0 gives
      one of P + {b, c} in V/<q> that leaves a out.  This also drops the
      pairs of rows whose images are parallel to a', which all share
      the zero key;
    - b and c on one ray of V/<P, a>: P + {a, b, c} is dependent in V.
    For t=3 (no prefix) what is left is exactly the witnesses, but every
    candidate still goes through the exact verifier."""
    M, L = img.shape
    hat, lead = _canonical(img, p)
    qkeys = _pack_digits(hat, p)
    ehat, elead = _canonical(emb, p)
    base = p ** L  # bounds every one-word ray key
    found, batch, held = [], [], 0
    a0 = 0
    while a0 < M - 2:
        R = M - 1 - a0
        a1 = min(M - 2, a0 + max(1, _T3_BLOCK_ROWS // R))
        A = a1 - a0
        tail = img[a0 + 1:]
        # rows[k, j]: row a0 + 1 + j minus its lead-column entry times
        # the canonical anchor a0 + k, the row's image in V/<q, P, a>
        rows = hat[a0:a1, None, :] * tail[:, lead[a0:a1]].T[:, :, None]
        np.subtract(tail, rows, out=rows)
        _mod(rows, p, out=rows)
        rows = rows.reshape(A * R, L)
        _canonical(rows, p, out=rows)
        keys = _pack_digits(rows, p)
        if keys.shape[1] == 1 and A * base < _INT64_LIMIT:
            keys = keys.reshape(A, R)
            keys += (np.arange(A, dtype=np.int64) * base)[:, None]
            keys = keys.reshape(A * R)
        else:
            keys = np.column_stack([np.arange(A * R) // R, keys])
        # entry k * R + j pairs anchor a0 + k with row a0 + 1 + j; only
        # the pairs with b > a are bucketed, and a, b, c are worked out
        # for the bucket pairs alone (for every pair they cost ~0.3 MB
        # more peak RSS in growth)
        later = np.flatnonzero(
            (np.arange(R) >= np.arange(A)[:, None]).reshape(A * R))
        u, v = _bucket_pairs(keys[later])
        u, v = later[u], later[v]
        batch.append((a0 + u // R, a0 + 1 + _mod(u, R), a0 + 1 + _mod(v, R)))
        held += len(u)
        a0 = a1
        if held >= _T3_BLOCK_ROWS or a0 >= M - 2:
            a, b, c = (np.concatenate(col) for col in zip(*batch))
            batch, held = [], 0
            keep = (qkeys[b] != qkeys[c]).any(axis=1)
            a, b, c = a[keep], b[keep], c[keep]
            ha, la = ehat[a], elead[a]
            keep = (_ray_keys(_project(emb[b], ha, la, p), p)
                    != _ray_keys(_project(emb[c], ha, la, p), p)).any(axis=1)
            found.append(np.column_stack([a[keep], b[keep], c[keep]]))
    return found
