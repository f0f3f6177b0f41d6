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
Ray keys are packed into int64 words.  The oracle imports this module,
and with it numpy, only when it builds its first GF(p) ground set
(`residue_matrix`); verification and the constructions never load it.
"""

import math

import numpy as np

from .errors import ModulusTooLarge

_INT64_LIMIT = 2 ** 63
_RESIDUE_DTYPES = (np.int8, np.int16, np.int32, np.int64)
# (anchor, point) rows the anchor search projects at once: bounds its memory
# and keeps a block's arrays in cache (2^13 ran ~25% faster than 2^15)
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
    vals = rows[np.arange(len(rows)), lead][:, None]
    return rows * _inverses(vals, p) % p, lead


def _project(rows, hat, lead, p):
    """Images of the rows in V/<h>, h canonical (one, or one per row):
    row - row[lead] h.  The lead column becomes zero and is kept."""
    return (rows - hat * rows[np.arange(len(rows)), lead][:, None]) % p


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
    about 10% slower; the triples become tuples one block at a time."""
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
    V/<q, P, a>: one int64 array per block of anchors, in anchor order.

    Each row a is an anchor in turn; the later rows are projected into
    V/<q, P, a> and bucketed by ray, in blocks of anchors of at most
    _T3_BLOCK_ROWS rows, so memory is O(M) rather than O(M^2).  An
    (anchor a, row) pair sorts on one int64 word, (a - a0) * p**L + its
    ray key, for a block from anchor a0 on rows of L coordinates, when
    the ray key is one word and the block's anchors fit below 2^63
    (checked in Python ints); otherwise the anchor and the key words are
    lexsorted.  For a witness P + {a, b, c}, its dependency maps to
    x a' + y b' + z c' = 0 in V/<q, P>, with x, y, z nonzero, so b and c
    are on one ray modulo a'.  Two kinds of bucket pairs are dropped,
    and neither can be a witness:
    - b' and c' parallel in V/<q, P>: a dependency y b' + z c' = 0 gives
      one of P + {b, c} in V/<q> that leaves a out.  This also drops the
      pairs of rows whose images are parallel to a', which all share
      the zero key;
    - b and c on one ray of V/<P, a>: P + {a, b, c} is dependent in V.
    For t=3 (no prefix) what is left is exactly the witnesses, but every
    candidate still goes through the exact verifier."""
    M = len(img)
    hat, lead = _canonical(img, p)
    qkeys = _pack_digits(hat, p)
    ehat, elead = _canonical(emb, p)
    base = p ** img.shape[1]  # bounds every one-word ray key
    found = []
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
    return found
