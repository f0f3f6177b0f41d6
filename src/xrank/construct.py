"""Randomize-and-verify constructions that grow irredundant decompositions.

Each operation draws random data under explicit non-degeneracy constraints,
builds a candidate, checks it exactly, and retries with fresh randomness
up to max_retries.  The check is the exact verifier, except in `plus_one`,
which proves its candidate's report from the input's report, one exact
two-column solve and one span test (see its docstring).  Outputs
therefore never rely on genericity arguments alone; every returned
decomposition carries an exact report.  All draws come from one seeded
stream, so identical (input, seed, config) give identical outputs.
"""

import random
from dataclasses import dataclass, replace

from .decomp import (Decomposition, IrredundancyReport, set_envelope,
                     verify_irredundant)
from .errors import (BadM, DegenerateSpace, FieldTooSmall, GenericityExhausted,
                     InvalidInput, MinimalityNotCertified, NoEscapingFiber,
                     NotConcise, NotContainedInY, NotIrredundantInput,
                     NotVeronese, SpaceMismatch, TargetTooSmall,
                     UnsupportedDegree, YEqualsW)
from .exactlin import Echelon, in_span, rank_rows, solve_columns
from .geometry import (DEFAULT_COORD_BOX, MppPoint, SubspaceSpec,
                       canonical_vector, embed, line_point)
from .oracle import brute_rank


@dataclass(frozen=True)
class ConstructionConfig:
    rng_seed: int = 0
    max_retries: int = 64

    def __post_init__(self):
        if self.max_retries < 1:
            raise InvalidInput("max_retries must be >= 1")


def _draw_vector_off_span(field, rng, length, span_rows, tries=128):
    """Random nonzero vector outside the row span of the nonzero rows
    (rejection sampling).  A one-row span <r> needs no elimination: v
    lies on it iff v r[s] = v[s] r at an entry s with r[s] != 0."""
    if len(span_rows) == 1:
        r = span_rows[0]
        s = next(j for j, x in enumerate(r) if x)
        mul = field.mul

        def on_span(v):
            return all(mul(x, r[s]) == mul(v[s], y) for x, y in zip(v, r))
    else:
        on_span = Echelon(field, span_rows).contains
    for _ in range(tries):
        v = tuple(field.random_element(rng, DEFAULT_COORD_BOX)
                  for _ in range(length))
        if any(x != 0 for x in v) and not on_span(v):
            return v
    raise GenericityExhausted("no direction off the span after %d draws"
                              % tries)


def _line_point_at(field, a_vec, w_vec, k):
    """Point k of the p points other than a on the line through a and w
    over GF(p): a + (k+1) w for k < p-1, and w itself for k = p-1."""
    p = field.modulus
    if k == p - 1:
        return tuple(w_vec)
    return tuple((x + (k + 1) * y) % p for x, y in zip(a_vec, w_vec))


def _line_positions(p, a_vec, w_vec, vecs):
    """Positions k, as in `_line_point_at`, of the vectors that lie on the
    line through the independent a and w over GF(p), a's own class left
    out.  Each vector e is tested for e = x a + y w, y != 0, exactly in
    Python ints at O(n) cost; it sits at k = p-1 when x = 0 (e ~ w), and
    at t = y/x, k = t-1, otherwise."""
    s = next(j for j, x in enumerate(a_vec) if x)
    a_inv = pow(a_vec[s], -1, p)
    # w' = w - (w_s / a_s) a is zero at s, so e = g a + y w' reads g off e_s
    w_s = w_vec[s] * a_inv % p
    w_red = [(y - w_s * x) % p for x, y in zip(a_vec, w_vec)]
    r = next(j for j, x in enumerate(w_red) if x)
    w_inv = pow(w_red[r], -1, p)
    out = set()
    for e in vecs:
        g = e[s] * a_inv % p
        y = (e[r] - g * a_vec[r]) * w_inv % p
        if y == 0 or any((g * ai + y * wi - ei) % p
                         for ai, wi, ei in zip(a_vec, w_red, e)):
            continue  # e ~ a, or e off the line
        x = (g - y * w_s) % p
        out.add(p - 1 if x == 0 else y * pow(x, -1, p) % p - 1)
    return out


def _skip_positions(j, taken):
    """The j-th position (from 0) of the ones not in the sorted `taken`."""
    for k in taken:
        if k > j:
            break
        j += 1
    return j


def _line_candidates(field, rng, a_vec, w_vec, count):
    """`count` distinct points of the line through a and w, all differing
    from a.  Over GF(p) the line carries p such points, and `count`
    distinct positions among them are drawn by index; over Q distinct
    nonzero parameters are sampled from the coordinate box."""
    if field.is_finite:
        p = field.modulus
        if count > p:
            raise FieldTooSmall(
                "need %d distinct points on a line off its base point; "
                "GF(%d) offers %d" % (count, p, p))
        return [_line_point_at(field, a_vec, w_vec, k)
                for k in rng.sample(range(p), count)]
    box = DEFAULT_COORD_BOX
    pop = [t for t in range(-box, box + 1) if t != 0]
    ts = rng.sample(pop, count)
    return [line_point(field, a_vec, w_vec, t) for t in ts]


def _usable_line_pair(field, rng, a_vec, w_vec, excluded):
    """Two distinct canonical points of the line through a and w, neither
    a nor in `excluded`, or None when the draw leaves fewer than two.

    Over GF(p) the excluded points' positions on the line are found by
    `_line_positions`, and `rng.sample(range(n_usable), 2)` picks two of
    the n_usable other positions, in line order.  That is the draw of
    two from the list of usable points, since `random.sample` draws
    indices from the population's length alone, but p never enters the
    cost and only the two chosen points are built.  Over Q the first two
    usable points of four sampled ones are taken."""
    if field.is_finite:
        taken = sorted(_line_positions(field.modulus, a_vec, w_vec,
                                       excluded))
        n_usable = field.modulus - len(taken)
        if n_usable < 2:
            return None
        return [canonical_vector(field, _line_point_at(
                    field, a_vec, w_vec, _skip_positions(j, taken)))
                for j in rng.sample(range(n_usable), 2)]
    usable = []
    for vvec in _line_candidates(field, rng, a_vec, w_vec, 4):
        cv = canonical_vector(field, vvec)
        if cv not in excluded and cv != a_vec:
            usable.append(cv)
    return usable[:2] if len(usable) >= 2 else None


def _with_factor(point, i, vec):
    """`point` with factor i replaced by the canonical vector vec, which,
    unlike in `replace_factor`, is not canonicalised again."""
    coords = point.coords
    return MppPoint(point.space, coords[:i] + (vec,) + coords[i + 1:])


def _escaping_fibers(space, points, u_span):
    """(point index, factor) pairs, in order, whose fiber through the point
    has a coordinate direction embedding outside U."""
    field = space.field
    for ai, a in enumerate(points):
        for i in range(space.k):
            n = space.factor_dims[i]
            for j in range(n + 1):
                e = tuple(field.one() if t == j else field.zero()
                          for t in range(n + 1))
                if not u_span.contains(
                        embed(space, a.replace_factor(i, e)).coords):
                    yield ai, i
                    break


def _starved_p1_fibers(space, points, viable):
    """Whether every viable fiber lies on a P^1 factor and leaves fewer than
    two points off the point's and the other points' coordinates there.
    The fiber line in a P^1 factor is all of P^1, so no redraw of the line
    can change its usable points."""
    p = space.field.modulus
    return all(space.factor_dims[i] == 1
               and p + 1 - len({q.coords[i] for q in points}) < 2
               for _, i in viable)


def _certify_minimal_via_oracle(d, within=None):
    """Finite-field minimality certification (on demand)."""
    cert = brute_rank(d.target, within=within)
    if cert.rank != len(d.points):
        raise MinimalityNotCertified(
            "oracle rank %d, input cardinality %d"
            % (cert.rank, len(d.points)))


def _irredundant_input(d):
    """The input's report; NotIrredundantInput unless it is irredundant."""
    report = verify_irredundant(d)
    if not report.irredundant:
        raise NotIrredundantInput("input decomposition is not irredundant")
    return report


def _last_factor_slice(d):
    """(o, Y' x {o}): o is the last-factor point that every input point
    shares, Y' the full retained factors.  The target must lie in the span
    of the slice's image."""
    space = d.space
    last = space.k - 1
    o = d.points[0].coords[last]
    if any(p.coords[last] != o for p in d.points):
        raise InvalidInput("input points do not share one last-factor point")
    full = SubspaceSpec.full(space)
    ysub = SubspaceSpec.of(space, list(full.factor_bases[:last]) + [(o,)])
    if solve_columns(space.field, ysub.span_columns(),
                     d.target.coords).coefficients is None:
        raise NotContainedInY("target outside the span of Y' x {o}")
    return o, ysub


def _base_provenance(name, cfg, assert_minimal, certified):
    return {"construction": name, "seed": cfg.rng_seed,
            "assert_minimal": bool(assert_minimal),
            "certified_minimal": bool(certified)}


def plus_one(d: Decomposition, cfg: ConstructionConfig | None = None, *,
             assert_minimal: bool = False,
             certify_minimal: bool = False) -> Decomposition:
    """Grow a minimal decomposition by one: replace one point by two points
    of a fiber line through it whose span escapes the current span.

    Scans (point, factor) pairs in deterministic order for a fiber with
    span not inside U = span of the embedded input; the replacement points
    sit on a random line through the chosen point inside that fiber, differ
    from all remaining points in the chosen factor, and embed outside U.
    Over GF(p) the line is sampled by index: the positions of the remaining
    points on it are found by an exact test, two of the other positions
    are drawn, and only those two points are built, so an attempt costs
    O(r·n) for r points in factor coordinates of length n, whatever p is.
    FieldTooSmall is raised at the first retry when every viable
    fiber is a P^1 with fewer than two usable points.  The input is
    checked by `verify_irredundant`, which reuses a report the input
    already carries (an oracle witness has one) instead of solving again.

    The output's report is proved, not solved again.  The input gives
    q = sum_j c_j x_j, the x_j independent and every c_j nonzero.  A
    candidate that replaces x_a by x_u and x_v is accepted when
    1. the two-column solve x_a = alpha x_u + beta x_v succeeds with x_u
       and x_v independent and alpha, beta both nonzero, and
    2. x_u is not in U.
    By 1, x_v = (x_a - alpha x_u) / beta, so the candidate's r + 1
    columns span U + <x_u>, which has dimension r + 1 by 2: they are
    independent.  So q = sum_{j != a} c_j x_j + c_a alpha x_u
    + c_a beta x_v is the unique expansion, every coefficient is nonzero,
    and the candidate is irredundant.  (x_v is not in U either, or
    x_u = (x_a - beta x_v) / alpha would be.)  On a Segre space 1 holds
    for any two points u != v of a line through a, both other than a,
    so the accepted candidates are those that an exact re-verification
    accepts.
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if not space.is_segre:
        raise UnsupportedDegree("plus_one needs a Segre space")
    if not all(n >= 1 for n in space.factor_dims):
        raise DegenerateSpace("plus_one needs positive factor dims")
    report = _irredundant_input(d)
    if certify_minimal:
        _certify_minimal_via_oracle(d)
    field = space.field
    rng = random.Random(cfg.rng_seed)
    cols = d.embedded_columns
    u_span = Echelon(field, cols)

    # (point, factor) pairs whose fiber escapes U, scanned as attempts need
    # them: the first attempt takes the first, a retry needs them all
    escaping = _escaping_fibers(space, d.points, u_span)
    viable = [next(escaping, None)]
    if viable[0] is None:
        raise NoEscapingFiber(
            "every fiber span lies inside the input span; the input cannot "
            "be a minimal decomposition of a desk-scale target")

    for attempt in range(cfg.max_retries):
        if attempt == 1:
            viable.extend(escaping)
            if field.is_finite and _starved_p1_fibers(space, d.points,
                                                      viable):
                raise FieldTooSmall(
                    "every viable fiber is a P^1 factor with fewer than "
                    "two GF(%d) points off the input's coordinates there"
                    % field.modulus)
        ai, i = viable[attempt % len(viable)]
        a = d.points[ai]
        others = [p for idx, p in enumerate(d.points) if idx != ai]
        excluded = {p.coords[i] for p in others}
        try:
            w = _draw_vector_off_span(field, rng, space.factor_dims[i] + 1,
                                      [a.coords[i]])
        except GenericityExhausted:
            continue
        pair = _usable_line_pair(field, rng, a.coords[i], w, excluded)
        if pair is None:
            continue
        u = _with_factor(a, i, pair[0])
        u_col = embed(space, u).coords
        if u_span.contains(u_col):
            continue
        v = _with_factor(a, i, pair[1])
        v_col = embed(space, v).coords
        sol = solve_columns(field, [u_col, v_col], cols[ai])
        if not (sol.independent and sol.coefficients is not None
                and all(sol.coefficients)):
            continue
        prov = _base_provenance("plus_one", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": i,
                     "retries_used": attempt})
        try:
            cand = Decomposition(space, others + [u, v], d.target, prov)
        except InvalidInput:
            continue
        c_a = report.values[ai]
        values = (tuple(c for idx, c in enumerate(report.values) if idx != ai)
                  + tuple(field.mul(c_a, c) for c in sol.coefficients))
        cand._with_columns([c for idx, c in enumerate(cols) if idx != ai]
                           + [u_col, v_col])
        return cand._with_report(IrredundancyReport(True, True, field,
                                                    values, True))
    raise GenericityExhausted("plus_one failed after %d retries"
                              % cfg.max_retries)


def escape(d: Decomposition, ysub: SubspaceSpec,
           cfg: ConstructionConfig | None = None, *,
           assert_minimal: bool = False,
           certify_minimal: bool = False) -> Decomposition:
    """From a minimal decomposition inside a proper sub-space Y, build an
    irredundant decomposition of cardinality #A + 1 not contained in Y.

    Works in the first factor where Y is deficient (that factor must have
    degree one): one point is replaced by two points off Y's factor
    subspace on a line through it, so their span recovers the dropped
    point.  Output is verified irredundant and leaves Y by construction.
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if ysub.space != space:
        raise SpaceMismatch("subspace spec is for a different space")
    if ysub.dims == space.factor_dims:
        raise YEqualsW("Y equals the ambient space")
    _irredundant_input(d)
    for p in d.points:
        if not ysub.contains_point(p):
            raise NotContainedInY("input point outside Y")
    field = space.field
    span_cols = ysub.span_columns()
    if solve_columns(field, span_cols, d.target.coords).coefficients is None:
        raise NotContainedInY("target outside the span of Y's image")
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)

    istar = next(i for i in range(space.k)
                 if ysub.dims[i] < space.factor_dims[i])
    if space.multidegree[istar] != 1:
        raise UnsupportedDegree(
            "the deficient factor must have degree one")
    h_rows = [list(b) for b in ysub.factor_bases[istar]]
    rng = random.Random(cfg.rng_seed)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        others = [p for idx, p in enumerate(d.points) if idx != ai]
        try:
            w = _draw_vector_off_span(field, rng,
                                      space.factor_dims[istar] + 1, h_rows)
        except GenericityExhausted:
            continue
        cands = _line_candidates(field, rng, a.coords[istar], w, 2)
        u = a.replace_factor(istar, cands[0])
        v = a.replace_factor(istar, cands[1])
        prov = _base_provenance("escape", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": istar,
                     "retries_used": attempt})
        try:
            cand = Decomposition(space, others + [u, v], d.target, prov)
        except InvalidInput:
            continue
        if not verify_irredundant(cand).irredundant:
            continue
        if all(ysub.contains_point(pt) for pt in cand.points):
            continue
        return cand
    raise GenericityExhausted("escape failed after %d retries"
                              % cfg.max_retries)


def concise_plus_m(d: Decomposition, m: int,
                   cfg: ConstructionConfig | None = None, *,
                   assert_minimal: bool = False,
                   certify_minimal: bool = False) -> Decomposition:
    """From a decomposition on Y' x {o} inside W = Y' x P^m (m >= 2),
    build an irredundant decomposition of cardinality #A + m whose set
    envelope is all of W.

    One point is replaced by m+1 points that copy its Y' part and carry
    spanning last-factor points c_0..c_m chosen so o avoids the span of
    every m of them; that keeps all coefficients nonzero.  The input's
    set envelope must already be full on the retained factors (tensor
    concision of the target for Y implies this).
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if not space.is_segre:
        raise UnsupportedDegree("concise_plus_m needs a Segre space")
    if space.k < 2:
        raise InvalidInput("need a last factor separate from Y'")
    last = space.k - 1
    if m < 2 or space.factor_dims[last] != m:
        raise BadM("m must be >= 2 and equal the last factor dimension")
    _irredundant_input(d)
    o, ysub = _last_factor_slice(d)
    env = set_envelope(space, d.points)
    if env.dims[:last] != space.factor_dims[:last]:
        raise NotConcise(
            "input envelope is deficient on the retained factors: %s"
            % (env.dims,))
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)
    field = space.field
    rng = random.Random(cfg.rng_seed)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        others = [p for idx, p in enumerate(d.points) if idx != ai]
        cs = []
        ok = True
        for _ in range(m + 1):
            for _try in range(64):
                v = tuple(field.random_element(rng, DEFAULT_COORD_BOX)
                          for _ in range(m + 1))
                if any(x != 0 for x in v):
                    break
            else:
                ok = False
                break
            cs.append(canonical_vector(field, v))
        if not ok or len(set(cs)) != m + 1:
            continue
        if rank_rows(field, cs) != m + 1:
            continue
        bad = False
        for drop in range(m + 1):
            sub = [cs[t] for t in range(m + 1) if t != drop]
            if in_span(field, sub, o):
                bad = True
                break
        if bad:
            continue
        new_pts = [a.replace_factor(last, c) for c in cs]
        prov = _base_provenance("concise_plus_m", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": last,
                     "retries_used": attempt})
        try:
            cand = Decomposition(space, others + new_pts, d.target, prov)
        except InvalidInput:
            continue
        if not verify_irredundant(cand).irredundant:
            continue
        if not set_envelope(space, cand.points).is_full:
            continue
        return cand
    raise GenericityExhausted("concise_plus_m failed after %d retries"
                              % cfg.max_retries)


def _extend_one_factor(d, factor, cfg):
    """One line step in a factor of degree e: replace a point by e+1
    distinct points of a line meeting the current factor span only at it;
    the factor envelope must grow by one and the result must verify.  The
    step is appended to the provenance's "steps"."""
    space = d.space
    field = space.field
    deg = space.multidegree[factor]
    rng = random.Random(cfg.rng_seed)
    prev_dim = set_envelope(space, d.points).dims[factor]
    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        others = [p for idx, p in enumerate(d.points) if idx != ai]
        span_rows = [p.coords[factor] for p in d.points]
        try:
            w = _draw_vector_off_span(field, rng,
                                      space.factor_dims[factor] + 1,
                                      span_rows)
        except GenericityExhausted:
            continue
        gvecs = _line_candidates(field, rng, a.coords[factor], w, deg + 1)
        line_pts = [a.replace_factor(factor, g) for g in gvecs]
        prov = dict(d.provenance)
        prov["steps"] = prov["steps"] + [{"replaced_point": ai,
                                          "factor": factor,
                                          "retries_used": attempt}]
        try:
            cand = Decomposition(space, others + line_pts, d.target, prov)
        except InvalidInput:
            continue
        cand._with_columns([c for idx, c in enumerate(d.embedded_columns)
                            if idx != ai]
                           + [embed(space, g).coords for g in line_pts])
        if not verify_irredundant(cand).irredundant:
            continue
        if set_envelope(space, cand.points).dims[factor] != prev_dim + 1:
            continue
        return cand
    raise GenericityExhausted("%s step failed after %d retries"
                              % (d.provenance["construction"],
                                 cfg.max_retries))


def _line_steps(d, factor, steps, cfg, prov):
    """Run `steps` line steps in one factor of degree e, step s seeded
    with rng_seed + 7919 s; prov starts the output's provenance.
    FieldTooSmall when a line over GF(p) has fewer than e+1 points off
    its base point."""
    space = d.space
    deg = space.multidegree[factor]
    p = space.field.modulus
    if p is not None and p < deg + 1:
        raise FieldTooSmall("need %d distinct line points; GF(%d) offers %d"
                            % (deg + 1, p, p))
    prov["steps"] = []
    cur = Decomposition(space, d.points, d.target,
                        prov)._with_columns(d.embedded_columns)
    for step in range(steps):
        cur = _extend_one_factor(
            cur, factor, replace(cfg, rng_seed=cfg.rng_seed + 7919 * step))
    return cur


def veronese_extend(d: Decomposition, target_n: int,
                    cfg: ConstructionConfig | None = None) -> Decomposition:
    """Raise the span of a Veronese decomposition one dimension at a time
    until it has projective dimension target_n.

    Each step replaces one point by d+1 distinct points of a line that
    meets the current span only at it; cardinality grows by the degree per
    step, ending at #A + d*(target_n - m).  Minimality of the input is not
    required, only irredundance.
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if space.k != 1:
        raise NotVeronese("veronese_extend needs a single-factor space")
    n = space.factor_dims[0]
    _irredundant_input(d)
    m_cur = set_envelope(space, d.points).dims[0]
    if not (m_cur <= target_n <= n):
        raise TargetTooSmall(
            "target_n=%d outside [current span %d, ambient %d]"
            % (target_n, m_cur, n))
    return _line_steps(d, 0, target_n - m_cur, cfg,
                       {"construction": "veronese_extend",
                        "seed": cfg.rng_seed, "target_n": target_n})


def sv_extend(d: Decomposition, cfg: ConstructionConfig | None = None, *,
              assert_minimal: bool = False,
              certify_minimal: bool = False) -> Decomposition:
    """Extend a decomposition concentrated at one last-factor point to full
    last-factor envelope on a Segre-Veronese space.

    Last-factor degree 1 delegates to escape (cardinality +1); degree
    e > 1 runs m line-extension steps in the last factor (cardinality
    + e*m, full last-factor envelope).  Either way the provenance records
    the certification that this call ran.
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if space.k < 2:
        raise InvalidInput("need at least two factors")
    last = space.k - 1
    _irredundant_input(d)
    _, ysub = _last_factor_slice(d)
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)
    if space.multidegree[last] == 1:
        out = escape(d, ysub, cfg, assert_minimal=assert_minimal)
        prov = dict(out.provenance, construction="sv_extend",
                    route="escape", certified_minimal=bool(certify_minimal))
        return Decomposition(space, out.points, out.target, prov)
    prov = _base_provenance("sv_extend", cfg, assert_minimal,
                            certify_minimal)
    prov["route"] = "line_steps"
    return _line_steps(d, last, space.factor_dims[last], cfg, prov)
