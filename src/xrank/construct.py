"""Randomize-and-prove constructions that grow irredundant decompositions.

Each operation draws random data under explicit non-degeneracy constraints,
builds a candidate, proves it, and retries with fresh randomness up to
max_retries.  All five make one move: a point a is replaced by k points
that equal a off one factor.  `_proved_move` proves such a candidate's
report from the input's report, with one exact solve on the replaced
factor's Veronese images (not the N + 1 tensor coordinates) and one
independence test modulo the input's span (see its docstring); no
candidate point is embedded or verified again: its column is
`geometry.fiber_map` of a and the factor applied to the new vector's
`geometry.factor_image`.  The line steps of `veronese_extend` and
`sv_extend` eliminate that span once per call: each step hands the next
the span of its output's columns and of the replaced factor's vectors.
What the draws prove of an output is not tested again: a line step grows
its factor envelope by one, `concise_plus_m`'s envelope is full and
`escape`'s output leaves Y.  Outputs therefore never rely on genericity
arguments alone; every returned decomposition carries an exact report.
All draws come from one seeded stream, so identical (input, seed,
config) give identical outputs.
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
from .geometry import (DEFAULT_COORD_BOX, SubspaceSpec, canonical_vector,
                       factor_image, fiber_map, line_point)
from .oracle import brute_rank


@dataclass(frozen=True)
class ConstructionConfig:
    rng_seed: int = 0
    max_retries: int = 64

    def __post_init__(self):
        if self.max_retries < 1:
            raise InvalidInput("max_retries must be >= 1")


def _draw_vector_off_span(field, rng, length, on_span, tries=128):
    """Random nonzero vector v with on_span(v) False (rejection
    sampling); on_span is the membership test of a span, such as an
    `Echelon`'s `contains`."""
    for _ in range(tries):
        v = tuple(field.random_element(rng, DEFAULT_COORD_BOX)
                  for _ in range(length))
        if any(x != 0 for x in v) and not on_span(v):
            return v
    raise GenericityExhausted("no direction off the span after %d draws"
                              % tries)


def _on_ray(field, r):
    """Membership test of the span <r> of one nonzero vector, with no
    elimination: v lies on it iff v r[s] = v[s] r at an entry s with
    r[s] != 0."""
    s = next(j for j, x in enumerate(r) if x)
    mul = field.mul
    return lambda v: all(mul(x, r[s]) == mul(v[s], y) for x, y in zip(v, r))


def _line_candidates(field, rng, a_vec, w_vec, count):
    """`count` distinct points of the line through a and w, all differing
    from a.  Over GF(p) the line carries p such points, a + t w for
    t = 1 .. p-1 and w itself, and `count` distinct positions among them
    are drawn by index; over Q distinct nonzero parameters t are sampled
    from the coordinate box."""
    if field.is_finite:
        p = field.modulus
        if count > p:
            raise FieldTooSmall(
                "need %d distinct points on a line off its base point; "
                "GF(%d) offers %d" % (count, p, p))
        return [tuple(w_vec) if k == p - 1
                else line_point(field, a_vec, w_vec, k + 1)
                for k in rng.sample(range(p), count)]
    box = DEFAULT_COORD_BOX
    pop = [t for t in range(-box, box + 1) if t != 0]
    ts = rng.sample(pop, count)
    return [line_point(field, a_vec, w_vec, t) for t in ts]


def _escaping_fibers(space, points, u_span):
    """(point index, factor, fiber map) triples, in order, whose fiber
    through the point has a coordinate direction embedding outside U; the
    map is `geometry.fiber_map` of that point and factor.  The factors
    have degree one, so a unit vector is its own image."""
    for ai, a in enumerate(points):
        for i in range(space.k):
            fiber = fiber_map(space, a, i)
            n = space.factor_dims[i]
            for j in range(n + 1):
                e = [int(t == j) for t in range(n + 1)]
                if not u_span.contains(fiber((e, 1))):
                    yield ai, i, fiber
                    break


def _proved_move(d, report, u_span, ai, i, fiber, vecs, prov, carry=False):
    """Replace point ai of d by the k >= 2 points that equal it off
    factor i and carry there the vectors `vecs`: the candidate, with its
    columns and a proved report, or None.  `report` is d's, `u_span` an
    `Echelon` spanning d's columns (left as it is) and `fiber` the
    `geometry.fiber_map` of point ai and factor i; no point is embedded
    and nothing is solved at tensor length.  With `carry` the result is
    (candidate, span), span an `Echelon` of U and x_g1 .. x_g(k-1), which
    spans the candidate's columns (below), for a next move to start from.

    The proof.  q = sum_j c_j x_j, the r columns x_j independent and
    every c_j nonzero; U is their span.  For a = point ai, v_e the
    Veronese map of factor i and g_1..g_k the new points,
    x_a = L(v_e(a_i)) and x_gt = L(v_e(g_t)) for the linear, injective
    fiber map L.  The candidate is accepted when
    1. the factor-length solve v_e(a_i) = sum_t gamma_t v_e(g_t) has
       independent columns and every gamma_t nonzero, and
    2. x_g1 .. x_g(k-1) are independent modulo U.
    By 1 and L, x_a = sum_t gamma_t x_gt, so x_gk lies in
    U + <x_g1 .. x_g(k-1)>, of dimension r + k - 1 by 2.  The
    candidate's r - 1 + k columns span it, as they span x_a: they are
    independent (so its points are distinct), and
    q = sum_{j != a} c_j x_j + sum_t c_a gamma_t x_gt is the unique
    expansion, every coefficient nonzero.  Conversely, when an exact
    re-verification accepts and v_e(a_i) lies in the span of the
    v_e(g_t), that expansion is its own, so 1 and 2 hold.  Every move
    here has v_e(a_i) there: two points of a line through a_i in a
    degree-one factor (`plus_one`, `escape`), c_t spanning the factor
    (`concise_plus_m`), or e + 1 distinct points of the degree-e rational
    normal curve v_e(line), any e + 1 of which span its P^e (Landsberg,
    Tensors: Geometry and Applications, 2012).  So this accepts exactly
    what re-verification accepts.  Over Q the images are s_t v_e(g_t) and
    s_a v_e(a_i) (`geometry.factor_image`), so gamma is rescaled by s_t / s_a.
    """
    field = d.space.field
    deg = d.space.multidegree[i]
    a = d.points[ai]
    new_pts = [a.replace_factor(i, g) for g in vecs]
    images = [factor_image(field, g.coords[i], deg) for g in new_pts]
    cols = [fiber(im) for im in images[:-1]]
    # 2: insert x_g1 .. x_g(k-1) into a copy of U, each growing it; a
    # single column that nothing carries forward is tested against U
    span = u_span
    if carry or len(cols) > 1:
        span = u_span.copy()
        if not all(span.insert(c) for c in cols):
            return None
    elif span.contains(cols[0]):
        return None
    target, s_a = factor_image(field, a.coords[i], deg)
    sol = solve_columns(field, [v for v, _ in images], target)
    gamma = sol.coefficients
    if not (sol.independent and gamma is not None and all(gamma)):
        return None
    if field.modulus is None:
        gamma = [g * s / s_a for g, (_, s) in zip(gamma, images)]
    keep = [j for j in range(len(d.points)) if j != ai]
    cand = Decomposition(d.space, [d.points[j] for j in keep] + new_pts,
                         d.target, prov)
    cand._with_columns([d.embedded_columns[j] for j in keep] + cols
                       + [fiber(images[-1])])
    c_a = report.values[ai]
    values = (tuple(report.values[j] for j in keep)
              + tuple(field.mul(c_a, g) for g in gamma))
    cand._with_report(IrredundancyReport(True, True, field, values, True))
    return (cand, span) if carry else cand


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
    are two random points of a line through the chosen point inside that
    fiber, and `_proved_move` proves the candidate's report from the
    input's.  Its test that the first new point embeds outside U keeps
    both off every input point.  The input is checked by
    `verify_irredundant`, which reuses a report the input already carries
    (an oracle witness has one) instead of solving again.  No point is
    embedded: the scan's unit directions go through
    `geometry.fiber_map`, built once per (point, factor).
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
    u_span = Echelon(field, d.embedded_columns)

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
        ai, i, fiber = viable[attempt % len(viable)]
        a = d.points[ai]
        try:
            w = _draw_vector_off_span(field, rng, space.factor_dims[i] + 1,
                                      _on_ray(field, a.coords[i]))
        except GenericityExhausted:
            continue
        pair = _line_candidates(field, rng, a.coords[i], w, 2)
        prov = _base_provenance("plus_one", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": i,
                     "retries_used": attempt})
        cand = _proved_move(d, report, u_span, ai, i, fiber, pair, prov)
        if cand is not None:
            return cand
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
    point.  Output is proved irredundant and leaves Y by construction
    (see `_escape`).
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if ysub.space != space:
        raise SpaceMismatch("subspace spec is for a different space")
    if ysub.dims == space.factor_dims:
        raise YEqualsW("Y equals the ambient space")
    report = _irredundant_input(d)
    for p in d.points:
        if not ysub.contains_point(p):
            raise NotContainedInY("input point outside Y")
    if solve_columns(space.field, ysub.span_columns(),
                     d.target.coords).coefficients is None:
        raise NotContainedInY("target outside the span of Y's image")
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)
    return _escape(d, report, ysub, cfg, assert_minimal,
                   certify_minimal)


def _escape(d, report, ysub, cfg, assert_minimal, certify_minimal):
    """`escape` once its input checks have passed: Y is proper and holds
    the irredundant input's points and its target; report is the
    input's.

    Every accepted candidate leaves Y.  Let H be Y's subspace in the
    deficient factor i*.  The replaced point a lies in Y, so a_i* is in H,
    and w is drawn off H.  The new points carry a_i* + t w (t != 0) or w
    in factor i*; if a_i* + t w were in H, so would be w.  So no new point
    lies in Y, and no candidate needs a test for it."""
    space = d.space
    field = space.field
    istar = next(i for i in range(space.k)
                 if ysub.dims[i] < space.factor_dims[i])
    if space.multidegree[istar] != 1:
        raise UnsupportedDegree(
            "the deficient factor must have degree one")
    on_h = Echelon(field, ysub.factor_bases[istar]).contains
    rng = random.Random(cfg.rng_seed)
    u_span = Echelon(field, d.embedded_columns)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        try:
            w = _draw_vector_off_span(field, rng,
                                      space.factor_dims[istar] + 1, on_h)
        except GenericityExhausted:
            continue
        cands = _line_candidates(field, rng, a.coords[istar], w, 2)
        prov = _base_provenance("escape", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": istar,
                     "retries_used": attempt})
        cand = _proved_move(d, report, u_span, ai, istar,
                            fiber_map(space, a, istar), cands, prov)
        if cand is not None:
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

    So every accepted candidate's envelope is full, with no test: the new
    points copy a's retained factors and the other input points stay, so
    its retained envelope is the input's, and `_proved_move`'s condition 1
    (independent columns c_0..c_m, the factor having degree one) makes
    c_0..c_m a basis of the last factor.
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
    report = _irredundant_input(d)
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
    u_span = Echelon(field, d.embedded_columns)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        draws = (_draw_vector_off_span(field, rng, m + 1, lambda v: False)
                 for _ in range(m + 1))
        cs = [canonical_vector(field, v) for v in draws]
        if len(set(cs)) != m + 1:
            continue
        # _proved_move's condition 1 implies this filter (o = sum_t
        # gamma_t c_t, the c_t independent and every gamma_t nonzero); it
        # stays while perfbench/tests/test_tracer.py checks that this
        # module imports in_span (ROADMAP item 10)
        if rank_rows(field, cs) != m + 1 or any(
                in_span(field, cs[:drop] + cs[drop + 1:], o)
                for drop in range(m + 1)):
            continue
        prov = _base_provenance("concise_plus_m", cfg, assert_minimal,
                                certify_minimal)
        prov.update({"replaced_point": ai, "factor": last,
                     "retries_used": attempt})
        cand = _proved_move(d, report, u_span, ai, last,
                            fiber_map(space, a, last), cs, prov)
        if cand is not None:
            return cand
    raise GenericityExhausted("concise_plus_m failed after %d retries"
                              % cfg.max_retries)


def _extend_one_factor(d, u_span, f_span, factor, cfg):
    """One line step in a factor of degree e: replace a point a by e+1
    distinct points of the line through a_f and a vector w drawn off the
    factor span F, and prove the result from d's report, which the step
    before proved.  u_span is an `Echelon` of d's columns, f_span one of
    F; returns (output, an `Echelon` of its columns) and inserts w into
    f_span.  The step is appended to the provenance's "steps".

    The factor envelope grows by exactly one.  w is off F and a_f is in F,
    so any two distinct points of the line span <a_f, w>; the e+1 >= 2 new
    points take a's place, so the output's factor span is F + <w>."""
    space = d.space
    field = space.field
    deg = space.multidegree[factor]
    rng = random.Random(cfg.rng_seed)
    report = verify_irredundant(d)
    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        try:
            w = _draw_vector_off_span(field, rng,
                                      space.factor_dims[factor] + 1,
                                      f_span.contains)
        except GenericityExhausted:
            continue
        gvecs = _line_candidates(field, rng, a.coords[factor], w, deg + 1)
        prov = dict(d.provenance)
        prov["steps"] = prov["steps"] + [{"replaced_point": ai,
                                          "factor": factor,
                                          "retries_used": attempt}]
        moved = _proved_move(d, report, u_span, ai, factor,
                             fiber_map(space, a, factor), gvecs, prov,
                             carry=True)
        if moved is not None:
            f_span.insert(w)
            return moved
    raise GenericityExhausted("%s step failed after %d retries"
                              % (d.provenance["construction"],
                                 cfg.max_retries))


def _line_steps(d, report, f_span, factor, steps, cfg, prov):
    """Run `steps` line steps in one factor of degree e, step s seeded
    with rng_seed + 7919 s; report is d's, f_span an `Echelon` of its
    points' vectors in that factor, and prov starts the output's
    provenance.  U, the span of d's columns, is eliminated once; each step
    hands the next its output's span and f_span.  FieldTooSmall when a
    line over GF(p) has fewer than e+1 points off its base point."""
    space = d.space
    deg = space.multidegree[factor]
    p = space.field.modulus
    if p is not None and p < deg + 1:
        raise FieldTooSmall("need %d distinct line points; GF(%d) offers %d"
                            % (deg + 1, p, p))
    prov["steps"] = []
    cur = Decomposition(space, d.points, d.target, prov)
    cur._with_columns(d.embedded_columns)._with_report(report)
    u_span = Echelon(space.field, d.embedded_columns)
    for step in range(steps):
        cur, u_span = _extend_one_factor(
            cur, u_span, f_span, factor,
            replace(cfg, rng_seed=cfg.rng_seed + 7919 * step))
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
    report = _irredundant_input(d)
    f_span = Echelon(space.field, [p.coords[0] for p in d.points])
    m_cur = f_span.rank - 1
    if not (m_cur <= target_n <= n):
        raise TargetTooSmall(
            "target_n=%d outside [current span %d, ambient %d]"
            % (target_n, m_cur, n))
    return _line_steps(d, report, f_span, 0, target_n - m_cur, cfg,
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
    report = _irredundant_input(d)
    o, ysub = _last_factor_slice(d)
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)
    if space.multidegree[last] == 1:
        # _irredundant_input and _last_factor_slice have run escape's
        # other checks: Y holds the irredundant input and its target
        if ysub.dims == space.factor_dims:
            raise YEqualsW("Y equals the ambient space")
        out = _escape(d, report, ysub, cfg, assert_minimal,
                      certify_minimal)
        out.provenance = dict(out.provenance, construction="sv_extend",
                              route="escape")
        return out
    prov = _base_provenance("sv_extend", cfg, assert_minimal,
                            certify_minimal)
    prov["route"] = "line_steps"
    # every input point has o in the last factor, so <o> is its span
    return _line_steps(d, report, Echelon(space.field, [o]), last,
                       space.factor_dims[last], cfg, prov)
