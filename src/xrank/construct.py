"""Randomize-and-prove constructions that grow irredundant decompositions.

Each operation draws random data under explicit non-degeneracy constraints,
builds a candidate, proves it, and retries with fresh randomness up to
max_retries.  All five make one move: a point a is replaced by k points
that equal a off one factor.  `_proved_move` proves such a candidate's
report from the input's report and the coefficients of a's Veronese
image in the new points' images, given that the new columns are
independent modulo the input's span U (see its docstring).  Four of the
five move a to e + 1 points of a line through it, in a factor of degree
e, and read the coefficients off the line with no solve (the proof is
in `_line_candidates`); `concise_plus_m` solves for them once, on its
m + 1 last-factor vectors.  Only `plus_one` tests the independence,
with one membership test in U per candidate, and only on factors of
dimension >= 2: on P^1 the line implies it.  The draws of `escape`,
`concise_plus_m` and the line steps of `veronese_extend` and
`sv_extend` imply it (the proofs are in their docstrings), so no other
construction eliminates U.  No candidate point is embedded or verified
again: its column is `geometry.fiber_map` of a and the factor applied
to the new vector's `geometry.factor_image`, and over Q the new vectors
stay primitive integer vectors from the line draw to that image.  What
the draws or input checks prove is not tested again: a line step grows
its factor envelope by one, `concise_plus_m`'s envelope is full,
`escape`'s output leaves Y and an irredundant input inside Y has its
target in the span of Y's image.  So outputs never rely on genericity
arguments alone; every returned decomposition carries an exact report.
All draws come from one seeded stream, so identical (input, seed,
config) give identical outputs.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .decomp import (Decomposition, IrredundancyReport, set_envelope,
                     verify_irredundant)
from .errors import (BadM, DegenerateSpace, FieldTooSmall, GenericityExhausted,
                     InvalidInput, MinimalityNotCertified, NoEscapingFiber,
                     NotConcise, NotContainedInY, NotIrredundantInput,
                     NotVeronese, SpaceMismatch, TargetTooSmall,
                     UnsupportedDegree, YEqualsW)
from .exactlin import Echelon, in_span, integer_row, rank_rows, solve_columns
from .geometry import (DEFAULT_COORD_BOX, MppPoint, SubspaceSpec,
                       canonical_vector, factor_image, fiber_map)
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
    `Echelon`'s `contains`.  The entries are `FieldSpec.random_element`'s
    draws, from the same `rng` calls."""
    p, box = field.modulus, DEFAULT_COORD_BOX
    for _ in range(tries):
        if p is None:
            v = tuple([Fraction(rng.randint(-box, box))
                       for _ in range(length)])
        else:
            v = tuple([rng.randrange(p) for _ in range(length)])
        if any(v) and not on_span(v):
            return v
    raise GenericityExhausted("no direction off the span after %d draws"
                              % tries)


def _on_ray(field, r):
    """Membership test of the span <r> of one nonzero vector, with no
    elimination: v lies on it iff v r[s] = v[s] r at an entry s with
    r[s] != 0."""
    s = next(j for j, x in enumerate(r) if x)
    rs, p = r[s], field.modulus
    if p is None:
        return lambda v: all(x * rs == v[s] * y for x, y in zip(v, r))
    return lambda v: all((x * rs - v[s] * y) % p == 0 for x, y in zip(v, r))


def _line_candidates(field, rng, a_vec, w_vec, deg):
    """deg + 1 distinct points g_k of the line through a and w, all
    differing from a, and their coefficients gamma_k, with
    v_e(a) = sum_k gamma_k v_e(g_k) for v_e the degree-e Veronese map,
    e = deg: the two lists `_proved_move` takes.  a_vec is canonical.
    Over GF(p) the line carries p such points, a + t w for t = 1 .. p-1
    and w itself, and e + 1 distinct positions among them are drawn by
    index; each is formed from a's canonical residues and w's residues
    and scaled once to its canonical vector.  Over Q distinct nonzero
    parameters t are sampled from [-B, B], B the coordinate box or
    ceil((e + 1) / 2) if larger, and each point comes back as its
    primitive integer vector with a positive lead:
    a + t w = (d_w A + t d_a W) / (d_a d_w) for A = d_a a and W = d_w w
    the integer vectors of a and w (`exactlin.integer_row`).

    gamma is read off the line, with no solve.  Write the drawn points
    as P_k = (l_k : m_k) in P^1, where l a + m w maps to (l : m), so
    a + t w = (1 : t) and w = (0 : 1).  Each coordinate of
    v_e(l a + m w) is a binary form of degree e in (l, m), so Lagrange
    interpolation at the e + 1 points, with
    L_k = prod_{j != k} (m_j l - l_j m), gives
    v_e(a) = sum_k [L_k(1, 0) / L_k(P_k)] v_e(l_k a + m_k w).
    L_k(1, 0) = prod_{j != k} m_j != 0, as no drawn t is 0, and
    L_k(P_k) != 0, as the points are distinct.  The canonical point is
    g_k = (l_k a + m_k w) / c_k, c_k the lead of l_k a + m_k w, so
    gamma_k = c_k^e L_k(1, 0) / L_k(P_k), exact over GF(p) and Q.  The
    images v_e(g_k) are independent: v_e(l a + m w) =
    sum_j l^(e-j) m^j M_j, where the M_j are independent as a and w are
    (every caller draws w off a's ray), and the matrix
    (l_k^(e-j) m_k^j) of distinct points of P^1 is a nonsingular
    Vandermonde matrix.  So every line move meets `_proved_move`'s
    condition 1: any e + 1 points of the rational normal curve v_e(line)
    are independent (Harris, Algebraic Geometry: A First Course, GTM 133,
    1992, Example 1.14; Landsberg, Tensors: Geometry and Applications,
    2012)."""
    count = deg + 1
    p = field.modulus
    out, params = [], []
    if p is not None:
        if count > p:
            raise FieldTooSmall(
                "need %d distinct points on a line off its base point; "
                "GF(%d) offers %d" % (count, p, p))
        for k in rng.sample(range(p), count):
            if k == p - 1:
                v, lm = w_vec, (0, 1)
            else:
                v, lm = [(x + (k + 1) * y) % p
                         for x, y in zip(a_vec, w_vec)], (1, k + 1)
            lead = next(x for x in v if x)
            if lead != 1:
                inv = pow(lead, -1, p)
                v = [inv * x % p for x in v]
            out.append(tuple(v))
            params.append(lm + (lead,))
        return out, _line_coefficients(params, deg, p)
    box = max(DEFAULT_COORD_BOX, -(-count // 2))
    pop = [t for t in range(-box, box + 1) if t != 0]
    ts = rng.sample(pop, count)
    (A, da), (W, dw) = integer_row(a_vec), integer_row(w_vec)
    A, W = [dw * x for x in A], [da * x for x in W]
    for t in ts:
        v = [x + t * y for x, y in zip(A, W)]
        lead = next(x for x in v if x)
        g = gcd(*v)
        if lead < 0:
            g = -g
        out.append(tuple([x // g for x in v]) if g != 1 else tuple(v))
        # v is da dw (a + t w), so the lead of a + t w is lead / (da dw)
        params.append((1, t, lead))
    return out, _line_coefficients(params, deg, None, (da * dw) ** deg)


def _line_coefficients(params, deg, p, scale=1):
    """gamma_k = c_k^e L_k(1, 0) / (scale L_k(P_k)) for e = deg and the
    points (l_k, m_k, c_k) of `_line_candidates`' proof: residues mod p,
    or over Q (p None) Fractions, where each c_k is the lead of
    s (l_k a + m_k w) for one integer s and scale = s^e."""
    gamma = []
    for k, (lk, mk, ck) in enumerate(params):
        num, den = ck ** deg, scale
        for j, (lj, mj, _) in enumerate(params):
            if j != k:
                num *= mj
                den *= mj * lk - lj * mk
        gamma.append(Fraction(num, den) if p is None
                     else num * pow(den, -1, p) % p)
    return gamma


def _escaping_fibers(space, points, u_span):
    """(point index, factor, fiber map) triples, in order, whose fiber
    through the point has a coordinate direction embedding outside U; the
    map is `geometry.fiber_map` of that point and factor.  The factors
    have degree one, so a unit vector is its own image.  The unit
    direction at the lead s of the point's factor vector a_i is not
    tested: a_i, whose image x_a lies in U, and the other n unit
    directions span the factor, as a_i[s] != 0.  So on a P^1 factor one
    test decides."""
    for ai, a in enumerate(points):
        for i in range(space.k):
            fiber = fiber_map(space, a, i)
            vec = a.coords[i]
            s = next(j for j, x in enumerate(vec) if x)
            for j in range(len(vec)):
                if j == s:
                    continue
                e = [int(t == j) for t in range(len(vec))]
                if not u_span.contains(fiber(e)):
                    yield ai, i, fiber
                    break


def _proved_move(d, report, ai, i, fiber, vecs, gamma, prov):
    """Replace point ai of d by the k >= 2 points that equal it off
    factor i and carry there the vectors `vecs`: the candidate, with its
    columns and a proved report.  `report` is d's, `fiber` the
    `geometry.fiber_map` of point ai and factor i, and `gamma` the
    caller's coefficients of condition 1 below.  Over GF(p) each vector
    is canonical and becomes the new point's factor as it is.  Over Q
    any nonzero vector will do, canonicalised once for the point, and a
    canonical one or a primitive integer vector with a positive lead
    (`_line_candidates`) gives its column the scale that
    `Decomposition.images` describes.  No point is embedded and nothing
    is solved or eliminated.

    The proof.  q = sum_j c_j x_j, the r columns x_j independent and
    every c_j nonzero; U is their span.  For a = point ai, v_e the
    Veronese map of factor i and g_1..g_k the new points, canonical,
    x_a = L(v_e(a_i)) and x_gt = L(v_e(g_t)) for the linear, injective
    fiber map L.  The caller guarantees
    1. v_e(a_i) = sum_t gamma_t v_e(g_t), with the v_e(g_t) independent
       and every gamma_t nonzero:
    a line move's k = e + 1 images lie on the degree-e rational normal
    curve v_e(line), and it reads gamma off the line, which proves 1
    (`_line_candidates`); `concise_plus_m` solves for gamma behind a
    filter that proves 1; and
    2. x_g1 .. x_g(k-1) are independent modulo U:
    `plus_one` tests it on factors of dimension >= 2 and proves it from
    1 on P^1, and `escape`, `concise_plus_m` and the line steps
    (`_extend_one_factor`) prove it from their draws.
    By 1 and L, x_a = sum_t gamma_t x_gt, so x_gk lies in
    U + <x_g1 .. x_g(k-1)>, of dimension r + k - 1 by 2.  The
    candidate's r - 1 + k columns span it, as they span x_a: they are
    independent (so its points are distinct), and
    q = sum_{j != a} c_j x_j + sum_t c_a gamma_t x_gt is the unique
    expansion, every coefficient nonzero.  Conversely, when 1 holds and
    an exact re-verification accepts, that expansion is its own, so 2
    holds: given 1, 2 accepts exactly what re-verification accepts.
    The columns, U's among them, are the integer images over Q
    (`geometry.factor_image`), nonzero multiples of the x_j, which
    changes neither condition 2 nor any span; the report's values come
    from d's report and gamma, so they are the canonical coefficients.
    """
    field = d.space.field
    deg = d.space.multidegree[i]
    a = d.points[ai]
    keep = [j for j in range(len(d.points)) if j != ai]
    c_a = report.values[ai]
    values = (tuple(report.values[j] for j in keep)
              + tuple(field.mul(c_a, g) for g in gamma))
    if field.is_finite:
        head, tail = a.coords[:i], a.coords[i + 1:]
        moved = [MppPoint(d.space, head + (g,) + tail) for g in vecs]
    else:
        moved = [a.replace_factor(i, g) for g in vecs]
    # the columns are independent (above), so the points are distinct
    return Decomposition._proved(
        d.space, [d.points[j] for j in keep] + moved,
        d.target, prov,
        [d.images[j] for j in keep]
        + [fiber(factor_image(field, g, deg)[0]) for g in vecs],
        IrredundancyReport(True, True, field, values, True))


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


def _last_factor_point(d):
    """o, the last-factor point that every input point shares; by the proof
    in `escape`, the target then lies in the span of Y' x {o}'s image."""
    last = d.space.k - 1
    o = d.points[0].coords[last]
    if any(p.coords[last] != o for p in d.points):
        raise InvalidInput("input points do not share one last-factor point")
    return o


def _move_provenance(name, cfg, assert_minimal, certified, ai, i, attempt):
    return {"construction": name, "seed": cfg.rng_seed,
            "assert_minimal": bool(assert_minimal),
            "certified_minimal": bool(certified), "replaced_point": ai,
            "factor": i, "retries_used": attempt}


def plus_one(d: Decomposition, cfg: ConstructionConfig | None = None, *,
             assert_minimal: bool = False,
             certify_minimal: bool = False) -> Decomposition:
    """Grow a minimal decomposition by one: replace one point by two points
    of a fiber line through it whose span escapes the current span.

    Scans (point, factor) pairs in deterministic order for a fiber with
    span not inside U = span of the embedded input; the replacement points
    are two random points of a line through the chosen point inside that
    fiber, and `_proved_move` proves the candidate's report from the
    input's and the coefficients read off the line (`_line_candidates`),
    with no solve.  Only plus_one tests `_proved_move`'s condition 2,
    that the first new point embeds outside U, and only when the
    replaced factor has dimension >= 2: there a line in an escaping fiber
    may still lie in U, and the test keeps both new points off every
    input point.
    The input is checked by `verify_irredundant`, which reuses a report
    the input already carries (an oracle witness has one) instead of
    solving again.  No point is embedded: the scan's unit directions go
    through `geometry.fiber_map`, built once per (point, factor).

    On a P^1 factor condition 1 implies condition 2.  Let L be the fiber
    map of a and i, and K = L^-1(U), a subspace of the factor F_i that
    contains a_i.  The fiber escapes U, so K != F_i, and as F_i has
    dimension 2, K = <a_i>.  Condition 1, which the line proves, gives
    a_i = gamma_1 g_1 + gamma_2 g_2 with g_1, g_2 independent and both
    gamma nonzero; were g_1 on <a_i>, so would be g_2, against their
    independence.  So g_1 is off K, and L(g_1), whose nonzero multiple
    is the first new column, lies outside U.  Every attempt draws from
    an escaping fiber, so this holds on retries too.
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
    u_span = Echelon(field, d.images)

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
        pair, gamma = _line_candidates(field, rng, a.coords[i], w, 1)
        # `_proved_move`'s condition 2, which its condition 1 implies on a
        # P^1 factor (above); the factor has degree one, so a vector is
        # its own image
        if space.factor_dims[i] >= 2 and u_span.contains(fiber(pair[0])):
            continue
        prov = _move_provenance("plus_one", cfg, assert_minimal,
                                certify_minimal, ai, i, attempt)
        return _proved_move(d, report, ai, i, fiber, pair, gamma, prov)
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
    point, with coefficients read off the line (`_line_candidates`), so
    no candidate is solved.  Output is proved irredundant and leaves Y by
    construction.

    The input checks place the target in the span of Y's image with no
    solve: q = sum_j c_j x_j, as the input is irredundant, and each
    x_j = v(p_j), p_j in Y, lies in the span of `SubspaceSpec.span_columns`
    by the substitution identity of `geometry.substitution_columns`.

    Every accepted candidate leaves Y.  Let H be Y's subspace in the
    deficient factor i*.  The replaced point a lies in Y, so a_i* is in H,
    and w is drawn off H.  The new points carry a_i* + t w (t != 0) or w
    in factor i*; if a_i* + t w were in H, so would be w.  So no new point
    lies in Y, and no candidate needs a test for it.

    Every candidate meets `_proved_move`'s condition 2, with no test.
    Let S be the span of Y's image and L the fiber map of a and i*, whose
    factor has degree one, so L(u) = y x u for y != 0 the image of a's
    other factors.  U lies in S, the tensor product of the spans of Y's
    factor images, which is H in factor i*; so an element L(u) of S has u
    in H.  So L(w) lies outside S, as w is off H, while L(a_i*) lies in
    it.  The first new column is a nonzero multiple of
    L(a_i* + t w) = L(a_i*) + t L(w) with t != 0, or of L(w); either way
    it lies outside S, so outside U.
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
    if certify_minimal:
        _certify_minimal_via_oracle(d, within=ysub)
    field = space.field
    istar = next(i for i in range(space.k)
                 if ysub.dims[i] < space.factor_dims[i])
    if space.multidegree[istar] != 1:
        raise UnsupportedDegree("the deficient factor must have degree one")
    on_h = Echelon(field, ysub.factor_bases[istar]).contains
    rng = random.Random(cfg.rng_seed)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        try:
            w = _draw_vector_off_span(field, rng,
                                      space.factor_dims[istar] + 1, on_h)
        except GenericityExhausted:
            continue
        cands, gamma = _line_candidates(field, rng, a.coords[istar], w, 1)
        prov = _move_provenance("escape", cfg, assert_minimal,
                                certify_minimal, ai, istar, attempt)
        return _proved_move(d, report, ai, istar,
                            fiber_map(space, a, istar), cands, gamma, prov)
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

    The c_t lie on no line through o, so gamma is solved, not read off
    a line: one solve of o = sum_t gamma_t c_t on the m + 1 last-factor
    vectors, whose coefficients `_proved_move` takes.  The draw's filter
    proves `_proved_move`'s condition 1, the factor having degree one:
    it keeps c_0..c_m of rank m + 1, a basis of the last factor, so the
    solve's gamma is unique, and o off the span of every m of them, so
    every gamma_t is nonzero.

    So every candidate's envelope is full, with no test: the new points
    copy a's retained factors and the other input points stay, so its
    retained envelope is the input's, and c_0..c_m are a basis of the
    last factor.

    Every candidate meets `_proved_move`'s condition 2, with no test.
    With V' the tensor space of the retained factors, U lies in
    V' x <o>, and the new columns are y_a x c_t for y_a != 0 the image of
    a's retained factors.  By the filter o is off the span of every m of
    the c_t.  If sum_{t<m} l_t y_a x c_t lay in V' x <o>,
    sum_{t<m} l_t c_t would be a multiple of o, so zero, and every l_t
    zero: y_a x c_0 .. y_a x c_(m-1) are independent modulo V' x <o>, so
    modulo U.
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
    o = _last_factor_point(d)
    env = set_envelope(space, d.points)
    if env.dims[:last] != space.factor_dims[:last]:
        raise NotConcise(
            "input envelope is deficient on the retained factors: %s"
            % (env.dims,))
    if certify_minimal:
        retained = SubspaceSpec.full(space).factor_bases[:last]
        _certify_minimal_via_oracle(
            d, within=SubspaceSpec.of(space, list(retained) + [(o,)]))
    field = space.field
    rng = random.Random(cfg.rng_seed)

    for attempt in range(cfg.max_retries):
        ai = attempt % len(d.points)
        a = d.points[ai]
        draws = (_draw_vector_off_span(field, rng, m + 1, lambda v: False)
                 for _ in range(m + 1))
        cs = [canonical_vector(field, v) for v in draws]
        if len(set(cs)) != m + 1:
            continue
        # the filter proves _proved_move's condition 1 (docstring), so
        # the solve's gamma need no check; testing the solve's
        # independence and nonzero gamma instead could replace it, but it
        # stays while perfbench/tests/test_tracer.py checks that this
        # module imports in_span (ROADMAP item 10)
        if rank_rows(field, cs) != m + 1 or any(
                in_span(field, cs[:drop] + cs[drop + 1:], o)
                for drop in range(m + 1)):
            continue
        gamma = solve_columns(field, cs, o).coefficients
        prov = _move_provenance("concise_plus_m", cfg, assert_minimal,
                                certify_minimal, ai, last, attempt)
        return _proved_move(d, report, ai, last,
                            fiber_map(space, a, last), cs, gamma, prov)
    raise GenericityExhausted("concise_plus_m failed after %d retries"
                              % cfg.max_retries)


def _extend_one_factor(d, f_span, factor, cfg):
    """One line step in a factor of degree e: replace a point a by e+1
    distinct points of the line through a_f and a vector w drawn off the
    factor span F, and prove the result from d's report, which the step
    before proved, and the coefficients read off the line
    (`_line_candidates`), with no solve.  w is off F, so off a_f's ray,
    as that proof needs.  f_span is an `Echelon` of F; returns the output
    and inserts w into f_span.  The step is appended to the provenance's
    "steps".

    The factor envelope grows by exactly one.  w is off F and a_f is in F,
    so any two distinct points of the line span <a_f, w>; the e+1 >= 2 new
    points take a's place, so the output's factor span is F + <w>.

    Every candidate meets `_proved_move`'s condition 2, with no test.
    Every point of d has its factor-f vector in F, so U lies in the span
    of the images of the points whose factor-f vector is in F.  The new
    columns are y_a x v_e(g_t), y_a != 0 the image of a's other factors,
    so it suffices that e of the v_e(g_t) are independent modulo the span
    P of v_e(F).  Change coordinates so that a_f = e_0, F = <e_0..e_m>
    and w = e_(m+1); v_e of a linear change of coordinates is an
    invertible linear map, and P then lies in the span of the monomials
    supported on x_0..x_m.  v_e(a_f + t w) = sum_j t^j M_j for M_j the
    monomial x_0^(e-j) x_(m+1)^j, and v_e(w) = M_e.  The M_j with j >= 1
    are independent modulo the monomials supported on F, and for any e
    of the e+1 drawn points the matrix of their coordinates on
    M_1 .. M_e is nonsingular: the rows (t, t^2, .., t^e) for distinct
    nonzero t form a scaled Vandermonde matrix, and w gives the row
    (0, .., 0, 1), leaving e-1 of them in the first e-1 coordinates."""
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
        gvecs, gamma = _line_candidates(field, rng, a.coords[factor], w,
                                        deg)
        prov = dict(d.provenance)
        prov["steps"] = prov["steps"] + [{"replaced_point": ai,
                                          "factor": factor,
                                          "retries_used": attempt}]
        f_span.insert(w)
        return _proved_move(d, report, ai, factor,
                            fiber_map(space, a, factor), gvecs, gamma, prov)
    raise GenericityExhausted("%s step failed after %d retries"
                              % (d.provenance["construction"],
                                 cfg.max_retries))


def _line_steps(d, report, f_span, factor, steps, cfg, prov):
    """Run `steps` line steps in one factor of degree e, step s seeded
    with rng_seed + 7919 s; report is d's, f_span an `Echelon` of its
    points' vectors in that factor, and prov starts the output's
    provenance.  Each step hands the next its output and f_span; no step
    solves, and none eliminates at tensor length.  FieldTooSmall when a
    line over GF(p) has fewer than e+1 points off its base point."""
    space = d.space
    deg = space.multidegree[factor]
    p = space.field.modulus
    if p is not None and p < deg + 1:
        raise FieldTooSmall("need %d distinct line points; GF(%d) offers %d"
                            % (deg + 1, p, p))
    prov["steps"] = []
    # d's points were checked when d was built and its report just now
    cur = Decomposition._proved(space, d.points, d.target, prov, d.images,
                                report)
    for step in range(steps):
        cur = _extend_one_factor(
            cur, f_span, factor,
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


def sv_extend(d: Decomposition,
              cfg: ConstructionConfig | None = None) -> Decomposition:
    """Extend an irredundant decomposition concentrated at one last-factor
    point o to full last-factor envelope on a Segre-Veronese space: m line
    steps in the last factor P^m, of degree e, each grow the envelope by
    one, and the output has #A + e*m points.  Minimality is not required.
    """
    cfg = cfg or ConstructionConfig()
    space = d.space
    if space.k < 2:
        raise InvalidInput("need at least two factors")
    last = space.k - 1
    m = space.factor_dims[last]
    if m == 0:
        raise YEqualsW("last factor P^0: Y' x {o} is the ambient space")
    report = _irredundant_input(d)
    o = _last_factor_point(d)
    # every input point has o in the last factor, so <o> is its span
    return _line_steps(d, report, Echelon(space.field, [o]), last, m, cfg,
                       {"construction": "sv_extend", "seed": cfg.rng_seed})
