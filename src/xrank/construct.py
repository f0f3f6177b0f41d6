"""Randomize-and-prove constructions that grow irredundant decompositions.

Each operation draws random data under explicit non-degeneracy
constraints, builds its candidates and proves them: every draw succeeds
by construction (`_draw_vector_off_span` ends with a scan of the unit
vectors), so no operation retries, and none refuses a valid input for
want of a lucky draw.  Every candidate comes from one move: a point a is
replaced by k points that equal a off one factor.  `_proved_move` proves
such a candidate's report from the input's report and the coefficients
of a's Veronese image in the new points' images, given that the new
columns are independent modulo the input's span U (see its docstring).
`plus_one`, `escape` and each line step of `veronese_extend` and
`sv_extend` make it through `_line_move`, which moves a to e + 1 points
of a line through it, in a factor of degree e, and reads the
coefficients off the line with no solve (the proof is in
`_line_candidates`); `concise_plus_m` completes its last-factor point o
to m + 1 vectors that sum to it, and reads the coefficients off their
leads.  Every draw proves the independence: `plus_one` draws its line
direction off the preimage of U in the replaced factor, and
`concise_plus_m` its vectors off o's growing span (their docstrings),
while `escape` and the line steps draw off a subspace of that factor
which holds every input point's vector there, and one lemma
(`_line_steps`) proves it for both.  No candidate point is embedded or
verified again: its column is `geometry.fiber_map` of a and the factor
applied to the new vector's `geometry.factor_image`, and over Q the new
vectors stay primitive integer vectors from the line draw to that image.
What the draws or input checks prove is not tested again: a line step
grows its factor envelope by one, `concise_plus_m`'s envelope is full,
`escape`'s output leaves Y and an irredundant input inside Y has its
target in the span of Y's image.  So outputs never rely on genericity
arguments alone; every returned decomposition carries an exact report.
All draws come from streams seeded by the config's seed, so identical
(input, seed) give identical outputs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .decomp import (Decomposition, IrredundancyReport, set_envelope,
                     verify_irredundant)
from .errors import (BadM, DegenerateSpace, FieldTooSmall, InvalidInput,
                     MinimalityNotCertified, NoEscapingFiber, NotConcise,
                     NotContainedInY, NotIrredundantInput, NotVeronese,
                     SpaceMismatch, TargetTooSmall, UnsupportedDegree,
                     YEqualsW)
from .exactlin import Echelon, in_span, integer_row
from .geometry import (DEFAULT_COORD_BOX, MppPoint, SubspaceSpec,
                       canonical_vector, factor_image, fiber_map)
from .oracle import brute_rank


@dataclass(frozen=True)
class ConstructionConfig:
    rng_seed: int = 0


def _draw_vector_off_span(field, rng, length, on_span, tries=128):
    """A nonzero vector v with on_span(v) False, for on_span the
    membership test of a proper subspace, such as an `Echelon`'s
    `contains`: up to `tries` random draws (rejection sampling), then the
    first unit vector off the span.  The random entries are
    `FieldSpec.random_element`'s draws, from the same `rng` calls, but
    plain ints over Q, as the callers' `Echelon`s, fiber maps and lines
    take them.

    The draw never fails: the unit vectors span the whole space, so a
    proper subspace misses one of them.  Every caller's span is proper.
    `plus_one` draws off K = L^-1(U), which misses the unit direction
    whose image shows that the fiber escapes U.  `escape` draws off Y's
    subspace in a factor where Y is deficient.  `concise_plus_m` draws c_t
    off <o, c_1 .. c_(t-1)>, of dimension t <= m in a factor of dimension
    m + 1.  A line step draws off the factor span F, which grows by one
    per step: `veronese_extend` steps only while F's projective dimension
    is below target_n <= n, and `sv_extend` takes m steps from F = <o>
    in a factor P^m."""
    p, box = field.modulus, DEFAULT_COORD_BOX
    for _ in range(tries):
        if p is None:
            v = tuple([rng.randint(-box, box) for _ in range(length)])
        else:
            v = tuple([rng.randrange(p) for _ in range(length)])
        if any(v) and not on_span(v):
            return v
    return next(v for v in (tuple([int(t == j) for t in range(length)])
                            for j in range(length))
                if not on_span(v))


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


def _escaping_fiber(space, points, u_span):
    """The first (point index, factor, fiber map) triple, in order, whose
    fiber through the point has a coordinate direction embedding outside
    U, or None; the map is `geometry.fiber_map` of that point and
    factor.  The factors have degree one, so a unit vector is its own
    image.  The unit direction at the lead s of the point's factor vector
    a_i is not tested: a_i, whose image x_a lies in U, and the other n
    unit directions span the factor, as a_i[s] != 0.  So on a P^1 factor
    one test decides."""
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
                    return ai, i, fiber
    return None


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
    (`_line_candidates`); `concise_plus_m`'s completion of o proves 1
    with gamma its vectors' leads; and
    2. x_g1 .. x_g(k-1) are independent modulo U:
    every construction proves it from its draws (`plus_one` and
    `concise_plus_m`; `escape` and the line steps by the lemma in
    `_line_steps`).
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


def _line_move(d, report, ai, i, fiber, on_span, rng, prov):
    """`_proved_move` of point ai of d to the e + 1 points of
    `_line_candidates` on the line through its factor-i vector a_i and a
    direction w drawn off the span that `on_span` tests
    (`_draw_vector_off_span`), e the degree of factor i; returns the
    candidate and w.  Every caller's span holds a_i, so w is off a_i's
    ray, as `_line_candidates` needs, and the caller proves condition 2
    from its span: K = L^-1(U) in `plus_one`, Y's factor subspace H in
    `escape` and the factor span F in `_line_steps`."""
    space = d.space
    w = _draw_vector_off_span(space.field, rng, space.factor_dims[i] + 1,
                              on_span)
    vecs, gamma = _line_candidates(space.field, rng, d.points[ai].coords[i],
                                   w, space.multidegree[i])
    return _proved_move(d, report, ai, i, fiber, vecs, gamma, prov), w


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


def _move_provenance(name, cfg, assert_minimal, certified, ai, i):
    return {"construction": name, "seed": cfg.rng_seed,
            "assert_minimal": bool(assert_minimal),
            "certified_minimal": bool(certified), "replaced_point": ai,
            "factor": i, "retries_used": 0}


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
    with no solve.  The input is checked by `verify_irredundant`, which
    reuses a report the input already carries (an oracle witness has one)
    instead of solving again.  No point is embedded: the scan's unit
    directions and the draw's test go through `geometry.fiber_map`, built
    once per (point, factor) scanned.

    The draw proves `_proved_move`'s condition 2.  Let L be the fiber map
    of a and i, a linear injection of the factor F_i, which has degree
    one, and K = L^-1(U), a subspace of F_i that contains a_i.  The fiber
    escapes U, so K != F_i, and the line direction w is drawn off K
    (`_draw_vector_off_span`); in particular w is off a_i's ray, as
    `_line_candidates` needs.  The first new point is a_i + t w with
    t != 0, or w, up to a nonzero scale, and
    L(a_i + t w) = L(a_i) + t L(w) lies outside U, as L(a_i) lies in it
    and L(w) does not; so the first new column lies outside U.  On a P^1
    factor K = <a_i>, as F_i has dimension 2, so the draw accepts exactly
    the vectors off a_i's ray.
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
    found = _escaping_fiber(space, d.points, u_span)
    if found is None:
        raise NoEscapingFiber(
            "every fiber span lies inside the input span; the input cannot "
            "be a minimal decomposition of a desk-scale target")
    ai, i, fiber = found
    prov = _move_provenance("plus_one", cfg, assert_minimal, certify_minimal,
                            ai, i)
    # off K = L^-1(U) (above); the factor has degree one, so a vector is
    # its own image
    return _line_move(d, report, ai, i, fiber,
                      lambda v: u_span.contains(fiber(v)), rng, prov)[0]


def escape(d: Decomposition, ysub: SubspaceSpec,
           cfg: ConstructionConfig | None = None, *,
           assert_minimal: bool = False,
           certify_minimal: bool = False) -> Decomposition:
    """From a minimal decomposition inside a proper sub-space Y, build an
    irredundant decomposition of cardinality #A + 1 not contained in Y.

    Works in the first factor where Y is deficient (that factor must have
    degree one): the first point is replaced by two points off Y's factor
    subspace on a line through it, so their span recovers the dropped
    point, with coefficients read off the line (`_line_candidates`), so
    the candidate is not solved.  Output is proved irredundant and leaves
    Y by construction.

    The input checks place the target in the span of Y's image with no
    solve: q = sum_j c_j x_j, as the input is irredundant, and each
    x_j = v(p_j) is the image of a point p_j of Y.

    The candidate leaves Y.  Let H be Y's subspace in the deficient
    factor i*, a proper one.  The replaced point a lies in Y, so a_i* is
    in H, and w is drawn off H (`_draw_vector_off_span`), so off a_i*'s
    ray.  The new points carry a_i* + t w (t != 0) or w in factor i*; if
    a_i* + t w were in H, so would be w.  So no new point lies in Y, and
    the candidate needs no test for it.

    The candidate meets `_proved_move`'s condition 2 by the lemma in
    `_line_steps`, with F := H: every input point lies in Y, so it holds
    its factor-i* vector in H, and w is drawn off H.
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
    istar = next(i for i in range(space.k)
                 if ysub.dims[i] < space.factor_dims[i])
    if space.multidegree[istar] != 1:
        raise UnsupportedDegree("the deficient factor must have degree one")
    prov = _move_provenance("escape", cfg, assert_minimal, certify_minimal,
                            0, istar)
    on_h = Echelon(space.field, ysub.factor_bases[istar]).contains
    return _line_move(d, report, 0, istar,
                      fiber_map(space, d.points[0], istar), on_h,
                      random.Random(cfg.rng_seed), prov)[0]


def concise_plus_m(d: Decomposition, m: int,
                   cfg: ConstructionConfig | None = None, *,
                   assert_minimal: bool = False,
                   certify_minimal: bool = False) -> Decomposition:
    """From a decomposition on Y' x {o} inside W = Y' x P^m (m >= 2),
    build an irredundant decomposition of cardinality #A + m whose set
    envelope is all of W.

    The first point a is replaced by m+1 points that copy its Y' part and
    carry last-factor points that complete o: c_1..c_m are drawn one by
    one, each off <o, c_1 .. c_(t-1)> (`_draw_vector_off_span`), so o,
    c_1..c_m are a basis of the last factor, and c_0 = o - sum_{t>=1} c_t.
    The input's set envelope must already be full on the retained factors
    (tensor concision of the target for Y implies this).

    The completion proves `_proved_move`'s condition 1, the factor having
    degree one, with no solve.  c_0..c_m span o, so they are a basis as
    well, and o = sum_t c_t = sum_t lead(c_t) g_t for g_t = c_t / lead(c_t)
    the canonical new vectors, so gamma_t = lead(c_t), which is nonzero.
    Every coefficient of o in that basis is 1, so o lies off the span of
    every m of the c_t.

    So the candidate's envelope is full, with no test: the new points
    copy a's retained factors and the other input points stay, so its
    retained envelope is the input's, and c_0..c_m are a basis of the
    last factor.

    The candidate meets `_proved_move`'s condition 2, with no test.
    With V' the tensor space of the retained factors, U lies in
    V' x <o>, and the new columns are multiples of y_a x c_t for y_a != 0
    the image of a's retained factors.  If sum_{t<m} l_t y_a x c_t lay in
    V' x <o>, sum_{t<m} l_t c_t would be a multiple of o, so zero, as o is
    off the span of c_0..c_(m-1), and every l_t zero: y_a x c_0 ..
    y_a x c_(m-1) are independent modulo V' x <o>, so modulo U.
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
    a = d.points[0]
    # in_span, not an `Echelon` carried along: perfbench/tests/test_tracer.py
    # checks that this module imports in_span (ROADMAP item 1)
    cs = []
    for _ in range(m):
        cs.append(_draw_vector_off_span(
            field, rng, m + 1, lambda v: in_span(field, [o] + cs, v)))
    cs.insert(0, tuple([field.coerce(x - sum(c[j] for c in cs))
                        for j, x in enumerate(o)]))
    gamma = [next(x for x in c if x) for c in cs]
    prov = _move_provenance("concise_plus_m", cfg, assert_minimal,
                            certify_minimal, 0, last)
    return _proved_move(d, report, 0, last, fiber_map(space, a, last),
                        [canonical_vector(field, c) for c in cs], gamma, prov)


def _line_steps(d, report, f_span, factor, steps, cfg, prov):
    """Run `steps` line steps in one factor f of degree e: each is a
    `_line_move` of the first point a, with w drawn off the factor span F
    of the points' factor-f vectors, and step s draws from its own stream,
    seeded with rng_seed + 7919 s.  report is d's, f_span an `Echelon` of
    F, and prov starts the output's provenance.  Each step is proved from the report the step
    before proved and hands the next its output and f_span with w
    inserted; no step solves, and none eliminates at tensor length.

    The factor envelope grows by exactly one.  w is off F and a_f is in F,
    so any two distinct points of the line span <a_f, w>; the e+1 >= 2 new
    points take a's place, so the output's factor span is F + <w>.

    The lemma: a line move of a whose direction w is drawn off a subspace
    F of factor f that holds every input point's factor-f vector meets
    `_proved_move`'s condition 2, with no test.  U lies in the span of
    the images of the points whose factor-f vector is in F.  The new
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
    prov["steps"] = [{"replaced_point": 0, "factor": factor,
                      "retries_used": 0} for _ in range(steps)]
    # d's points were checked when d was built and its report just now
    cur = Decomposition._proved(d.space, d.points, d.target, prov, d.images,
                                report)
    for s in range(steps):
        cur, w = _line_move(cur, report, 0, factor,
                            fiber_map(d.space, cur.points[0], factor),
                            f_span.contains,
                            random.Random(cfg.rng_seed + 7919 * s), prov)
        report = verify_irredundant(cur)   # the proved one: no solve
        f_span.insert(w)
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
