"""The benchmark's workloads: inputs, operations and output checks.

A workload builds its inputs from the seed when it is constructed and
warms the oracle's ground-set caches in `warm_up`; both are set-up.
`round_ops(r)` hands out round r as a list of `Op`s.  Every round has the
same composition of input classes.  Over GF(p) each class is one orbit of
the group acting on the inputs, so ranks and witness counts are fixed by
the class; the seed picks the members.  The seed does change some work:
what the DFS engines prune in their search order, the retries of the
randomized constructions, and, over QQ in `rational`, the size of the
entries.

Ops call xrank through module attributes (`oracle.brute_rank`, never a
name imported into this file), so the tracer's rebinding sees every call.
Checks run outside the timed region and raise `WrongAnswer`.
"""

import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

from xrank import construct, decomp, exactlin, geometry, oracle
from xrank.errors import XrankError

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

QQ = exactlin.FieldSpec.parse("QQ")
GF = {p: exactlin.FieldSpec(p) for p in (5, 11)}

Op = namedtuple("Op", "kind run check")


class WrongAnswer(Exception):
    pass


class OpFailed(Exception):
    """An op that did not complete, such as a CLI run with exit code != 0."""


FAILURES = (XrankError, OpFailed)


def expect(ok, what):
    if not ok:
        raise WrongAnswer(what)


# ----------------------------------------------------------- input classes

def square_class(x, p):
    """1 for a nonzero square mod p, -1 for a non-square, 0 for zero."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def hyperdet(a):
    """Cayley's hyperdeterminant of a 2x2x2 tensor in embedding order
    (index 4i + 2j + k).  Over GF(p), p odd, a target with a non-square
    hyperdeterminant has rank 3 and one with a nonzero square has rank 2."""
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    return (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
            + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2
            - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                   + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
                   + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
            + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))


def wedge_zero(u, v, p):
    """Whether the rows u and v of a matrix over GF(p) have rank <= 1."""
    return all((u[i] * v[j] - u[j] * v[i]) % p == 0
               for i in range(len(u)) for j in range(i + 1, len(u)))


def target_class(coords, p):
    """Orbit of a nonzero GF(p) target, p odd, under GL2 x GL2 on P1xP1
    or GL2 x GL2 x GL2 on P1xP1xP1.

    P1xP1: 'rank1' (zero determinant) or 'rank2'.  P1xP1xP1: 'square' or
    'nonsquare' for a nonzero hyperdeterminant, and for a zero one
    'rank1', 'bideg' (one flattening of rank 1) or 'W' (the tangent
    orbit: every flattening of rank 2)."""
    if len(coords) == 4:
        a, b, c, d = coords
        return "rank1" if (a * d - b * c) % p == 0 else "rank2"
    h = square_class(hyperdet(coords), p)
    if h:
        return "square" if h == 1 else "nonsquare"
    # the three flattenings, as pairs of rows, in embedding order 4i + 2j + k
    flats = [[[coords[4 * i + 2 * j + k] for j in (0, 1) for k in (0, 1)]
              for i in (0, 1)],
             [[coords[4 * i + 2 * j + k] for i in (0, 1) for k in (0, 1)]
              for j in (0, 1)],
             [[coords[4 * i + 2 * j + k] for i in (0, 1) for j in (0, 1)]
              for k in (0, 1)]]
    low = sum(wedge_zero(u, v, p) for u, v in flats)
    return {3: "rank1", 1: "bideg", 0: "W"}[low]


def random_target(space, rng, orbit):
    """A uniformly random target of the given orbit (see target_class)."""
    p = space.field.modulus
    n = geometry.ambient_dim(space) + 1
    while True:
        coords = tuple(rng.randrange(p) for _ in range(n))
        if any(coords) and target_class(coords, p) == orbit:
            return geometry.Tensor.of(space, coords)


def combine(space, points, coeffs):
    """The tensor sum_i coeffs[i] * embed(points[i])."""
    field = space.field
    acc = None
    for c, pt in zip(coeffs, points):
        term = exactlin.vec_scale(field, field.coerce(c),
                                  geometry.embed(space, pt).coords)
        acc = term if acc is None else exactlin.vec_add(field, acc, term)
    return geometry.Tensor.of(space, acc)


def random_decomposition(space, rng, draw_point, count):
    """An irredundant decomposition: `count` distinct points from
    `draw_point(rng)` with independent embeddings, nonzero coefficients."""
    field = space.field
    while True:
        pts = [draw_point(rng) for _ in range(count)]
        if len({p.coords for p in pts}) != count:
            continue
        cols = [geometry.embed(space, p).coords for p in pts]
        if exactlin.rank_rows(field, cols) != count:
            continue
        coeffs = [rng.choice((1, 2, 3, -1, -2, -3)) if field.modulus is None
                  else rng.randrange(1, field.modulus) for _ in pts]
        return decomp.Decomposition(space, pts, combine(space, pts, coeffs))


def nonzero_vector(rng, length, box=5):
    while True:
        v = tuple(rng.randint(-box, box) for _ in range(length))
        if any(v):
            return v


def line_point(index, p):
    """Point number `index` of P1(GF(p)), 0 <= index <= p."""
    return (1, index) if index < p else (0, 1)


def warm_ground_sets(spaces):
    """Fill the oracle's ground-set and span caches of each space by asking
    for the rank of the embedded point (e0, ..., e0)."""
    for space in spaces:
        point = geometry.MppPoint.of(space, [(1,) + (0,) * n
                                             for n in space.factor_dims])
        oracle.brute_rank(geometry.embed(space, point))


# --------------------------------------------------------------- checks

def check_construction(inp, out, size, envelope_ok, what):
    """Re-verify a construction output by the all-subsets definition and
    check its predicted cardinality and envelope."""
    expect(out.target == inp.target, what + ": target changed")
    expect(len(out.points) == size,
           "%s: %d points, predicted %d" % (what, len(out.points), size))
    expect(decomp.verify_irredundant_exhaustive(out).irredundant,
           what + ": output is not irredundant")
    env = decomp.set_envelope(out.space, out.points)
    expect(envelope_ok(env), "%s: envelope %s" % (what, env.dims))


def contains_points(points):
    """Envelope predicate: the output envelope holds every given point."""
    return lambda env: all(env.subspace.contains_point(p) for p in points)


def check_witnesses(witnesses, t, what):
    for w in witnesses:
        expect(len(w.points) == t
               and decomp.verify_irredundant_exhaustive(w).irredundant,
               what + ": a witness does not verify")


def profile_rows(profile):
    return [(t, c) for t, c, _w in profile.entries]


# ------------------------------------------------------------------ growth

class Growth:
    """The criterion-2 shape: brute_rank of a GF(11) target on P1xP1 or
    P1xP1xP1, then plus_one on every minimal witness."""

    name = "growth"
    trace_rounds = 1
    # Rounds of distinct inputs; round r uses inputs r % pool_rounds.  One
    # round of growth is about 20 s, so a run holds one or two, and a
    # second round that repeats the first gives outputs that need no
    # second check.
    pool_rounds = 1
    # The criterion-2 growth bank (test_criterion_2 in
    # tests/test_acceptance.py) draws 80 P1xP1 and 22 P1xP1xP1 targets
    # uniformly over GF(11) with seed 1102.  By orbit they are: P1xP1 72
    # rank2, 8 rank1; P1xP1xP1 14 nonsquare, 7 square, 1 W.  A round is
    # the bank divided by 7 and rounded, except that the one W target is
    # rounded up to one op so that the zero-hyperdeterminant class is
    # measured.  Entries are (dims, orbit, rank, minimal decompositions).
    # The light ops are spread over the four gaps around the three heavy
    # ones, so that their latencies sample more of the run.
    P1P1_RANK2 = ((1, 1), "rank2", 2, 66)
    NONSQUARE = ((1, 1, 1), "nonsquare", 3, 2640)
    ROUND = ((P1P1_RANK2,) * 3 + (NONSQUARE,) + (P1P1_RANK2,) * 2
             + (((1, 1, 1), "square", 2, 1), ((1, 1, 1), "W", 3, 3751))
             + (P1P1_RANK2,) * 3 + (((1, 1), "rank1", 1, 1), NONSQUARE)
             + (P1P1_RANK2,) * 2)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.spaces = {dims: geometry.MultiProjectiveSpace.segre(dims, GF[11])
                       for dims in ((1, 1), (1, 1, 1))}
        self.pool = [[(random_target(self.spaces[dims], rng, orbit),
                       rng.randrange(10 ** 9), rank, count)
                      for dims, orbit, rank, count in self.ROUND]
                     for _ in range(self.pool_rounds)]

    def warm_up(self):
        warm_ground_sets(self.spaces.values())

    def round_ops(self, r):
        return [Op("%s_rank%d" % ("x".join("P%d" % n for n in
                                            q.space.factor_dims), rank),
                   lambda q=q, s=s: self.grow(q, s),
                   lambda out, rank=rank, count=count:
                   self.check(out, rank, count))
                for q, s, rank, count in self.pool[r % self.pool_rounds]]

    @staticmethod
    def grow(q, seed):
        cert = oracle.brute_rank(q, budget=10 ** 9)
        return cert, tuple(construct.plus_one(
            w, construct.ConstructionConfig(rng_seed=seed + i),
            assert_minimal=True) for i, w in enumerate(cert.witnesses))

    @staticmethod
    def check(out, rank, count):
        cert, grown = out
        expect(cert.rank == rank and len(cert.witnesses) == count,
               "growth: rank %d with %d witnesses, expected %d with %d"
               % (cert.rank, len(cert.witnesses), rank, count))
        check_witnesses(cert.witnesses, rank, "growth")
        for w, g in zip(cert.witnesses, grown):
            check_construction(w, g, rank + 1, contains_points(w.points),
                               "growth plus_one")


# ---------------------------------------------------------------- quartics

# Two-term quartics l1 L1^4 + l2 L2^4 on the Veronese of P1 form one orbit
# per class of l2/l1 modulo fourth powers; every one drawn here has l2/l1 a
# fourth power, as the criterion-4 quartic x^4 + y^4 has, so its gap
# profile is fixed by the field.
QUARTIC_GF11_ROWS = [(2, 1), (3, 0), (4, 20), (5, 512)]


def two_term_quartic(V, rng):
    """A random l1 L1^4 + l2 L2^4 on V = the quartic Veronese of P1 over
    GF(p): distinct points L1, L2 and l2/l1 a nonzero fourth power."""
    p = V.field.modulus
    pts = [geometry.MppPoint.of(V, [line_point(x, p)])
           for x in rng.sample(range(p + 1), 2)]
    l1 = rng.randrange(1, p)
    return combine(V, pts, [l1, l1 * pow(rng.randrange(1, p), 4, p)])


# ---------------------------------------------------------------- rational

def segre_qq(dims):
    return geometry.MultiProjectiveSpace.segre(dims, QQ)


class Rational:
    """Constructions over QQ: Bareiss rank and Fraction rref, no oracle
    and no numpy."""

    name = "rational"
    trace_rounds = 8
    pool_rounds = 4
    PLUS_ONE = (((1, 1), 2), ((2, 2), 3), ((1, 1, 1), 2), ((2, 2, 2), 3),
                ((3, 3), 3))
    # (n, d, m, t): t points spanning the coordinate P^m of the degree-d
    # Veronese of P^n, extended to span P^n
    VERONESE = ((2, 2, 1, 2), (3, 3, 1, 2), (4, 2, 2, 3), (2, 4, 1, 2),
                (4, 4, 3, 4))

    def __init__(self, seed):
        rng = random.Random(seed)
        self.pool = [self._round_inputs(rng)
                     for _ in range(self.pool_rounds)]

    def _round_inputs(self, rng):
        ops = []
        for dims, r in self.PLUS_ONE:
            sp = segre_qq(dims)
            d = random_decomposition(
                sp, rng, lambda g, sp=sp: geometry.random_point(sp, g, 5), r)
            ops.append(("plus_one", d, rng.randrange(10 ** 9)))
        for n, deg, m, t in self.VERONESE:
            V = geometry.MultiProjectiveSpace.veronese(n, deg, QQ)
            while True:
                d = random_decomposition(
                    V, rng, lambda g: geometry.MppPoint.of(
                        V, [nonzero_vector(g, m + 1) + (0,) * (n - m)]), t)
                rows = [p.coords[0] for p in d.points]
                if exactlin.rank_rows(QQ, rows) == m + 1:
                    break
            ops.append(("veronese_extend", d, rng.randrange(10 ** 9)))
        # concise_plus_m: points (y_i, o) on P2 x P2 with the y_i spanning
        sp = segre_qq((2, 2))
        o = nonzero_vector(rng, 3)
        d = random_decomposition(sp, rng, lambda g: geometry.MppPoint.of(
            sp, [nonzero_vector(g, 3), o]), 3)
        ops.append(("concise_plus_m", d, rng.randrange(10 ** 9)))
        # escape: points inside Y = <e0, e1> x P2
        d = random_decomposition(sp, rng, lambda g: geometry.MppPoint.of(
            sp, [nonzero_vector(g, 2) + (0,), nonzero_vector(g, 3)]), 2)
        ops.append(("escape", d, rng.randrange(10 ** 9)))
        # sv_extend: points (y_i, o) on P1 x P2 with degrees (1, 2).  o is
        # a coordinate point: for any other o, SubspaceSpec.span_columns
        # (multinomial-weighted) disagrees with embed (plain monomials) on
        # the degree-2 factor, and sv_extend raises NotContainedInY.
        sv = geometry.MultiProjectiveSpace((1, 2), (1, 2), QQ)
        o = [0, 0, 0]
        o[rng.randrange(3)] = 1
        d = random_decomposition(sv, rng, lambda g: geometry.MppPoint.of(
            sv, [nonzero_vector(g, 2), o]), 2)
        ops.append(("sv_extend", d, rng.randrange(10 ** 9)))
        return ops

    def warm_up(self):
        pass

    def round_ops(self, r):
        ops = []
        for kind, d, seed in self.pool[r % self.pool_rounds]:
            run, check = getattr(self, kind)(d, seed)
            shape = "x".join("%d^%d" % nd if nd[1] > 1 else str(nd[0])
                             for nd in zip(d.space.factor_dims,
                                           d.space.multidegree))
            ops.append(Op("%s_%s" % (kind, shape), run, check))
        return ops

    # Each method below returns (run, check) for one input.  `run` builds
    # a fresh Decomposition so no verification report is cached across
    # rounds.

    @staticmethod
    def _fresh(d):
        return decomp.Decomposition(d.space, d.points, d.target)

    def plus_one(self, d, seed):
        cfg = construct.ConstructionConfig(rng_seed=seed)
        return (lambda: construct.plus_one(self._fresh(d), cfg),
                lambda out: check_construction(
                    d, out, len(d.points) + 1, contains_points(d.points),
                    "plus_one"))

    def veronese_extend(self, d, seed):
        n, deg = d.space.factor_dims[0], d.space.multidegree[0]
        m = decomp.set_envelope(d.space, d.points).dims[0]
        cfg = construct.ConstructionConfig(rng_seed=seed)
        return (lambda: construct.veronese_extend(self._fresh(d), n, cfg),
                lambda out: check_construction(
                    d, out, len(d.points) + deg * (n - m),
                    lambda env: env.dims == (n,), "veronese_extend"))

    def concise_plus_m(self, d, seed):
        cfg = construct.ConstructionConfig(rng_seed=seed)
        return (lambda: construct.concise_plus_m(self._fresh(d), 2, cfg),
                lambda out: check_construction(
                    d, out, len(d.points) + 2, lambda env: env.is_full,
                    "concise_plus_m"))

    def escape(self, d, seed):
        ysub = geometry.SubspaceSpec.of(
            d.space, [((1, 0, 0), (0, 1, 0)),
                      ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        cfg = construct.ConstructionConfig(rng_seed=seed)
        return (lambda: construct.escape(self._fresh(d), ysub, cfg),
                lambda out: check_construction(
                    d, out, len(d.points) + 1,
                    lambda env: not all(ysub.contains_point(p)
                                        for p in out.points),
                    "escape"))

    def sv_extend(self, d, seed):
        cfg = construct.ConstructionConfig(rng_seed=seed)
        return (lambda: construct.sv_extend(self._fresh(d), cfg),
                lambda out: check_construction(
                    d, out, len(d.points) + 2 * 2,
                    lambda env: env.dims[1] == 2, "sv_extend"))


# ---------------------------------------------------------------- cli_cold

class CliCold:
    """Cold `python -m xrank.cli` runs, one child process at a time, on
    documents written in set-up: `rank`, `gaps` and a two-step `chain`."""

    name = "cli_cold"
    trace_rounds = 4
    pool_rounds = 1
    RANK_WITNESSES = 120   # rank-3 targets on P1xP1xP1 over GF(5)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.traced = False
        self.peak_rss_mb = 0.0
        self.stats = tracing.empty_stats()
        self.records = []
        self.env = child_env()
        p3 = geometry.MultiProjectiveSpace.segre((1, 1, 1), GF[5])
        self.rank_q = random_target(p3, rng, "nonsquare")
        self.gaps_q = two_term_quartic(
            geometry.MultiProjectiveSpace.veronese(1, 4, GF[11]), rng)
        s3 = geometry.MultiProjectiveSpace.segre((1, 1, 1), GF[11])
        self.chain_d = random_decomposition(
            s3, rng, lambda g: geometry.random_point(s3, g), 2)
        self.docs = {
            "rank": self.write("rank.json", tensor_doc(self.rank_q)),
            "gaps": self.write("gaps.json", tensor_doc(self.gaps_q)),
            "chain": self.write("chain.json", {
                "decomposition": self.chain_d.to_json(),
                "steps": [{"op": "plus-one"}, {"op": "plus-one"}]}),
        }
        self.expected = None

    def write(self, name, doc):
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def warm_up(self):
        pass

    def round_ops(self, r):
        return [Op(cmd, lambda cmd=cmd, i=i: self.run_cli(
                       cmd, "%d.%d" % (r, i)),
                   lambda out, cmd=cmd: self.check(cmd, out))
                for i, cmd in enumerate(("rank", "gaps", "chain"))]

    def run_cli(self, cmd, op_id):
        args = [cmd, "--in", self.docs[cmd]]
        if self.traced:
            trace_file = self.workdir / "trace.json"
            argv = [sys.executable, str(BENCH / "cli_child.py"),
                    str(trace_file), op_id] + args
        else:
            argv = [sys.executable, "-m", "xrank.cli"] + args
        code, out, rss_kb = run_child(argv, self.env, self.workdir)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_kb / 1024.0)
        if self.traced:
            data = json.loads(trace_file.read_text())
            trace_file.unlink()
            self.stats = tracing.merge_stats(self.stats, data["stats"])
            self.records.extend(data["records"])
        if code != 0:
            raise OpFailed("xrank %s exited with %d" % (cmd, code))
        return out

    def check(self, cmd, out):
        payload = json.loads(out)
        if self.expected is None:
            self.expected = {
                "rank": oracle.brute_rank(self.rank_q),
                "gaps": oracle.gap_profile(self.gaps_q)}
        if cmd == "rank":
            cert = self.expected["rank"]
            expect(payload["rank"] == cert.rank == 3
                   and len(payload["minimal_decompositions"])
                   == len(cert.witnesses) == self.RANK_WITNESSES,
                   "cli rank: %r differs from brute_rank" % payload["rank"])
        elif cmd == "gaps":
            rows = [(e["t"], e["witness_count"]) for e in payload["entries"]]
            expect(rows == profile_rows(self.expected["gaps"])
                   == QUARTIC_GF11_ROWS,
                   "cli gaps: %s differs from gap_profile" % rows)
        else:
            out = decomp.Decomposition.from_json(payload)
            check_construction(self.chain_d, out, 4,
                               contains_points(self.chain_d.points),
                               "cli chain")


def child_env():
    """The environment for child interpreters: xrank from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def tensor_doc(q):
    return {"space": q.space.to_json(), "coords": q.to_json()}


def run_child(argv, env, cwd):
    """Run one child process to completion in `cwd`, appending its standard
    error to cwd/stderr.txt.  Returns its exit code, its standard output
    and its peak resident set size in KiB."""
    with open(Path(cwd) / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (Growth, Rational, CliCold)}
