#!/usr/bin/env python3
"""The xrank benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client and no threads: each op starts when the previous op has ended,
and `cli_cold` starts one child process at a time.  A run measures whole
rounds (see workloads.py) until the timed ops add up to --seconds, checks
every output right after its op, outside the timed region, and prints a
table and then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A traced run does a fixed number of rounds, each op twice, untraced and
traced, so its call counts repeat exactly for a seed and the difference
in wall time is the tracing overhead.  Every run also writes a record
with its raw samples to --record-dir; compare.py reads those records.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("growth", "rational", "cli_cold")
SETUP_PROBES = 5   # fresh processes timed for setup_s; the median counts
SPAWN_PROBES = 5   # spawns timed for cli.interp_ms and cli.import_ms
P90_MIN_OPS = 100  # op_p90_ms needs >= 10 samples beyond it

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
             "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="timed op seconds to reach in an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-dir", default=str(BENCH / "results"),
                    help="where run records are written")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


# ------------------------------------------------------------ processes

def timed_setup(args):
    """Seconds from spawning a fresh process to its first timed op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError("set-up probe failed with exit code %d" % code)
    return elapsed


def spawn_ms(argv, env, cwd):
    from workloads import run_child
    start = time.perf_counter()
    code, _out, _rss = run_child(argv, env, cwd)
    if code != 0:
        raise RuntimeError("%s exited with %d" % (argv, code))
    return (time.perf_counter() - start) * 1000.0


# --------------------------------------------------------------- passes

class Pass:
    """One pass of rounds: per-op samples and the timed wall time."""

    def __init__(self):
        self.samples = []   # (kind, seconds) of completed ops
        self.failed = 0
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.samples) + self.failed


def run_op(op, done):
    """Run one op and add its latency, or its failure, to `done`.
    Returns (True, output), or (False, None) when the op failed."""
    from workloads import FAILURES
    start = time.perf_counter()
    try:
        out = op.run()
    except FAILURES as exc:
        done.wall += time.perf_counter() - start
        done.failed += 1
        print("op %s failed: %s: %s" % (op.kind, type(exc).__name__, exc),
              file=sys.stderr)
        return False, None
    elapsed = time.perf_counter() - start
    done.wall += elapsed
    done.samples.append((op.kind, elapsed))
    return True, out


def check_once(op, key, out, checked):
    """Check an output, unless one equal to it (by hash) was already
    checked for the same input: ops are deterministic, and rounds past the
    input pool repeat earlier inputs.  A wrong output raises WrongAnswer."""
    if checked.get(key) != hash(out):
        op.check(out)
        checked[key] = hash(out)


def run_pass(wl, checked, seconds, between):
    """Run whole rounds until the timed ops reach `seconds`.  Before each
    op, `between(wall)` is called with the timed wall time so far; each
    output is checked right after its op.  Both are outside the timed
    region."""
    done = Pass()
    r = 0
    while done.wall < seconds or r == 0:
        for i, op in enumerate(wl.round_ops(r)):
            between(done.wall)
            ok, out = run_op(op, done)
            if ok:
                check_once(op, (r % wl.pool_rounds, i), out, checked)
            del out   # freed here, not inside the next op's timing
        r += 1
    return done


def traced_pass(wl, checked, rounds, tracer):
    """Run `rounds` rounds with every op twice, untraced and traced, in
    turns of which goes first, so that drift in the machine's speed and
    first-call costs fall on both alike.  Returns the untraced and the
    traced passes.  Checks run untraced."""
    base, done = Pass(), Pass()
    for r in range(rounds):
        for i, op in enumerate(wl.round_ops(r)):
            tracer.op = "%d.%d" % (r, i)
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                wl.traced = traced   # cli_cold's children trace themselves
                if traced:
                    tracer.install()
                try:
                    ok, out = run_op(op, done if traced else base)
                finally:
                    if traced:
                        tracer.uninstall()
                if ok:
                    check_once(op, (r % wl.pool_rounds, i), out, checked)
                del out
    return base, done


# ---------------------------------------------------------------- runs

def make_workload(args, workdir):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCold:
        return cls(args.seed, workdir)
    return cls(args.seed)


@contextlib.contextmanager
def scratch_dir():
    """A private directory for a run's files inside the checkout."""
    path = BENCH / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def op_median_ms(samples):
    """The median op latency in ms, each op counted at the mean latency of
    its input class in the run.  Classes differ in cost by up to 1000x and
    the machine's speed switches between a fast and a slow mode, so the
    median of the raw samples can fall in a gap between two classes, or
    flip between the modes, from run to run; a class mean follows only
    the run's average speed."""
    by_kind = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    means = {k: statistics.fmean(v) * 1000.0 for k, v in by_kind.items()}
    return statistics.median(means[kind] for kind, _s in samples)


def end_to_end(args, workdir, record):
    setup = []

    def between(wall):
        # set-up probes spread over the timed run, so that they see the
        # same machine as the ops do
        if len(setup) < SETUP_PROBES and wall >= (
                len(setup) * args.seconds / SETUP_PROBES):
            setup.append(timed_setup(args))

    wl = make_workload(args, workdir)
    wl.warm_up()
    done = run_pass(wl, {}, args.seconds, between)
    while len(setup) < SETUP_PROBES:
        setup.append(timed_setup(args))
    rss = getattr(wl, "peak_rss_mb", None)
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times_ms = [s * 1000.0 for _k, s in done.samples]
    metrics = {"ops_per_s": len(done.samples) / done.wall,
               "op_p50_ms": op_median_ms(done.samples),
               "peak_rss_mb": rss,
               "setup_s": statistics.median(setup)}
    record["fail_ratio"] = done.failed / done.attempted
    record["op_samples"] = len(times_ms)
    extra = ["%-42s %14.6g (%d failed of %d ops)"
             % ("fail_ratio", record["fail_ratio"], done.failed,
                done.attempted)]
    if len(times_ms) >= P90_MIN_OPS:
        record["op_p90_ms"] = statistics.quantiles(times_ms, n=10)[-1]
        extra.append("%-42s %14.6g ms (%d samples)"
                     % ("op_p90_ms", record["op_p90_ms"], len(times_ms)))
    else:
        extra.append("op_p90_ms not reported: %d ops, fewer than %d"
                     % (len(times_ms), P90_MIN_OPS))
    record["samples"] = {"ops": [[k, s] for k, s in done.samples],
                         "setup_s": setup}
    return done, metrics, E2E_UNITS, extra


def per_layer(args, workdir, record):
    import tracer as tracing
    import workloads
    env = workloads.child_env()
    interp = [spawn_ms([sys.executable, "-c", "pass"], env, workdir)
              for _ in range(SPAWN_PROBES)]
    imports = [spawn_ms([sys.executable, "-c", "import xrank.cli"], env,
                        workdir) for _ in range(SPAWN_PROBES)]
    wl = make_workload(args, workdir)
    rounds = wl.trace_rounds
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    start = time.perf_counter()
    wl.warm_up()
    setup_wall = time.perf_counter() - start
    tracer.uninstall()
    base, done = traced_pass(wl, {}, rounds, tracer)
    stats = tracer.stats()
    child_records = []
    if isinstance(wl, workloads.CliCold):
        stats = tracing.merge_stats(stats, wl.stats)
        child_records = wl.records
    metrics = tracing.layer_metrics(stats, setup_wall + done.wall)
    metrics["cli.interp_ms"] = statistics.median(interp)
    metrics["cli.import_ms"] = statistics.median(imports) - metrics[
        "cli.interp_ms"]
    metrics["trace_overhead_ratio"] = done.wall / base.wall - 1.0
    spans_file = Path(args.record_dir) / (record["stem"] + "-spans.jsonl.gz")
    tracing.dump_records(spans_file, list(tracer.records()) + child_records)
    record["samples"] = {"untraced_ops": [[k, s] for k, s in base.samples],
                         "traced_ops": [[k, s] for k, s in done.samples],
                         "interp_ms": interp, "import_xrank_cli_ms": imports}
    record["rounds"] = rounds
    record["spans_file"] = spans_file.name
    units = dict(tracing.per_layer_units(), **{
        "cli.interp_ms": "ms", "cli.import_ms": "ms",
        "trace_overhead_ratio": "ratio"})
    return done, metrics, units, ["traced ops: %d in %d rounds"
                                  % (done.attempted, rounds)]


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"commit": commit(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def commit():
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(name, seed, metrics, units, extra_lines):
    print("workload %s, seed %d" % (name, seed))
    for key, value in metrics.items():
        print("  %-42s %14.6g %s" % (key, value, units[key]))
    for line in extra_lines:
        print("  " + line)


def run_one(args):
    import workloads
    record_dir = Path(args.record_dir)
    record_dir.mkdir(parents=True, exist_ok=True)
    record = dict(machine(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  stem="%s-seed%d-trace%d-%d" % (args.workload, args.seed,
                                                 args.trace, time.time_ns()))
    measure = per_layer if args.trace else end_to_end
    try:
        with scratch_dir() as workdir:
            done, metrics, units, extra = measure(args, workdir, record)
    except workloads.WrongAnswer as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    result = {"correct": True, "attempted": done.attempted,
              "failed": done.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record["result"] = result
    (record_dir / (record["stem"] + ".json")).write_text(
        json.dumps(record, indent=1))
    print_table(args.workload, args.seed, metrics, units, extra)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--record-dir", args.record_dir]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            code = 1
            summary["correct"] = False
            continue
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, key)] = val
    print(json.dumps(summary))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "xrank" / "__init__.py").is_file():
        print("no xrank sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        with scratch_dir() as workdir:
            make_workload(args, workdir).warm_up()
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
