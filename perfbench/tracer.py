"""In-memory call tracer for xrank's public functions.

`Tracer.install` rebinds each function in `TRACED` in every loaded
``xrank`` module namespace that holds it.  That includes the defining
module, because ``construct``, ``oracle`` and ``decomp`` import the
kernels by name and call them through their own globals.
`Tracer.uninstall` puts the original objects back.

Every call of a traced function records a span: name, start, end, parent
span, op id and the time covered by its direct children.  Self time is
the duration minus that covered time.  Calls of hot kernels are folded
into one aggregate per (parent span, name): a call count, a summed
duration and a summed child time.  This keeps memory bounded on runs with
millions of kernel calls.  Spans stay in memory until the run ends and
`dump_records` writes them.
"""

import functools
import gzip
import json
import sys
import time

# (layer, function, aggregated per parent span)
TRACED = (
    ("exactlin", "rank_rows", True),
    ("exactlin", "in_span", True),
    ("exactlin", "solve_columns", True),
    ("exactlin", "rref", True),
    ("geometry", "embed", True),
    ("geometry", "enumerate_points", False),
    ("decomp", "verify_irredundant", True),
    ("decomp", "set_envelope", True),
    ("oracle", "ground_set", False),
    ("oracle", "spanning_sets", False),
    ("oracle", "brute_rank", False),
    ("oracle", "gap_profile", False),
    ("construct", "plus_one", False),
    ("construct", "escape", False),
    ("construct", "concise_plus_m", False),
    ("construct", "veronese_extend", False),
    ("construct", "sv_extend", False),
    ("cli", "main", False),
)
LAYERS = ("exactlin", "geometry", "decomp", "oracle", "construct", "cli")
T_BUCKETS = ("t1", "t2", "t3", "t4p")


def t_bucket(t):
    """Engine bucket of a spanning_sets call; t selects the engine."""
    return "t%d" % t if t <= 3 else "t4p"


def retries_of(provenance):
    """Every `retries_used` record in a construction's provenance: one at
    the top for single-step constructions, one per line step otherwise."""
    found = []
    if "retries_used" in provenance:
        found.append(provenance["retries_used"])
    for step in provenance.get("steps", ()):
        if isinstance(step, dict) and "retries_used" in step:
            found.append(step["retries_used"])
    return found


def _annotate(name, args, kwargs, result):
    if name == "oracle.spanning_sets":
        t = args[1] if len(args) > 1 else kwargs["t"]
        return {"t": t, "witnesses": 0 if result is None else result.count}
    if name.startswith("construct.") and result is not None:
        return {"retries": retries_of(result.provenance or {})}
    return None


def _xrank_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "xrank" or n.startswith("xrank."))]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (name, start, end, parent index, op id, child seconds, info)
        self.spans = []
        # (parent index, name) -> [calls, total seconds, child seconds]
        self.aggregates = {}
        self.op = None
        self._frames = []   # child-seconds accumulator of each active call
        self._span = None   # index of the innermost active span
        self._patches = []

    # -------------------------------------------------------- installation

    def install(self):
        """Rebind every function in TRACED whose module is loaded."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _xrank_modules()
        for layer, fname, hot in TRACED:
            home = sys.modules.get("xrank." + layer)
            if home is None:
                continue
            original = getattr(home, fname)
            wrapper = self.wrap(layer + "." + fname, original, hot)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def wrap(self, name, fn, hot=False):
        """`fn` with a span (or an aggregate when `hot`) around each call."""
        tracer = self
        clock = self.clock
        frames = self._frames

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._span
            if not hot:
                tracer._span = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0]
            frames.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                if hot:
                    agg = tracer.aggregates.get((parent, name))
                    if agg is None:
                        tracer.aggregates[(parent, name)] = [1, duration,
                                                             frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += duration
                        agg[2] += frame[0]
                else:
                    index = tracer._span
                    tracer._span = parent
                    info = _annotate(name, args, kwargs, result)
                    if error is not None:
                        info = dict(info or {}, error=error)
                    tracer.spans[index] = (name, start, end, parent,
                                           tracer.op, frame[0], info)

        return traced

    # ------------------------------------------------------------- results

    def stats(self):
        """Mergeable totals (see `merge_stats`) of everything recorded."""
        funcs = {}
        buckets = {b: [0, 0.0, 0] for b in T_BUCKETS}
        filter_calls, filter_s = 0, 0.0
        retries = []

        def add(name, calls, self_s):
            entry = funcs.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s

        for name, start, end, parent, _op, child, info in self.spans:
            self_s = end - start - child
            add(name, 1, self_s)
            if name == "oracle.spanning_sets":
                entry = buckets[t_bucket(info["t"])]
                entry[0] += 1
                entry[1] += self_s
                entry[2] += info["witnesses"]
            elif (name.startswith("construct.") and "retries" in (info or {})
                  and not (parent is not None and
                           self.spans[parent][0].startswith("construct."))):
                retries.extend(info["retries"])
        for (parent, name), (calls, total, child) in self.aggregates.items():
            add(name, calls, total - child)
            if (name == "exactlin.solve_columns" and parent is not None
                    and self.spans[parent][0] == "oracle.spanning_sets"):
                filter_calls += calls
                filter_s += total
        return {"functions": funcs, "spanning_sets": buckets,
                "filter": [filter_calls, filter_s],
                "attempts": [len(retries), sum(r + 1 for r in retries)]}

    def records(self):
        """The spans and aggregates as JSON-ready dicts."""
        for name, start, end, parent, op, child, info in self.spans:
            yield {"span": name, "start": start, "end": end,
                   "parent": parent, "op": op, "child_s": child,
                   "info": info}
        for (parent, name), (calls, total, child) in self.aggregates.items():
            yield {"aggregate": name, "parent": parent, "calls": calls,
                   "total_s": total, "child_s": child}


def dump_records(path, records):
    """Write trace records as gzipped JSON lines."""
    with gzip.open(path, "wt") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def empty_stats():
    return Tracer().stats()


def merge_stats(a, b):
    """Sum of two `Tracer.stats` results."""
    funcs = {k: list(v) for k, v in a["functions"].items()}
    for name, (calls, self_s) in b["functions"].items():
        entry = funcs.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    return {"functions": funcs,
            "spanning_sets": {k: [x + y for x, y in
                                  zip(a["spanning_sets"][k],
                                      b["spanning_sets"][k])]
                              for k in T_BUCKETS},
            "filter": [x + y for x, y in zip(a["filter"], b["filter"])],
            "attempts": [x + y for x, y in zip(a["attempts"], b["attempts"])]}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order, minus
    the ones the benchmark runner measures itself (cli spawn times and
    the tracing overhead)."""
    units = {}
    for layer in LAYERS:
        for lyr, fname, _hot in TRACED:
            if lyr != layer or (lyr, fname) == ("oracle", "spanning_sets"):
                continue
            units["%s.%s.calls" % (lyr, fname)] = "count"
            units["%s.%s.self_s" % (lyr, fname)] = "s"
        if layer == "oracle":
            for b in T_BUCKETS:
                units["oracle.spanning_sets.%s.calls" % b] = "count"
                units["oracle.spanning_sets.%s.self_s" % b] = "s"
                units["oracle.spanning_sets.%s.witnesses" % b] = "count"
            units["oracle.filter_calls"] = "count"
            units["oracle.filter_s"] = "s"
            units["oracle.accept_ratio"] = "ratio"
        if layer == "construct":
            units["construct.attempts_per_output"] = "attempts"
        if layer != "cli":
            units[layer + ".self_s"] = "s"
        units[layer + ".share"] = "ratio"
    return units


def layer_metrics(stats, wall_s):
    """Per-layer metric values from merged stats and the traced wall time
    they were recorded in.  A layer's share is its self time over that
    wall time."""
    funcs = stats["functions"]
    out = {}
    for layer, fname, _hot in TRACED:
        if fname != "spanning_sets":
            name = layer + "." + fname
            out[name + ".calls"], out[name + ".self_s"] = funcs.get(name,
                                                                    (0, 0.0))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, self_s) in funcs.items():
        layer_self[name.split(".")[0]] += self_s
    for b, (calls, self_s, wits) in stats["spanning_sets"].items():
        out["oracle.spanning_sets.%s.calls" % b] = calls
        out["oracle.spanning_sets.%s.self_s" % b] = self_s
        out["oracle.spanning_sets.%s.witnesses" % b] = wits
    filter_calls, filter_s = stats["filter"]
    witnesses = sum(v[2] for v in stats["spanning_sets"].values())
    out["oracle.filter_calls"] = filter_calls
    out["oracle.filter_s"] = filter_s
    out["oracle.accept_ratio"] = (witnesses / filter_calls
                                  if filter_calls else 0.0)
    outputs, attempts = stats["attempts"]
    out["construct.attempts_per_output"] = (attempts / outputs
                                            if outputs else 0.0)
    for layer in LAYERS:
        if layer != "cli":
            out[layer + ".self_s"] = layer_self[layer]
        out[layer + ".share"] = layer_self[layer] / wall_s if wall_s else 0.0
    return {name: out[name] for name in per_layer_units()}
