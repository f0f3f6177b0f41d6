"""Command line frontend.

One subcommand per library operation, JSON in and JSON out.  Input
documents carry their field spec inside every space object, so commands
cannot silently mix fields; --field rewrites the field of every space in
the input document before parsing.  Exit codes: 0 success, 1 input or
output failure, 2 domain error (stable error code in the JSON payload).
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager

from . import construct
from .construct import ConstructionConfig
from .decomp import (Decomposition, fiber_condition, set_envelope,
                     tensor_envelope, verify_irredundant)
from .errors import InvalidInput, XrankError
from .geometry import MultiProjectiveSpace, SubspaceSpec, Tensor, as_size
from .oracle import (DEFAULT_BUDGET, brute_rank, gap_profile, min_concise_t,
                     spanning_sets)

# construction op -> (its function in `construct`, the parameter it takes
# after the decomposition, or None); subcommands and chain steps both run
# these.  The function is looked up by name on each call, so a rebinding
# of `construct.plus_one` and the like (perfbench's tracer) is seen.
_CONSTRUCTIONS = {
    "plus-one": ("plus_one", None),
    "escape": ("escape", "subspace"),
    "concise-plus-m": ("concise_plus_m", "m"),
    "veronese-extend": ("veronese_extend", "target_n"),
    "sv-extend": ("sv_extend", None),
}
_COMMANDS = ("verify", "envelope", "tensor-envelope", "fiber-check", "rank",
             "spanning-sets", "gaps", "min-concise-t", *_CONSTRUCTIONS,
             "chain")
# where a subcommand takes each construction parameter from
_SUBCOMMAND_PARAMS = {"subspace": "a 'subspace' member", "m": "--m",
                      "target_n": "--target-n"}


class _InputFailure(Exception):
    pass


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", required=True,
                        help="input JSON document ('-' reads stdin)")
    common.add_argument("--out", dest="outfile",
                        help="also write the result here (.csv for gaps "
                             "writes the table instead)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common.add_argument("--t", type=int, default=None)
    common.add_argument("--m", type=int, default=None)
    common.add_argument("--target-n", dest="target_n", type=int, default=None)
    common.add_argument("--field", default=None,
                        help="override the field of every space in the input")
    p = argparse.ArgumentParser(
        prog="xrank",
        description="exact tensor decomposition toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return p


def _load(path):
    """Parse the input document; path "-" reads standard input."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise _InputFailure("cannot read %s: %s" % (path, e))


def _override_field(node, field):
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if k == "field" and isinstance(v, str):
                out[k] = field
            else:
                out[k] = _override_field(v, field)
        return out
    if isinstance(node, list):
        return [_override_field(v, field) for v in node]
    return node


@contextmanager
def _parsing(what):
    """Report a malformed document shape as InvalidInput.  Such shapes
    surface as KeyError/TypeError/ValueError inside the parsers; anything
    raised outside a parser is left to propagate."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidInput("bad %s: %s" % (what, e)) from e


def _decomp_from(doc):
    if isinstance(doc, dict) and "decomposition" in doc:
        doc = doc["decomposition"]
    if not isinstance(doc, dict):
        raise InvalidInput("expected a decomposition document")
    with _parsing("decomposition document"):
        return Decomposition.from_json(doc)


def _tensor_from(doc):
    if isinstance(doc, dict) and "tensor" in doc:
        doc = doc["tensor"]
    if not isinstance(doc, dict) or "space" not in doc or "coords" not in doc:
        raise InvalidInput(
            "expected a tensor document with 'space' and 'coords'")
    with _parsing("tensor document"):
        space = MultiProjectiveSpace.from_json(doc["space"])
        return Tensor.from_json(space, doc["coords"])


def _subspace_from(data):
    with _parsing("subspace document"):
        return SubspaceSpec.from_json(data)


def _within_from(doc):
    if isinstance(doc, dict) and "within" in doc:
        return _subspace_from(doc["within"])
    return None


def _need(value, flag):
    if value is None:
        raise InvalidInput("%s is required for this subcommand" % flag)
    return value


def _cfg(args, step=0):
    return ConstructionConfig(rng_seed=args.seed + step)


def _construct(op, d, params, cfg, source):
    """Run construction `op` on d.  Its parameter, if it takes one, is
    read from the mapping `params`; source(name) says where it comes
    from, for the error messages."""
    fname, name = _CONSTRUCTIONS[op]
    fn = getattr(construct, fname)
    if name is None:
        return fn(d, cfg)
    raw = params.get(name)
    if raw is None:
        raise InvalidInput("%s needs %s" % (op, source(name)))
    arg = (_subspace_from(raw) if name == "subspace"
           else as_size(raw, source(name)))
    return fn(d, arg, cfg)


def _chain_step(cur, step, cfg):
    if not isinstance(step, dict) or not isinstance(step.get("op"), str):
        raise InvalidInput("each chain step needs an 'op' string")
    op = step["op"].replace("_", "-")  # "plus_one" names "plus-one"
    if op not in _CONSTRUCTIONS:
        raise InvalidInput("unknown chain op %r" % step["op"])
    return _construct(op, cur, step, cfg,
                      lambda name: "a step member %r" % name)


def _dispatch(args, doc):
    """Returns (payload, csv_rows or None)."""
    cmd = args.command
    if cmd == "verify":
        return verify_irredundant(_decomp_from(doc)).to_json(), None
    if cmd == "envelope":
        d = _decomp_from(doc)
        return set_envelope(d.space, d.points).to_json(), None
    if cmd == "tensor-envelope":
        return tensor_envelope(_tensor_from(doc)).to_json(), None
    if cmd == "fiber-check":
        return fiber_condition(_decomp_from(doc)).to_json(), None
    if cmd == "rank":
        cert = brute_rank(_tensor_from(doc), within=_within_from(doc),
                          budget=args.budget)
        return cert.to_json(), None
    if cmd == "spanning-sets":
        t = _need(args.t, "--t")
        mode = doc.get("mode", "all") if isinstance(doc, dict) else "all"
        ss = spanning_sets(_tensor_from(doc), t, mode,
                           within=_within_from(doc), budget=args.budget)
        return ss.to_json(), None
    if cmd == "gaps":
        prof = gap_profile(_tensor_from(doc), within=_within_from(doc),
                           budget=args.budget)
        return prof.to_json(), prof.csv_rows()
    if cmd == "min-concise-t":
        res = min_concise_t(_tensor_from(doc), budget=args.budget)
        return res.to_json(), None
    if cmd in _CONSTRUCTIONS:
        params = {"m": args.m, "target_n": args.target_n,
                  "subspace": (doc.get("subspace") if isinstance(doc, dict)
                               else None)}
        out = _construct(cmd, _decomp_from(doc), params, _cfg(args),
                         _SUBCOMMAND_PARAMS.get)
        return out.to_json(), None
    if cmd == "chain":
        if not isinstance(doc, dict) or "steps" not in doc:
            raise InvalidInput("chain needs 'decomposition' and 'steps'")
        if not isinstance(doc["steps"], list):
            raise InvalidInput("chain 'steps' must be a list")
        cur = _decomp_from(doc)
        provs = []
        for i, step in enumerate(doc["steps"]):
            cur = _chain_step(cur, step, _cfg(args, i))
            provs.append(cur.provenance)
        final = Decomposition(cur.space, cur.points, cur.target,
                              {"construction": "chain", "steps": provs})
        return final.to_json(), None
    raise InvalidInput("unknown subcommand %r" % cmd)


def _write(args, payload, csv_rows):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.outfile:
        if csv_rows is not None and args.outfile.endswith(".csv"):
            with open(args.outfile, "w", newline="") as fh:
                csv.writer(fh).writerows(csv_rows)
        else:
            with open(args.outfile, "w") as fh:
                fh.write(text + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _load(args.infile)
        if args.field:
            doc = _override_field(doc, args.field)
    except _InputFailure as e:
        print(json.dumps({"error": "io", "message": str(e)}),
              file=sys.stderr)
        return 1
    try:
        payload, csv_rows = _dispatch(args, doc)
    except XrankError as e:
        print(json.dumps({"error": e.code, "message": str(e)}, indent=2))
        return 2
    try:
        _write(args, payload, csv_rows)
    except OSError as e:
        print(json.dumps({"error": "io", "message": str(e)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
