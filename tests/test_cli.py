"""End-to-end runs of the command line frontend (in process), and the
README's library, CLI and chain examples."""
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QQ, gf, lin_comb, pt, segre, veronese

from xrank import construct, errors
from xrank.cli import main
from xrank.decomp import Decomposition, verify_irredundant
from xrank.geometry import MultiProjectiveSpace, SubspaceSpec, Tensor, embed

E0, E1 = (1, 0), (0, 1)


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _diag_doc(field=QQ):
    S = segre((1, 1), field)
    A = [pt(S, E0, E0), pt(S, E1, E1)]
    return Decomposition(S, A, Tensor.of(S, (1, 0, 0, 1))).to_json()


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ----------------------------------------------------------------- commands

def test_verify_round_trip(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    code, payload = _run(capsys, ["verify", "--in", path])
    assert code == 0
    assert payload["irredundant"] is True
    assert payload["coefficients"] == ["1", "1"]


def test_out_file_matches_stdout(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    out = tmp_path / "res.json"
    code, payload = _run(capsys, ["verify", "--in", path, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == payload


def test_envelope_command(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    code, payload = _run(capsys, ["envelope", "--in", path])
    assert code == 0
    assert payload["dims"] == [1, 1]


def test_tensor_envelope_command(tmp_path, capsys):
    # matrix of rank 2 inside P^1 x P^2: proper envelope (1, 1)
    S = segre((1, 2), gf(5))
    q = lin_comb(S, [pt(S, E0, (1, 0, 0)), pt(S, E1, (0, 1, 0))])
    path = _write(tmp_path, "t.json",
                  {"space": S.to_json(), "coords": q.to_json()})
    code, payload = _run(capsys, ["tensor-envelope", "--in", path])
    assert code == 0
    assert payload["dims"] == [1, 1]


def test_fiber_check_command(tmp_path, capsys):
    S = segre((1, 1))
    A = [pt(S, E0, E0), pt(S, E0, E1)]
    doc = Decomposition(S, A, lin_comb(S, A)).to_json()
    path = _write(tmp_path, "d.json", doc)
    code, payload = _run(capsys, ["fiber-check", "--in", path])
    assert code == 0
    assert payload["holds"] is False
    assert payload["violations"] == [{"i": 0, "j": 1, "free_factor": 1}]


def test_rank_command(tmp_path, capsys):
    doc = _diag_doc(gf(5))
    path = _write(tmp_path, "d.json",
                  {"space": doc["space"], "coords": doc["target"]})
    code, payload = _run(capsys, ["rank", "--in", path])
    assert code == 0
    assert payload["rank"] == 2
    assert payload["search_space_size"] > 0


def test_spanning_sets_requires_t(tmp_path, capsys):
    doc = _diag_doc(gf(3))
    path = _write(tmp_path, "t.json",
                  {"space": doc["space"], "coords": doc["target"]})
    code, payload = _run(capsys, ["spanning-sets", "--in", path])
    assert code == 2
    assert payload["error"] == "InvalidInput"
    code, payload = _run(capsys, ["spanning-sets", "--in", path, "--t", "2"])
    assert code == 0
    assert payload["count"] > 0 and payload["t"] == 2


def test_gaps_csv_export(tmp_path, capsys):
    V = veronese(1, 4, gf(5))
    path = _write(tmp_path, "t.json",
                  {"space": V.to_json(),
                   "coords": ["1", "0", "0", "0", "1"]})
    out = tmp_path / "gaps.csv"
    code, payload = _run(capsys, ["gaps", "--in", path, "--out", str(out)])
    assert code == 0
    assert payload["gaps"] == [3]
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["t", "nonempty", "witness_count_or_bound"]
    assert rows[1:] == [["2", "true", "1"], ["3", "false", "0"],
                        ["4", "true", "1"], ["5", "false", "0"]]


def test_min_concise_t_command(tmp_path, capsys):
    S = segre((1, 1), gf(3))
    path = _write(tmp_path, "t.json",
                  {"space": S.to_json(), "coords": ["1", "0", "0", "0"]})
    code, payload = _run(capsys, ["min-concise-t", "--in", path])
    assert code == 0
    assert payload["t"] == 3 and payload["rank"] == 1
    assert payload["non_concise_ts"] == [1, 2]


def test_plus_one_command_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    code, first = _run(capsys, ["plus-one", "--in", path, "--seed", "7"])
    assert code == 0
    assert len(first["points"]) == 3
    code, second = _run(capsys, ["plus-one", "--in", path, "--seed", "7"])
    assert second == first
    back = Decomposition.from_json(first)
    assert back.provenance["construction"] == "plus_one"


def test_max_retries_flag_is_a_usage_error(tmp_path, capsys):
    # no construction retries, so the flag that capped retries is gone
    path = _write(tmp_path, "d.json", _diag_doc())
    with pytest.raises(SystemExit) as exc:
        main(["plus-one", "--in", path, "--max-retries", "3"])
    assert exc.value.code == 2
    assert "--max-retries" in capsys.readouterr().err


def test_escape_command(tmp_path, capsys):
    S = segre((1, 1))
    y = SubspaceSpec.of(S, [(E0, E1), (E0,)])
    a = pt(S, (1, 1), E0)
    doc = Decomposition(S, [a], embed(S, a)).to_json()
    doc["subspace"] = y.to_json()
    path = _write(tmp_path, "d.json", doc)
    code, payload = _run(capsys, ["escape", "--in", path, "--seed", "3"])
    assert code == 0
    assert len(payload["points"]) == 2


def test_concise_plus_m_command(tmp_path, capsys):
    W = segre((1, 2))
    o = (1, 0, 0)
    A = [pt(W, E0, o), pt(W, E1, o)]
    path = _write(tmp_path, "d.json",
                  Decomposition(W, A, lin_comb(W, A)).to_json())
    code, payload = _run(capsys, ["concise-plus-m", "--in", path, "--m", "2"])
    assert code == 0
    assert len(payload["points"]) == 4


def test_veronese_extend_command(tmp_path, capsys):
    V = veronese(2, 2)
    a = pt(V, (1, 0, 0))
    path = _write(tmp_path, "d.json",
                  Decomposition(V, [a], embed(V, a)).to_json())
    code, payload = _run(capsys,
                         ["veronese-extend", "--in", path, "--target-n", "2"])
    assert code == 0
    assert len(payload["points"]) == 5


def test_sv_extend_command(tmp_path, capsys):
    SV = MultiProjectiveSpace((1, 1), (1, 2), QQ)
    A = [pt(SV, E0, E0), pt(SV, E1, E0)]
    path = _write(tmp_path, "d.json",
                  Decomposition(SV, A, lin_comb(SV, A)).to_json())
    code, payload = _run(capsys, ["sv-extend", "--in", path])
    assert code == 0
    assert len(payload["points"]) == 4


def test_chain_command(tmp_path, capsys):
    doc = {"decomposition": _diag_doc(),
           "steps": [{"op": "plus-one"}, {"op": "plus-one"}]}
    path = _write(tmp_path, "c.json", doc)
    code, payload = _run(capsys, ["chain", "--in", path])
    assert code == 0
    assert len(payload["points"]) == 4
    assert payload["provenance"]["construction"] == "chain"
    assert len(payload["provenance"]["steps"]) == 2


# -------------------------------------------------------------- field swaps

def test_field_override_changes_the_arithmetic(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    code, payload = _run(capsys,
                         ["verify", "--in", path, "--field", "GF(7)"])
    assert code == 0
    assert payload["irredundant"] is True


def test_field_override_rejects_composite(tmp_path, capsys):
    path = _write(tmp_path, "d.json", _diag_doc())
    code, payload = _run(capsys,
                         ["verify", "--in", path, "--field", "GF(9)"])
    assert code == 2
    assert payload["error"] == "InvalidInput"


def test_plus_one_over_a_61_bit_prime_field(tmp_path, capsys):
    # the fiber line carries 2^61 - 1 points; plus-one draws two by index
    path = _write(tmp_path, "d.json", _diag_doc())
    start = time.perf_counter()
    code, payload = _run(capsys, ["plus-one", "--in", path, "--field",
                                  "GF(2305843009213693951)"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert payload["space"]["field"] == "GF(2305843009213693951)"
    assert len(payload["points"]) == 3
    out = Decomposition.from_json(payload)
    assert verify_irredundant(out).irredundant


# --------------------------------------------------------------- exit codes

def test_missing_file_is_io_failure(tmp_path, capsys):
    code = main(["verify", "--in", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.strip() == ""
    assert json.loads(captured.err)["error"] == "io"


def test_unparseable_file_is_io_failure(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = main(["verify", "--in", str(p)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "io"


def test_domain_error_payload(tmp_path, capsys):
    # rank over the rationals is outside the oracle's reach
    S = segre((1, 1))
    path = _write(tmp_path, "t.json",
                  {"space": S.to_json(), "coords": ["1", "0", "0", "1"]})
    code, payload = _run(capsys, ["rank", "--in", path])
    assert code == 2
    assert payload["error"] == "FieldNotFinite"


def test_rank_over_a_huge_field_fails_fast(tmp_path, capsys):
    # P1xP1 over GF(10^9+7) has ~10^18 points; the budget stops the
    # search before any of them is enumerated
    S = segre((1, 1), gf(1000000007))
    path = _write(tmp_path, "t.json",
                  {"space": S.to_json(), "coords": ["1", "0", "0", "1"]})
    start = time.perf_counter()
    code, payload = _run(capsys, ["rank", "--in", path])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert payload["error"] == "BudgetExceeded"


def test_malformed_document_is_a_domain_error(tmp_path, capsys):
    path = _write(tmp_path, "b.json", {"space": {"dims": [1, 1]}})
    code, payload = _run(capsys, ["verify", "--in", path])
    assert code == 2
    assert payload["error"] == "InvalidInput"


# the "error" member of exit 2's payload for each domain error: pipelines
# branch on these strings, so a renamed class must not rename its code
_ERROR_CODES = {
    "XrankError": "DomainError",
    "DivisionByZero": "DivisionByZero",
    "DimensionMismatch": "DimensionMismatch",
    "FieldNotFinite": "FieldNotFinite",
    "FieldTooSmall": "FieldTooSmall",
    "ModulusTooLarge": "ModulusTooLarge",
    "ZeroFactor": "ZeroFactor",
    "SpaceMismatch": "SpaceMismatch",
    "EmptySet": "EmptySet",
    "UnsupportedDegree": "UnsupportedDegree",
    "NotIrredundantInput": "NotIrredundantInput",
    "NoEscapingFiber": "NoEscapingFiber",
    "NotContainedInY": "NotContainedInY",
    "YEqualsW": "YEqualsW",
    "NotConcise": "NotConcise",
    "BadM": "BadM",
    "NotVeronese": "NotVeronese",
    "TargetTooSmall": "TargetTooSmall",
    "BudgetExceeded": "BudgetExceeded",
    "NoConciseWitness": "NoConciseWitness",
    "InvalidInput": "InvalidInput",
    "DegenerateSpace": "DegenerateSpace",
    "TargetNotSpanned": "TargetNotSpanned",
    "MinimalityNotCertified": "MinimalityNotCertified",
}


def test_error_codes_are_frozen():
    found = {name: cls.code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.XrankError)}
    assert found == _ERROR_CODES


@pytest.mark.parametrize("member,value", [
    ("target", [0.1, 0, 0, 0.3]), ("target", [1, 0, 0, True]),
    ("target", "1001"), ("points", [["10", "10"], ["01", "01"]])])
def test_floats_bools_and_strings_for_vectors_are_rejected(
        tmp_path, capsys, member, value):
    # read loosely, each of these documents verifies as irredundant
    doc = dict(_diag_doc(), **{member: value})
    code, payload = _run(capsys, ["verify", "--in",
                                  _write(tmp_path, "d.json", doc)])
    assert code == 2
    assert payload["error"] == "InvalidInput"


def test_decimal_strings_and_ints_are_read_exactly(tmp_path, capsys):
    doc = dict(_diag_doc(), target=["0.1", 0, 0, "3/10"])
    code, payload = _run(capsys, ["verify", "--in",
                                  _write(tmp_path, "d.json", doc)])
    assert code == 0
    assert payload["coefficients"] == ["1", "3"]


def test_scalar_strings_round_trip_through_the_cli(tmp_path, capsys):
    from fractions import Fraction
    S = segre((1, 1))
    A = [pt(S, (1, -2), (3, 1)), pt(S, (2, 1), (1, 5))]
    d = Decomposition(S, A, lin_comb(S, A, [1, "1/2"]))
    path = _write(tmp_path, "d.json", d.to_json())
    code, payload = _run(capsys, ["verify", "--in", path])
    assert code == 0
    # canonical tensor scaling rescales both coefficients by one constant,
    # so only their ratio is pinned down
    c0, c1 = (Fraction(x) for x in payload["coefficients"])
    assert c0 == 2 * c1 and c1 != 0


# ------------------------------------------------------------------ stdin

def test_stdin_input_is_read_with_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_diag_doc())))
    code, payload = _run(capsys, ["verify", "--in", "-"])
    assert code == 0
    assert payload["irredundant"] is True


def test_stdin_unparseable_is_io_failure(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code = main(["verify", "--in", "-"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "io"


def _child_env():
    """The environment for a child interpreter that imports this xrank."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [x for x in [env.get("PYTHONPATH")] if x])
    return env


def test_stdin_through_a_real_pipe():
    proc = subprocess.run(
        [sys.executable, "-m", "xrank.cli", "verify", "--in", "-"],
        input=json.dumps(_diag_doc()), capture_output=True, text=True,
        env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["irredundant"] is True


# A fresh interpreter reports, after each step, whether numpy is loaded.
_FOOTPRINT_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
loaded = {}
import xrank
loaded["import xrank"] = "numpy" in sys.modules
import xrank.cli
loaded["import xrank.cli"] = "numpy" in sys.modules
doc, chain = sys.argv[1:3]
for argv in (["verify", "--in", doc], ["plus-one", "--in", doc],
             ["chain", "--in", chain]):
    with redirect_stdout(io.StringIO()):
        code = xrank.cli.main(argv)
    loaded[argv[0]] = "numpy" in sys.modules if code == 0 else code
space = xrank.MultiProjectiveSpace.segre((1, 1), xrank.FieldSpec(11))
xrank.oracle.ground_set(space)
loaded["ground_set"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_verification_and_constructions_never_import_numpy(tmp_path):
    S = segre((1, 1, 1), gf(11))
    A = [pt(S, E0, E0, E0), pt(S, E1, E1, E1)]
    doc = Decomposition(S, A, lin_comb(S, A)).to_json()
    chain = {"decomposition": doc,
             "steps": [{"op": "plus-one"}, {"op": "plus-one"}]}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD,
         _write(tmp_path, "d.json", doc), _write(tmp_path, "c.json", chain)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import xrank": False, "import xrank.cli": False, "verify": False,
        "plus-one": False, "chain": False, "ground_set": True}


def test_constructions_run_through_the_construct_module(tmp_path, capsys,
                                                       monkeypatch):
    # the subcommand and chain steps call construct.plus_one as it is
    # bound when they run, so a rebinding by name (the benchmark's
    # tracer) sees every call
    real, calls = construct.plus_one, []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(construct, "plus_one", spy)
    path = _write(tmp_path, "d.json", _diag_doc())
    assert _run(capsys, ["plus-one", "--in", path])[0] == 0
    doc = {"decomposition": _diag_doc(),
           "steps": [{"op": "plus-one"}, {"op": "plus_one"}]}
    path = _write(tmp_path, "c.json", doc)
    assert _run(capsys, ["chain", "--in", path])[0] == 0
    assert len(calls) == 3


def test_chain_rejects_unknown_and_non_string_ops(tmp_path, capsys):
    for step in ({"op": "plus_two"}, {"op": 3}, {}):
        doc = {"decomposition": _diag_doc(), "steps": [step]}
        path = _write(tmp_path, "c.json", doc)
        code, payload = _run(capsys, ["chain", "--in", path])
        assert code == 2
        assert payload["error"] == "InvalidInput"


# --------------------------------------------------- malformed documents

# P1 x P2 over GF(5); the two points share the last-factor point (1, 0, 0)
# and lie in Y = P1 x <(1, 0, 0), (0, 1, 0)>, so every decomposition
# subcommand but veronese-extend (a single-factor operation) succeeds
_SPACE = {"dims": [1, 2], "degrees": [1, 1], "field": "GF(5)"}
_Y = {"space": _SPACE, "bases": [[["1", "0"], ["0", "1"]],
                                 [["1", "0", "0"], ["0", "1", "0"]]]}
_DECOMP_DOC = {
    "decomposition": {"space": _SPACE,
                      "points": [[["1", "0"], ["1", "0", "0"]],
                                 [["0", "1"], ["1", "0", "0"]]],
                      "target": ["1", "0", "0", "1", "0", "0"]},
    "subspace": _Y,
    "steps": [{"op": "escape", "subspace": _Y}, {"op": "plus-one"}],
}
_TENSOR_DOC = {
    "tensor": {"space": _SPACE, "coords": ["1", "0", "0", "0", "1", "0"]},
    "within": _Y,
}
# the members each subcommand reads; a mutation of any other member can
# leave the document valid for it
_READS = {
    "verify": ("decomposition",), "envelope": ("decomposition",),
    "fiber-check": ("decomposition",), "plus-one": ("decomposition",),
    "escape": ("decomposition", "subspace"),
    "concise-plus-m": ("decomposition",),
    "veronese-extend": ("decomposition",), "sv-extend": ("decomposition",),
    "chain": ("decomposition", "steps"),
    "tensor-envelope": ("tensor",), "rank": ("tensor", "within"),
    "spanning-sets": ("tensor", "within"), "gaps": ("tensor", "within"),
    "min-concise-t": ("tensor",),
}
_DELETE = object()
# values that no member of the given kind accepts; digit strings and ints
# are left out of the scalars because they are scalars (a float or a bool
# is not), while sizes (dims, degrees, a step's m and target_n) must be
# ints: a float, a bool or a digit string is rejected even where its int()
# would make a valid document
_BAD_CONTAINER = [None, 5, -1.5, "x", {}]
_BAD_SCALAR = [None, "x", "", [], {}, "1/0", "1/5", "0x1",
               float("inf"), float("nan"), 0.5, True]
_BAD_SIZE = [1.5, 2.0, True, "2"]
_BAD_INTS = [None, "x", [], {}, [None], ["a"], [[1]], [-1], [1, 1, 1],
             float("inf"), [1.5, 2], [1, 2.0], [True, 2], [1, "2"],
             [True, True]]
_BAD_FIELD = st.one_of(
    st.sampled_from([None, 5, [], "GF(4)", "GF(1)", "GF(0)", "GF(x)",
                     "GF(5)\n", "GF(٥)", "gf(5)", "QQQ",
                     "GF(%d)" % (2 ** 64 + 13)]),
    st.text(max_size=8).filter(lambda s: s != "QQ"
                               and not re.fullmatch(r"GF\([0-9]+\)", s)))
_BAD_STEP = [None, 5, "x", [], {}, {"op": None}, {"op": "nope"},
             {"op": "escape"}, {"op": "escape", "subspace": 5},
             {"op": "escape", "subspace": {"space": _SPACE}},
             {"op": "concise-plus-m"}, {"op": "veronese-extend"}]
_BAD_STEP += [{"op": "concise-plus-m", "m": m}
              for m in _BAD_SCALAR + _BAD_SIZE]
_BAD_STEP += [{"op": "veronese-extend", "target_n": n}
              for n in _BAD_SCALAR + _BAD_SIZE]


def _sites(node, path=()):
    """(path, kind) for every member of a document below `path`: "field",
    "ints" (dims, degrees), "vector" (a list of scalars), "scalar",
    "steps", "step" or "container" (a required dict or list)."""
    key = path[-1] if path else None
    if key == "steps":
        yield path, "steps"
        for i in range(len(node)):
            yield path + (i,), "step"
        return
    if key == "field":
        yield path, "field"
        return
    if key in ("dims", "degrees"):
        yield path, "ints"
        return
    if isinstance(node, dict):
        yield path, "container"
        for k, v in node.items():
            yield from _sites(v, path + (k,))
    elif isinstance(node, list):
        if node and all(isinstance(x, str) for x in node):
            yield path, "vector"
        else:
            yield path, "container"
        for i, v in enumerate(node):
            yield from _sites(v, path + (i,))
    else:
        yield path, "scalar"


def _mutations(kind, in_list):
    """A strategy for the replacement of a member of this kind; _DELETE
    removes a dict member (every member listed in _READS is required),
    and a list member is never deleted, since a shorter point, basis or
    step list can be valid."""
    if kind == "field":
        return st.one_of(st.just(_DELETE), _BAD_FIELD)
    if kind == "ints":
        return st.sampled_from(_BAD_INTS + [_DELETE])
    if kind == "scalar":
        return st.sampled_from(_BAD_SCALAR)
    if kind == "step":
        return st.sampled_from(_BAD_STEP)
    if kind == "vector":
        # ragged, padded, zero, or not a list of scalars: a digit string
        # would otherwise be read one character at a time
        return st.sampled_from(["ragged", "padded", "zero", "10"]
                               + _BAD_CONTAINER)
    return st.sampled_from(_BAD_CONTAINER + ([] if in_list else [_DELETE]))


def _apply(doc, path, change):
    doc = json.loads(json.dumps(doc))
    if not path:
        return change
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if change is _DELETE:
        del parent[key]
    elif change == "ragged":
        parent[key] = parent[key][:-1]
    elif change == "padded":
        parent[key] = parent[key] + ["1"]
    elif change == "zero":
        parent[key] = ["0"] * len(parent[key])
    else:
        parent[key] = change
    return doc


@st.composite
def _malformed(draw):
    """(subcommand, extra argv, document text): one member of a valid
    document broken, or the valid document under a bad --field."""
    cmd = draw(st.sampled_from(sorted(_READS)))
    base = _TENSOR_DOC if "tensor" in _READS[cmd] else _DECOMP_DOC
    if draw(st.integers(0, 7)) == 0:
        field = draw(_BAD_FIELD.filter(lambda s: isinstance(s, str) and s))
        return cmd, ["--field=" + field], json.dumps(base)
    sites = [(p, k) for p, k in _sites(base)
             if not p or p[0] in _READS[cmd]]
    path, kind = draw(st.sampled_from(sites))
    in_list = bool(path) and isinstance(path[-1], int)
    change = draw(_mutations(kind, in_list))
    if not path and change is _DELETE:
        change = None
    return cmd, [], json.dumps(_apply(base, path, change))


def _run_in_process(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


_FLAGS = ["--t", "1", "--m", "2", "--target-n", "1"]


@pytest.mark.parametrize("cmd", sorted(_READS))
def test_base_documents_of_the_malformed_document_test_are_valid(cmd):
    base = _TENSOR_DOC if "tensor" in _READS[cmd] else _DECOMP_DOC
    code, out, err = _run_in_process([cmd, "--in", "-"] + _FLAGS,
                                     json.dumps(base))
    if cmd == "veronese-extend":
        assert code == 2 and json.loads(out)["error"] == "NotVeronese"
    else:
        assert code == 0, (out, err)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_malformed())
def test_malformed_documents_end_in_an_error_payload(case):
    """A malformed document ends in exit code 1 or 2 with a JSON error for
    every subcommand, never in an uncaught exception."""
    cmd, extra, text = case
    code, out, err = _run_in_process([cmd, "--in", "-"] + _FLAGS + extra,
                                     text)
    assert code in (1, 2), (cmd, extra, text, out)
    payload = json.loads(out if code == 2 else err)
    assert isinstance(payload["error"], str), payload


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.sampled_from(_BAD_STEP),
       st.lists(st.sampled_from(_BAD_STEP + _DECOMP_DOC["steps"]),
                max_size=2))
def test_malformed_chain_steps_end_in_an_error_payload(valid, bad, rest):
    """A bad step after `valid` good ones stops the chain with exit 2."""
    doc = dict(_DECOMP_DOC, steps=_DECOMP_DOC["steps"][:valid] + [bad]
               + rest)
    code, out, err = _run_in_process(["chain", "--in", "-"], json.dumps(doc))
    assert code == 2, (doc, out, err)
    assert isinstance(json.loads(out)["error"], str)


# ------------------------------------------------------- README examples

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang):
    text = README.read_text()
    return re.findall(r"```%s\n(.*?)```" % lang, text, re.S)


def _readme_files_and_commands(block):
    """`$ cat NAME` sections become {NAME: text}; other `$` lines are
    commands, each followed by the output lines the README shows."""
    files, commands = {}, []
    current = None
    for line in block.splitlines():
        if line.startswith("$ cat ") and "&&" not in line:
            current = files.setdefault(line[len("$ cat "):].strip(), [])
        elif line.startswith("$ "):
            current = []
            commands.append((line[2:], current))
        elif current is not None:
            current.append(line)
    return {k: "\n".join(v) for k, v in files.items()}, commands


def test_star_import_resolves_every_exported_name():
    import xrank
    namespace = {}
    exec("from xrank import *", namespace)
    assert xrank.__all__ and set(xrank.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(xrank, name)
               for name in xrank.__all__)


def test_readme_library_example():
    (code,) = _readme_blocks("python")
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split("\n")[:-1] == expected
    assert expected == ["True", "2 6", "3 True"]


def test_readme_rank_example_reads_stdin(monkeypatch, capsys):
    block = next(b for b in _readme_blocks("sh") if "xrank rank" in b)
    files, commands = _readme_files_and_commands(block)
    ((command, shown),) = commands
    assert command.startswith("xrank rank --in q.json |")
    monkeypatch.setattr(sys, "stdin", io.StringIO(files["q.json"]))
    code, payload = _run(capsys, ["rank", "--in", "-"])
    assert code == 0
    got = "%d %d" % (payload["rank"], len(payload["minimal_decompositions"]))
    assert [got] == shown


def test_readme_within_example(tmp_path, capsys):
    block = next(b for b in _readme_blocks("sh") if "within.json" in b)
    files, commands = _readme_files_and_commands(block)
    ((command, shown),) = commands
    assert command.startswith("xrank rank --in within.json |")
    doc = json.loads(files["within.json"])
    code, inside = _run(capsys, ["rank", "--in",
                                 _write(tmp_path, "within.json", doc)])
    assert code == 0
    assert ["%d %d %d" % (inside["rank"],
                          len(inside["minimal_decompositions"]),
                          inside["search_space_size"])] == shown
    # the text after the block: the ambient search finds the same
    code, ambient = _run(capsys, ["rank", "--in",
                                  _write(tmp_path, "q.json", doc["tensor"])])
    assert code == 0
    assert ambient["rank"] == inside["rank"]
    assert ambient["search_space_size"] == 1378

    def decompositions(payload):
        return sorted(sorted(d) for d in payload["minimal_decompositions"])
    assert decompositions(ambient) == decompositions(inside)


def test_readme_gaps_example(tmp_path, capsys):
    block = next(b for b in _readme_blocks("sh") if "xrank gaps" in b)
    files, commands = _readme_files_and_commands(block)
    ((command, shown),) = commands
    assert command == ("xrank gaps --in quartic.json --out gaps.csv "
                       "&& cat gaps.csv")
    path = tmp_path / "quartic.json"
    path.write_text(files["quartic.json"])
    out = tmp_path / "gaps.csv"
    code, payload = _run(capsys, ["gaps", "--in", str(path),
                                  "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == shown


def test_readme_chain_example(monkeypatch, capsys):
    docs = _readme_blocks("json")
    decomposition = json.loads(docs[0])
    chain_line = next(line for block in docs for line in block.splitlines()
                      if '"steps"' in line)
    doc = json.loads(chain_line.replace("{ ... }", json.dumps(decomposition)))
    assert [s["op"] for s in doc["steps"]] == ["plus_one", "plus_one"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, payload = _run(capsys, ["chain", "--in", "-"])
    assert code == 0
    assert len(payload["points"]) == 4
    steps = payload["provenance"]["steps"]
    assert [s["construction"] for s in steps] == ["plus_one", "plus_one"]
    assert verify_irredundant(Decomposition.from_json(payload)).irredundant
