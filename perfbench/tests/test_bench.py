"""The benchmark end to end, each workload at its smallest size."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tmp_path, *args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args,
                           "--record-dir", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_emits_every_metric(tmp_path, workload):
    e2e = run(tmp_path, "--workload", workload, "--seed", "3",
              "--seconds", "0", "--trace", "0")
    assert e2e["correct"] and e2e["attempted"] > 0 and e2e["failed"] == 0
    assert units(e2e) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e["metrics"].values())
    traced = run(tmp_path, "--workload", workload, "--seed", "3",
                 "--trace", "1")
    assert traced["correct"]
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    records = sorted(tmp_path.glob("*.json"))
    assert len(records) == 2
    rec = json.loads(records[0].read_text())
    assert {"commit", "nproc", "cpu_model", "python", "numpy", "seed",
            "samples"} <= rec.keys()


def test_traced_call_counts_repeat_for_a_seed(tmp_path):
    calls = []
    for _ in range(2):
        res = run(tmp_path, "--workload", "rational", "--seed", "5",
                  "--trace", "1")
        calls.append({k: v["value"] for k, v in res["metrics"].items()
                      if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["construct.plus_one.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "growth",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("base, new, better, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "higher",
     "better"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "higher", "worse"),
    ([10, 10.1, 9.9, 10, 10.05], [10.1, 10, 9.95, 10, 10.1], "higher",
     "unchanged"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "lower", "better"),
    ([5, 15, 10, 7, 13], [6, 14, 9, 11, 12], "lower", "unresolved"),
])
def test_compare_verdicts(base, new, better, expected):
    seeds = range(len(base))
    assert compare.verdict(dict(zip(seeds, base)), dict(zip(seeds, new)),
                           better, 0.1) == expected


@pytest.mark.parametrize("coords, orbit", [
    ((5, 2, 10, 9), "rank2"),
    ((0, 0, 9, 8), "rank1"),
    ((4, 1, 5, 9, 2, 3, 2, 2), "nonsquare"),
    ((5, 8, 2, 7, 2, 10, 6, 4), "square"),
    ((3, 2, 1, 10, 5, 0, 3, 6), "W"),
    ((1, 0, 0, 1, 0, 0, 0, 0), "bideg"),
    ((1, 0, 0, 0, 0, 0, 0, 0), "rank1"),
])
def test_target_class_over_gf11(coords, orbit):
    assert workloads.target_class(coords, 11) == orbit
