"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py

Not part of the tier-1 suite (pytest collects tests/ by default).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Item, generate  # noqa: E402


def _run(cwd: Path, script: Path, workload: str, trace: int):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_and_no_errors(workload, trace):
    proc = _run(ROOT, BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
    assert f"error_share = 0 ratio (0 of {doc['attempted']} items)" in lines
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_generation_depends_only_on_the_seed(tmp_path):
    def texts(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        return [" ".join(i.argv).replace(str(d), "") for i in generate("check-mixed", seed, d).items]

    assert texts(3, "a") == texts(3, "b")
    assert texts(3, "c") != texts(4, "d")


def test_checks_reject_wrong_outputs():
    item = Item(
        "check",
        [],
        {"semiring": "D2", "lhs": [("x",)], "rhs": [("x", "y")], "commutative": False, "holds": None},
    )

    def verdicts(oracle, syntactic, witness=None):
        doc = {
            "identity": "x == x*y",
            "results": {"oracle": {"holds": oracle}, "syntactic": {"holds": syntactic}},
            "agreement": oracle == syntactic,
        }
        if witness:
            doc["results"]["oracle"]["witness"] = witness
        return json.dumps(doc)

    tables = {"D2": (("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))}
    good = check(item, 1, verdicts(False, False, {"x": "1", "y": "0"}), "", tables, None)
    assert good.ok and good.assignments == 3
    assert not check(item, 1, verdicts(False, True, {"x": "1", "y": "0"}), "", tables, None).ok
    assert not check(item, 1, verdicts(False, False, {"x": "0", "y": "0"}), "", tables, None).ok
    assert not check(item, 0, verdicts(False, False, {"x": "1", "y": "0"}), "", tables, None).ok
    assert not check(item, None, "", "Traceback ...", tables, None).ok

    delta = Item("delta", [], {"words": [("x", "y"), ("y", "z")], "planted": ["y"]})
    assert check(delta, 0, json.dumps({"delta": [["y"], ["x", "z"]]}), "", {}, None).ok
    assert not check(delta, 0, json.dumps({"delta": [["y"], ["x"]]}), "", {}, None).ok
    assert not check(delta, 0, json.dumps({"delta": [["x", "z"]]}), "", {}, None).ok


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, tmp_path / BENCH.name / "run.py", "check-mixed", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaling_follows_the_reference():
    from speed import REFERENCE_S, scaled

    latencies = [0.001, 0.002, 0.003]
    assert scaled(latencies, [REFERENCE_S] * 4) == pytest.approx(latencies)
    assert scaled(latencies, [2 * REFERENCE_S] * 4) == pytest.approx([t / 2 for t in latencies])
    # One slow reference in a window does not move the median.
    slow_once = [REFERENCE_S, 9 * REFERENCE_S, REFERENCE_S, REFERENCE_S]
    assert scaled(latencies, slow_once) == pytest.approx(latencies)
