"""Tests of the benchmark itself, in smoke mode (n=3, a handful of
operations).  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, final = result(bench(workload, 0))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    assert all(set(v) == {"value", "unit"} and v["value"] > 0 for v in final["metrics"].values())
    assert report["metrics"]["error_rate"]["value"] == 0
    assert report["run"]["seed"] == 3 and report["run"]["loadavg_end"]
    if workload == "certify-n4":
        routes = [report["metrics"][f"verify_{r}_s"]["value"] for r in workloads.ROUTES]
        assert final["metrics"]["op_p50_ms"]["value"] == pytest.approx(
            1e3 * statistics.geometric_mean(routes)
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dead_children_still_report_failures(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", lambda job: None)
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--smoke"]
    assert run.main(args) == 1
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["correct"] is False and final["metrics"] == {}
    assert final["failed"] == final["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(bench(workload, 1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for report, final in runs:
        assert final["correct"]
        assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
        counts.append({k: v["value"] for k, v in report["layers"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.insert_calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_p99_or_p90_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(99))) == (49, 50.0)
    assert run.tail(list(range(999))) == (899, 90.0)
    assert run.tail(list(range(2000))) == (1979, 99.0)
    assert run.tail([3, 1, 2]) == (2, 50.0)


def test_checks_reject_wrong_answers():
    assert workloads.check_oracle_trial(["generic", False, False, False])
    assert not workloads.check_oracle_trial(["generic", False, True, False])
    assert not workloads.check_oracle_trial(["subspace", True, True, False])
    assert workloads.check_membership_answer([False, False, True])
    assert not workloads.check_membership_answer([True, False, True])
    assert not workloads.check_membership_answer([False, True, False])
    golden = {"sha256": "a", "exit": 0}
    assert workloads.check_certify({"sha256": "a", "exit": 0, "not_ok": 0}, golden)
    assert not workloads.check_certify({"sha256": "b", "exit": 0, "not_ok": 0}, golden)
    assert not workloads.check_certify({"sha256": "a", "exit": 0, "not_ok": 1}, golden)
