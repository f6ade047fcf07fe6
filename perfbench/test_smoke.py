"""Smoke test of the benchmark itself, every workload at probe size.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    assert printed["error_rate"] == ["0", "fraction"]
    for metric in BENCH["end_to_end"]:
        assert printed[metric["name"]][-1] == metric["unit"]
        assert result["metrics"][metric["name"]] == {
            "value": pytest.approx(float(printed[metric["name"]][0]), rel=1e-5),
            "unit": metric["unit"]}
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_inside_their_parents(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    with open(os.path.join(ROOT, ".bench_work", workload, "spans.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert any(span["parent"] >= 0 for span in spans)
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
