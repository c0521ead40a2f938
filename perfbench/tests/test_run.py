"""End-to-end checks of run.py: the traced counts repeat exactly, spans nest,
the result line follows BENCHMARK.json, and a tree without the package
source makes the benchmark fail without a result.

    python3 -m pytest perfbench/tests/test_run.py   # about five minutes
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNT_METRICS = [
    name for name in PER_LAYER if name.endswith(".calls") or name in tracing.COUNTS
]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_spans_nest(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    spans = json.loads((ROOT / workloads.WORK_DIR / f"trace-{workload}-7.json").read_text())["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, op_id in spans:
        assert start <= end
        if parent >= 0:
            p_start, p_end, p_op = spans[parent][1], spans[parent][2], spans[parent][4]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            assert op_id == p_op
            covered[parent] += end - start
    for (name, start, end, _, _), children in zip(spans, covered):
        assert children <= end - start + 1e-9, name


def test_untraced_result_line_has_the_end_to_end_metrics():
    result = _result(_run("--workload", "repair", "--seed", "3", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = _run("--workload", "repair", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
