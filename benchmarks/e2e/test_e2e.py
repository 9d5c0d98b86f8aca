"""Smoke test of the end-to-end benchmark at tiny sizes, and of the
tracer's fork safety.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Loaded by path: the module name ``trace`` is also a stdlib module.
_spec = importlib.util.spec_from_file_location("e2e_trace", BENCH_DIR / "trace.py")
e2e_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_trace)


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[dict, dict]:
    out = tmp_path / f"{workload}-{trace}"
    # Long enough for serve to send all 6 of its misses.
    seconds = 20 if workload == "serve" else 3
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / "result.json").read_text())
    return result, record


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize(
    "workload, trace",
    [("fig11_detail", 0), ("fig11_detail", 1), ("fig11_sampled", 0),
     ("serve", 1)],
)
def test_smoke_run_emits_every_metric_and_passes_checks(tmp_path, workload, trace):
    result, record = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    expected = _names("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    # Untraced end-to-end samples are taken in traced runs too.
    assert set(record["spread"]) == set(_names("end_to_end"))
    assert record["host"]["nproc"] >= 1 and record["seed"] == 0
    if workload == "serve":
        assert len(record["checks"]["digests"]) == 6
    if trace:
        assert result["metrics"]["uarch.run.insts"]["value"] > 0
        assert result["metrics"]["parallel.failed"]["value"] == 0


def test_tracer_writes_parent_spans_once_across_fork(tmp_path):
    tracer = e2e_trace.Tracer(tmp_path)
    outer = tracer.begin("parallel.matrix")
    inner = tracer.begin("workloads.build")
    tracer.end(inner)  # buffered: the outer span is still open
    pid = os.fork()
    if pid == 0:
        try:
            unit = tracer.begin("parallel.unit")
            run = tracer.begin("uarch.run")
            time.sleep(0.01)
            tracer.end(run)
            tracer.end(unit, lambda: {"key": "k"})
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    tracer.end(outer)

    spans = e2e_trace.load_spans(tmp_path)
    names = sorted((s["name"], s["pid"]) for s in spans)
    assert names == sorted([
        ("parallel.matrix", os.getpid()),
        ("workloads.build", os.getpid()),
        ("parallel.unit", pid),
        ("uarch.run", pid),
    ])
    unit = next(s for s in spans if s["name"] == "parallel.unit")
    assert unit["parent"] is None
    assert e2e_trace.check_invariants(spans, jobs=1, main_pid=os.getpid()) == []


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "pid": 1, "id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "pid": 1, "id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "pid": 1, "id": 2, "parent": 0, "start": 5.0, "end": 7.0},
    ]
    children = e2e_trace._children(spans)
    assert e2e_trace.self_time(spans[0], children) == pytest.approx(5.0)


def _checkout(root: Path) -> Path:
    """A copy of ``BENCHMARK.json`` and the benchmark under *root*;
    returns the copied benchmark directory."""
    (root / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    bench = root / "benchmarks" / "e2e"
    shutil.copytree(BENCH_DIR, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return bench


def _run_in(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig11_detail",
         "--seed", "0", "--seconds", "1", "--trace", "0", *extra],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    _checkout(tmp_path)
    proc = _run_in(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_golden_mismatch_fails_the_run(tmp_path):
    bench = _checkout(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = json.loads((bench / "golden.json").read_text())
    golden["fig11_detail"]["smoke"]["digest"] = "0" * 64
    (bench / "golden.json").write_text(json.dumps(golden))
    proc = _run_in(tmp_path, "--size", "smoke")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
