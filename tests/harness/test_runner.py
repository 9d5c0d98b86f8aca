"""Tests for the simulation driver and the Section 6 experiment arms."""

import pytest

from repro.analysis.problem import classify_problem_instructions
from repro.harness.cache import RunCache
from repro.harness.parallel import RunRequest, run_matrix
from repro.harness.runner import (
    TripleResult,
    covered_problem_spec,
    simulate,
)
from repro.uarch.config import FOUR_WIDE
from repro.workloads import registry
from repro.workloads.registry import WorkloadRef


def test_triple_orders_ipcs(tmp_path):
    stats = run_matrix(
        [
            RunRequest("vpr", 0.08, mode=mode)
            for mode in ("base", "slice", "limit")
        ],
        jobs=1,
        cache=RunCache(tmp_path),
    )
    result = TripleResult(WorkloadRef("vpr", 0.08), FOUR_WIDE, *stats)
    assert result.limit.ipc > result.base.ipc
    assert result.assisted.ipc > result.base.ipc
    assert result.slice_speedup > 0
    assert result.limit_speedup >= result.slice_speedup - 0.05


def test_covered_problem_spec_uses_slice_coverage():
    workload = registry.build("vpr", scale=0.05)
    spec = covered_problem_spec(workload)
    covered = {
        pc for s in workload.slices for pc in s.covered_branch_pcs
    }
    assert spec.branch_pcs == frozenset(covered)


def test_covered_problem_spec_falls_back_for_sliceless_workloads():
    workload = registry.build("parser", scale=0.05)
    spec = covered_problem_spec(workload)
    assert spec.branch_pcs == workload.problem_branch_pcs
    assert spec.load_pcs == workload.problem_load_pcs


def test_perfect_sweep_classifies_and_improves(tmp_path):
    cache = RunCache(tmp_path)
    (base,) = run_matrix([RunRequest("gzip", 0.08)], jobs=1, cache=cache)
    classification = classify_problem_instructions(base)
    assert classification.branch_pcs  # found problem branches
    problem_perfect, all_perfect = run_matrix(
        [
            RunRequest(
                "gzip",
                0.08,
                mode="perfect",
                perfect_branch_pcs=tuple(classification.branch_pcs),
                perfect_load_pcs=tuple(classification.load_pcs),
            ),
            RunRequest(
                "gzip", 0.08, mode="perfect", all_branches=True, all_loads=True
            ),
        ],
        jobs=1,
        cache=cache,
    )
    assert problem_perfect.ipc > base.ipc
    assert all_perfect.ipc >= problem_perfect.ipc * 0.95
    # The classified problem branches include the annotated one.
    workload = registry.build("gzip", scale=0.08)
    assert workload.problem_branch_pcs & classification.branch_pcs


def test_simulate_refuses_an_unknown_mode_or_a_missing_overlay():
    workload = registry.build("vpr", scale=0.05)
    with pytest.raises(ValueError, match="unknown mode"):
        simulate(workload, "turbo", FOUR_WIDE)
    with pytest.raises(ValueError, match="perfect"):
        simulate(workload, "perfect", FOUR_WIDE)
