"""Tests for the value-prediction correlation extension."""

import pytest

from repro.harness.runner import simulate
from repro.workloads import mcf


@pytest.fixture(scope="module")
def runs():
    workload = mcf.build(scale=0.2)
    vp_slice = mcf.value_prediction_slice(workload)
    base = simulate(workload)
    assisted = simulate(workload, "slice", slices=(vp_slice,))
    return workload, base, assisted


def test_value_predictions_bind_and_are_accurate(runs):
    _workload, _base, assisted = runs
    c = assisted.correlator
    assert c.value_predictions_generated > 100
    assert c.value_overrides > 50
    judged = c.correct_value_overrides + c.incorrect_value_overrides
    assert judged > 30
    assert c.correct_value_overrides / judged > 0.85


def test_wrong_value_predictions_squash_and_recover(runs):
    """Wrong predictions must be detected at load resolution and pay a
    squash; the run still completes with correct architectural state."""
    workload, base, assisted = runs
    assert assisted.value_mispredict_squashes > 0
    assert assisted.committed == base.committed


def test_value_prediction_does_not_regress(runs):
    _workload, base, assisted = runs
    assert assisted.ipc > base.ipc


def test_architectural_state_unaffected_by_value_predictions():
    from repro.uarch.config import FOUR_WIDE
    from repro.uarch.core import Core

    workload = mcf.build(scale=0.1)
    vp_slice = mcf.value_prediction_slice(workload)
    plain = Core(
        workload.program,
        FOUR_WIDE,
        memory_image=workload.memory_image,
        region=workload.region,
    )
    plain.run()
    assisted = Core(
        workload.program,
        FOUR_WIDE,
        slices=(vp_slice,),
        memory_image=workload.memory_image,
        region=workload.region,
    )
    assisted.run()
    assert plain.memory.snapshot() == assisted.memory.snapshot()


def test_correct_value_prediction_hides_latency():
    """A covered load bound to a correct FULL prediction completes at
    L1 latency even when the line misses."""
    workload = mcf.build(scale=0.2)
    vp_slice = mcf.value_prediction_slice(workload)
    assisted = simulate(workload, "slice", slices=(vp_slice,))
    # Covered loads that bound correctly are not counted as misses, so
    # per-PC miss rates at covered loads drop vs baseline.
    base = simulate(workload)
    covered = {
        pgi.branch_pc
        for pgi in vp_slice.pgis
        if pgi.kind.value == "value"
    }
    base_events = sum(base.mem_pcs[pc].events for pc in covered)
    assisted_events = sum(assisted.mem_pcs[pc].events for pc in covered)
    assert assisted_events < base_events
