"""End-to-end tests of the slice machinery inside the timing core."""

import dataclasses

import pytest

from repro.harness.runner import simulate
from repro.uarch.config import FOUR_WIDE
from repro.workloads import registry, vpr


@pytest.fixture(scope="module")
def vpr_small():
    return vpr.build(scale=0.1)


@pytest.fixture(scope="module")
def vpr_runs(vpr_small):
    return simulate(vpr_small), simulate(vpr_small, "slice")


def test_slices_speed_up_vpr(vpr_runs):
    base, assisted = vpr_runs
    assert assisted.ipc > base.ipc * 1.15
    assert assisted.committed == base.committed  # same region


def test_slices_remove_mispredictions(vpr_runs):
    base, assisted = vpr_runs
    assert assisted.branch_mispredictions < base.branch_mispredictions * 0.6


def test_override_accuracy_exceeds_99_percent(vpr_runs):
    """Section 6.1: 'our slices and prediction correlation mechanism
    exceed a 99% prediction accuracy when they override'."""
    _base, assisted = vpr_runs
    c = assisted.correlator
    judged = c.correct_overrides + c.incorrect_overrides
    assert judged > 100
    assert c.correct_overrides / judged > 0.99


def test_forks_follow_insertions(vpr_small, vpr_runs):
    _base, assisted = vpr_runs
    # One fork per driver iteration reaches the correct path; wrong-path
    # refetches add more attempts, some squashed.
    assert assisted.forks_taken >= 150
    assert assisted.forks_squashed > 0
    assert assisted.fork_points_fetched >= assisted.forks_taken


def test_slice_instructions_fetched_and_retired(vpr_runs):
    _base, assisted = vpr_runs
    assert assisted.slice_fetched > 0
    assert 0 < assisted.slice_retired <= assisted.slice_fetched


def test_total_fetch_decreases_with_slices(vpr_runs):
    """The paper's Table 4 observation: despite slice overhead, total
    fetched instructions go down (fewer wrong-path fetches)."""
    base, assisted = vpr_runs
    assert assisted.main_fetched + assisted.slice_fetched < base.main_fetched


def test_kills_are_applied_and_some_restored(vpr_runs):
    _base, assisted = vpr_runs
    c = assisted.correlator
    assert c.kills_applied > 100
    # Wrong paths cross kill points; squashes must restore some.
    assert c.kills_restored > 0


def test_architectural_state_identical_with_and_without_slices(vpr_small):
    """Slices are 'completely microarchitectural in nature': final
    memory must be bit-identical."""
    from repro.uarch.core import Core

    base_core = Core(
        vpr_small.program,
        FOUR_WIDE,
        memory_image=vpr_small.memory_image,
        region=vpr_small.region,
    )
    base_core.run()
    slice_core = Core(
        vpr_small.program,
        FOUR_WIDE,
        slices=vpr_small.slices,
        memory_image=vpr_small.memory_image,
        region=vpr_small.region,
    )
    slice_core.run()
    assert base_core.memory.snapshot() == slice_core.memory.snapshot()


def test_two_contexts_force_ignored_forks():
    workload = registry.build("mcf", scale=0.2)  # ships two slices
    config = dataclasses.replace(FOUR_WIDE, thread_contexts=2)
    assisted = simulate(workload, "slice", config)
    assert assisted.forks_ignored > 0


def test_dedicated_resources_do_not_regress(vpr_small):
    shared = simulate(vpr_small, "slice")
    dedicated = simulate(vpr_small, "slice", dedicated=True)
    assert dedicated.ipc >= shared.ipc * 0.98


def test_late_predictions_trigger_early_resolution():
    """mcf's slice runs behind: late mismatches must early-resolve."""
    workload = registry.build("mcf", scale=0.2)
    assisted = simulate(workload, "slice")
    assert assisted.correlator.late_predictions > 0
    assert assisted.early_resolutions > 0


def test_eight_wide_also_benefits(vpr_small):
    from repro.uarch.config import EIGHT_WIDE

    base = simulate(vpr_small, "base", EIGHT_WIDE)
    assisted = simulate(vpr_small, "slice", EIGHT_WIDE)
    assert assisted.ipc > base.ipc


def test_parser_without_slices_equals_baseline():
    workload = registry.build("parser", scale=0.1)
    assert workload.slices == ()
    base = simulate(workload)
    assisted = simulate(workload, "slice")
    assert assisted.cycles == base.cycles
    assert assisted.slice_fetched == 0
