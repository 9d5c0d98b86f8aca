"""Tests for the extended insert+pop vpr workload (two slices)."""

import pytest

from repro.arch import Memory, ThreadState, run_functional
from repro.harness.runner import simulate
from repro.workloads import vpr_full


@pytest.fixture(scope="module")
def workload():
    return vpr_full.build(scale=0.08)


def test_heap_invariant_survives_inserts_and_pops(workload):
    state = ThreadState(Memory(workload.memory_image), workload.program.entry_pc)
    count = 0
    for _ in run_functional(workload.program, state, 3_000_000):
        count += 1
    assert count <= workload.region
    heap = workload.program.addr_of("heap")
    tail = state.memory.load(workload.program.addr_of("heap_tail"))
    mem = state.memory
    for i in range(2, tail):
        child = mem.load(mem.load(heap + 8 * i) + 8)
        parent = mem.load(mem.load(heap + 8 * (i // 2)) + 8)
        assert parent <= child, f"heap violated at {i}"


def test_pops_return_nondecreasing_costs_eventually(workload):
    """Each pop returns the minimum: with small-biased inserts, the
    accumulated pops must include the smallest initial costs."""
    state = ThreadState(Memory(workload.memory_image), workload.program.entry_pc)
    for _ in run_functional(workload.program, state, 3_000_000):
        pass
    # r28 accumulated all popped costs; it must be nonzero and the heap
    # size must be back at its initial value (one pop per insert).
    initial_tail = workload.memory_image[workload.program.addr_of("heap_tail")]
    final_tail = state.memory.load(workload.program.addr_of("heap_tail"))
    assert final_tail == initial_tail


def test_two_slices_cooperate(workload):
    base = simulate(workload)
    assisted = simulate(workload, "slice")
    assert assisted.ipc > base.ipc
    c = assisted.correlator
    judged = c.correct_overrides + c.incorrect_overrides
    assert judged > 30
    assert c.correct_overrides / judged > 0.95
    # Both slices fork (two fork PCs in the slice table).
    assert assisted.forks_taken > 2 * 0.8 * (workload.region / 330)


def test_pop_slice_covers_both_descent_branches(workload):
    pop = workload.slices[1]
    assert len(pop.pgis) == 2
    assert len(pop.prefetch_for) == 4
    assert pop.live_in_regs == ()  # everything from globals
