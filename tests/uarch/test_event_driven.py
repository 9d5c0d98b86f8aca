"""Tests for the event-driven cycle-skipping loop.

The differential guarantee (skipping vs. stepping is bit-identical on
every registered workload) lives in ``tests/harness/test_determinism``;
this module unit-tests the skip machinery itself: the skip-target
decision, bulk CPI attribution, and the event-aware deadlock
diagnostic.
"""

import heapq
import types

import pytest

from repro.isa import Assembler
from repro.uarch import Core, FOUR_WIDE
from repro.uarch.smt import any_fetchable


def make_core(builder=None, **kw):
    asm = Assembler()
    if builder is None:
        asm.li("r1", 1)
        asm.halt()
    else:
        builder(asm)
    return Core(asm.build(), FOUR_WIDE, **kw)


def pointer_chase(asm):
    """A scattered pointer chase: long dependent-miss chains, so the
    event-driven loop has large idle spans to jump over."""
    chain = [0x10000 + 8 * ((i * 7919) % 4096) for i in range(300)]
    for addr, nxt in zip(chain, chain[1:]):
        asm._data[addr] = nxt
    asm._data[chain[-1]] = 0
    asm.li("r1", chain[0])
    asm.label("loop")
    asm.ld("r1", "r1")
    asm.bne("r1", "loop")
    asm.halt()


# ----------------------------------------------------------------------
# _skip_target
# ----------------------------------------------------------------------


def test_skip_target_steps_while_a_thread_can_fetch():
    core = make_core()
    assert any_fetchable(core.threads)
    assert core._skip_target(1000) == core.cycle + 1


def test_skip_target_steps_when_fork_activates_helper_context():
    # A fork makes the helper context fetchable the moment it fires, so
    # fetchability — not a separate timer — is the fork wake condition.
    core = make_core()
    core._main.fetch_stalled = True
    heapq.heappush(core._completions, (50, 0, None))
    helper = core.threads[1]
    helper.active = True
    helper.fetch_stalled = False
    assert core._skip_target(1000) == core.cycle + 1
    helper.active = False
    assert core._skip_target(1000) == 50


def test_skip_target_jumps_to_completion_and_clamps_to_limit():
    core = make_core()
    core._main.fetch_stalled = True
    heapq.heappush(core._completions, (50, 0, None))
    assert core._skip_target(1000) == 50
    assert core._skip_target(30) == 30


def test_skip_target_steps_for_imminent_event():
    core = make_core()
    core._main.fetch_stalled = True
    heapq.heappush(core._ready, (core.cycle + 1, 0, None))
    assert core._skip_target(1000) == core.cycle + 1


def test_skip_target_steps_while_head_awaits_commit_bandwidth():
    core = make_core()
    core._main.fetch_stalled = True
    heapq.heappush(core._completions, (50, 0, None))
    head = types.SimpleNamespace(completed=True, squashed=False)
    core._main.rob.append(head)
    assert core._skip_target(1000) == core.cycle + 1
    head.completed = False
    assert core._skip_target(1000) == 50


def test_skip_target_spins_to_ceiling_when_idle_but_not_deadlocked():
    # Nothing in flight, nothing fetchable, but a live ROB entry (e.g.
    # an issued-but-never-completing stub): stepping would spin to the
    # cycle limit, so the skip jumps straight there.
    core = make_core()
    core._main.fetch_stalled = True
    core._main.rob.append(
        types.SimpleNamespace(completed=False, squashed=False)
    )
    assert not core._is_deadlocked()
    assert core._skip_target(1000) == 1000


# ----------------------------------------------------------------------
# Skipping end-to-end
# ----------------------------------------------------------------------


def test_pointer_chase_skips_most_cycles():
    stats = make_core(pointer_chase).run()
    assert stats.skip_events > 0
    assert stats.cycles_skipped > stats.cycles // 3


def test_stepping_mode_never_skips():
    stats = make_core(pointer_chase, event_driven=False).run()
    assert stats.cycles_skipped == 0
    assert stats.skip_events == 0


def test_bulk_accounting_matches_stepping():
    skip = make_core(pointer_chase, cycle_accounting=True).run()
    step = make_core(
        pointer_chase, cycle_accounting=True, event_driven=False
    ).run()
    assert skip.cycles == step.cycles
    assert skip.cycle_breakdown == step.cycle_breakdown
    assert skip.cycles_skipped > 0
    assert skip.cycle_breakdown.get("memory", 0) > skip.cycles // 2


def test_cycle_limit_identical_between_modes():
    skip = make_core(pointer_chase).run(max_cycles=500)
    step = make_core(pointer_chase, event_driven=False).run(max_cycles=500)
    assert skip.hit_cycle_limit and step.hit_cycle_limit
    assert skip.cycles == step.cycles
    assert skip.committed == step.committed


# ----------------------------------------------------------------------
# Deadlock detection
# ----------------------------------------------------------------------


@pytest.mark.parametrize("event_driven", [True, False])
def test_deadlock_detected_with_event_state_in_message(event_driven):
    asm = Assembler()
    asm.li("r1", 1)  # no HALT: fetch runs off the program and stalls
    core = Core(asm.build(), FOUR_WIDE, event_driven=event_driven)
    with pytest.raises(
        RuntimeError, match=r"ready=0, completions=0, fetchable_threads=\[\]"
    ):
        core.run()


def test_deadlock_check_is_event_aware():
    core = make_core()
    core._main.fetch_stalled = True
    assert core._is_deadlocked()
    heapq.heappush(core._completions, (50, 0, None))
    assert not core._is_deadlocked()


@pytest.mark.parametrize(
    "value, event_driven", [("1", False), ("0", True), ("", True)]
)
def test_no_skip_env_flag(monkeypatch, value, event_driven):
    """``REPRO_NO_SKIP`` turns cycle skipping off; "0" leaves it on."""
    from repro.harness.parallel import RunRequest

    monkeypatch.setenv("REPRO_NO_SKIP", value)
    assert RunRequest(workload="vpr", scale=0.05).event_driven is event_driven
