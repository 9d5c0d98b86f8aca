"""Tests for the prediction correlator (Section 5).

Includes a faithful replay of the paper's Figure 9 scenario: a
conditionally-executed problem branch inside a loop, with loop-iteration
kills at block F and a slice kill at block G, along the fetch path
A B C F B C D F B G.
"""

import pytest

from repro.isa import Assembler
from repro.slices.correlator import PredictionCorrelator, SlotState
from repro.slices.spec import KillKind, KillSpec, PGISpec, SliceSpec
from repro.uarch.config import SliceHardwareConfig

BRANCH_PC = 0x2000  # the problem branch (block D)
LOOP_KILL_PC = 0x2100  # block F (loop back-edge target)
SLICE_KILL_PC = 0x2200  # block G (loop exit)


def figure8_slice(n_pgis=3):
    """A slice generating one prediction per loop iteration (Figure 8)."""
    asm = Assembler(base_pc=0x9000)
    asm.label("entry")
    pgi_insts = [asm.cmplt("r1", "r2", imm=0) for _ in range(n_pgis)]
    asm.halt()
    code = asm.build()
    return SliceSpec(
        name="fig8",
        fork_pc=0x1000,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(2,),
        pgis=tuple(
            PGISpec(slice_pc=inst.pc, branch_pc=BRANCH_PC) for inst in pgi_insts
        ),
        kills=(
            KillSpec(kill_pc=LOOP_KILL_PC, kind=KillKind.LOOP),
            KillSpec(kill_pc=SLICE_KILL_PC, kind=KillKind.SLICE),
        ),
    )


def forked_correlator(n_pgis=3, instance_id=0, directions=None):
    """Correlator with one forked instance whose PGIs have all executed.

    ``directions`` sets each PGI's computed direction; a ``None`` element
    leaves that PGI fetched but not yet executed (EMPTY slot).
    """
    if directions is not None:
        n_pgis = len(directions)
    spec = figure8_slice(n_pgis)
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, instance_id)
    slots = []
    for i, pgi in enumerate(spec.pgis):
        slot = correlator.on_pgi_fetched(spec, pgi, instance_id)
        slots.append(slot)
        if directions is None or directions[i] is not None:
            direction = True if directions is None else directions[i]
            correlator.on_pgi_executed(slot, direction)
    return correlator, spec, slots


def test_figure9_walkthrough():
    """The exact event sequence of Figure 9(b), path ABCFBCDFBG."""
    directions = [True, False, True]
    correlator, spec, slots = forked_correlator(directions=directions)
    p1, p2, p3 = slots
    vn = 100

    # Iteration 1: block D not fetched; block F fetched -> P1 killed.
    assert correlator.on_kill_fetched(LOOP_KILL_PC, vn) == 1
    assert p1.killed and not p2.killed

    # Iteration 2: block D fetched -> matched with P2 (second iteration).
    match = correlator.on_branch_fetched(BRANCH_PC, vn + 1)
    assert match is not None
    assert match.slot is p2
    assert match.direction is False

    # Block F fetched -> P2 killed.
    assert correlator.on_kill_fetched(LOOP_KILL_PC, vn + 2) == 1
    assert p2.killed

    # Loop exits (block G) -> remaining predictions killed.
    assert correlator.on_kill_fetched(SLICE_KILL_PC, vn + 3) == 1
    assert p3.killed
    assert not any(s.live for s in correlator.queue_for(BRANCH_PC))


def test_full_match_overrides_with_slice_direction():
    correlator, spec, slots = forked_correlator(directions=[False, True, True])
    match = correlator.on_branch_fetched(BRANCH_PC, 1)
    assert match.direction is False
    assert match.slot is slots[0]


def test_unmatched_branch_pc_returns_none():
    correlator, *_ = forked_correlator()
    assert correlator.on_branch_fetched(0xBEEF, 1) is None


def test_empty_match_then_late_binding():
    """Prediction arrives after the branch fetch (Section 5.3)."""
    correlator, spec, slots = forked_correlator(directions=[None])
    slot = slots[0]
    assert slot.state is SlotState.EMPTY
    match = correlator.on_branch_fetched(BRANCH_PC, 5)
    assert match.direction is None  # traditional predictor must be used
    correlator.bind_late(slot, vn=5, used_direction=True)
    assert slot.state is SlotState.LATE
    # PGI executes and disagrees: late mismatch -> early resolution.
    assert correlator.on_pgi_executed(slot, direction=False) is True
    assert correlator.stats.late_mismatches == 1


def test_late_agreement_is_not_a_mismatch():
    correlator, spec, slots = forked_correlator(directions=[None])
    slot = slots[0]
    correlator.on_branch_fetched(BRANCH_PC, 5)
    correlator.bind_late(slot, vn=5, used_direction=True)
    assert correlator.on_pgi_executed(slot, direction=True) is False


def test_late_slot_does_not_match_again():
    correlator, spec, slots = forked_correlator(n_pgis=1, directions=[None])
    slot = slots[0]
    correlator.on_branch_fetched(BRANCH_PC, 5)
    correlator.bind_late(slot, 5, True)
    assert correlator.on_branch_fetched(BRANCH_PC, 6) is None


def test_killed_slots_are_skipped_not_removed():
    correlator, spec, slots = forked_correlator()
    correlator.on_kill_fetched(LOOP_KILL_PC, 10)
    match = correlator.on_branch_fetched(BRANCH_PC, 11)
    assert match.slot is slots[1]
    assert len(correlator.queue_for(BRANCH_PC)) == 3  # still allocated


def test_squashed_kill_is_restored():
    """Section 5.2: squashing the killer clears the kill bit."""
    correlator, spec, slots = forked_correlator()
    correlator.on_kill_fetched(LOOP_KILL_PC, 50)
    assert slots[0].killed
    correlator.on_squash(min_squashed_vn=50)
    assert not slots[0].killed
    assert correlator.stats.kills_restored == 1
    # The restored prediction is matchable again.
    assert correlator.on_branch_fetched(BRANCH_PC, 51).slot is slots[0]


def test_kill_older_than_squash_survives():
    correlator, spec, slots = forked_correlator()
    correlator.on_kill_fetched(LOOP_KILL_PC, 50)
    correlator.on_squash(min_squashed_vn=60)
    assert slots[0].killed


def test_squash_reverts_late_binding():
    correlator, spec, slots = forked_correlator(directions=[None])
    slot = slots[0]
    correlator.on_branch_fetched(BRANCH_PC, 30)
    correlator.bind_late(slot, 30, used_direction=True)
    correlator.on_squash(min_squashed_vn=30)
    assert slot.state is SlotState.EMPTY
    assert slot.consumer_vn is None
    # If the value has arrived meanwhile, it reverts to FULL instead.
    correlator.on_branch_fetched(BRANCH_PC, 31)
    correlator.bind_late(slot, 31, used_direction=False)
    correlator.on_pgi_executed(slot, True)
    correlator.on_squash(min_squashed_vn=31)
    assert slot.state is SlotState.FULL


def test_retire_deallocates_killed_slots():
    correlator, spec, slots = forked_correlator()
    correlator.on_kill_fetched(LOOP_KILL_PC, 10)
    correlator.on_retire(vn=10)
    assert slots[0] not in correlator.queue_for(BRANCH_PC)
    # Deallocated slots can no longer be restored by a squash.
    correlator.on_squash(min_squashed_vn=5)
    assert slots[0].dead


def test_retire_does_not_deallocate_unretired_kills():
    correlator, spec, slots = forked_correlator()
    correlator.on_kill_fetched(LOOP_KILL_PC, 10)
    correlator.on_retire(vn=9)
    assert slots[0] in correlator.queue_for(BRANCH_PC)


def test_fork_squash_discards_all_instance_predictions():
    correlator, spec, slots = forked_correlator()
    correlator.on_fork_squashed(0)
    assert correlator.queue_for(BRANCH_PC) == []
    assert correlator.on_branch_fetched(BRANCH_PC, 1) is None


def test_slot_overflow_is_dropped_and_counted():
    config = SliceHardwareConfig(predictions_per_branch=2)
    spec = figure8_slice(n_pgis=3)
    correlator = PredictionCorrelator(config)
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    results = [correlator.on_pgi_fetched(spec, pgi, 0) for pgi in spec.pgis]
    assert results[2] is None
    assert correlator.stats.slot_overflow_drops == 1


def test_skip_first_loop_kill():
    """Back-edge-target kill blocks skip their first instance (5.1)."""
    spec_base = figure8_slice(n_pgis=2)
    spec = SliceSpec(
        name="skip",
        fork_pc=spec_base.fork_pc,
        code=spec_base.code,
        entry_pc=spec_base.entry_pc,
        live_in_regs=spec_base.live_in_regs,
        pgis=spec_base.pgis,
        kills=(
            KillSpec(LOOP_KILL_PC, KillKind.LOOP, skip_first=True),
            KillSpec(SLICE_KILL_PC, KillKind.SLICE),
        ),
    )
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    slots = [correlator.on_pgi_fetched(spec, pgi, 0) for pgi in spec.pgis]
    for slot in slots:
        correlator.on_pgi_executed(slot, True)
    # First fetch of the kill block: skipped.
    assert correlator.on_kill_fetched(LOOP_KILL_PC, 10) == 0
    assert not slots[0].killed
    # Second fetch kills.
    assert correlator.on_kill_fetched(LOOP_KILL_PC, 11) == 1
    assert slots[0].killed


def test_skip_first_restored_on_squash():
    spec_base = figure8_slice(n_pgis=2)
    spec = SliceSpec(
        name="skip2",
        fork_pc=spec_base.fork_pc,
        code=spec_base.code,
        entry_pc=spec_base.entry_pc,
        live_in_regs=spec_base.live_in_regs,
        pgis=spec_base.pgis,
        kills=(KillSpec(LOOP_KILL_PC, KillKind.LOOP, skip_first=True),),
    )
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    slots = [correlator.on_pgi_fetched(spec, pgi, 0) for pgi in spec.pgis]
    for slot in slots:
        correlator.on_pgi_executed(slot, True)
    correlator.on_kill_fetched(LOOP_KILL_PC, 10)  # consumes the skip
    correlator.on_squash(min_squashed_vn=10)  # skip consumption undone
    assert correlator.on_kill_fetched(LOOP_KILL_PC, 20) == 0  # skipped again
    assert correlator.on_kill_fetched(LOOP_KILL_PC, 21) == 1


def test_loop_kills_target_oldest_instance_first():
    spec = figure8_slice(n_pgis=1)
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    correlator.on_fork(spec, 1)
    slot_a = correlator.on_pgi_fetched(spec, spec.pgis[0], 0)
    slot_b = correlator.on_pgi_fetched(spec, spec.pgis[0], 1)
    correlator.on_pgi_executed(slot_a, True)
    correlator.on_pgi_executed(slot_b, False)
    correlator.on_kill_fetched(LOOP_KILL_PC, 10)
    assert slot_a.killed
    assert not slot_b.killed


def test_slice_kill_finishes_instance_and_next_kills_hit_successor():
    spec = figure8_slice(n_pgis=1)
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    correlator.on_fork(spec, 1)
    slot_a = correlator.on_pgi_fetched(spec, spec.pgis[0], 0)
    slot_b = correlator.on_pgi_fetched(spec, spec.pgis[0], 1)
    correlator.on_pgi_executed(slot_a, True)
    correlator.on_pgi_executed(slot_b, True)
    correlator.on_kill_fetched(SLICE_KILL_PC, 10)  # kills instance 0
    assert slot_a.killed and not slot_b.killed
    correlator.on_kill_fetched(LOOP_KILL_PC, 11)  # now targets instance 1
    assert slot_b.killed


def test_branch_queue_capacity_enforced():
    config = SliceHardwareConfig(branch_queue_entries=1)
    correlator = PredictionCorrelator(config)
    asm = Assembler(base_pc=0x9000)
    asm.label("entry")
    first = asm.cmplt("r1", "r2", imm=0)
    second = asm.cmplt("r3", "r2", imm=0)
    asm.halt()
    code = asm.build()
    spec = SliceSpec(
        name="wide",
        fork_pc=0x1000,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(),
        pgis=(
            PGISpec(first.pc, branch_pc=0x2000),
            PGISpec(second.pc, branch_pc=0x2004),
        ),
    )
    with pytest.raises(ValueError, match="branch queue full"):
        correlator.register_slice(spec)


def test_override_outcome_accounting():
    correlator, spec, slots = forked_correlator()
    match = correlator.on_branch_fetched(BRANCH_PC, 1)
    correlator.record_override_outcome(match.slot, correct=True)
    correlator.record_override_outcome(match.slot, correct=False)
    assert correlator.stats.correct_overrides == 1
    assert correlator.stats.incorrect_overrides == 1


def test_pgi_executed_on_dead_slot_is_ignored():
    correlator, spec, slots = forked_correlator(directions=[None, None, None])
    correlator.on_fork_squashed(0)
    assert correlator.on_pgi_executed(slots[0], True) is False
    assert correlator.stats.predictions_generated == 0


def test_value_prediction_queue_full_match():
    """Value-prediction extension: FULL heads supply values."""
    from repro.slices.spec import PGIKind

    asm = Assembler(base_pc=0x9100)
    asm.label("entry")
    load = asm.ld("r1", "r2")
    asm.halt()
    code = asm.build()
    spec = SliceSpec(
        name="vp",
        fork_pc=0x1000,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(2,),
        pgis=(PGISpec(load.pc, branch_pc=0x2400, kind=PGIKind.VALUE),),
        kills=(KillSpec(SLICE_KILL_PC, KillKind.SLICE),),
    )
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    slot = correlator.on_pgi_fetched(spec, spec.pgis[0], 0)
    # EMPTY head: no usable value, counted as late.
    assert correlator.on_load_fetched(0x2400, 1) is None
    assert correlator.stats.value_predictions_late == 1
    correlator.on_value_pgi_executed(slot, 0xCAFE)
    assert correlator.stats.value_predictions_generated == 1
    match = correlator.on_load_fetched(0x2400, 2)
    assert match is not None and match.value == 0xCAFE
    correlator.record_value_outcome(match.slot, correct=True)
    assert correlator.stats.correct_value_overrides == 1
    # Kills apply to value slots like any other.
    correlator.on_kill_fetched(SLICE_KILL_PC, 3)
    assert slot.killed


def test_value_pgi_on_dead_slot_is_ignored():
    from repro.slices.spec import PGIKind

    asm = Assembler(base_pc=0x9200)
    asm.label("entry")
    load = asm.ld("r1", "r2")
    asm.halt()
    code = asm.build()
    spec = SliceSpec(
        name="vp2",
        fork_pc=0x1000,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(2,),
        pgis=(PGISpec(load.pc, branch_pc=0x2500, kind=PGIKind.VALUE),),
    )
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, 0)
    slot = correlator.on_pgi_fetched(spec, spec.pgis[0], 0)
    correlator.on_fork_squashed(0)
    correlator.on_value_pgi_executed(slot, 1)
    assert correlator.stats.value_predictions_generated == 0
