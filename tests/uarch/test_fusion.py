"""Tests for the fused basic-block execution tier.

The fused tier is an optimization, not a model change: on every
registered workload — slices on and off — it must produce the same
``RunStats`` as the per-instruction tier, bar its own meta counters.
The adversarial cases cover the ways a fused segment can be entered or
left unexpectedly: wrong-path entry in the middle of a block (stale
indirect-predictor targets), a faulting load inside a compiled segment
(deopt mid-group), and an optimizer pass cloning instructions out from
under compiled closures (the ``drop_block_caches`` contract).
"""

import copy
import dataclasses

import pytest

from repro.harness.cache import fingerprint
from repro.harness.parallel import RunRequest, execute_request
from repro.isa import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch import Core, FOUR_WIDE
from repro.uarch.fusion import FUSABLE_OPS, fusion_default
from repro.uarch.stats import SIMULATOR_META_FIELDS, RunStats
from repro.workloads import registry
from repro.workloads.registry import SLICE_BENCHMARKS


def assert_stats_identical(
    a: RunStats, b: RunStats, ignore: frozenset = SIMULATOR_META_FIELDS
) -> None:
    for field in dataclasses.fields(RunStats):
        if field.name in ignore:
            continue
        va, vb = getattr(a, field.name), getattr(b, field.name)
        assert va == vb, f"RunStats.{field.name} differs: {va!r} != {vb!r}"


# ----------------------------------------------------------------------
# Differential: every workload, slices on and off
# ----------------------------------------------------------------------

_CASES = [(name, "base") for name in registry.all_names()] + [
    (name, "slice") for name in SLICE_BENCHMARKS
]


@pytest.mark.parametrize("workload,mode", _CASES)
def test_fused_matches_instruction_tier(workload, mode):
    fused = execute_request(
        RunRequest(workload=workload, scale=0.05, mode=mode, fused_blocks=True)
    )
    unfused = execute_request(
        RunRequest(workload=workload, scale=0.05, mode=mode, fused_blocks=False)
    )
    assert_stats_identical(fused, unfused)
    assert unfused.blocks_compiled == 0 and unfused.block_deopts == 0


# ----------------------------------------------------------------------
# Adversarial: mid-block wrong-path entry
# ----------------------------------------------------------------------


def _indirect_alternator(leader_pc=0, mid_pc=0):
    """A loop whose ``jr`` alternates between a block leader and a PC
    four instructions *inside* that block. The indirect predictor keeps
    serving the stale target, so wrong-path fetch regularly enters the
    block mid-body — never at a compiled segment's entry."""
    asm = Assembler()
    asm.li("r1", 0)  # accumulator
    asm.li("r7", 400)  # trip count
    asm.li("r8", 12345)  # LCG state: the target must look random
    asm.li("r2", leader_pc)
    asm.li("r3", mid_pc)
    asm.label("top")
    asm.mul("r8", "r8", imm=1103515245)
    asm.add("r8", "r8", imm=12345)
    asm.srl("r10", "r8", imm=13)
    asm.and_("r10", "r10", imm=1)
    asm.mov("r6", "r2")
    asm.cmovne("r6", "r10", "r3")  # ~half the trips jump mid-block
    asm.sub("r7", "r7", imm=1)
    asm.beq("r7", "end")
    asm.jr("r6")
    asm.label("leader")
    for _ in range(8):
        asm.add("r1", "r1", imm=1)
    asm.br("top")
    asm.label("end")
    asm.halt()
    return asm.build()


def test_mid_block_wrong_path_entry_is_identical():
    probe = _indirect_alternator()
    leader = probe.labels["leader"]
    mid = leader + 4 * INSTRUCTION_BYTES
    assert probe.at(mid) is not None and not probe.at(mid).is_branch

    fused_prog = _indirect_alternator(leader, mid)
    unfused_prog = _indirect_alternator(leader, mid)
    fused = Core(fused_prog, FOUR_WIDE, fused_blocks=True).run()
    unfused = Core(unfused_prog, FOUR_WIDE, fused_blocks=False).run()
    assert_stats_identical(fused, unfused)
    assert fused.blocks_compiled > 0
    # The alternating target defeats the indirect predictor, so fetch
    # really does run wrong paths into the block body.
    assert fused.branch_mispredictions > 50


# ----------------------------------------------------------------------
# Adversarial: faulting load inside a compiled segment
# ----------------------------------------------------------------------


def _faulting_loop():
    """A hot loop whose body block contains a null-page load: the
    segment compiles (the block is straight-line) but every execution
    faults mid-group and must deopt to the instruction tier."""
    asm = Assembler()
    asm.li("r1", 0x20)  # inside the null page
    asm.li("r2", 0)
    asm.li("r9", 60)
    asm.label("loop")
    asm.add("r2", "r2", imm=1)
    asm.add("r2", "r2", imm=1)
    asm.ld("r3", "r1")  # faults
    asm.add("r2", "r2", imm=1)
    asm.sub("r9", "r9", imm=1)
    asm.bgt("r9", "loop")
    asm.halt()
    return asm.build()


def test_faulting_block_deopts_and_stays_identical():
    fused = Core(_faulting_loop(), FOUR_WIDE, fused_blocks=True).run()
    unfused = Core(_faulting_loop(), FOUR_WIDE, fused_blocks=False).run()
    assert_stats_identical(fused, unfused)
    assert fused.blocks_compiled > 0
    # Once hot, every iteration enters the segment and faults out of it.
    assert fused.block_deopts > 20


# ----------------------------------------------------------------------
# Adversarial: optimizer-style clone + drop_block_caches
# ----------------------------------------------------------------------


def _hot_loop(body=6, trips=60):
    asm = Assembler()
    asm.li("r1", 0)
    asm.li("r9", trips)
    asm.label("loop")
    for _ in range(body):
        asm.add("r1", "r1", imm=1)
    asm.sub("r9", "r9", imm=1)
    asm.bgt("r9", "loop")
    asm.halt()
    return asm.build()


def test_optimizer_clone_invalidates_compiled_segments():
    """A pass that clones/renames instructions in place must be able to
    rely on ``drop_block_caches`` alone: after the call, no stale fused
    closure may execute, and fused results must track the *new*
    semantics bit-for-bit."""
    prog = _hot_loop()
    original = Core(prog, FOUR_WIDE, fused_blocks=True).run()
    assert original.blocks_compiled > 0

    # Clone one body instruction and change its opcode to MUL (latency
    # 7 vs 1) — the timing change is visible in RunStats.cycles, so a
    # stale closure would be caught, not silently tolerated.
    victim_index = next(
        i
        for i, inst in enumerate(prog.instructions)
        if inst.op is Opcode.ADD and inst.rd == 1
    )
    old = prog.instructions[victim_index]
    clone = Instruction(
        op=Opcode.MUL, rd=old.rd, ra=old.ra, imm=1, pc=old.pc
    )
    assert clone.op in FUSABLE_OPS
    prog.instructions[victim_index] = clone
    prog._by_pc[old.pc] = clone
    prog.drop_block_caches()

    fused = Core(prog, FOUR_WIDE, fused_blocks=True).run()
    unfused = Core(prog, FOUR_WIDE, fused_blocks=False).run()
    assert_stats_identical(fused, unfused)
    assert fused.cycles != original.cycles  # the mutation is observable
    assert fused.blocks_compiled > 0  # recompiled, not stale


def test_block_version_bump_rebuilds_core_state():
    """An existing Core notices the version bump on its next compile
    probe and drops everything it had compiled."""
    prog = _hot_loop()
    core = Core(prog, FOUR_WIDE, fused_blocks=True)
    core.run()
    assert core._fused
    version_before = core._fuse_version
    prog.drop_block_caches()
    assert not prog._segment_cache
    core._compile_fused(prog.entry_pc)
    assert core._fuse_version == prog.block_version > version_before
    assert not core._fused  # stale segments gone; entry not hot yet
    assert core._segment_heat == {prog.entry_pc: 1}  # heat restarted


def test_clone_via_copy_preserves_fusability():
    """``copy.copy`` keeps operands but drops the compiled-executor
    cache — the per-instruction contract the block tier mirrors."""
    prog = _hot_loop()
    inst = prog.instructions[2]
    clone = copy.copy(inst)
    assert clone.op is inst.op and clone._exec is None


# ----------------------------------------------------------------------
# Escape hatches
# ----------------------------------------------------------------------


def test_core_flag_disables_fusion():
    stats = Core(_hot_loop(), FOUR_WIDE, fused_blocks=False).run()
    assert stats.blocks_compiled == 0 and stats.block_deopts == 0


def test_env_flag_disables_fusion(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FUSE", "1")
    assert fusion_default() is False
    stats = Core(_hot_loop(), FOUR_WIDE).run()
    assert stats.blocks_compiled == 0
    # "0" and "" leave the tier on, like an unset variable.
    for value in ("0", ""):
        monkeypatch.setenv("REPRO_NO_FUSE", value)
        assert fusion_default() is True
        assert RunRequest(workload="vpr", scale=0.05).fused_blocks is True
    monkeypatch.delenv("REPRO_NO_FUSE")
    assert fusion_default() is True


def test_run_request_fingerprints_fusion_mode():
    """Cached runs must not be shared across fusion modes — the meta
    counters (blocks_compiled / block_deopts) differ."""
    on = RunRequest(workload="vpr", scale=0.05, mode="slice", fused_blocks=True)
    off = RunRequest(
        workload="vpr", scale=0.05, mode="slice", fused_blocks=False
    )
    assert fingerprint(on, "x") != fingerprint(off, "x")
