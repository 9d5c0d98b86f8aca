"""Tests for the fused functional-warming tier (:mod:`repro.uarch.warmfuse`).

The fused tier is an optimization, not a model change: on every
registered workload — slices on and off — a sampled run warmed through
compiled traces must produce the same ``RunStats`` as one warmed by the
per-instruction tier (``fastforward._warm_steps``). The adversarial
cases cover the ways a compiled trace can be entered or left
unexpectedly: an indirect jump into the middle of a block (a trace
starting mid-body), a null-page load inside a compiled trace, and an
optimizer pass cloning instructions out from under compiled traces
(the ``drop_block_caches`` contract).
"""

import dataclasses

import pytest

from repro.arch.interpreter import run_functional
from repro.arch.memory import Memory
from repro.arch.state import ThreadState
from repro.harness import fastforward as ff
from repro.harness import parallel
from repro.harness.fastforward import SnapshotStore, fast_forward, snapshot_digest
from repro.harness.parallel import RunRequest, execute_request
from repro.isa import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch import Core, FOUR_WIDE
from repro.uarch.warmfuse import compile_warm_run, warm_block_table
from repro.workloads import registry
from repro.workloads.base import Workload
from repro.workloads.registry import SLICE_BENCHMARKS


def _stepped_loop(program, state, budget, warm_access, predictor, _hierarchy):
    """``_warm_loop`` with every instruction on the per-instruction tier."""
    return ff._warm_steps(program, state, budget, warm_access, predictor)


def _warm_both_ways(monkeypatch, workload, depth):
    """``(fused, stepped)`` snapshots of *workload* warmed to *depth*."""
    fused = fast_forward(workload, FOUR_WIDE, depth)
    with monkeypatch.context() as patch:
        patch.setattr(ff, "_warm_loop", _stepped_loop)
        stepped = fast_forward(workload, FOUR_WIDE, depth)
    return fused, stepped


def _traces(program) -> dict:
    """The program's compiled warm traces, keyed by entry PC."""
    cache = getattr(program, "_warm_block_cache", None)
    return cache[1] if cache is not None else {}


def _functional_regs(program, steps):
    state = ThreadState(
        Memory(journaling=False), entry_pc=program.entry_pc, journaling=False
    )
    for _ in run_functional(program, state, steps):
        pass
    return list(state.regs.values())


# ----------------------------------------------------------------------
# Differential: every workload, slices on and off
# ----------------------------------------------------------------------

_CASES = [(name, "base") for name in registry.all_names()] + [
    (name, "slice") for name in SLICE_BENCHMARKS
]


@pytest.mark.parametrize("workload,mode", _CASES)
def test_fused_matches_instruction_tier(workload, mode, monkeypatch):
    request = RunRequest(
        workload=workload, scale=0.05, mode=mode,
        fast_forward=2_000, sample=500, sample_regions=0,
    )
    store = SnapshotStore(enabled=False)
    monkeypatch.setattr(parallel, "_last_workload", None)
    fused = execute_request(request, snapshots=store)
    built = parallel._last_workload[1]
    assert _traces(built.program)  # traces ran
    # The warm images themselves, not only the window they feed.
    warm_fused, warm_stepped = _warm_both_ways(monkeypatch, built, 2_000)
    assert snapshot_digest(warm_fused) == snapshot_digest(warm_stepped)

    monkeypatch.setattr(parallel, "_last_workload", None)
    monkeypatch.setattr(ff, "_warm_loop", _stepped_loop)
    stepped = execute_request(request, snapshots=store)
    assert not _traces(parallel._last_workload[1].program)
    assert fused.ff_insts > 0
    assert dataclasses.asdict(fused) == dataclasses.asdict(stepped)


# ----------------------------------------------------------------------
# Adversarial: a trace entered mid-block
# ----------------------------------------------------------------------


def _indirect_alternator(leader_pc=0, mid_pc=0):
    """A loop whose ``jr`` alternates between a block leader and a PC
    four instructions *inside* that block. Warming compiles a second
    trace at the mid-block PC; in detail, the indirect predictor keeps
    serving the stale target, so wrong-path fetch regularly enters the
    block mid-body."""
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


def test_mid_block_wrong_path_entry_is_identical(monkeypatch):
    probe = _indirect_alternator()
    leader = probe.labels["leader"]
    mid = leader + 4 * INSTRUCTION_BYTES
    assert probe.at(mid) is not None and not probe.at(mid).is_branch

    program = _indirect_alternator(leader, mid)
    workload = Workload(
        name="alternator", program=program, memory_image={}, region=6_000
    )
    fused, stepped = _warm_both_ways(monkeypatch, workload, 5_000)
    assert snapshot_digest(fused) == snapshot_digest(stepped)
    assert {leader, mid} <= set(_traces(program))

    core = Core(program, FOUR_WIDE)
    stats = core.run()
    # The alternating target defeats the indirect predictor, so fetch
    # really does run wrong paths into the block body — and recovers.
    assert stats.branch_mispredictions > 50
    assert core._main.state.regs.values() == _functional_regs(program, 10_000)


# ----------------------------------------------------------------------
# Adversarial: faulting load inside a compiled trace
# ----------------------------------------------------------------------


def _faulting_loop():
    """A hot loop whose body contains a null-page load: the trace
    compiles (the loop unrolls into it) and every iteration takes the
    inline null-page path instead of falling back to the per-instruction
    tier."""
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


def test_faulting_block_deopts_and_stays_identical(monkeypatch):
    program = _faulting_loop()
    workload = Workload(
        name="faulting", program=program, memory_image={}, region=1_000
    )
    fused, stepped = _warm_both_ways(monkeypatch, workload, 1_000)
    assert snapshot_digest(fused) == snapshot_digest(stepped)
    assert program.entry_pc in _traces(program)
    assert fused.regs[2] == 180 and fused.regs[3] == 0

    core = Core(program, FOUR_WIDE)
    core.run()
    assert core._main.state.regs.values() == _functional_regs(program, 1_000)


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
    """A pass that clones an instruction in place must be able to rely
    on ``drop_block_caches`` alone: afterwards the warming tier's
    compiled traces (keyed on ``block_version``) and the detailed
    core's instruction closures (a clone carries none) both track the
    *new* semantics, exactly as the functional oracle does."""
    program = _hot_loop()
    workload = Workload(
        name="hot-loop", program=program, memory_image={}, region=400
    )
    depth = 200
    before = fast_forward(workload, FOUR_WIDE, depth)

    index = next(
        i for i, inst in enumerate(program.instructions)
        if inst.op is Opcode.ADD
    )
    old = program.instructions[index]
    clone = Instruction(op=Opcode.ADD, rd=old.rd, ra=old.ra, imm=3, pc=old.pc)
    program.instructions[index] = clone
    program._by_pc[old.pc] = clone
    program.drop_block_caches()

    after = fast_forward(workload, FOUR_WIDE, depth)
    assert after.regs != before.regs  # the mutation is observable
    assert list(after.regs) == _functional_regs(program, depth)

    core = Core(program, FOUR_WIDE)
    core.run()
    assert core._main.state.regs.values()[1] == 60 * (5 + 3)


def test_block_version_bump_rebuilds_core_state():
    """A ``block_version`` bump hands the warming tier a fresh, empty
    trace table; the stale one is never consulted again."""
    program = _hot_loop()
    table = warm_block_table(program, 6, 63)
    table[program.entry_pc] = compile_warm_run(program, program.entry_pc, 6, 63)
    assert warm_block_table(program, 6, 63) is table
    version_before = program.block_version

    program.drop_block_caches()
    fresh = warm_block_table(program, 6, 63)
    assert program.block_version > version_before
    assert fresh is not table and not fresh
    assert program._warm_block_cache[0] == (program.block_version, 6, 63)
