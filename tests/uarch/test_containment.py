"""Slice containment guardrails: the fuse, fault quarantine, and the
typed deadlock diagnostic.

The paper's safety contract (§2, §4) is that speculative slices are
pure helpers: a slice that faults, runs away, or scribbles must never
affect architectural correctness. These tests patch a workload with
deliberately misbehaving slices — an infinite loop and a null
dereference — and assert the run completes with unchanged
architectural results while the containment counters record the kills.
"""

import dataclasses

import pytest

from repro.errors import DeadlockError, SimulationError, SliceRunawayError
from repro.isa import Assembler
from repro.slices.hw import SliceTable, is_statically_bounded
from repro.slices.spec import SLICE_CODE_BASE, SliceSpec
from repro.uarch import Core, FOUR_WIDE


def _fused(config, max_slice_insts):
    return dataclasses.replace(
        config,
        slice_hw=dataclasses.replace(
            config.slice_hw, max_slice_insts=max_slice_insts
        ),
    )


def main_program(iterations=300):
    """A store-heavy counted loop; the first loop body PC is the fork
    point, so a slice forks on (nearly) every iteration."""
    asm = Assembler()
    asm.data_words("out", [0] * 8)
    asm.li("r1", iterations)
    asm.li("r2", 0)
    asm.la("r3", "out")
    asm.label("loop")
    fork_pc = asm.add("r2", "r2", imm=1).pc
    asm.and_("r4", "r2", imm=7)
    asm.s8add("r5", "r4", "r3")
    asm.st("r2", "r5")
    asm.sub("r1", "r1", imm=1)
    asm.bgt("r1", "loop")
    asm.halt()
    return asm.build(), fork_pc


def runaway_slice(fork_pc):
    """An infinite loop: no iteration cap, no fault, no exit."""
    asm = Assembler(base_pc=SLICE_CODE_BASE)
    asm.label("spin")
    asm.add("r30", "r30", imm=1)
    asm.br("spin")
    code = asm.build()
    return SliceSpec(
        name="runaway",
        fork_pc=fork_pc,
        code=code,
        entry_pc=code.pc_of("spin"),
        live_in_regs=(),
    )


def faulting_slice(fork_pc):
    """A guaranteed null dereference on the second instruction."""
    asm = Assembler(base_pc=SLICE_CODE_BASE + 0x1000)
    asm.label("slice")
    asm.li("r29", 0)
    asm.ld("r28", "r29")
    asm.halt()
    code = asm.build()
    return SliceSpec(
        name="faulting",
        fork_pc=fork_pc,
        code=code,
        entry_pc=code.pc_of("slice"),
        live_in_regs=(),
    )


@pytest.fixture(scope="module")
def program_and_fork():
    return main_program()


def _run(program, slices=(), config=FOUR_WIDE, **kwargs):
    core = Core(program, config, slices=slices, **kwargs)
    stats = core.run()
    return core, stats


def test_runaway_slice_is_killed_by_the_fuse(program_and_fork):
    program, fork_pc = program_and_fork
    config = _fused(FOUR_WIDE, 64)
    base_core, base = _run(program)
    slice_core, assisted = _run(
        program, slices=(runaway_slice(fork_pc),), config=config
    )
    assert not assisted.hit_cycle_limit
    assert assisted.slices_killed_fuse >= 1
    assert assisted.slices_killed_fault == 0
    # Containment: architectural results are bit-identical to base mode.
    assert assisted.committed == base.committed
    assert assisted.branches_committed == base.branches_committed
    assert assisted.loads_committed == base.loads_committed
    assert assisted.stores_committed == base.stores_committed
    assert base_core.memory.snapshot() == slice_core.memory.snapshot()


def test_fuse_bounds_every_activation(program_and_fork):
    program, fork_pc = program_and_fork
    fuse = 48
    _core, stats = _run(
        program, slices=(runaway_slice(fork_pc),), config=_fused(FOUR_WIDE, fuse)
    )
    # Every activation (killed or squashed) fetched at most `fuse`
    # instructions: the check precedes each fetch.
    assert stats.slices_killed_fuse > 0
    activations = stats.fork_points_fetched - stats.forks_ignored
    assert stats.slice_fetched <= activations * fuse


def test_faulting_slice_is_quarantined(program_and_fork):
    program, fork_pc = program_and_fork
    base_core, base = _run(program)
    slice_core, assisted = _run(program, slices=(faulting_slice(fork_pc),))
    assert assisted.slices_killed_fault >= 1
    assert assisted.slices_killed_fuse == 0
    assert assisted.committed == base.committed
    assert assisted.branch_mispredictions == base.branch_mispredictions
    assert base_core.memory.snapshot() == slice_core.memory.snapshot()


def test_both_misbehaving_slices_together(program_and_fork):
    """Runaway + faulting slices sharing the machine: still contained."""
    program, fork_pc = program_and_fork
    _base_core, base = _run(program)
    _core, stats = _run(
        program,
        slices=(runaway_slice(fork_pc), faulting_slice(fork_pc)),
        config=_fused(FOUR_WIDE, 64),
    )
    assert stats.slices_killed_fuse >= 1
    assert stats.slices_killed_fault >= 1
    assert stats.committed == base.committed


def test_strict_mode_raises_on_runaway(program_and_fork):
    program, fork_pc = program_and_fork
    core = Core(
        program,
        _fused(FOUR_WIDE, 32),
        slices=(runaway_slice(fork_pc),),
        strict_slices=True,
    )
    with pytest.raises(SliceRunawayError) as excinfo:
        core.run()
    assert excinfo.value.slice_name == "runaway"
    assert excinfo.value.fetched >= 32
    assert isinstance(excinfo.value, SimulationError)


def test_fuse_disabled_via_none_lets_the_run_finish_slowly(program_and_fork):
    """With the fuse off, a runaway monopolizes a context forever but
    the main thread still commits its region (ICOUNT keeps it fed)."""
    program, fork_pc = program_and_fork
    _core, stats = _run(
        program,
        slices=(runaway_slice(fork_pc),),
        config=_fused(FOUR_WIDE, None),
    )
    assert stats.slices_killed_fuse == 0
    assert not stats.hit_cycle_limit


def test_well_behaved_slices_never_hit_the_fuse():
    """Real workload slices stay far under the default fuse."""
    from repro.harness.runner import simulate
    from repro.workloads import registry

    stats = simulate(registry.build("vpr", scale=0.05), "slice")
    assert stats.slices_killed_fuse == 0


def test_static_boundedness_analysis(program_and_fork):
    program, fork_pc = program_and_fork
    from repro.workloads import registry

    assert not is_statically_bounded(runaway_slice(fork_pc))
    assert is_statically_bounded(faulting_slice(fork_pc))
    # A real capped-loop slice is statically bounded.
    vpr = registry.build("vpr", scale=0.05)
    assert all(is_statically_bounded(spec) for spec in vpr.slices)
    table = SliceTable()
    table.load(runaway_slice(fork_pc))
    table.load(vpr.slices[0])
    assert table.unbounded_slices == {"runaway"}


def test_deadlock_raises_typed_error_with_diagnostic():
    """The deadlock path raises DeadlockError (still a RuntimeError for
    old callers) carrying the cycle and the empty wake-up sources."""
    asm = Assembler()
    asm.li("r1", 1)
    asm.jr("r2")  # jump to PC 0: fetch runs off the program
    asm.halt()
    core = Core(asm.build(), FOUR_WIDE)
    with pytest.raises(DeadlockError) as excinfo:
        core.run()
    assert isinstance(excinfo.value, RuntimeError)
    assert excinfo.value.cycle is not None
    message = str(excinfo.value)
    assert "ready=0, completions=0, fetchable_threads=[]" in message
    assert f"core deadlock at cycle {excinfo.value.cycle}:" in message
