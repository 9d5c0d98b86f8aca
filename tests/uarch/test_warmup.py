"""Tests for the warm-up methodology (Section 6: "We warm-up the
caches and branch predictors by running 100 million instructions")."""

from repro.isa import Assembler
from repro.uarch import Core, FOUR_WIDE
from repro.workloads import vpr


def loop_program(iterations=600):
    asm = Assembler()
    asm.data_space("arr", 2048)
    asm.li("r1", iterations)
    asm.la("r2", "arr")
    asm.li("r3", 0)
    asm.label("loop")
    asm.ld("r4", "r2")
    asm.add("r3", "r3", rb="r4")
    asm.add("r2", "r2", imm=64)
    asm.and_("r5", "r1", imm=0x7F)
    asm.bne("r5", "skip")
    asm.la("r2", "arr")  # wrap
    asm.label("skip")
    asm.sub("r1", "r1", imm=1)
    asm.bgt("r1", "loop")
    asm.halt()
    return asm.build()


def test_warmup_resets_statistics_but_not_state():
    prog = loop_program()
    cold = Core(prog, FOUR_WIDE, region=2000).run()
    warm = Core(prog, FOUR_WIDE, region=2000, warmup=1500).run()
    # Post-warmup window: counters describe only the measured region.
    assert warm.committed == 2000
    assert warm.cycles < cold.cycles
    # Warm caches: the wrapped array stays resident, so the measured
    # window has (almost) no cold misses.
    assert warm.load_misses < cold.load_misses


def test_warmup_improves_measured_branch_accuracy():
    prog = loop_program()
    cold = Core(prog, FOUR_WIDE, region=1200).run()
    warm = Core(prog, FOUR_WIDE, region=1200, warmup=2000).run()
    assert cold.branches_committed and warm.branches_committed
    assert (
        warm.branch_mispredictions / warm.branches_committed
        <= cold.branch_mispredictions / cold.branches_committed
    )


def test_warmup_with_slices_keeps_instances_consistent():
    workload = vpr.build(scale=0.1)
    stats = Core(
        workload.program,
        FOUR_WIDE,
        slices=workload.slices,
        memory_image=workload.memory_image,
        region=8000,
        warmup=5000,
    ).run()
    assert stats.committed == 8000
    c = stats.correlator
    judged = c.correct_overrides + c.incorrect_overrides
    assert judged > 20
    assert c.correct_overrides / judged > 0.95


def test_zero_warmup_is_default_behavior():
    prog = loop_program()
    a = Core(prog, FOUR_WIDE, region=1000).run()
    b = Core(prog, FOUR_WIDE, region=1000, warmup=0).run()
    assert a.cycles == b.cycles
