"""Tests for the slice optimization passes."""

from repro.isa import Assembler, Opcode
from repro.slices.optimize import (
    OptimizationReport,
    bypass_memory,
    eliminate_moves,
    remove_dead_code,
    strength_reduce_division,
)


def build(fn):
    asm = Assembler()
    fn(asm)
    return list(asm.build().instructions)


def test_strength_reduce_division_idiom():
    insts = build(
        lambda a: (
            a.cmplt("r9", "r2", imm=0),
            a.add("r3", "r2", rb="r9"),
            a.sra("r3", "r3", imm=1),
            a.add("r4", "r3", imm=1),
        )
    )
    report = OptimizationReport()
    out = strength_reduce_division(insts, report)
    assert len(out) == 2
    assert out[0].op is Opcode.SRA and out[0].ra == 2 and out[0].rd == 3
    assert report.removed["strength reduction"] == 2


def test_strength_reduce_requires_exact_idiom():
    insts = build(
        lambda a: (
            a.cmplt("r9", "r2", imm=0),
            a.add("r3", "r2", rb="r8"),  # wrong register
            a.sra("r3", "r3", imm=1),
        )
    )
    assert len(strength_reduce_division(insts)) == 3


def test_bypass_memory_renames_consumers():
    insts = build(
        lambda a: (
            a.ld("r5", "r1", 8),
            a.cmplt("r6", "r5", rb="r7"),
        )
    )
    out = bypass_memory(insts, 0, value_reg=17)
    assert len(out) == 2 - 1
    assert out[0].op is Opcode.CMPLT
    assert out[0].ra == 17  # reads the live-in now


def test_bypass_memory_stops_at_redefinition():
    insts = build(
        lambda a: (
            a.ld("r5", "r1", 8),
            a.add("r6", "r5", imm=1),
            a.li("r5", 0),  # redefinition
            a.add("r7", "r5", imm=1),  # must NOT be renamed
        )
    )
    out = bypass_memory(insts, 0, value_reg=17)
    assert out[0].ra == 17
    assert out[2].ra == 5


def test_eliminate_moves():
    insts = build(
        lambda a: (
            a.mov("r2", "r6"),
            a.sra("r3", "r2", imm=1),
        )
    )
    out = eliminate_moves(insts)
    assert len(out) == 1
    assert out[0].ra == 6


def test_eliminate_moves_respects_redefinition():
    insts = build(
        lambda a: (
            a.mov("r2", "r6"),
            a.li("r6", 9),  # source redefined
            a.sra("r3", "r2", imm=1),  # must keep reading r2
        )
    )
    out = eliminate_moves(insts)
    assert len(out) == 3


def test_remove_dead_code_keeps_live_chain():
    insts = build(
        lambda a: (
            a.li("r1", 1),
            a.li("r2", 2),  # dead
            a.add("r3", "r1", imm=1),
        )
    )
    out = remove_dead_code(insts, live_out={3})
    ops = [(i.op, i.rd) for i in out]
    assert (Opcode.LI, 2) not in ops
    assert len(out) == 2


def test_remove_dead_code_keeps_loads_by_default():
    insts = build(
        lambda a: (
            a.ld("r5", "r1", 8),  # dead but a prefetch
            a.li("r3", 1),
        )
    )
    out = remove_dead_code(insts, live_out={3})
    assert any(i.is_load for i in out)
    out = remove_dead_code(insts, live_out={3}, keep_loads=False)
    assert not any(i.is_load for i in out)


def test_remove_dead_code_transitive():
    insts = build(
        lambda a: (
            a.li("r1", 1),
            a.add("r2", "r1", imm=1),  # feeds only dead r4
            a.add("r4", "r2", imm=1),  # dead
            a.li("r9", 5),
        )
    )
    out = remove_dead_code(insts, live_out={9})
    assert len(out) == 1


def test_passes_do_not_mutate_input():
    insts = build(lambda a: (a.mov("r2", "r6"), a.sra("r3", "r2", imm=1)))
    eliminate_moves(insts)
    assert insts[1].ra == 2  # original untouched

