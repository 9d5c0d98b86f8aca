"""Tests for instruction classification and operand parsing."""

import copy

import pytest

from repro.arch import Memory, ThreadState, execute
from repro.isa import Assembler, Opcode, parse_reg
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, base_latency, op_class


def test_parse_reg_forms():
    assert parse_reg(0) == 0
    assert parse_reg("r17") == 17
    assert parse_reg("zero") == 31
    assert parse_reg("RA") == 26


@pytest.mark.parametrize("bad", ["x1", "r32", "r-1", 99, "reg3"])
def test_parse_reg_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_reg(bad)


def test_branch_classification():
    asm = Assembler()
    asm.label("t")
    beq = asm.beq("r1", "t")
    br = asm.br("t")
    jr = asm.jr("r2")
    ret = asm.ret()
    ld = asm.ld("r1", "r2")
    assert beq.is_branch and beq.is_conditional and not beq.is_indirect
    assert br.is_branch and not br.is_conditional
    assert jr.is_indirect and ret.is_indirect
    assert not ld.is_branch and ld.is_mem and ld.is_load


def test_store_reads_its_value_register():
    asm = Assembler()
    st = asm.st("r5", "r6", 8)
    assert set(st.source_regs()) == {5, 6}
    assert not st.writes_dest
    assert st.is_store


def test_cmov_reads_old_destination():
    asm = Assembler()
    cmov = asm.cmoveq("r1", "r2", "r3")
    assert set(cmov.source_regs()) == {1, 2, 3}
    assert cmov.writes_dest


def test_zero_register_carries_no_dependence():
    asm = Assembler()
    add = asm.add("r1", "zero", rb="r31")
    assert add.source_regs() == ()


def test_op_classes_and_latencies():
    assert op_class(Opcode.ADD) is OpClass.SIMPLE
    assert op_class(Opcode.MUL) is OpClass.COMPLEX
    assert op_class(Opcode.LD) is OpClass.MEM
    assert op_class(Opcode.BEQ) is OpClass.CONTROL
    assert op_class(Opcode.HALT) is OpClass.OTHER
    assert base_latency(Opcode.ADD) == 1
    assert base_latency(Opcode.DIV) > base_latency(Opcode.MUL) > 1


def test_load_writes_dest_store_does_not():
    ld = Instruction(Opcode.LD, rd=1, ra=2, imm=0)
    st = Instruction(Opcode.ST, rd=1, ra=2, imm=0)
    assert ld.writes_dest
    assert not st.writes_dest


def test_copy_drops_compiled_executor():
    """``copy.copy`` keeps operands but drops the compiled-executor
    cache: the slice optimizer renames registers on copies before they
    ever execute."""
    inst = Instruction(Opcode.ADD, rd=1, ra=1, imm=1, pc=0x1000)
    execute(inst, ThreadState(Memory(), entry_pc=0x1000))
    assert inst._exec is not None
    clone = copy.copy(inst)
    assert (clone.op, clone.rd, clone.ra, clone.imm, clone.pc) == (
        inst.op, inst.rd, inst.ra, inst.imm, inst.pc
    )
    assert clone._exec is None
