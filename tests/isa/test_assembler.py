"""Tests for the assembler DSL and program container."""

import pytest

from repro.isa import Assembler, AssemblerError, Opcode


def test_pcs_are_sequential():
    asm = Assembler(base_pc=0x2000)
    asm.li("r1", 5)
    asm.add("r2", "r1", imm=1)
    asm.halt()
    prog = asm.build()
    assert [i.pc for i in prog.instructions] == [0x2000, 0x2004, 0x2008]


def test_labels_resolve_forward_and_backward():
    asm = Assembler()
    asm.label("top")
    asm.br("bottom")
    asm.label("bottom")
    asm.br("top")
    prog = asm.build()
    assert prog.instructions[0].target == prog.pc_of("bottom")
    assert prog.instructions[1].target == prog.pc_of("top")


def test_unresolved_label_raises():
    asm = Assembler()
    asm.br("nowhere")
    with pytest.raises(AssemblerError, match="nowhere"):
        asm.build()


def test_duplicate_label_raises():
    asm = Assembler()
    asm.label("x")
    asm.nop()
    with pytest.raises(AssemblerError, match="duplicate"):
        asm.label("x")


def test_alu_requires_exactly_one_of_rb_imm():
    asm = Assembler()
    with pytest.raises(AssemblerError):
        asm.add("r1", "r2")
    with pytest.raises(AssemblerError):
        asm.add("r1", "r2", rb="r3", imm=4)


def test_register_aliases():
    asm = Assembler()
    inst = asm.mov("sp", "gp")
    assert inst.rd == 30
    assert inst.ra == 29


def test_data_allocation_is_word_granular():
    asm = Assembler()
    a = asm.data_word("a", 7)
    b = asm.data_words("b", [1, 2, 3])
    c = asm.data_space("c", 2)
    prog = asm.build()
    assert b == a + 8
    assert c == b + 24
    assert prog.data[a] == 7
    assert prog.data[b + 16] == 3
    assert prog.data[c] == 0
    assert prog.addr_of("b") == b


def test_duplicate_data_symbol_raises():
    asm = Assembler()
    asm.data_word("a")
    with pytest.raises(AssemblerError, match="duplicate"):
        asm.data_word("a")


def test_entry_point():
    asm = Assembler()
    asm.nop()
    asm.label("start")
    asm.halt()
    asm.entry("start")
    prog = asm.build()
    assert prog.entry_pc == prog.pc_of("start")


def test_entry_defaults_to_base():
    asm = Assembler(base_pc=0x400)
    asm.halt()
    assert asm.build().entry_pc == 0x400


def test_call_writes_return_register():
    asm = Assembler()
    asm.label("f")
    inst = asm.call("f")
    assert inst.op is Opcode.CALL
    assert inst.rd == 26


def test_program_at_and_contains():
    asm = Assembler()
    asm.nop()
    asm.halt()
    prog = asm.build()
    assert prog.at(prog.base_pc).op is Opcode.NOP
    assert prog.base_pc + 4 in prog
    assert prog.at(0xDEAD) is None


def test_comment_attaches_to_next_instruction():
    asm = Assembler()
    asm.comment("the loop counter")
    inst = asm.li("r1", 0)
    assert inst.comment == "the loop counter"
    assert asm.nop().comment == ""
