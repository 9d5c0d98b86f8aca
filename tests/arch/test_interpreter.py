"""Tests for the functional executor."""

from hypothesis import given, strategies as st

from repro.arch import Fault, Memory, ThreadState, execute, run_functional
from repro.isa import Assembler, Opcode
from repro.isa.instruction import Instruction


def _run(build, max_instructions=10_000, data=None):
    """Assemble via *build*, run to completion, return final state."""
    asm = Assembler()
    build(asm)
    prog = asm.build()
    image = dict(prog.data)
    if data:
        image.update(data)
    state = ThreadState(Memory(image), prog.entry_pc)
    for _inst, _result in run_functional(prog, state, max_instructions):
        pass
    return state, prog


def test_arithmetic_basics():
    def build(asm):
        asm.li("r1", 6)
        asm.li("r2", 7)
        asm.mul("r3", "r1", rb="r2")
        asm.sub("r4", "r3", imm=2)
        asm.div("r5", "r4", imm=10)
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(3) == 42
    assert state.regs.read(4) == 40
    assert state.regs.read(5) == 4


def test_div_semantics():
    def build(asm):
        asm.li("r1", -7)
        asm.div("r2", "r1", imm=2)  # trunc toward zero: -3
        asm.li("r3", 5)
        asm.div("r4", "r3", imm=0)  # div by zero yields 0
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(2) == -3
    assert state.regs.read(4) == 0


def test_shifts():
    def build(asm):
        asm.li("r1", -8)
        asm.sra("r2", "r1", imm=1)  # arithmetic: -4
        asm.srl("r3", "r1", imm=1)  # logical on 64-bit pattern
        asm.li("r4", 3)
        asm.sll("r5", "r4", imm=2)  # 12
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(2) == -4
    assert state.regs.read(3) == (((-8) & ((1 << 64) - 1)) >> 1)
    assert state.regs.read(5) == 12


def test_scaled_adds():
    def build(asm):
        asm.li("r1", 5)
        asm.li("r2", 0x1000)
        asm.s8add("r3", "r1", "r2")  # 0x1000 + 40
        asm.s4add("r4", "r1", "r2")  # 0x1000 + 20
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(3) == 0x1028
    assert state.regs.read(4) == 0x1014


def test_compare_ops():
    def build(asm):
        asm.li("r1", -1)
        asm.cmplt("r2", "r1", imm=0)  # 1
        asm.cmpult("r3", "r1", imm=0)  # unsigned: huge < 0 -> 0
        asm.cmpeq("r4", "r1", imm=-1)  # 1
        asm.cmple("r5", "r1", imm=-1)  # 1
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(2) == 1
    assert state.regs.read(3) == 0
    assert state.regs.read(4) == 1
    assert state.regs.read(5) == 1


def test_conditional_moves():
    def build(asm):
        asm.li("r1", 0)
        asm.li("r2", 99)
        asm.li("r3", 7)
        asm.cmoveq("r3", "r1", "r2")  # r1 == 0 -> r3 = 99
        asm.li("r4", 7)
        asm.cmovne("r4", "r1", "r2")  # r1 != 0 false -> keep 7
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(3) == 99
    assert state.regs.read(4) == 7


def test_loads_stores_and_data_segment():
    def build(asm):
        base = asm.data_words("arr", [10, 20, 30])
        asm.li("r1", base)
        asm.ld("r2", "r1", 8)  # 20
        asm.add("r2", "r2", imm=1)
        asm.st("r2", "r1", 16)  # arr[2] = 21
        asm.ld("r3", "r1", 16)
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(3) == 21


def test_loop_executes_correct_count():
    def build(asm):
        asm.li("r1", 10)
        asm.li("r2", 0)
        asm.label("loop")
        asm.add("r2", "r2", imm=3)
        asm.sub("r1", "r1", imm=1)
        asm.bgt("r1", "loop")
        asm.halt()

    state, _ = _run(build)
    assert state.regs.read(2) == 30


def test_call_ret():
    def build(asm):
        asm.li("r1", 1)
        asm.call("fn")
        asm.add("r1", "r1", imm=100)  # runs after return
        asm.halt()
        asm.label("fn")
        asm.add("r1", "r1", imm=10)
        asm.ret()

    state, _ = _run(build)
    assert state.regs.read(1) == 111


def test_indirect_jump():
    def build(asm):
        asm.li("r1", 0)
        asm.li("r2", 0)  # patched below
        table = asm.data_word("table", 0)
        asm.la("r3", "table")
        asm.ld("r4", "r3")
        asm.jr("r4")
        asm.li("r1", 1)  # skipped
        asm.label("dest")
        asm.li("r1", 2)
        asm.halt()

    asm = Assembler()
    build(asm)
    prog = asm.build()
    prog.data[prog.addr_of("table")] = prog.pc_of("dest")
    state = ThreadState(Memory(prog.data), prog.entry_pc)
    for _ in run_functional(prog, state):
        pass
    assert state.regs.read(1) == 2


def test_null_deref_faults_but_does_not_raise():
    asm = Assembler()
    asm.li("r1", 0)
    asm.ld("r2", "r1")
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    results = [r for _, r in run_functional(prog, state, max_instructions=2)]
    assert results[1].fault is Fault.NULL_DEREF
    assert state.regs.read(2) == 0


def test_null_store_faults_without_writing():
    asm = Assembler()
    asm.li("r1", 8)
    asm.li("r2", 77)
    asm.st("r2", "r1")
    prog = asm.build()
    mem = Memory()
    state = ThreadState(mem, prog.entry_pc)
    results = [r for _, r in run_functional(prog, state, max_instructions=3)]
    assert results[2].fault is Fault.NULL_DEREF
    assert mem.load(8) == 0


def test_halt_reports_fault_and_stops():
    asm = Assembler()
    asm.halt()
    asm.nop()
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    executed = list(run_functional(prog, state))
    assert len(executed) == 1
    assert executed[0][1].fault is Fault.HALT


def test_branch_results_report_direction_and_target():
    asm = Assembler()
    asm.li("r1", 0)
    asm.label("t")
    asm.beq("r1", "t")  # taken: r1 == 0
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    gen = run_functional(prog, state, max_instructions=2)
    next(gen)
    _, res = next(gen)
    assert res.taken is True
    assert res.next_pc == prog.pc_of("t")


def test_checkpoint_rollback_spans_regs_and_memory():
    asm = Assembler()
    prog = asm.build()
    mem = Memory()
    state = ThreadState(mem, 0)
    state.regs.load_values({1: 5})
    mem.store(0x200, 5)
    cp = state.checkpoint(resume_pc=0x1234)
    execute(Instruction(Opcode.LI, rd=1, imm=6, pc=0), state)
    mem.store(0x200, 6)
    state.halted = True
    state.rollback(cp)
    assert state.regs.read(1) == 5
    assert mem.load(0x200) == 5
    assert state.pc == 0x1234
    assert not state.halted


@given(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62))
def test_add_sub_roundtrip_property(a, b):
    """Property: (a + b) - b == a under 64-bit wrap semantics."""
    asm = Assembler()
    asm.li("r1", a)
    asm.li("r2", b)
    asm.add("r3", "r1", rb="r2")
    asm.sub("r4", "r3", rb="r2")
    asm.halt()
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    for _ in run_functional(prog, state):
        pass
    assert state.regs.read(4) == a


@given(st.integers(min_value=0, max_value=2**62))
def test_sra_matches_division_by_two_for_nonnegative(value):
    """Property behind the paper's strength-reduction optimization."""
    asm = Assembler()
    asm.li("r1", value)
    asm.sra("r2", "r1", imm=1)
    asm.div("r3", "r1", imm=2)
    asm.halt()
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    for _ in run_functional(prog, state):
        pass
    assert state.regs.read(2) == state.regs.read(3)


def test_unknown_pc_stops_run():
    asm = Assembler()
    asm.br(0xFF000)
    prog = asm.build()
    state = ThreadState(Memory(), prog.entry_pc)
    executed = list(run_functional(prog, state))
    assert len(executed) == 1  # the branch itself, then fetch fails


def test_execute_requires_handled_opcode():
    state = ThreadState(Memory(), 0)
    inst = Instruction(Opcode.NOP, pc=0)
    result = execute(inst, state)
    assert result.fault is Fault.NONE
    assert result.next_pc == 4
