"""Property tests: the executor against a direct Python oracle."""

from hypothesis import given, strategies as st

from repro.arch import Memory, ThreadState, execute
from repro.arch.memory import to_signed
from repro.isa import Opcode
from repro.isa.instruction import Instruction

VALUES = st.integers(-(2**63), 2**63 - 1)

ORACLES = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.S8ADD: lambda a, b: (a << 3) + b,
}


@given(
    st.sampled_from(sorted(ORACLES, key=lambda o: o.value)), VALUES, VALUES
)
def test_binary_ops_match_oracle(op, a, b):
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: a, 2: b})
    inst = Instruction(op, rd=3, ra=1, rb=2, pc=0)
    result = execute(inst, state)
    assert result.value == to_signed(ORACLES[op](a, b))
    assert state.regs.read(3) == result.value
    assert state.pc == 4


@given(VALUES, st.integers(0, 63))
def test_shift_identities(value, amount):
    """sll then srl recovers the low bits; sra preserves sign."""
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: value})
    execute(Instruction(Opcode.SLL, rd=2, ra=1, imm=amount, pc=0), state)
    execute(Instruction(Opcode.SRL, rd=3, ra=2, imm=amount, pc=4), state)
    mask = (1 << (64 - amount)) - 1
    assert state.regs.read(3) & mask == (value & mask)
    execute(Instruction(Opcode.SRA, rd=4, ra=1, imm=amount, pc=8), state)
    assert (state.regs.read(4) < 0) == (value < 0 and True)


@given(VALUES, VALUES)
def test_cmov_selects_correctly(cond, alt):
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: cond, 2: alt, 3: 111})
    execute(Instruction(Opcode.CMOVEQ, rd=3, ra=1, rb=2, pc=0), state)
    expected = to_signed(alt) if cond == 0 else 111
    assert state.regs.read(3) == expected


@given(VALUES, VALUES)
def test_div_matches_trunc_semantics(a, b):
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: a, 2: b})
    execute(Instruction(Opcode.DIV, rd=3, ra=1, rb=2, pc=0), state)
    if b == 0:
        expected = 0
    else:
        expected = to_signed(abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1))
    assert state.regs.read(3) == expected


@given(st.integers(0x100, 2**20), VALUES)
def test_store_load_roundtrip_through_executor(addr, value):
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: addr, 2: value})
    execute(Instruction(Opcode.ST, rd=2, ra=1, imm=0, pc=0), state)
    execute(Instruction(Opcode.LD, rd=3, ra=1, imm=0, pc=4), state)
    assert state.regs.read(3) == to_signed(value)


@given(st.lists(st.tuples(st.sampled_from(sorted(ORACLES, key=lambda o: o.value)), VALUES), max_size=20))
def test_checkpoint_rollback_after_random_ops(ops):
    """Rollback after arbitrary executed sequences restores registers."""
    state = ThreadState(Memory(), 0)
    state.regs.load_values({1: 5, 2: 7})
    before = state.regs.values()
    checkpoint = state.checkpoint(resume_pc=0)
    pc = 0
    for op, value in ops:
        execute(Instruction(Opcode.LI, rd=2, imm=value, pc=pc), state)
        execute(Instruction(op, rd=1, ra=1, rb=2, pc=pc + 4), state)
        pc += 8
    state.rollback(checkpoint)
    assert state.regs.values() == before
