"""Tests for journaled memory and register file, incl. property tests."""

from hypothesis import given, strategies as st

from repro.arch import MASK64, Memory, RegFile, ThreadState, execute, to_signed
from repro.isa import Opcode
from repro.isa.instruction import Instruction


def test_memory_unmapped_reads_zero():
    mem = Memory()
    assert mem.load(0x5000) == 0


def test_memory_store_load_roundtrip():
    mem = Memory()
    mem.store(0x1000, 42)
    assert mem.load(0x1000) == 42


def test_memory_alignment_down():
    mem = Memory()
    mem.store(0x1005, 9)
    assert mem.load(0x1000) == 9
    assert mem.load(0x1007) == 9


def test_memory_image_initialization():
    mem = Memory(image={0x10: 1, 0x18: 2})
    assert mem.load(0x10) == 1
    assert mem.load(0x18) == 2


def test_memory_rollback_restores_old_values():
    mem = Memory()
    mem.store(0x100, 1)
    mark = mem.mark()
    mem.store(0x100, 2)
    mem.store(0x108, 3)
    mem.rollback(mark)
    assert mem.load(0x100) == 1
    assert mem.load(0x108) == 0


def test_memory_nested_rollback():
    mem = Memory()
    mem.store(0x100, 1)
    outer = mem.mark()
    mem.store(0x100, 2)
    inner = mem.mark()
    mem.store(0x100, 3)
    mem.rollback(inner)
    assert mem.load(0x100) == 2
    mem.rollback(outer)
    assert mem.load(0x100) == 1


def test_memory_journaling_disabled():
    mem = Memory(journaling=False)
    mem.store(0x100, 1)
    assert mem.mark() == 0
    mem.rollback(0)
    assert mem.load(0x100) == 1


def li(state, rd, value):
    """Write *value* to register *rd* the way the executor does: a
    journaled ``li``."""
    execute(Instruction(Opcode.LI, rd=rd, imm=value, pc=state.pc), state)


def test_regfile_r31_is_zero():
    state = ThreadState(Memory(), 0)
    li(state, 31, 123)
    assert state.regs.read(31) == 0


def test_regfile_rollback():
    state = ThreadState(Memory(), 0)
    regs = state.regs
    li(state, 1, 10)
    mark = regs.mark()
    li(state, 1, 20)
    li(state, 2, 30)
    regs.rollback(mark)
    assert regs.read(1) == 10
    assert regs.read(2) == 0


def test_regfile_load_values_skips_zero_reg():
    regs = RegFile()
    regs.load_values({1: 5, 31: 7})
    assert regs.read(1) == 5
    assert regs.read(31) == 0


def test_to_signed_wraps():
    assert to_signed(MASK64) == -1
    assert to_signed(1 << 63) == -(1 << 63)
    assert to_signed(5) == 5


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(-(2**63), 2**63 - 1)), max_size=30))
def test_regfile_rollback_is_exact_inverse(writes):
    """Property: rollback to a mark restores the exact pre-mark values."""
    state = ThreadState(Memory(), 0)
    regs = state.regs
    for index, value in writes[: len(writes) // 2]:
        li(state, index % 31, value)
    before = regs.values()
    mark = regs.mark()
    for index, value in writes[len(writes) // 2 :]:
        li(state, index % 31, value)
    regs.rollback(mark)
    assert regs.values() == before


@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.integers(-(2**63), 2**63 - 1)),
        max_size=30,
    ),
    st.integers(0, 29),
)
def test_memory_rollback_is_exact_inverse(stores, split):
    """Property: memory rollback restores the exact pre-mark image."""
    mem = Memory()
    split = min(split, len(stores))
    for addr, value in stores[:split]:
        mem.store(addr * 8 + 0x1000, value)
    before = mem.snapshot()
    mark = mem.mark()
    for addr, value in stores[split:]:
        mem.store(addr * 8 + 0x1000, value)
    mem.rollback(mark)
    assert mem.snapshot() == before
