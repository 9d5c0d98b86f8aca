"""Embedded assembler for the repro ISA.

The assembler is a builder: call one method per instruction, place
labels with :meth:`Assembler.label`, reserve data with the ``data_*``
methods, then call :meth:`Assembler.build` to resolve forward references
and obtain a :class:`~repro.isa.program.Program`.

Example::

    asm = Assembler()
    counter = asm.data_word("counter", 0)
    asm.li("r1", 10)
    asm.label("loop")
    asm.sub("r1", "r1", imm=1)
    asm.bgt("r1", "loop")
    asm.halt()
    program = asm.build()
"""

from __future__ import annotations

from repro.isa.instruction import Instruction, parse_reg
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.isa.program import Program

#: Default base address for the data segment, far from code PCs.
DEFAULT_DATA_BASE = 0x100000

Reg = int | str


class AssemblerError(Exception):
    """Raised for malformed assembly (bad operands, unresolved labels)."""


class Assembler:
    """Builder that assembles a :class:`Program`."""

    def __init__(self, base_pc: int = 0x1000, data_base: int = DEFAULT_DATA_BASE):
        self._base_pc = base_pc
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._data: dict[int, int] = {}
        self._data_symbols: dict[str, int] = {}
        self._data_cursor = data_base
        self._entry_label: str | None = None

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------

    @property
    def here(self) -> int:
        """PC of the next instruction to be emitted."""
        return self._base_pc + len(self._instructions) * INSTRUCTION_BYTES

    def label(self, name: str) -> int:
        """Place code label *name* at the current PC and return that PC."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = self.here
        return self.here

    def entry(self, name: str) -> None:
        """Set the program entry point to code label *name*."""
        self._entry_label = name

    def comment(self, text: str) -> None:
        """Attach a comment to the next emitted instruction."""
        self._pending_comment = text

    _pending_comment: str = ""

    # ------------------------------------------------------------------
    # Data segment
    # ------------------------------------------------------------------

    def data_word(self, symbol: str, value: int = 0) -> int:
        """Allocate one 8-byte word named *symbol*; return its address."""
        return self.data_words(symbol, [value])

    def data_words(self, symbol: str, values: list[int]) -> int:
        """Allocate consecutive words named *symbol*; return base address."""
        if symbol in self._data_symbols:
            raise AssemblerError(f"duplicate data symbol {symbol!r}")
        base = self._data_cursor
        self._data_symbols[symbol] = base
        for offset, value in enumerate(values):
            self._data[base + 8 * offset] = value
        self._data_cursor = base + 8 * len(values)
        return base

    def data_space(self, symbol: str, words: int) -> int:
        """Allocate *words* zeroed words named *symbol*; return base address."""
        return self.data_words(symbol, [0] * words)

    def addr_of(self, symbol: str) -> int:
        """Return the address of an already-allocated data symbol."""
        return self._data_symbols[symbol]

    def set_data_word(self, symbol: str, index: int, value: int) -> int:
        """Overwrite word *index* of an allocated symbol; return its address.

        Lets builders patch data after code emission — e.g. filling a
        jump table with block PCs that only exist once the blocks have
        been laid out (the generated-program idiom in
        :mod:`repro.fuzz.gen`).
        """
        if symbol not in self._data_symbols:
            raise AssemblerError(f"unknown data symbol {symbol!r}")
        addr = self._data_symbols[symbol] + 8 * index
        if addr not in self._data:
            raise AssemblerError(
                f"index {index} outside allocation of {symbol!r}"
            )
        self._data[addr] = value
        return addr

    # ------------------------------------------------------------------
    # Instruction emission
    # ------------------------------------------------------------------

    def _emit(self, inst: Instruction) -> Instruction:
        inst.pc = self.here
        if self._pending_comment:
            inst.comment = self._pending_comment
            self._pending_comment = ""
        self._instructions.append(inst)
        return inst

    def _alu(self, op: Opcode, rd: Reg, ra: Reg, rb: Reg | None, imm: int | None) -> Instruction:
        if (rb is None) == (imm is None):
            raise AssemblerError(f"{op.value}: exactly one of rb/imm required")
        return self._emit(
            Instruction(
                op,
                rd=parse_reg(rd),
                ra=parse_reg(ra),
                rb=parse_reg(rb) if rb is not None else None,
                imm=imm,
            )
        )

    # Simple ALU -------------------------------------------------------

    def add(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.ADD, rd, ra, rb, imm)

    def sub(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.SUB, rd, ra, rb, imm)

    def and_(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.AND, rd, ra, rb, imm)

    def or_(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.OR, rd, ra, rb, imm)

    def xor(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.XOR, rd, ra, rb, imm)

    def sll(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.SLL, rd, ra, rb, imm)

    def srl(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.SRL, rd, ra, rb, imm)

    def sra(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.SRA, rd, ra, rb, imm)

    def cmpeq(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.CMPEQ, rd, ra, rb, imm)

    def cmplt(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.CMPLT, rd, ra, rb, imm)

    def cmple(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.CMPLE, rd, ra, rb, imm)

    def cmpult(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.CMPULT, rd, ra, rb, imm)

    def s4add(self, rd: Reg, ra: Reg, rb: Reg):
        """rd = (ra << 2) + rb (Alpha ``s4addq``)."""
        return self._alu(Opcode.S4ADD, rd, ra, rb, None)

    def s8add(self, rd: Reg, ra: Reg, rb: Reg):
        """rd = (ra << 3) + rb (Alpha ``s8addq``) — array-of-words indexing."""
        return self._alu(Opcode.S8ADD, rd, ra, rb, None)

    def mov(self, rd: Reg, ra: Reg):
        return self._emit(Instruction(Opcode.MOV, rd=parse_reg(rd), ra=parse_reg(ra)))

    def li(self, rd: Reg, imm: int):
        return self._emit(Instruction(Opcode.LI, rd=parse_reg(rd), imm=imm))

    def la(self, rd: Reg, symbol: str):
        """Load the address of data symbol *symbol* (must exist already)."""
        return self.li(rd, self.addr_of(symbol))

    # Conditional moves -------------------------------------------------

    def cmoveq(self, rd: Reg, ra: Reg, rb: Reg):
        """if ra == 0: rd = rb."""
        return self._alu(Opcode.CMOVEQ, rd, ra, rb, None)

    def cmovne(self, rd: Reg, ra: Reg, rb: Reg):
        """if ra != 0: rd = rb."""
        return self._alu(Opcode.CMOVNE, rd, ra, rb, None)

    def cmovlt(self, rd: Reg, ra: Reg, rb: Reg):
        """if ra < 0: rd = rb."""
        return self._alu(Opcode.CMOVLT, rd, ra, rb, None)

    def cmovge(self, rd: Reg, ra: Reg, rb: Reg):
        """if ra >= 0: rd = rb."""
        return self._alu(Opcode.CMOVGE, rd, ra, rb, None)

    # Complex integer ----------------------------------------------------

    def mul(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.MUL, rd, ra, rb, imm)

    def div(self, rd: Reg, ra: Reg, rb: Reg | None = None, imm: int | None = None):
        return self._alu(Opcode.DIV, rd, ra, rb, imm)

    # Memory -------------------------------------------------------------

    def ld(self, rd: Reg, ra: Reg, imm: int = 0):
        """rd = mem[ra + imm]."""
        return self._emit(
            Instruction(Opcode.LD, rd=parse_reg(rd), ra=parse_reg(ra), imm=imm)
        )

    def st(self, rd: Reg, ra: Reg, imm: int = 0):
        """mem[ra + imm] = rd."""
        return self._emit(
            Instruction(Opcode.ST, rd=parse_reg(rd), ra=parse_reg(ra), imm=imm)
        )

    # Control ------------------------------------------------------------

    def _branch(self, op: Opcode, ra: Reg | None, target: str | int) -> Instruction:
        inst = Instruction(op, ra=parse_reg(ra) if ra is not None else None)
        if isinstance(target, str):
            inst.target_label = target
        else:
            inst.target = target
        return self._emit(inst)

    def beq(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BEQ, ra, target)

    def bne(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BNE, ra, target)

    def blt(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BLT, ra, target)

    def bge(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BGE, ra, target)

    def ble(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BLE, ra, target)

    def bgt(self, ra: Reg, target: str | int):
        return self._branch(Opcode.BGT, ra, target)

    def br(self, target: str | int):
        return self._branch(Opcode.BR, None, target)

    def jr(self, ra: Reg):
        return self._emit(Instruction(Opcode.JR, ra=parse_reg(ra)))

    def call(self, target: str | int):
        """Direct call: r26 (ra) = return PC; jump to target."""
        inst = self._branch(Opcode.CALL, None, target)
        inst.rd = parse_reg("ra")
        return inst

    def callr(self, ra: Reg):
        """Indirect call through *ra*: r26 = return PC; jump to [ra]."""
        inst = self._emit(Instruction(Opcode.CALLR, ra=parse_reg(ra)))
        inst.rd = parse_reg("ra")
        return inst

    def ret(self):
        """Return through r26 (pops the return-address-stack predictor)."""
        return self._emit(Instruction(Opcode.RET, ra=parse_reg("ra")))

    # Other ----------------------------------------------------------------

    def fork(self, slice_index: int):
        """Explicit slice-fork marker (Section 4.2): architecturally a
        no-op; the slice hardware forks slice table entry *slice_index*."""
        return self._emit(Instruction(Opcode.FORK, imm=slice_index))

    def nop(self):
        return self._emit(Instruction(Opcode.NOP))

    def halt(self):
        return self._emit(Instruction(Opcode.HALT))

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(self) -> Program:
        """Resolve label references and return the assembled program."""
        for inst in self._instructions:
            if inst.target_label is not None:
                if inst.target_label not in self._labels:
                    raise AssemblerError(
                        f"unresolved label {inst.target_label!r} at pc={inst.pc:#x}"
                    )
                inst.target = self._labels[inst.target_label]
        entry_pc = None
        if self._entry_label is not None:
            if self._entry_label not in self._labels:
                raise AssemblerError(f"unknown entry label {self._entry_label!r}")
            entry_pc = self._labels[self._entry_label]
        return Program(
            instructions=list(self._instructions),
            base_pc=self._base_pc,
            data=dict(self._data),
            labels=dict(self._labels),
            data_symbols=dict(self._data_symbols),
            entry_pc=entry_pc,
        )
