"""The repro ISA: a small Alpha-flavored RISC used as the simulation substrate."""

from repro.isa.assembler import Assembler, AssemblerError
from repro.isa.disasm import disassemble, format_instruction
from repro.isa.instruction import Instruction, ZERO_REG, parse_reg, reg_name
from repro.isa.opcodes import (
    CALL_OPS,
    CONDITIONAL_BRANCHES,
    CONTROL_OPS,
    INDIRECT_BRANCHES,
    INSTRUCTION_BYTES,
    MEM_OPS,
    OpClass,
    Opcode,
    base_latency,
    op_class,
)
from repro.isa.program import Program

__all__ = [
    "Assembler",
    "AssemblerError",
    "CALL_OPS",
    "CONDITIONAL_BRANCHES",
    "CONTROL_OPS",
    "INDIRECT_BRANCHES",
    "INSTRUCTION_BYTES",
    "Instruction",
    "MEM_OPS",
    "OpClass",
    "Opcode",
    "Program",
    "ZERO_REG",
    "base_latency",
    "disassemble",
    "format_instruction",
    "op_class",
    "parse_reg",
    "reg_name",
]
