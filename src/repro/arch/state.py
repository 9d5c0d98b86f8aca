"""Per-thread architectural state and speculation checkpoints.

A :class:`ThreadState` owns a register file and a PC and shares a
:class:`~repro.arch.memory.Memory` with other threads (SMT threads share
the data memory image; helper-thread slices perform no stores, so only
the main thread journals memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.memory import Memory
from repro.arch.regfile import RegFile


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A speculation checkpoint: journal marks plus the correct next PC."""

    reg_mark: int
    mem_mark: int
    pc: int


class ThreadState:
    """Architectural state of one hardware thread context."""

    __slots__ = ("regs", "memory", "pc", "halted")

    def __init__(self, memory: Memory, entry_pc: int = 0, journaling: bool = True):
        self.regs = RegFile(journaling=journaling)
        self.memory = memory
        self.pc = entry_pc
        self.halted = False

    def checkpoint(self, resume_pc: int) -> Checkpoint:
        """Capture a checkpoint; *resume_pc* is the PC to restore on rollback."""
        return Checkpoint(self.regs.mark(), self.memory.mark(), resume_pc)

    def rollback(self, checkpoint: Checkpoint) -> None:
        """Undo all speculative writes made after *checkpoint*."""
        self.regs.rollback(checkpoint.reg_mark)
        self.memory.rollback(checkpoint.mem_mark)
        self.pc = checkpoint.pc
        self.halted = False
