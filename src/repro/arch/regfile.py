"""Architectural register file with an undo journal.

32 integer registers; index 31 is hardwired to zero. As with
:class:`~repro.arch.memory.Memory`, writes are journaled so speculative
(wrong-path) execution can be rolled back. The interpreter's dispatch
closures write ``_regs`` and ``_journal`` directly.
"""

from __future__ import annotations

from repro.isa.instruction import ZERO_REG
from repro.arch.memory import to_signed


class RegFile:
    """Journaled architectural register file."""

    __slots__ = ("_regs", "_journal", "journaling")

    def __init__(self, journaling: bool = True):
        self._regs = [0] * 32
        self._journal: list[tuple[int, int]] = []
        self.journaling = journaling

    def read(self, index: int) -> int:
        return self._regs[index]

    def mark(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        journal = self._journal
        regs = self._regs
        while len(journal) > mark:
            index, old = journal.pop()
            regs[index] = old

    def values(self) -> list[int]:
        """Return a copy of all 32 register values."""
        return list(self._regs)

    def load_values(self, values: dict[int, int]) -> None:
        """Bulk-set registers without journaling (thread initialization)."""
        for index, value in values.items():
            if index != ZERO_REG:
                self._regs[index] = to_signed(value)
