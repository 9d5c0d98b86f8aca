"""Sparse word-addressed data memory with an undo journal.

Memory stores 64-bit words at 8-byte-aligned byte addresses. Reads of
unwritten locations return zero. Writes can be journaled so the
out-of-order core can roll back stores executed down a mispredicted
path (the simulator executes functionally at fetch time).
"""

from __future__ import annotations

#: 64-bit wrap mask.
MASK64 = (1 << 64) - 1

#: Sign bit for converting back to Python signed ints.
SIGN64 = 1 << 63


def to_signed(value: int) -> int:
    """Wrap *value* to 64 bits and interpret as two's-complement signed."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN64 else value


class Memory:
    """Sparse data memory.

    The journal records ``(address, old_value)`` pairs; a *mark* is a
    journal length, and :meth:`rollback` undoes all writes made after a
    mark, in reverse order.
    """

    __slots__ = ("_words", "_journal", "journaling")

    def __init__(
        self,
        image: dict[int, int] | None = None,
        journaling: bool = True,
        normalized: bool = False,
    ):
        """*normalized* promises every key of *image* is already 8-byte
        aligned and every value already signed — true of
        :meth:`snapshot` output — so a warmed-state restore copies the
        dict instead of re-normalizing millions of words."""
        self.journaling = journaling
        if image and normalized:
            self._words: dict[int, int] = dict(image)
        else:
            self._words = {}
            if image:
                for addr, value in image.items():
                    self._words[addr & ~7] = to_signed(value)
        self._journal: list[tuple[int, int | None]] = []

    def load(self, addr: int) -> int:
        """Read the word at *addr* (aligned down); unmapped reads are 0."""
        return self._words.get(addr & ~7, 0)

    def store(self, addr: int, value: int) -> None:
        """Write *value* at *addr* (aligned down), journaling the old value.

        The journal records ``None`` when the address was previously
        unmapped so rollback restores true absence, not an explicit zero.
        """
        addr &= ~7
        if self.journaling:
            self._journal.append((addr, self._words.get(addr)))
        self._words[addr] = to_signed(value)

    def mark(self) -> int:
        """Return a checkpoint token for :meth:`rollback`."""
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo every store made after *mark*."""
        journal = self._journal
        words = self._words
        while len(journal) > mark:
            addr, old = journal.pop()
            if old is None:
                words.pop(addr, None)
            else:
                words[addr] = old

    def snapshot(self) -> dict[int, int]:
        """Return a copy of the current memory contents (for tests)."""
        return dict(self._words)
