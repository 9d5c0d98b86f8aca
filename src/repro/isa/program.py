"""Program container: code, data, and symbols.

A :class:`Program` is an assembled unit: a list of instructions at fixed
PCs, an initial data image (byte address -> 64-bit word at 8-aligned
addresses), and symbol tables for code labels and data objects.

Instructions cache compiled executors (``Instruction._exec``), and the
functional-warming tier (:mod:`repro.uarch.warmfuse`) caches compiled
traces per program. :meth:`Program.drop_block_caches` invalidates the
latter for callers that mutate instructions in place, mirroring the
``Instruction.__copy__`` cache-drop contract of the former.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled program.

    Attributes:
        instructions: static instructions in layout order.
        base_pc: PC of the first instruction.
        data: initial memory image, word-aligned byte address -> value.
        labels: code label -> PC.
        data_symbols: data symbol -> byte address.
        entry_pc: PC execution starts at (defaults to ``base_pc``).
    """

    instructions: list[Instruction]
    base_pc: int = 0x1000
    data: dict[int, int] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, int] = field(default_factory=dict)
    entry_pc: int | None = None
    _by_pc: dict[int, Instruction] = field(default_factory=dict, repr=False)
    #: Monotonic version for compiled-block caches; bumped by
    #: :meth:`drop_block_caches` so consumers can detect invalidation.
    block_version: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.entry_pc is None:
            self.entry_pc = self.base_pc
        self._by_pc = {inst.pc: inst for inst in self.instructions}

    def at(self, pc: int) -> Instruction | None:
        """Return the instruction at *pc*, or ``None`` if out of range."""
        return self._by_pc.get(pc)

    def __len__(self) -> int:
        return len(self.instructions)

    def __contains__(self, pc: int) -> bool:
        return pc in self._by_pc

    def drop_block_caches(self) -> None:
        """Invalidate compiled-trace caches keyed on this program.

        Any pass that renames, clones, or splices instructions into this
        program in place must call this so no stale compiled trace is
        ever executed. Bumps :attr:`block_version`, which those caches
        key on.
        """
        self.block_version += 1

    def pc_of(self, label: str) -> int:
        """Return the PC of a code label."""
        return self.labels[label]

    def addr_of(self, symbol: str) -> int:
        """Return the byte address of a data symbol."""
        return self.data_symbols[symbol]
