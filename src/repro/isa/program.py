"""Program container: code, data, and symbols.

A :class:`Program` is an assembled unit: a list of instructions at fixed
PCs, an initial data image (byte address -> 64-bit word at 8-aligned
addresses), and symbol tables for code labels and data objects.

It also hosts the static **basic-block discovery pass** used by the
fused execution tier (:mod:`repro.uarch.fusion`): leaders are derived
from the entry point, code labels, branch targets, and the fall-through
successor of every control transfer; a :class:`BasicBlock` is the
maximal straight-line run from a leader up to (but excluding) the next
terminator. Discovery is lazy and cached; :meth:`Program.drop_block_caches`
mirrors the ``Instruction.__copy__`` cache-drop contract at block
granularity for callers that mutate instructions in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line run of non-control instructions.

    ``insts`` never contains a terminator (branch, ``HALT``, ``FORK``):
    terminators stay on the per-instruction tier, which owns prediction,
    checkpointing, fork CAMs, and fetch-stall semantics. A block is
    therefore always safe to execute start-to-finish once entered at
    ``start_pc``.
    """

    start_pc: int
    insts: tuple[Instruction, ...]

    @property
    def end_pc(self) -> int:
        """One past the last fused instruction's PC."""
        return self.start_pc + len(self.insts) * INSTRUCTION_BYTES

    def __len__(self) -> int:
        return len(self.insts)


def _is_terminator(inst: Instruction) -> bool:
    """Control transfers, HALT, and FORK end a block.

    FORK is architecturally a no-op but is a microarchitectural event
    (it consults the slice table and may spawn a helper thread), so it
    must reach :meth:`Core._fetch_one` individually. HALT stalls fetch.
    """
    return inst.is_branch or inst.op is Opcode.HALT or inst.op is Opcode.FORK


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
    #: Lazy basic-block cache: start PC -> BasicBlock. ``None`` until
    #: first discovery; dropped by :meth:`drop_block_caches`.
    _blocks: dict[int, BasicBlock] | None = field(
        default=None, repr=False, compare=False
    )
    #: Monotonic version for compiled-block caches; bumped by
    #: :meth:`drop_block_caches` so consumers can detect invalidation.
    block_version: int = field(default=0, repr=False, compare=False)
    #: Program-wide cache of generated fused segments, shared by every
    #: Core built over this program in-process, snapshot restores
    #: included. Keyed by ``(entry_pc, (width, frontend_stages,
    #: cam_excluded_pcs))`` — everything the generated code depends on
    #: besides the instruction objects themselves (which
    #: :meth:`drop_block_caches` covers).
    _segment_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.entry_pc is None:
            self.entry_pc = self.base_pc
        self._by_pc = {inst.pc: inst for inst in self.instructions}
        self._blocks = None

    def at(self, pc: int) -> Instruction | None:
        """Return the instruction at *pc*, or ``None`` if out of range."""
        return self._by_pc.get(pc)

    def __len__(self) -> int:
        return len(self.instructions)

    def __contains__(self, pc: int) -> bool:
        return pc in self._by_pc

    @property
    def end_pc(self) -> int:
        """One past the last instruction's PC."""
        return self.base_pc + len(self.instructions) * INSTRUCTION_BYTES

    # ------------------------------------------------------------------
    # Basic-block discovery (static pass, lazy, cached)
    # ------------------------------------------------------------------

    def basic_blocks(self) -> dict[int, BasicBlock]:
        """Return the basic blocks of this program, keyed by start PC.

        Leaders are: the entry PC, every label, every static branch
        target, and the fall-through successor of every terminator
        (branch / ``HALT`` / ``FORK``). A block runs from its leader to
        the instruction before the next terminator or leader, breaking
        on any PC discontinuity (merged programs may have gaps).
        Terminator instructions are never part of a block body; a leader
        that *is* a terminator produces no block.
        """
        blocks = self._blocks
        if blocks is None:
            blocks = self._discover_blocks()
            self._blocks = blocks
        return blocks

    def drop_block_caches(self) -> None:
        """Invalidate the block cache (and compiled-block consumers).

        Mirrors the ``Instruction.__copy__`` contract at block
        granularity: any pass that renames, clones, or splices
        instructions into this program must call this so stale fused
        closures are never executed. Bumps :attr:`block_version`, which
        compiled-block caches key on.
        """
        self._blocks = None
        self._segment_cache.clear()
        self.block_version += 1

    def _discover_blocks(self) -> dict[int, BasicBlock]:
        step = INSTRUCTION_BYTES
        leaders: set[int] = {self.entry_pc if self.entry_pc is not None else self.base_pc}
        leaders.update(self.labels.values())
        by_pc = self._by_pc
        for inst in self.instructions:
            if inst.is_branch and inst.target is not None:
                leaders.add(inst.target)
            if _is_terminator(inst):
                leaders.add(inst.pc + step)
        blocks: dict[int, BasicBlock] = {}
        for leader in sorted(leaders):
            inst = by_pc.get(leader)
            if inst is None or _is_terminator(inst):
                continue
            run = [inst]
            pc = leader + step
            while True:
                nxt = by_pc.get(pc)
                if nxt is None or _is_terminator(nxt) or pc in leaders:
                    break
                run.append(nxt)
                pc += step
            blocks[leader] = BasicBlock(start_pc=leader, insts=tuple(run))
        return blocks

    def pc_of(self, label: str) -> int:
        """Return the PC of a code label."""
        return self.labels[label]

    def addr_of(self, symbol: str) -> int:
        """Return the byte address of a data symbol."""
        return self.data_symbols[symbol]
