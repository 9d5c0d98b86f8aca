"""Slice optimizations (Section 3.2).

These passes transform slice code — sequences of
:class:`~repro.isa.instruction.Instruction` in pre-assembly form — the
way the paper's hand optimizations do. Because slices only affect
microarchitectural state, the passes "merely must discern that these
transformations are correct most of the time"; each is driven by
profile facts the caller supplies rather than by proofs:

* :func:`strength_reduce_division` — collapses the compiler's
  3-instruction signed-division-by-2 idiom to a bare ``sra`` (value
  profiling says the operand is never negative).
* :func:`bypass_memory` — the *register allocation* optimization:
  replaces a load with the register the profiled matching store reads,
  removing communication through memory ("the most important"
  optimization per Section 3.2).
* :func:`eliminate_moves` — removes register moves by renaming uses.
* :func:`remove_dead_code` — drops instructions whose results are
  never used (loads are kept only if the caller marks them as
  prefetches worth keeping).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


@dataclass
class OptimizationReport:
    """Instructions removed per pass, for Figure 4 -> Figure 5 stories."""

    removed: dict[str, int] = field(default_factory=dict)

    def add(self, pass_name: str, count: int) -> None:
        if count:
            self.removed[pass_name] = self.removed.get(pass_name, 0) + count


def _clone(insts: list[Instruction]) -> list[Instruction]:
    return [copy.copy(inst) for inst in insts]


def _rename_reads(inst: Instruction, old: int, new: int) -> None:
    if inst.ra == old:
        inst.ra = new
    if inst.rb == old:
        inst.rb = new
    # Stores and cmovs read rd; slices contain no stores, but cmovs can
    # appear from if-conversion.
    if inst.op in _READS_RD and inst.rd == old:
        inst.rd = new


_READS_RD = frozenset(
    {Opcode.CMOVEQ, Opcode.CMOVNE, Opcode.CMOVLT, Opcode.CMOVGE, Opcode.ST}
)


def strength_reduce_division(
    insts: list[Instruction], report: OptimizationReport | None = None
) -> list[Instruction]:
    """Collapse ``cmplt t,a,0; add u,a,t; sra d,u,1`` into ``sra d,a,1``.

    Sound when value profiling shows ``a`` is never negative — true for
    array indices like vpr's ``ifrom`` (Section 3.2).
    """
    insts = _clone(insts)
    out: list[Instruction] = []
    i = 0
    removed = 0
    while i < len(insts):
        a, b, c = insts[i], (
            insts[i + 1] if i + 1 < len(insts) else None
        ), (insts[i + 2] if i + 2 < len(insts) else None)
        if (
            b is not None
            and c is not None
            and a.op is Opcode.CMPLT
            and a.imm == 0
            and b.op is Opcode.ADD
            and b.ra == a.ra
            and b.rb == a.rd
            and c.op is Opcode.SRA
            and c.ra == b.rd
            and c.imm == 1
        ):
            out.append(
                Instruction(
                    Opcode.SRA, rd=c.rd, ra=a.ra, imm=1, comment=c.comment
                )
            )
            removed += 2
            i += 3
            continue
        out.append(a)
        i += 1
    if report is not None:
        report.add("strength reduction", removed)
    return out


def bypass_memory(
    insts: list[Instruction],
    load_index: int,
    value_reg: int,
    report: OptimizationReport | None = None,
) -> list[Instruction]:
    """Register allocation: drop the load at *load_index* and rename its
    consumers to read *value_reg* (the register the profiled matching
    store read, which becomes a slice live-in)."""
    insts = _clone(insts)
    load = insts[load_index]
    if not load.is_load:
        raise ValueError(f"instruction at index {load_index} is not a load")
    dest = load.rd
    del insts[load_index]
    for inst in insts[load_index:]:
        _rename_reads(inst, dest, value_reg)
        if inst.writes_dest and inst.rd == dest:
            break
    if report is not None:
        report.add("register allocation", 1)
    return insts


def eliminate_moves(
    insts: list[Instruction], report: OptimizationReport | None = None
) -> list[Instruction]:
    """Remove ``mov rd, ra`` by renaming subsequent reads of rd to ra.

    Applied only when neither register is redefined before the last use
    of ``rd`` (always re-checkable on slice-sized code).
    """
    insts = _clone(insts)
    removed = 0
    i = 0
    while i < len(insts):
        inst = insts[i]
        if inst.op is Opcode.MOV and inst.rd != inst.ra:
            safe = True
            for later in insts[i + 1 :]:
                if later.writes_dest and later.rd in (inst.rd, inst.ra):
                    # Redefinition: renaming past this point is unsafe;
                    # accept only if rd is never read afterwards.
                    safe = all(
                        inst.rd not in following.source_regs()
                        for following in insts[insts.index(later) :]
                    )
                    break
            if safe:
                dest, src = inst.rd, inst.ra
                del insts[i]
                for later in insts[i:]:
                    _rename_reads(later, dest, src)
                    if later.writes_dest and later.rd == dest:
                        break
                removed += 1
                continue
        i += 1
    if report is not None:
        report.add("move elimination", removed)
    return insts


def remove_dead_code(
    insts: list[Instruction],
    live_out: set[int],
    keep_loads: bool = True,
    report: OptimizationReport | None = None,
) -> list[Instruction]:
    """Backward liveness: drop instructions writing dead registers.

    Branches are control, never dropped. Loads are kept by default —
    in a slice a "dead" load is still a prefetch — pass
    ``keep_loads=False`` to drop them too.

    ``live_out`` must include every register whose value matters after
    the sequence (PGI outputs, loop-carried registers).
    """
    insts = _clone(insts)
    removed = 0
    changed = True
    while changed:
        changed = False
        live = set(live_out)
        keep: list[bool] = [True] * len(insts)
        for i in range(len(insts) - 1, -1, -1):
            inst = insts[i]
            if inst.is_branch or inst.op in (Opcode.HALT, Opcode.NOP):
                live.update(inst.source_regs())
                continue
            if inst.is_load and keep_loads:
                live.update(inst.source_regs())
                continue
            if inst.writes_dest and inst.rd not in live:
                keep[i] = False
                changed = True
                continue
            if inst.writes_dest:
                live.discard(inst.rd)
            live.update(inst.source_regs())
        if changed:
            removed += keep.count(False)
            insts = [inst for inst, k in zip(insts, keep) if k]
    if report is not None:
        report.add("dead code", removed)
    return insts
