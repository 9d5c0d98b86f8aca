"""Backward slicing over execution traces (Sections 3.2-3.3).

Following Roth & Sohi's trace-based approach (reference [13] of the
paper), slices are computed over a *functional execution trace* rather
than static code: walk backward from a dynamic instance of a problem
instruction, collecting the producers of every needed register (and,
optionally, the stores feeding needed loads — "memory dependence
profiling"), until the candidate fork point is reached. The union of
the collected static PCs over many dynamic instances is the
un-optimized static slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.exceptions import Fault
from repro.arch.interpreter import ExecResult, run_functional
from repro.arch.memory import Memory
from repro.arch.state import ThreadState
from repro.isa.instruction import Instruction
from repro.isa.program import Program


@dataclass(slots=True)
class TraceEntry:
    """One executed instruction with its observable outcome."""

    index: int
    inst: Instruction
    result: ExecResult


def collect_trace(
    program: Program,
    memory_image: dict[int, int],
    max_instructions: int = 400_000,
) -> list[TraceEntry]:
    """Run *program* functionally and record the correct-path trace."""
    state = ThreadState(Memory(memory_image), program.entry_pc)
    trace: list[TraceEntry] = []
    for inst, result in run_functional(program, state, max_instructions):
        trace.append(TraceEntry(len(trace), inst, result))
        if result.fault is Fault.HALT:
            break
    return trace


@dataclass
class DynamicSlice:
    """Backward slice of one dynamic problem-instruction instance."""

    target_index: int
    #: Trace indices of the contributing instructions, oldest first.
    indices: list[int]
    #: Registers whose values must come from outside the slice window
    #: (the live-ins the hardware copies at fork, Section 4.3).
    live_in_regs: frozenset[int]
    #: Longest dependence chain through the slice, in instructions.
    dataflow_height: int

    @property
    def size(self) -> int:
        return len(self.indices)


def backward_slice(
    trace: list[TraceEntry],
    target_index: int,
    stop_pc: int | None = None,
    follow_memory: bool = True,
    max_window: int = 4096,
) -> DynamicSlice:
    """Walk backward from ``trace[target_index]`` collecting producers.

    ``stop_pc``: the candidate fork point; the walk does not cross the
    most recent execution of it (values live there become live-ins).
    ``follow_memory``: include the latest store feeding each needed
    load (disable to model the paper's *register allocation*
    optimization, which turns such values into live-ins instead).
    """
    target = trace[target_index]
    # Need-heights: the length of the dependence chain from a value to
    # the target, used to compute the slice's dataflow height.
    reg_need: dict[int, int] = {r: 1 for r in target.inst.source_regs()}
    addr_need: dict[int, int] = {}
    picked: list[int] = []
    max_height = 1

    start = max(0, target_index - max_window)
    for index in range(target_index - 1, start - 1, -1):
        entry = trace[index]
        if stop_pc is not None and entry.inst.pc == stop_pc:
            break
        produced_height = None
        if entry.inst.writes_dest and entry.inst.rd in reg_need:
            produced_height = reg_need.pop(entry.inst.rd)
        if (
            follow_memory
            and entry.inst.is_store
            and entry.result.addr is not None
            and (entry.result.addr & ~7) in addr_need
        ):
            stored_height = addr_need.pop(entry.result.addr & ~7)
            produced_height = max(produced_height or 0, stored_height)
        if produced_height is None:
            continue
        picked.append(index)
        entry_height = produced_height + 1
        max_height = max(max_height, entry_height)
        for reg in entry.inst.source_regs():
            reg_need[reg] = max(reg_need.get(reg, 0), entry_height)
        if (
            follow_memory
            and entry.inst.is_load
            and entry.result.addr is not None
        ):
            line = entry.result.addr & ~7
            addr_need[line] = max(addr_need.get(line, 0), entry_height)

    picked.reverse()
    return DynamicSlice(
        target_index=target_index,
        indices=picked,
        live_in_regs=frozenset(reg_need),
        dataflow_height=max_height,
    )


@dataclass
class StaticSlice:
    """Union of dynamic slices: the un-optimized static slice."""

    target_pc: int
    fork_pc: int | None
    pcs: frozenset[int]
    live_in_regs: frozenset[int]
    instances: int
    mean_dynamic_size: float
    mean_dataflow_height: float

    @property
    def static_size(self) -> int:
        return len(self.pcs)


def build_static_slice(
    trace: list[TraceEntry],
    target_pc: int,
    fork_pc: int | None = None,
    follow_memory: bool = True,
    max_instances: int = 64,
) -> StaticSlice:
    """Union the backward slices of up to *max_instances* dynamic
    instances of *target_pc*."""
    pcs: set[int] = set()
    live_ins: set[int] = set()
    sizes: list[int] = []
    heights: list[int] = []
    instances = 0
    for entry in trace:
        if entry.inst.pc != target_pc:
            continue
        dynamic = backward_slice(
            trace, entry.index, stop_pc=fork_pc, follow_memory=follow_memory
        )
        pcs.update(trace[i].inst.pc for i in dynamic.indices)
        pcs.add(target_pc)
        live_ins.update(dynamic.live_in_regs)
        sizes.append(dynamic.size)
        heights.append(dynamic.dataflow_height)
        instances += 1
        if instances >= max_instances:
            break
    if not instances:
        raise ValueError(f"target pc {target_pc:#x} never executed in trace")
    return StaticSlice(
        target_pc=target_pc,
        fork_pc=fork_pc,
        pcs=frozenset(pcs),
        live_in_regs=frozenset(live_ins),
        instances=instances,
        mean_dynamic_size=sum(sizes) / instances,
        mean_dataflow_height=sum(heights) / instances,
    )
