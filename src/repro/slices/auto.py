"""Automatic slice construction (Section 3.3).

"For speculative slice pre-execution to be viable, an automated means
for constructing slices will be necessary. ... most of the slices and
optimizations only use profile information that is easy to collect."

:func:`construct_slice` implements that pipeline for single-loop (or
straight-line) problem regions, which covers the paper's common case:

1. collect a functional execution trace;
2. union the backward slices of the problem branch's dynamic instances,
   stopping at the chosen fork point (:mod:`repro.slices.builder`);
3. profile memory dependences: a load whose value always equals the
   current value of the feeding store's source register is *register
   allocated* — replaced by that register (Section 3.2);
4. emit the selected instructions in program order, re-creating the
   loop around the problem branch, replacing the branch itself with its
   condition producer (the PGI) plus a slice-exit copy of the branch;
5. optimize: strength-reduce division idioms, eliminate moves, and drop
   dead code (keeping loads that cover problem loads as prefetches);
6. derive the iteration bound, the kill points, and the live-ins from
   the same trace.

Raises :class:`SliceConstructionError` when the region resists slicing
(too many live-ins, irreducible control flow) — the gcc/parser failure
mode of Section 6.2.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.isa.assembler import Assembler
from repro.isa.instruction import Instruction
from repro.slices.builder import StaticSlice, TraceEntry, build_static_slice, collect_trace
from repro.slices.optimize import (
    OptimizationReport,
    bypass_memory,
    eliminate_moves,
    remove_dead_code,
    strength_reduce_division,
)
from repro.slices.spec import (
    SLICE_CODE_BASE,
    KillKind,
    KillSpec,
    PGISpec,
    SliceSpec,
)

if False:  # pragma: no cover - import for type checkers only
    from repro.workloads.base import Workload


class SliceConstructionError(Exception):
    """The problem region resists slicing (Section 6.2)."""


@dataclass
class MemoryProfile:
    """Profiled memory dependences: load pc -> (store pc, value reg)."""

    stable: dict[int, tuple[int, int]] = field(default_factory=dict)


def profile_memory_dependences(
    trace: list[TraceEntry], stability: float = 0.95
) -> MemoryProfile:
    """Find loads whose value always matches the feeding store's source
    register *at load time* — candidates for register allocation."""
    last_store: dict[int, tuple[int, int]] = {}  # addr -> (store pc, reg)
    reg_values: dict[int, int] = {}
    dep_counts: dict[int, Counter] = defaultdict(Counter)
    match_counts: dict[int, Counter] = defaultdict(Counter)

    for entry in trace:
        inst = entry.inst
        if inst.is_store and entry.result.addr is not None:
            last_store[entry.result.addr & ~7] = (inst.pc, inst.rd)
        elif inst.is_load and entry.result.addr is not None:
            dep = last_store.get(entry.result.addr & ~7)
            if dep is not None:
                store_pc, value_reg = dep
                dep_counts[inst.pc][dep] += 1
                if reg_values.get(value_reg) == entry.result.value:
                    match_counts[inst.pc][dep] += 1
        if inst.writes_dest and entry.result.value is not None:
            reg_values[inst.rd] = entry.result.value

    profile = MemoryProfile()
    for load_pc, counts in dep_counts.items():
        total = sum(counts.values())
        (dep, count), = counts.most_common(1)
        if count / total >= stability and (
            match_counts[load_pc][dep] / total >= stability
        ):
            profile.stable[load_pc] = dep
    return profile


@dataclass
class AutoSlice:
    """Result of automatic construction."""

    spec: SliceSpec
    static_info: StaticSlice
    report: OptimizationReport
    bypassed_loads: dict[int, int]  # load pc -> value reg
    iteration_profile: list[int]


def _loop_around(program, selected: set[int], branch_pc: int):
    """Find the innermost back-edge loop containing the problem branch."""
    best = None
    for inst in program.instructions:
        if (
            inst.is_branch
            and inst.target is not None
            and inst.target <= inst.pc
            and inst.target <= branch_pc <= inst.pc
        ):
            span = inst.pc - inst.target
            if best is None or span < best[1] - best[0]:
                best = (inst.target, inst.pc)
    return best


def _iteration_profile(
    trace: list[TraceEntry], fork_pc: int, branch_pc: int
) -> list[int]:
    counts: list[int] = []
    current = None
    for entry in trace:
        if entry.inst.pc == fork_pc:
            if current is not None:
                counts.append(current)
            current = 0
        elif entry.inst.pc == branch_pc and current is not None:
            current += 1
    if current is not None:
        counts.append(current)
    return counts


def construct_slice(
    workload: "Workload",
    branch_pc: int,
    fork_pc: int,
    name: str = "auto",
    base_pc: int = SLICE_CODE_BASE + 0x60000,
    max_live_ins: int = 6,
    max_static: int = 48,
    trace_limit: int = 200_000,
    optimize: bool = True,
) -> AutoSlice:
    """Automatically construct a slice for *branch_pc* forked at
    *fork_pc* (see module docstring for the pipeline)."""
    program = workload.program
    branch = program.at(branch_pc)
    if branch is None or not branch.is_conditional:
        raise SliceConstructionError(
            f"{branch_pc:#x} is not a conditional branch"
        )

    trace = collect_trace(program, workload.memory_image, trace_limit)
    static = build_static_slice(
        trace, branch_pc, fork_pc, follow_memory=False
    )
    if static.static_size > max_static:
        raise SliceConstructionError(
            f"slice too large: {static.static_size} static instructions"
        )
    profile = profile_memory_dependences(trace)

    # Register allocation pulls a store's *value chain* into the slice:
    # the bypassed load will read the value register, so its producers
    # (relative to the fork) must execute in the slice too.
    selected_pcs = set(static.pcs)
    if optimize:
        for load_pc in list(selected_pcs):
            inst = program.at(load_pc)
            if inst is None or not inst.is_load:
                continue
            dep = profile.stable.get(load_pc)
            if dep is None:
                continue
            store_pc, _value_reg = dep
            try:
                store_chain = build_static_slice(
                    trace, store_pc, fork_pc, follow_memory=False
                )
            except ValueError:
                continue
            selected_pcs.update(store_chain.pcs)
            selected_pcs.discard(store_pc)  # slices perform no stores

    loop = _loop_around(program, selected_pcs, branch_pc)
    selected = sorted(pc for pc in selected_pcs if pc != branch_pc)

    # ------------------------------------------------------------------
    # Emit the selected instructions in program order. The problem
    # branch becomes (a) nothing — its condition producer is the PGI —
    # plus (b) a retargeted copy acting as the slice's exit test.
    # ------------------------------------------------------------------
    insts: list[Instruction] = []
    back_edge_inst = None
    for pc in selected:
        original = program.at(pc)
        if original.is_branch:
            if loop is not None and pc == loop[1]:
                back_edge_inst = original
            continue  # other control flow is not replicated
        clone = copy.copy(original)
        clone.target_label = None
        insts.append(clone)  # clone keeps .pc = original pc

    cond_regs = branch.source_regs()
    if len(cond_regs) != 1:
        raise SliceConstructionError("cannot identify the branch condition")
    cond_reg = cond_regs[0]

    # Register allocation: bypass profiled-stable loads feeding the
    # condition chain, making the store's value register a live-in (or
    # a slice-computed value).
    bypassed: dict[int, int] = {}
    report = OptimizationReport()
    if optimize:
        for index in range(len(insts) - 1, -1, -1):
            inst = insts[index]
            if not inst.is_load or inst.pc not in profile.stable:
                continue
            store_pc, value_reg = profile.stable[inst.pc]
            insts = bypass_memory(insts, index, value_reg, report)
            bypassed[inst.pc] = value_reg
        insts = strength_reduce_division(insts, report)
        insts = eliminate_moves(insts, report)
        loop_carried = set()
        if loop is not None:
            defined: set[int] = set()
            for inst in insts:
                if loop[0] <= inst.pc <= loop[1]:
                    loop_carried.update(
                        r for r in inst.source_regs() if r not in defined
                    )
                    if inst.writes_dest:
                        defined.add(inst.rd)
        live_out = {cond_reg} | loop_carried
        if back_edge_inst is not None:
            live_out.update(back_edge_inst.source_regs())
        insts = remove_dead_code(
            insts,
            live_out,
            keep_loads=False,
            report=report,
        )
        # Re-add prefetch-worthy loads dropped as dead: any load at a
        # problem-load PC must stay (it is the prefetch).
        kept_pcs = {inst.pc for inst in insts}
        for pc in selected:
            original = program.at(pc)
            if (
                original.is_load
                and pc in workload.problem_load_pcs
                and pc not in kept_pcs
                and pc not in bypassed
            ):
                clone = copy.copy(original)
                clone.target_label = None
                position = sum(1 for i in insts if i.pc < pc)
                insts.insert(position, clone)

    # ------------------------------------------------------------------
    # Assemble, inserting the loop label, exit test, and back edge.
    # ------------------------------------------------------------------
    asm = Assembler(base_pc=base_pc)
    asm.label("auto_entry")
    new_pcs: dict[int, int] = {}  # original pc -> slice pc (loads/PGI)
    pgi_pc = None
    loop_started = False

    def emit(inst: Instruction) -> None:
        nonlocal pgi_pc
        clone = copy.copy(inst)
        original_pc = clone.pc
        emitted = asm._emit(clone)
        new_pcs[original_pc] = emitted.pc
        if clone.writes_dest and clone.rd == cond_reg:
            pgi_pc = emitted.pc

    for inst in insts:
        if loop is not None and not loop_started and inst.pc >= loop[0]:
            asm.label("auto_loop")
            loop_started = True
        if loop is not None and inst.pc > branch_pc and pgi_pc is not None:
            # First instruction past the problem branch: insert the
            # exit test (a retargeted copy of the branch).
            if "auto_exit" not in asm._labels and not any(
                i.target_label == "auto_exit" for i in asm._instructions
            ):
                exit_branch = copy.copy(branch)
                exit_branch.target = None
                exit_branch.target_label = "auto_exit"
                asm._emit(exit_branch)
        emit(inst)
    back_pc = None
    if loop is not None:
        if not any(i.target_label == "auto_exit" for i in asm._instructions):
            exit_branch = copy.copy(branch)
            exit_branch.target = None
            exit_branch.target_label = "auto_exit"
            asm._emit(exit_branch)
        if back_edge_inst is not None:
            back = copy.copy(back_edge_inst)
            back.target = None
            back.target_label = "auto_loop"
            back_pc = asm._emit(back).pc
        else:
            back_pc = asm.br("auto_loop").pc
    asm.label("auto_exit")
    asm.halt()
    code = asm.build()

    if pgi_pc is None:
        raise SliceConstructionError("condition producer not in the slice")

    # Live-ins: registers read before any definition in the emitted code.
    defined: set[int] = set()
    live_ins: set[int] = set()
    for inst in code.instructions:
        live_ins.update(r for r in inst.source_regs() if r not in defined)
        if inst.writes_dest:
            defined.add(inst.rd)
    if len(live_ins) > max_live_ins:
        raise SliceConstructionError(
            f"too many live-ins: {sorted(live_ins)}"
        )

    iteration_profile = _iteration_profile(trace, fork_pc, branch_pc)
    max_iterations = None
    if loop is not None:
        bound = sorted(iteration_profile)[
            int(len(iteration_profile) * 0.95)
        ] if iteration_profile else 4
        max_iterations = max(min(bound + 1, 8), 2)

    kills = []
    if loop is not None:
        kills.append(KillSpec(loop[0], KillKind.LOOP, skip_first=True))
    exit_target = (
        branch.target
        if loop is None or not (loop[0] <= branch.target <= loop[1])
        else branch_pc + 4
    )
    kills.append(KillSpec(exit_target, KillKind.SLICE))

    prefetch_for = {
        new_pc: orig_pc
        for orig_pc, new_pc in new_pcs.items()
        if orig_pc in workload.problem_load_pcs
        and code.at(new_pc) is not None
        and code.at(new_pc).is_load
    }

    spec = SliceSpec(
        name=name,
        fork_pc=fork_pc,
        code=code,
        entry_pc=code.pc_of("auto_entry"),
        live_in_regs=tuple(sorted(live_ins)),
        pgis=(
            PGISpec(
                slice_pc=pgi_pc,
                branch_pc=branch_pc,
                branch_cond=branch.op,
            ),
        ),
        kills=tuple(kills),
        max_iterations=max_iterations,
        loop_back_pc=back_pc,
        prefetch_for=prefetch_for,
    )
    return AutoSlice(
        spec=spec,
        static_info=static,
        report=report,
        bypassed_loads=bypassed,
        iteration_profile=iteration_profile,
    )
