"""Fused basic-block execution tier (third tier, code generation).

The simulator has three execution tiers for a static instruction:

1. **decode** — :func:`repro.arch.interpreter.execute` table dispatch,
   used exactly once per static instruction;
2. **per-instruction closure** — the specialized ``inst._exec`` closure
   compiled on first execution (PR 1);
3. **fused block** — this module: one ``exec``-generated function per
   *fetch segment* (up to ``width`` consecutive non-control
   instructions of one basic block) that performs, for the whole
   segment, everything :meth:`Core._fetch_one` + the closure +
   :meth:`Core._dispatch` + :meth:`Core._make_ready` would do
   per-instruction — architectural effects with operand register
   indices and immediates folded in as literals, journaled writes,
   :class:`~repro.uarch.window.WindowEntry` creation straight from
   scalars (no ``ExecResult`` is ever allocated), dependence edges
   (in-segment edges are resolved *statically* at compile time), and
   ready-queue insertion — in one Python call.

Safety rules (see DESIGN.md):

* Segments contain no control transfers, ``HALT``, or ``FORK`` — those
  always deopt to the instruction tier, which owns prediction,
  checkpoints, fork CAMs, and fetch-stall semantics. "Deopt on taken
  branches" therefore holds by construction: a block ends *before* its
  terminator.
* A null-page access **deopts**: the faulting instruction's exact
  architectural effects (write 0 / skip the store, raise the fault
  flag) are performed inline, the group ends at that instruction, and
  ``stats.block_deopts`` is incremented. The rest of the fetch group
  is refetched by the instruction tier, bit-identically.
* Segments are compiled only for *main-thread* code: helper-thread
  slices keep the instruction tier (PGI lookups, instruction fuses,
  and fault quarantine are per-instruction events).
* PCs CAMed by the slice hardware (kill map, fork map, value-PGI
  loads) are never fused; those maps are static after ``Core.__init__``.

The generated function has the signature ``run(core, ctx, count)``
where ``count`` is the fetch budget (clamped internally to the segment
length); it returns the number of instructions actually fetched.
"""

from __future__ import annotations

from heapq import heappush
from typing import Sequence

from repro import settings
from repro.arch.exceptions import NULL_PAGE_LIMIT, Fault
from repro.arch.interpreter import _div
from repro.arch.memory import MASK64, to_signed
from repro.isa.instruction import ZERO_REG, Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch.window import WindowEntry

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1

#: ALU value expressions; ``{a}``/``{b}`` are operand expressions
#: (register subscripts or immediate literals). Semantics match the
#: per-instruction closures in :mod:`repro.arch.interpreter` exactly.
_ALU_EXPR = {
    Opcode.ADD: "{a} + ({b})",
    Opcode.SUB: "{a} - ({b})",
    Opcode.AND: "{a} & ({b})",
    Opcode.OR: "{a} | ({b})",
    Opcode.XOR: "{a} ^ ({b})",
    Opcode.SLL: "{a} << (({b}) & 63)",
    Opcode.SRL: "({a} & {m}) >> (({b}) & 63)",
    Opcode.SRA: "{a} >> (({b}) & 63)",
    Opcode.CMPEQ: "int({a} == ({b}))",
    Opcode.CMPLT: "int({a} < ({b}))",
    Opcode.CMPLE: "int({a} <= ({b}))",
    Opcode.CMPULT: "int(({a} & {m}) < (({b}) & {m}))",
    Opcode.S4ADD: "({a} << 2) + ({b})",
    Opcode.S8ADD: "({a} << 3) + ({b})",
    Opcode.MUL: "{a} * ({b})",
    Opcode.DIV: "_div({a}, {b})",
}

_CMOV_TEST = {
    Opcode.CMOVEQ: "== 0",
    Opcode.CMOVNE: "!= 0",
    Opcode.CMOVLT: "< 0",
    Opcode.CMOVGE: ">= 0",
}

#: Source line the ST path emits to journal the overwritten word before
#: a fused store lands. Hoisted to a module constant so differential
#: tests can monkeypatch it (e.g. to ``"    pass"``) and prove the
#: fuzzer detects a fused tier that skips journaled writes — wrong-path
#: stores then survive rollback and diverge architecturally.
_ST_JOURNAL_SRC = "    if mjon: mj((wa, mw_get(wa)))"

#: Opcodes the code generator can fuse. Everything else (control
#: transfers, HALT, FORK) terminates a block by construction.
FUSABLE_OPS = (
    frozenset(_ALU_EXPR)
    | frozenset(_CMOV_TEST)
    | {Opcode.LI, Opcode.MOV, Opcode.LD, Opcode.ST, Opcode.NOP}
)


def fusion_default() -> bool:
    """Process-wide default for ``Core(fused_blocks=...)``.

    ``REPRO_NO_FUSE`` (set by the ``--no-fuse`` CLI flag) disables the
    fused tier everywhere for differential testing and bisection.
    """
    return not settings.get("no_fuse")


def compile_segment(
    insts: Sequence[Instruction],
    thread_id: int,
    frontend_stages: int,
):
    """Compile one fetch segment into a single fused function.

    *insts* must be consecutive non-terminator instructions of one
    basic block (the caller — :meth:`Core._compile_fused` — guarantees
    this and the CAM exclusions).
    """
    k_total = len(insts)
    assert k_total > 0
    ns: dict[str, object] = {
        "_E": WindowEntry,
        "_new": WindowEntry.__new__,
        "_div": _div,
        "_ts": to_signed,
        "_heappush": heappush,
        "_F0": Fault.NONE,
        "_FND": Fault.NULL_DEREF,
    }
    src: list[str] = []
    emit = src.append
    emit("def _fused_run(core, ctx, count):")
    emit(f"    if count > {k_total}: count = {k_total}")
    emit("    state = ctx.state")
    emit("    regs = state.regs")
    emit("    r = regs._regs")
    emit("    ja = regs._journal.append")
    emit("    lw = ctx.last_writer")
    emit("    rob_append = ctx.rob.append")
    emit("    ready = core._ready")
    emit("    seq = core._seq")
    emit("    push = _heappush")
    emit("    st = core.stats")
    emit("    cycle = core.cycle")
    emit(f"    rc = cycle + {frontend_stages}")
    emit("    vn = core._next_vn")
    # Memory fast paths: mirror ``Memory.load`` / ``Memory.store``
    # inline (word-align, default-zero reads, journaled writes).
    # Register values are always wrapped signed 64-bit, so the store's
    # ``to_signed`` reduces to the same range check the ALU wrap uses.
    if any(i.is_mem for i in insts):
        emit("    mem = state.memory")
        emit("    mw = mem._words")
        emit("    mw_get = mw.get")
    if any(i.op is Opcode.ST for i in insts):
        emit("    mj = mem._journal.append")
        emit("    mjon = mem.journaling")

    def vn_expr(k: int) -> str:
        return "vn" if k == 0 else f"vn + {k}"

    def entry(
        k: int,
        value: str,
        addr: str,
        store: str,
        next_pc: int,
        fault: str,
        indent: str = "    ",
    ) -> None:
        """``WindowEntry.__init__`` unrolled into direct slot stores —
        identical state, no per-entry Python frame."""
        ev = f"e{k}"
        emit(f"{indent}{ev} = _new(_E)")
        emit(
            f"{indent}{ev}.inst = i{k}; {ev}.thread_id = {thread_id}; "
            f"{ev}.vn = {vn_expr(k)}; {ev}.fetch_cycle = cycle"
        )
        emit(
            f"{indent}{ev}.rvalue = {value}; {ev}.raddr = {addr}; "
            f"{ev}.rstore = {store}; {ev}.rtaken = None"
        )
        emit(f"{indent}{ev}.rnext_pc = {next_pc}; {ev}.rfault = {fault}")
        emit(
            f"{indent}{ev}.prediction = None; {ev}.checkpoint = None; "
            f"{ev}.mispredicted = False"
        )
        emit(
            f"{indent}{ev}.effective_taken = None; "
            f"{ev}.early_resolved = False"
        )
        emit(
            f"{indent}{ev}.completed = False; {ev}.squashed = False; "
            f"{ev}.committed = False"
        )
        emit(f"{indent}{ev}.pending_deps = 0; {ev}.waiters = []")
        emit(
            f"{indent}{ev}.prev_writer = None; {ev}.pgi_slot = None; "
            f"{ev}.match_slot = None"
        )
        emit(
            f"{indent}{ev}.counts_as_miss = False; "
            f"{ev}.value_predicted = False; {ev}.value_correct = False"
        )

    def epilogue(k: int, next_pc: int, indent: str) -> None:
        """Account for ``k+1`` fetched instructions and return."""
        n = k + 1
        emit(f"{indent}state.pc = {next_pc}")
        emit(f"{indent}core._next_vn = vn + {n}")
        emit(f"{indent}st.main_fetched += {n}")
        emit(f"{indent}core._window_count += {n}")
        emit(f"{indent}ctx.in_flight += {n}")
        emit(f"{indent}return {n}")

    # Latest in-segment writer per register: reg -> entry variable name.
    seg_writer: dict[int, str] = {}

    def dispatch(k: int, inst: Instruction, indent: str) -> None:
        """Dependence edges + rename update + readiness for ``e{k}``.

        Mirrors ``Core._dispatch`` / ``_make_ready`` exactly, except
        that edges from producers *inside this segment* are emitted
        statically: such a producer was created microseconds ago in
        this very call and cannot be completed or squashed yet, so the
        runtime checks are provably dead. ``_make_ready``'s clamp of
        the ready cycle to "now" is dead too: ``fetch_cycle`` *is* now
        and ``frontend_stages >= 0``.
        """
        ev = f"e{k}"
        sources = inst.unique_source_regs()
        static = [seg_writer[s] for s in sources if s in seg_writer]
        external = [s for s in sources if s not in seg_writer]
        for producer in static:
            emit(f"{indent}{producer}.waiters.append({ev})")
        if external:
            emit(f"{indent}pend = {len(static)}")
            for reg in external:
                emit(f"{indent}p = lw.get({reg})")
                emit(
                    f"{indent}if p is not None and not p.completed"
                    " and not p.squashed:"
                )
                emit(f"{indent}    pend += 1")
                emit(f"{indent}    p.waiters.append({ev})")
        if inst._op_writes and inst.rd is not None:
            rd = inst.rd
            prev = seg_writer.get(rd)
            if prev is not None:
                emit(f"{indent}{ev}.prev_writer = ({rd}, {prev})")
            else:
                emit(f"{indent}{ev}.prev_writer = ({rd}, lw.get({rd}))")
            emit(f"{indent}lw[{rd}] = {ev}")
        if external:
            emit(f"{indent}if pend:")
            emit(f"{indent}    {ev}.pending_deps = pend")
            emit(f"{indent}else:")
            emit(f"{indent}    push(ready, (rc, next(seq), {ev}))")
        elif static:
            emit(f"{indent}{ev}.pending_deps = {len(static)}")
        else:
            emit(f"{indent}push(ready, (rc, next(seq), {ev}))")

    for k, inst in enumerate(insts):
        op = inst.op
        next_pc = inst.pc + INSTRUCTION_BYTES
        ev = f"e{k}"
        iv = f"i{k}"
        ns[iv] = inst
        rd = inst.rd
        dead = rd == ZERO_REG
        a = f"r[{inst.ra}]"
        b = f"r[{inst.rb}]" if inst.rb is not None else repr(inst.imm)
        if op in _ALU_EXPR:
            expr = _ALU_EXPR[op].format(a=a, b=b, m=MASK64)
            emit(f"    v = {expr}")
            emit(f"    if v < {_MIN64} or v > {_MAX64}: v = _ts(v)")
            if not dead:
                emit(f"    ja(({rd}, r[{rd}])); r[{rd}] = v")
            entry(k, "v", "None", "None", next_pc, "_F0")
        elif op in _CMOV_TEST:
            emit(
                f"    v = r[{inst.rb}] if {a} {_CMOV_TEST[op]} else r[{rd}]"
            )
            if not dead:
                emit(f"    ja(({rd}, r[{rd}])); r[{rd}] = v")
            entry(k, "v", "None", "None", next_pc, "_F0")
        elif op is Opcode.MOV:
            emit(f"    v = {a}")
            if not dead:
                emit(f"    ja(({rd}, r[{rd}])); r[{rd}] = v")
            entry(k, "v", "None", "None", next_pc, "_F0")
        elif op is Opcode.LI:
            # The register holds the wrapped value; the *reported*
            # value is the raw immediate (closure contract).
            if not dead:
                stored = to_signed(inst.imm)
                emit(f"    ja(({rd}, r[{rd}])); r[{rd}] = {stored}")
            entry(k, repr(inst.imm), "None", "None", next_pc, "_F0")
        elif op is Opcode.NOP:
            entry(k, "None", "None", "None", next_pc, "_F0")
        elif op is Opcode.LD:
            emit(f"    addr = {a} + ({inst.imm})")
            emit(f"    if addr < {NULL_PAGE_LIMIT}:")
            # Fault path: exact architectural effects, then deopt.
            if not dead:
                emit(f"        ja(({rd}, r[{rd}])); r[{rd}] = 0")
            entry(k, "0", "addr", "None", next_pc, "_FND", "        ")
            emit(f"        rob_append({ev})")
            dispatch(k, inst, "        ")
            emit("        st.block_deopts += 1")
            epilogue(k, next_pc, "        ")
            emit("    v = mw_get(addr & -8, 0)")
            if not dead:
                emit(f"    ja(({rd}, r[{rd}])); r[{rd}] = v")
            entry(k, "v", "addr", "None", next_pc, "_F0")
        elif op is Opcode.ST:
            emit(f"    addr = {a} + ({inst.imm})")
            emit(f"    sv = r[{rd}]")
            emit(f"    if addr < {NULL_PAGE_LIMIT}:")
            entry(k, "None", "addr", "sv", next_pc, "_FND", "        ")
            emit(f"        rob_append({ev})")
            dispatch(k, inst, "        ")
            emit("        st.block_deopts += 1")
            epilogue(k, next_pc, "        ")
            emit("    wa = addr & -8")
            emit(_ST_JOURNAL_SRC)
            emit(f"    mw[wa] = sv if {_MIN64} <= sv <= {_MAX64} else _ts(sv)")
            entry(k, "None", "addr", "sv", next_pc, "_F0")
        else:  # pragma: no cover - callers filter on FUSABLE_OPS
            raise NotImplementedError(f"unfusable opcode {op}")

        emit(f"    rob_append({ev})")
        dispatch(k, inst, "    ")
        if inst._op_writes and rd is not None:
            seg_writer[rd] = ev
        if k + 1 < k_total:
            emit(f"    if count == {k + 1}:")
            epilogue(k, next_pc, "        ")
        else:
            epilogue(k, next_pc, "    ")

    code = "\n".join(src)
    exec(compile(code, f"<fused:{insts[0].pc:#x}>", "exec"), ns)
    fn = ns["_fused_run"]
    fn._source = code  # debugging aid
    return fn


#: Fetch-group entries at one PC, counted per Core, before its segment
#: is installed. Compilation costs ~2 ms per segment (mostly
#: ``compile()``); a cold or wrong-path-only entry PC never earns that
#: back, so the fused tier warms up through the instruction tier first.
HOT_THRESHOLD = 8

#: Shortest segment worth generating. The prologue (a dozen local
#: binds) is amortized over the segment body; a single-instruction
#: stub is no faster than the per-instruction tier, so those stay
#: uncompiled instead of paying codegen for nothing.
MIN_FUSE_LEN = 2
