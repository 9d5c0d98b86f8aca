"""Sampled simulation: functional fast-forward, microarchitectural
warming, content-addressed warmed-state snapshots, and multi-region
sample plans.

The paper's own methodology (§6) never simulates its multi-billion-
instruction runs in full detail — it fast-forwards to the regions it
measures. This module is that layer for our simulator, in four parts:

* :func:`fast_forward` — execute a workload's warmup prefix purely
  *functionally* on the interpreter tier with **functional warming**:
  every load/store runs the one state-only demand access,
  :func:`~repro.uarch.prefetch.build_warm_access` (the
  :class:`~repro.uarch.cache.DataHierarchy` transitions and the stream
  prefetcher's training, inlined into one closure), and every branch
  trains the
  :class:`~repro.uarch.branch.frontend_predictor.FrontEndPredictor`'s
  component tables directly with the resolved outcome — state updates
  only, no timing — so the detailed region starts with realistic
  cache, prefetcher and predictor contents instead of a cold machine.
  Warming only observes: the architectural state it leaves is exactly
  the interpreter's. A prefix can *resume* from an earlier snapshot
  (``resume_from``); resumed and straight-through warmups produce
  byte-identical warm images (the split-vs-straight differential in
  ``tests/harness/test_sampled.py`` pins this down), which is what
  makes snapshot chains sound.
* :class:`Snapshot` / :class:`SnapshotStore` — the resulting
  architectural state (registers, PC, full memory image) plus the
  warmed cache/predictor/prefetcher images, persisted under
  ``.repro_cache/snapshots/`` with the same checksummed-payload /
  corrupt-quarantine discipline as the run cache
  (:mod:`repro.harness.blobstore`), keyed by
  ``(workload, scale, ff_insts, warming config, src hash)``.
* :class:`SamplePlan` / :func:`detail_warmup` — the windows a request
  measures. :meth:`repro.harness.parallel.RunRequest.schedule` is the
  one reading of a request's sampling fields: full detail is one window
  at depth 0, a single-window sampled run one window at its
  fast-forward depth, and a multi-region run SMARTS-style periodic
  sampling, N windows (each preceded by a detailed-warming discard
  prefix) spread over the workload's region with functional warming
  between them. Each window's prefix depth names one member of a
  **snapshot chain**.
* :func:`ensure_snapshot` / :func:`iter_chain` /
  :func:`prebuild_snapshots` — build-once / share-everywhere:
  ``run_matrix`` pre-builds each distinct snapshot (or chain) a matrix
  needs before fanning out, so a machine-parameter sweep pays the
  architectural prefix exactly once. Chain member *k+1* is built
  incrementally by resuming from member *k*, never by re-running from
  the entry point, so a 10-region plan costs one pass over the
  program. The warming key digests only the sub-configs that shape
  warmed state (L1D/L2 geometry, prefetch, branch predictor budgets) —
  varying ``memory_latency``, ``window_entries``, or slice hardware
  across sweep points reuses the identical chain. Every request
  measures its windows along an :func:`iter_chain` walk (a depth-0
  window needs no member), and :func:`ensure_snapshot` is the
  one-member walk.

**Accuracy model.** Functional warming is architectural: it sees no
wrong-path accesses, no timing-dependent prefetch arrivals, and no
helper threads (FORK is architecturally a no-op). The detailed-warming
*discard window* (:func:`detail_warmup`) absorbs that residue: the first
``sample // 10`` committed instructions (capped at
:data:`DETAIL_WARMUP_CAP`) run in full detail but are discarded at the
warmup boundary, so in-flight timing, stream-prefetcher state, and the
slice correlator re-converge before measurement starts. Accuracy
bounds vs. full-detail IPC are enforced by
``benchmarks/bench_sampled.py`` (single-region < 2% deviation;
multi-region within the sampled 95% CI) and the differential suite
(``tests/harness/test_sampled.py``) proves fast-forward = 0 is
bit-identical to a full detailed run.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import multiprocessing
from dataclasses import dataclass, field

from repro.arch.exceptions import Fault
from repro.arch.interpreter import _compile
from repro.arch.memory import Memory
from repro.arch.state import ThreadState
from repro.harness.blobstore import IntegrityStore, payload_digest
from repro.harness.cache import content_key
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch.branch.frontend_predictor import FrontEndPredictor
from repro.uarch.cache import DataHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.prefetch import StreamPrefetcher, build_warm_access
from repro.uarch.warmfuse import (
    WarmContext,
    compile_warm_run,
    warm_block_table,
)
from repro.workloads.base import Workload

#: Bump when the snapshot payload layout changes; old snapshots become
#: misses instead of unpickling into the wrong shape. v2: warming runs
#: the dedicated direct-update loop (resumable, prefetcher image,
#: chain parentage) instead of the predict/restore/replay protocol.
#: v3: build provenance (``built_by`` / ``resumed_from_depth``).
SNAPSHOT_SCHEMA_VERSION = 3

#: Detailed-warming discard window for a sampled run: the first
#: ``sample // DETAIL_WARMUP_FRACTION`` committed instructions (capped
#: at DETAIL_WARMUP_CAP) run in full detail but are discarded at the
#: warmup boundary, letting timing state the functional warming cannot
#: produce (in-flight fills, stream prefetcher, slice correlator)
#: converge before measurement begins.
DETAIL_WARMUP_FRACTION = 10
DETAIL_WARMUP_CAP = 2_000


def detail_warmup(sample: int) -> int:
    """The detailed-warming discard window ahead of a *sample*-
    instruction measured window: the one warmup rule. ``sample <= 0``
    (the workload's own region, unsampled) gets none, which keeps a
    full-detail run bit-identical to a direct ``simulate()`` call."""
    return min(max(sample, 0) // DETAIL_WARMUP_FRACTION, DETAIL_WARMUP_CAP)


@dataclass(frozen=True)
class SamplePlan:
    """The detailed windows one request measures
    (:meth:`repro.harness.parallel.RunRequest.schedule`).

    Window *k* fast-forwards ``depths[k]`` instructions functionally
    (with warming), then runs ``warmup`` detailed-but-discarded
    instructions, then measures ``region`` committed instructions in
    full detail (``None``: the workload's full region). ``depths`` is
    ascending, and a depth of 0 starts cold at the entry point (no
    snapshot). Full detail is the one window ``(0,)``.
    """

    depths: tuple[int, ...]
    warmup: int
    region: int | None


@dataclass
class Snapshot:
    """Architectural state + warmed microarchitectural images at one
    point of a workload's execution. Fully picklable; deterministic
    given (workload, scale, ff_insts, warming config, source tree)."""

    workload: str
    scale: float
    #: Instructions requested / actually executed (they differ only
    #: when the prefix ran off the program or hit HALT early).
    ff_insts: int
    executed: int
    pc: int
    halted: bool
    #: All 32 architectural register values, in index order.
    regs: list[int]
    #: Full sparse memory image (word-aligned address -> signed value).
    memory_words: dict[int, int]
    #: Always True: every prefix runs with functional warming. Kept in
    #: the payload so snapshot bytes and digests stay unchanged.
    warming: bool
    #: Digest of the warming-relevant machine sub-configs this
    #: snapshot's images were built for (see :func:`warm_config_key`).
    warm_config: str | None = None
    #: ``DataHierarchy.warm_image()`` (L1/L2 sets, prefetch/victim
    #: buffer), ``FrontEndPredictor.warm_image()``, and
    #: ``StreamPrefetcher.warm_image()`` payloads; every fast-forward
    #: fills all three.
    hierarchy_image: dict | None = field(default=None, repr=False)
    predictor_image: tuple | None = field(default=None, repr=False)
    prefetcher_image: list | None = field(default=None, repr=False)
    #: Fingerprint of the chain member this snapshot was resumed from
    #: (None for a straight-through build or a chain head). Provenance
    #: only — excluded from :func:`snapshot_digest`, because a chained
    #: build and a straight-through build of the same depth are
    #: byte-identical in every payload that matters.
    parent: str | None = None
    #: Build provenance: which prebuild discipline produced this member
    #: (``"serial"`` / ``"parallel"``), and the absolute depth of the
    #: stored member the building pass resumed from (``None`` when the
    #: pass started at the entry point). Like ``parent``, provenance is
    #: masked out of :func:`snapshot_digest` — parallel and serial
    #: builds of the same depth must digest identically
    #: (``test_parallel_prebuild_matches_serial_digests``).
    built_by: str | None = None
    resumed_from_depth: int | None = None


def warm_config_key(config: MachineConfig) -> str:
    """Digest of the sub-configs that shape warmed state.

    Only cache geometry, the prefetcher, and predictor budgets matter
    to a warm image; ``memory_latency``, window size, core width, and
    slice hardware do not (warming is untimed and slice-free). Keying
    on exactly this set is what lets every point of a machine-parameter
    sweep share one snapshot chain.
    """
    payload = {
        "l1d": dataclasses.asdict(config.l1d),
        "l2": dataclasses.asdict(config.l2),
        "prefetch": dataclasses.asdict(config.prefetch),
        "branch": dataclasses.asdict(config.branch),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def snapshot_fingerprint(
    workload: str,
    scale: float,
    ff_insts: int,
    config: MachineConfig,
    source_hash: str | None = None,
) -> str:
    """Content-addressed key for one snapshot.

    A chain member at depth *d* gets the same key a straight-through
    build of depth *d* would — chains add no key dimension, so any
    request whose prefix lands on *d* shares the stored member.
    """
    return content_key(
        {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "workload": workload,
            "scale": scale,
            "ff_insts": ff_insts,
            "warming": True,
            "warm_config": warm_config_key(config),
        },
        source_hash,
    )


def snapshot_digest(snapshot: Snapshot) -> str:
    """Hex SHA-256 of the snapshot's serialized payload.

    The simulator and the workload generators are deterministic, so the
    same request must produce byte-identical snapshots
    (``test_snapshot_build_is_deterministic``). ``parent``,
    ``built_by``, and ``resumed_from_depth`` are provenance, not
    state, and are masked out so a chained build digests identically
    to a straight-through build of the same depth (and a parallel
    prebuild to a serial one).
    """
    if (
        snapshot.parent is not None
        or snapshot.built_by is not None
        or snapshot.resumed_from_depth is not None
    ):
        snapshot = dataclasses.replace(
            snapshot, parent=None, built_by=None, resumed_from_depth=None
        )
    return payload_digest(SnapshotStore.encode(snapshot))


# ----------------------------------------------------------------------
# Layer 1: the functional fast-forward tier
# ----------------------------------------------------------------------


def _warm_steps(
    program,
    state,
    budget: int,
    warm_access,
    predictor: FrontEndPredictor,
) -> tuple[int, bool]:
    """Per-instruction functional execution with direct warming.

    The precise-budget tier of warming: dispatches the interpreter's
    cached executor closures directly (no generator frame per
    instruction), hands every memory access to *warm_access* (the
    run's :func:`~repro.uarch.prefetch.build_warm_access` closure),
    and trains the predictor components with their
    resolved outcomes instead of running the full
    predict/restore/replay/train protocol. The two are state-
    equivalent: ``YagsPredictor.update`` and
    ``CascadingIndirectPredictor.update`` take the pre-branch history
    as an argument (never reading live history), a correctly-predicted
    and a mispredicted-then-replayed branch leave the same net
    history/RAS effect, and the prediction-side stat counters are
    simply never touched (they are zero in every warm image either
    way).

    Most warm instructions run on the fused tier
    (:mod:`repro.uarch.warmfuse`) instead; this loop covers the tail
    of a budget that ends mid-run. The two tiers are state-identical
    per instruction — the split-vs-straight warm-image differential
    exercises exactly that boundary.
    """
    program_at = program.at
    direction = predictor.direction
    indirect = predictor.indirect
    ras = predictor.ras
    dir_update = direction.update
    dir_shift = direction.shift_history
    ind_update = indirect.update
    ind_shift = indirect.shift_history
    ras_push = ras.push
    ras_pop = ras.predict_and_pop
    halt = Fault.HALT
    null_deref = Fault.NULL_DEREF
    op_call = Opcode.CALL
    op_ret = Opcode.RET
    op_br = Opcode.BR
    op_callr = Opcode.CALLR

    executed = 0
    while executed < budget:
        inst = program_at(state.pc)
        if inst is None:
            break
        fn = inst._exec
        if fn is None:
            fn = inst._exec = _compile(inst)
        result = fn(state)
        executed += 1
        if inst.is_mem:
            addr = result.addr
            if addr is not None and result.fault is not null_deref:
                warm_access(addr, inst.is_store)
        elif inst.is_branch:
            if inst.is_conditional:
                taken = result.taken
                dir_update(inst.pc, taken, direction.history)
                dir_shift(taken)
            else:
                op = inst.op
                if op is op_call:
                    ras_push(inst.pc + INSTRUCTION_BYTES)
                elif op is op_ret:
                    ras_pop()
                elif op is not op_br:  # JR / CALLR
                    target = result.next_pc
                    ind_update(inst.pc, target, indirect.path_history)
                    ind_shift(target)
                    if op is op_callr:
                        ras_push(inst.pc + INSTRUCTION_BYTES)
        if result.fault is halt:
            return executed, True
    return executed, False


def _warm_loop(
    program,
    state,
    budget: int,
    warm_access,
    predictor: FrontEndPredictor,
    hierarchy: DataHierarchy,
) -> tuple[int, bool]:
    """Trace-fused functional warming: ``(executed, halted)``.

    Drives :mod:`repro.uarch.warmfuse`: whole traces — straight-line
    runs extended across statically-targeted branches, so hot loops
    unroll — execute as one generated function each, with warm updates
    inlined. Each call reports the instructions it actually ran in
    ``ctx.xc[0]`` (a trace exits early when a branch leaves the
    compiled path). Falls back to :func:`_warm_steps` for the tail of
    the budget, when fewer instructions remain than the next trace
    *could* execute. Both tiers leave identical state per instruction,
    so where the budget falls relative to trace boundaries is
    unobservable in the resulting snapshot — which is what makes
    chained (split) and straight-through warmups byte-identical.
    """
    # The generated runs elide the undo journal; fast-forward state is
    # built with journaling off, which makes that an exact elision.
    assert not state.regs.journaling and not state.memory.journaling
    l1 = hierarchy.l1
    table = warm_block_table(program, l1._line_shift, l1._set_mask)
    compile_run = compile_warm_run
    ctx = WarmContext(state, hierarchy, predictor, warm_access)
    # Compiled runs are cached program-wide; the zero-argument closures
    # they produce are bound to *this* pass's context once per run here
    # (contexts go stale across warm-image loads, which replace the
    # predictor component objects).
    bound: dict[int, tuple] = {}
    bound_get = bound.get
    xc = ctx.xc
    pc = state.pc
    executed = 0
    halted = False
    remaining = budget
    table_get = table.get
    _missing = ()
    # The warm loop allocates only acyclic objects (ints, tuples,
    # small lists), so cycle collection buys nothing here while its
    # periodic gen-0 scans tax every predictor-table tuple; pause it
    # for the duration and let refcounting do the work.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while remaining > 0:
            entry = bound_get(pc)
            if entry is None:
                compiled = table_get(pc, _missing)
                if compiled is _missing:
                    compiled = table[pc] = compile_run(
                        program, pc, l1._line_shift, l1._set_mask
                    )
                if compiled is None:
                    break  # off-program PC: stop as run_functional does
                bind, length, halt_pc = compiled
                entry = bound[pc] = (bind(ctx), length, halt_pc)
            fn, length, halt_pc = entry
            if length > remaining:
                # ``length`` is the trace's *maximum*; it may exit
                # earlier, but the conservative check keeps the budget
                # exact.
                state.pc = pc
                ran, halted = _warm_steps(
                    program, state, remaining, warm_access, predictor
                )
                executed += ran
                remaining -= ran
                pc = state.pc
                break
            nxt = fn()
            ran = xc[0]
            executed += ran
            remaining -= ran
            if nxt is None:
                pc = halt_pc
                halted = True
                break
            pc = nxt
    finally:
        if gc_was_enabled:
            gc.enable()
    state.pc = pc
    return executed, halted


class _LiveRun:
    """Live functional-warming execution state.

    Set up once (from scratch or from a resume snapshot), advanced to
    successive absolute depths, and captured at each. A chain build
    threads one of these down the whole plan, so each emitted member
    costs one set of state copies (the capture) instead of two (a
    resume copy *and* a capture copy per member) — at benchmark scales
    a member's memory image alone is millions of words.

    The hierarchy, prefetcher and predictor are private to the pass
    and hold state only. Their one access rule is ``warm_access``, the
    :func:`~repro.uarch.prefetch.build_warm_access` closure, which the
    run keeps and hands to the warming tiers.
    """

    def __init__(
        self,
        workload: Workload,
        config: MachineConfig,
        resume_from: Snapshot | None = None,
    ):
        self.workload = workload
        self.config = config
        self.program = workload.program
        self.hierarchy = DataHierarchy(config)
        self.prefetcher = StreamPrefetcher(config.prefetch, self.hierarchy)
        self.predictor = FrontEndPredictor(config.branch)
        if resume_from is not None:
            self.memory = Memory(
                resume_from.memory_words, journaling=False, normalized=True
            )
            self.state = ThreadState(
                self.memory, entry_pc=resume_from.pc, journaling=False
            )
            self.state.regs.load_values(dict(enumerate(resume_from.regs)))
            self.executed = resume_from.executed
            self.halted = resume_from.halted
            self.hierarchy.load_warm_image(resume_from.hierarchy_image)
            self.predictor.load_warm_image(resume_from.predictor_image)
            self.prefetcher.load_warm_image(resume_from.prefetcher_image)
        else:
            # Workload images are normalized at build time (Workload
            # __post_init__), so this is a plain dict copy.
            self.memory = Memory(
                workload.memory_image, journaling=False, normalized=True
            )
            self.state = ThreadState(
                self.memory, entry_pc=self.program.entry_pc, journaling=False
            )
            self.executed = 0
            self.halted = False
        # Built *after* any image load: the closure binds the current
        # containers, and loading replaces them.
        self.warm_access = build_warm_access(self.hierarchy, self.prefetcher)

    def advance(self, ff_insts: int) -> None:
        """Run forward to absolute depth *ff_insts* (no-op if already
        there or halted)."""
        if not self.halted and ff_insts > self.executed:
            ran, self.halted = _warm_loop(
                self.program, self.state, ff_insts - self.executed,
                self.warm_access, self.predictor, self.hierarchy,
            )
            self.executed += ran

    def capture(self, ff_insts: int) -> Snapshot:
        """Snapshot the current point as depth *ff_insts*. Every image
        is a detached copy (``regs.values()``, ``memory.snapshot()``,
        and the three ``warm_image()``s all copy), so the run can keep
        advancing afterwards without aliasing the member."""
        workload = self.workload
        return Snapshot(
            workload=workload.name,
            scale=workload.scale,
            ff_insts=ff_insts,
            executed=self.executed,
            pc=self.state.pc,
            halted=self.halted,
            regs=self.state.regs.values(),
            memory_words=self.memory.snapshot(),
            warming=True,
            warm_config=warm_config_key(self.config),
            hierarchy_image=self.hierarchy.warm_image(),
            predictor_image=self.predictor.warm_image(),
            prefetcher_image=self.prefetcher.warm_image(),
        )


def fast_forward(
    workload: Workload,
    config: MachineConfig,
    ff_insts: int,
    resume_from: Snapshot | None = None,
) -> Snapshot:
    """Execute the first *ff_insts* instructions of *workload*
    functionally and capture the result as a :class:`Snapshot`.

    Runs the interpreter tier (correct paths only, no timing) from the
    workload's entry point — or from *resume_from*, an earlier
    snapshot of the same prefix, in which case only the remaining
    ``ff_insts - resume_from.executed`` instructions run. The warming
    protocol (see :func:`_warm_loop`) updates cache, prefetcher, and
    predictor state with each correct-path outcome, without a clock,
    and is identical whether a prefix runs in one shot or split across
    resumes.

    Stops early at HALT or a PC outside the program (the snapshot
    records how far it actually got).
    """
    if resume_from is not None:
        if (
            resume_from.workload != workload.name
            or resume_from.scale != workload.scale
        ):
            raise ValueError(
                f"snapshot is for {resume_from.workload}@{resume_from.scale}, "
                f"not {workload.name}@{workload.scale}"
            )
        if resume_from.executed > ff_insts:
            raise ValueError(
                f"resume point ({resume_from.executed}) is past the "
                f"requested depth ({ff_insts})"
            )
        if resume_from.warm_config != warm_config_key(config):
            raise ValueError("cannot resume across a warm-config change")
    run = _LiveRun(workload, config, resume_from=resume_from)
    run.advance(ff_insts)
    snapshot = run.capture(ff_insts)
    snapshot.built_by = "serial"
    if resume_from is not None:
        snapshot.resumed_from_depth = resume_from.ff_insts
    return snapshot


# ----------------------------------------------------------------------
# Layer 2: the content-addressed snapshot store
# ----------------------------------------------------------------------


class SnapshotStore(IntegrityStore):
    """Warmed snapshots under ``<cache root>/snapshots/``, keyed by
    :func:`snapshot_fingerprint`."""

    subdir = "snapshots"
    magic = b"repro-snap-%d\n" % SNAPSHOT_SCHEMA_VERSION
    suffix = ".snap"
    payload_type = Snapshot
    field = "snapshot"


def list_snapshots(store: SnapshotStore) -> list[dict]:
    """Describe every live snapshot (for ``repro snapshot ls``)."""
    return [
        {
            "key": key,
            "workload": snapshot.workload,
            "scale": snapshot.scale,
            "ff_insts": snapshot.ff_insts,
            "executed": snapshot.executed,
            "parent": snapshot.parent,
            "built_by": snapshot.built_by,
            "resumed_from_depth": snapshot.resumed_from_depth,
            "bytes": path.stat().st_size,
        }
        for key, snapshot, path in store.items()
    ]


# ----------------------------------------------------------------------
# Layer 3 helpers: build-once / share-everywhere
# ----------------------------------------------------------------------


def ensure_snapshot(
    workload: Workload,
    config: MachineConfig,
    ff_insts: int,
    store: SnapshotStore | None = None,
) -> tuple[Snapshot | None, bool]:
    """Fetch (or build and persist) the snapshot for this prefix: a
    one-member :func:`iter_chain`.

    Returns ``(snapshot, hit)`` where *hit* says the snapshot came from
    the store (``(None, False)`` for a prefix of 0). Builds are
    deterministic and writes are atomic, so concurrent workers racing
    on a missing snapshot converge on identical bytes.
    """
    return next(iter_chain(workload, config, (ff_insts,), store=store))


def iter_chain(
    workload: Workload,
    config: MachineConfig,
    depths,
    store: SnapshotStore | None = None,
    built_by: str = "serial",
):
    """Yield ``(snapshot, hit)`` per depth, building missing members
    incrementally.

    *depths* must be ascending (a :class:`SamplePlan`'s are). A depth
    of 0 yields ``(None, False)`` — that window starts cold at the
    entry point. Missing members are built by one live functional pass
    (:class:`_LiveRun`) threaded down the chain, captured at each
    depth — not one resume-copy-run-capture cycle per member — and
    persisted with their ``parent`` link. A mid-chain store hit
    re-anchors the live pass (the next miss resumes from the hit) —
    this is also what lets a crashed or timed-out prebuild make
    monotonic progress: every member lands in the store as soon as it
    is captured, so the retry resumes from the deepest stored member
    instead of the entry point.

    *built_by* stamps the provenance of fresh members (``"serial"`` /
    ``"parallel"``); ``resumed_from_depth`` records where the live
    pass was anchored. Both are digest-masked (see
    :func:`snapshot_digest`).

    Streaming matters here: a deep chain's members each carry a full
    memory image, so callers that run one detailed window per member
    should consume this generator and drop each snapshot before
    advancing — only the previous member is kept internally.
    """
    if store is None:
        store = SnapshotStore()
    prev = None
    prev_key = None
    prev_depth = None
    live = None
    anchor = None  # depth the current live pass resumed from
    for depth in depths:
        if prev_depth is not None and depth < prev_depth:
            raise ValueError(f"chain depths must be ascending: {depths}")
        prev_depth = depth
        if depth <= 0:
            yield None, False
            continue
        key = snapshot_fingerprint(
            workload.name, workload.scale, depth, config
        )
        snapshot = store.get(key)
        hit = snapshot is not None
        if hit:
            live = None  # the live pass is behind this member now
        else:
            if live is None:
                live = _LiveRun(workload, config, resume_from=prev)
                anchor = prev.ff_insts if prev is not None else None
            live.advance(depth)
            snapshot = live.capture(depth)
            snapshot.parent = prev_key
            snapshot.built_by = built_by
            snapshot.resumed_from_depth = anchor
            store.put(key, snapshot)
        yield snapshot, hit
        prev, prev_key = snapshot, key


@dataclass(frozen=True)
class _PrebuildTask:
    """One independent prebuild unit: the chain (or single snapshot)
    one ``(workload, scale, warm config)`` group of requests needs.

    Picklable and hashable so the harness's attempt loop
    (:func:`repro.harness.parallel._execute`) can ship it to a worker
    and track its retry budget; exposes ``workload`` / ``mode`` the way
    :class:`~repro.harness.parallel.RunRequest` does so the loop's
    logging needs no special case, and names its representative
    request as its ``fault_target``, so a fault plan keyed on a
    request perturbs the prebuild of that request's chain.
    """

    request: object  # the representative RunRequest
    depths: tuple[int, ...]

    @property
    def workload(self) -> str:
        return self.request.workload

    @property
    def mode(self) -> str:
        return "prebuild"

    @property
    def fault_target(self):
        return self.request


def _prebuild_entry(task: _PrebuildTask, store: SnapshotStore) -> int:
    """The prebuild's executor entry: build one task's chain into
    *store*, stamped ``built_by="parallel"`` in a pool worker and
    ``"serial"`` in the harness process.

    Top-level so the pool can pickle it. Members land in the store as
    they are captured (see :func:`iter_chain`), so a crashed or
    timed-out attempt leaves a prefix behind and the retry resumes
    from the deepest stored member rather than starting over.
    """
    from repro.harness.parallel import shared_workload

    workload = shared_workload(task.request.workload, task.request.scale)
    config = task.request.resolve_config()
    pooled = multiprocessing.parent_process() is not None
    built = 0
    for snapshot, hit in iter_chain(
        workload,
        config,
        task.depths,
        store=store,
        built_by="parallel" if pooled else "serial",
    ):
        if snapshot is not None and not hit:
            built += 1
    return built


def _prebuild_tasks(requests, store: SnapshotStore):
    """Deduplicate *requests* into the independent build units they
    need, dropping units the store already holds in full."""
    tasks: list[_PrebuildTask] = []
    seen: set[tuple[str, ...]] = set()
    for request in requests:
        depths = tuple(d for d in request.schedule().depths if d > 0)
        if not depths:
            continue
        config = request.resolve_config()
        keys = tuple(
            snapshot_fingerprint(
                request.workload, request.scale, depth, config
            )
            for depth in depths
        )
        if keys in seen:
            continue
        seen.add(keys)
        if all(store.contains(key) for key in keys):
            continue
        tasks.append(_PrebuildTask(request, depths))
    return tasks


def prebuild_snapshots(
    requests,
    store: SnapshotStore | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    fault_plan=None,
) -> int:
    """Build every snapshot (chain members included) *requests* will
    need, once each.

    Called by ``run_matrix`` before fanning out so all sweep points
    (and all pool workers) share one architectural prefix — for
    multi-region requests, one snapshot *chain* — instead of each
    re-paying it. Returns the number of snapshots built fresh.

    Distinct ``(workload, scale, warm config)`` chains are independent
    items of the run matrix's own attempt loop
    (:func:`repro.harness.parallel._execute`), with its
    timeout/retry/broken-pool discipline and fault injection. A
    disabled store builds in this process (workers would each build
    into nothing). A task that exhausts its retries is *skipped*, not
    raised: prebuilding is an optimization, and whatever error killed
    it will surface (or not) when the run that needs the snapshot
    builds it inline. Serial and parallel builds produce
    byte-identical members — only the digest-masked ``built_by``
    stamp differs.

    *fault_plan* injects deterministic worker faults (chaos tests
    only), under the same keying as the run matrix: a plan targeting
    ``(request, attempt)`` perturbs the prebuild attempt for that
    request's chain.
    """
    from repro.harness.parallel import _execute

    if store is None:
        store = SnapshotStore()
    outcomes = _execute(
        _prebuild_tasks(requests, store),
        functools.partial(_prebuild_entry, store=store),
        jobs=jobs if store.enabled else 1,
        timeout=timeout,
        retries=retries,
        on_error="skip",
        fault_plan=fault_plan,
    )
    return sum(o.stats for o in outcomes.values() if o.status == "ok")
