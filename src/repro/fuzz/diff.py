"""N-way differential cross-check of one workload across all tiers.

The oracle is the functional interpreter: correct paths only, no
timing, trivially auditable. Every detailed configuration must commit
exactly the reference's dynamic instruction sequence with the same
per-instruction observables (the commit-tap record, see
:mod:`repro.uarch.commitlog`), and configurations that only differ in
*simulation strategy* — stepping vs. event-driven scheduling — must
additionally produce bit-identical ``RunStats`` up to
:data:`~repro.uarch.stats.SIMULATOR_META_FIELDS`.

Tier matrix per workload (slice variants run twice, with and without
the workload's slices — slices prefetch, so the architecture must not
move):

========== ===========================================================
tier        what runs
========== ===========================================================
interp      ``run_functional`` — the reference commit stream
step        detailed core, stepping scheduler
event       detailed core, event-driven scheduler
ff          ``fast_forward`` warming executor, state checked at depth K
snapshot    detailed run resumed from the depth-K snapshot
chained     ``iter_chain`` members vs straight builds + a detailed
            window (warmup discard + measured region) per member
========== ===========================================================

Divergences are classified by the *first* disagreeing tier pair in
this fixed order, so a given bug always produces the same class — the
shrinker and the corpus key on it.

Everything here runs against in-memory stores
(``SnapshotStore(enabled=False)``) so fuzzing never touches (or
depends on) the on-disk snapshot cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.arch.interpreter import Fault, run_functional
from repro.errors import SimulationError
from repro.arch.memory import Memory
from repro.arch.state import ThreadState
from repro.harness.fastforward import (
    SnapshotStore,
    fast_forward,
    iter_chain,
    snapshot_digest,
)
from repro.uarch.commitlog import attach_commit_tap, first_mismatch
from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.core import Core
from repro.uarch.stats import SIMULATOR_META_FIELDS
from repro.workloads.base import Workload

#: Detailed full-run tiers, in classification order.
DETAILED_TIERS = (
    ("step", dict(event_driven=False)),
    ("event", dict(event_driven=True)),
)

#: Core options of the tiers resumed from a snapshot (``snapshot``,
#: ``chained``): the event-driven scheduler every real run uses.
_RESUMED_OPTS = dict(DETAILED_TIERS)["event"]


@dataclass(frozen=True)
class Divergence:
    """One confirmed disagreement between two tiers. Picklable, so it
    survives the worker pool and the corpus."""

    seed: int
    scale: float
    #: First disagreeing tier pair, e.g. ``("interp", "event")``.
    tier_a: str
    tier_b: str
    #: ``stream`` (commit records), ``stats`` (RunStats fields),
    #: ``state`` (architectural state at a fast-forward depth), or
    #: ``crash`` (a tier raised/deadlocked where the oracle halted).
    kind: str
    detail: str

    @property
    def klass(self) -> str:
        """Stable classification label (``stream:interp/event``)."""
        return f"{self.kind}:{self.tier_a}/{self.tier_b}"

    def __str__(self) -> str:
        return f"seed {self.seed:#x} [{self.klass}] {self.detail}"


def run_reference(workload: Workload):
    """Functional oracle run: ``(records, states)``.

    *records* is the full commit stream as :data:`CommitRecord` tuples;
    *states* maps each requested depth (``region // 3`` and the chain
    depths) to ``(pc, regs, memory)`` for fast-forward cross-checks.
    """
    memory = Memory(workload.memory_image, journaling=False, normalized=True)
    state = ThreadState(
        memory, entry_pc=workload.program.entry_pc, journaling=False
    )
    wanted = set(_check_depths(workload))
    records = []
    states = {}
    if 0 in wanted:
        states[0] = _arch_state(state)
    for inst, result in run_functional(
        workload.program, state, workload.region + 1
    ):
        records.append(
            (inst.pc, result.next_pc, result.value, result.addr,
             result.store_value)
        )
        if len(records) in wanted:
            states[len(records)] = _arch_state(state)
        if result.fault is Fault.HALT:
            break
    return records, states


def _arch_state(state) -> tuple[int, tuple, tuple]:
    return (
        state.pc,
        tuple(state.regs.values()),
        tuple(sorted(state.memory.snapshot().items())),
    )


def _snapshot_state(snapshot) -> tuple[int, tuple, tuple]:
    return (
        snapshot.pc,
        tuple(snapshot.regs),
        tuple(sorted(snapshot.memory_words.items())),
    )


def _check_depths(workload: Workload) -> list[int]:
    """Fast-forward depths worth checking for this workload's length."""
    region = workload.region
    depths = []
    if region >= 30:
        depths.append(region // 3)
    if region >= 90:
        depths.extend([region // 4, region // 2])
    return depths


def _stream_detail(name: str, got, want) -> str:
    i = first_mismatch(got, want)
    a = got[i] if i is not None and i < len(got) else "<end>"
    b = want[i] if i is not None and i < len(want) else "<end>"
    return (
        f"commit streams disagree at index {i} "
        f"(lengths {len(got)}/{len(want)}): {name}={a} vs reference={b}"
    )


def _arch_stats(stats) -> dict:
    return {
        k: v
        for k, v in asdict(stats).items()
        if k not in SIMULATOR_META_FIELDS
    }


def _detailed_run(
    workload: Workload,
    config: MachineConfig,
    slices: tuple,
    tier_opts: dict,
    snapshot=None,
    warmup: int = 0,
    region: int | None = None,
):
    """One tapped detailed run: ``(records, stats)``."""
    core = Core(
        workload.program,
        config,
        slices=slices,
        memory_image=workload.memory_image,
        memory_normalized=True,
        region=workload.region if region is None else region,
        warmup=warmup,
        snapshot=snapshot,
        workload_name=workload.name,
        **tier_opts,
    )
    sink = attach_commit_tap(core)
    stats = core.run()
    return sink, stats


def check_workload(
    workload: Workload,
    config: MachineConfig = FOUR_WIDE,
    seed: int | None = None,
) -> Divergence | None:
    """Cross-check one workload across the full tier matrix.

    Returns the first divergence in classification order, or ``None``
    when every tier agrees. *seed* labels the divergence (falls back to
    parsing the workload name, then -1).
    """
    if seed is None:
        from repro.fuzz.gen import parse_seed

        try:
            seed = parse_seed(workload.name)
        except ValueError:
            seed = -1

    def diverged(tier_a, tier_b, kind, detail):
        return Divergence(
            seed=seed,
            scale=workload.scale,
            tier_a=tier_a,
            tier_b=tier_b,
            kind=kind,
            detail=detail,
        )

    reference, ref_states = run_reference(workload)

    def run_tier(name, *run_args, **run_kwargs):
        """A detailed tier that crashes or deadlocks where the oracle
        halted cleanly is itself a divergence, not an infrastructure
        failure — classify it so the shrinker can chase it."""
        try:
            return _detailed_run(workload, *run_args, **run_kwargs), None
        except SimulationError as exc:
            return None, diverged(
                "interp", name, "crash", f"{type(exc).__name__}: {exc}"
            )

    # -- detailed full-run grid, with and without slices ---------------
    slice_settings = [("base", ())]
    if workload.slices:
        slice_settings.append(("slice", tuple(workload.slices)))
    for setting, slices in slice_settings:
        baseline = None
        for tier, opts in DETAILED_TIERS:
            name = tier if setting == "base" else f"{tier}+slice"
            run, crashed = run_tier(name, config, slices, opts)
            if crashed is not None:
                return crashed
            records, stats = run
            if records != reference:
                return diverged(
                    "interp", name, "stream",
                    _stream_detail(name, records, reference),
                )
            arch = _arch_stats(stats)
            if baseline is None:
                baseline = (name, arch)
            elif arch != baseline[1]:
                fields = sorted(
                    k for k in arch if arch[k] != baseline[1][k]
                )
                return diverged(
                    baseline[0], name, "stats",
                    f"RunStats fields disagree: {fields}",
                )

    # -- functional fast-forward state at depth K ----------------------
    store = SnapshotStore(enabled=False)
    depths = _check_depths(workload)
    if depths:
        k = depths[0]
        snap = fast_forward(workload, config, k)
        if snap.executed != k or _snapshot_state(snap) != ref_states[k]:
            return diverged(
                "interp", "ff", "state",
                f"fast-forward state at depth {k} disagrees with the "
                f"functional oracle (executed={snap.executed})",
            )

        # -- detailed run resumed from the snapshot --------------------
        run, crashed = run_tier(
            "snapshot", config, (), _RESUMED_OPTS,
            snapshot=snap, region=workload.region - k,
        )
        if crashed is not None:
            return crashed
        records, _ = run
        if records != reference[k:]:
            return diverged(
                "interp", "snapshot", "stream",
                _stream_detail("snapshot", records, reference[k:]),
            )

    # -- chained multi-region sampling vs straight-through -------------
    if len(depths) == 3:
        chain_depths = depths[1:]
        for depth, (member, _hit) in zip(
            chain_depths,
            iter_chain(workload, config, chain_depths, store=store),
        ):
            straight = fast_forward(workload, config, depth)
            if snapshot_digest(member) != snapshot_digest(straight):
                return diverged(
                    "chained", "ff", "state",
                    f"chain member at depth {depth} != straight-through "
                    f"snapshot of the same depth",
                )
            if _snapshot_state(member) != ref_states[depth]:
                return diverged(
                    "interp", "chained", "state",
                    f"chain member architectural state at depth {depth} "
                    f"disagrees with the functional oracle",
                )
            warmup = min(24, (workload.region - depth) // 4)
            sample = min(300, workload.region - depth - warmup)
            run, crashed = run_tier(
                f"chained@{depth}", config, (), _RESUMED_OPTS,
                snapshot=member, warmup=warmup, region=sample,
            )
            if crashed is not None:
                return crashed
            records, _ = run
            window = reference[depth:depth + warmup + sample]
            if records != window:
                return diverged(
                    "interp", "chained", "stream",
                    _stream_detail(f"chained@{depth}", records, window),
                )

    return None


def check_seed(
    seed: int, scale: float = 1.0, config: MachineConfig = FOUR_WIDE
) -> Divergence | None:
    """Generate the workload for *seed* and cross-check it."""
    from repro.fuzz.gen import generate

    return check_workload(generate(seed, scale), config, seed=seed)
