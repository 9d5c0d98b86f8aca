"""Run statistics collected by the core.

Per-static-PC counters feed the problem-instruction profiler (Table 2);
aggregate counters feed the run characterization (Table 4). All
"committed" counters reflect the architecturally-correct path only;
"fetched" counters include wrong-path work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.slices.correlator import CorrelatorStats

#: Fields describing how the simulation ran rather than what the
#: simulated machine did. Differential tests (event-driven skipping vs
#: cycle stepping, sampled vs full detail) compare every field *except*
#: these.
SIMULATOR_META_FIELDS = frozenset(
    {
        "cycles_skipped",
        "skip_events",
        "ff_insts",
        "snapshot_hit",
        "sample_regions",
        "snapshot_hits",
    }
)

#: Two-sided 95% Student-t critical values by degrees of freedom.
#: Hardcoded (no scipy in the container); beyond df=30 the normal
#: critical value 1.960 is within 1.5% and is used directly.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t95(df: int) -> float:
    """Two-sided 95% Student-t critical value for *df* degrees of
    freedom (1.960 beyond the table)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1 (got {df})")
    return _T95.get(df, 1.960)


def mean_ci95(samples) -> tuple[float, float]:
    """``(mean, half_width)`` of the 95% confidence interval on the
    mean of *samples*.

    Uses the sample standard deviation and the Student-t critical
    value, per SMARTS-style sampled-simulation error reporting. A
    single sample is a point estimate: half-width 0.0 (the interval is
    *unknown*, not tight — callers should surface N alongside it).
    """
    samples = list(samples)
    n = len(samples)
    if not n:
        return 0.0, 0.0
    mean = sum(samples) / n
    if n < 2:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, t95(n - 1) * math.sqrt(variance / n)


def paired_speedup_ci95(base: RunStats, assisted: RunStats) -> float:
    """95% confidence half-width on the mean speedup of *assisted* over
    *base*, two multi-region runs with paired windows (same chain, same
    depths). The samples are the per-region ratios
    ``assisted[k] / base[k] - 1``; below two of them (full-detail and
    single-window runs) the half-width is 0.0."""
    ratios = [
        a / b - 1.0
        for b, a in zip(base.region_ipcs, assisted.region_ipcs)
        if b
    ]
    return mean_ci95(ratios)[1]


@dataclass
class PcCounter:
    """Executions and performance-degrading events for one static PC."""

    executions: int = 0
    events: int = 0

    @property
    def rate(self) -> float:
        return self.events / self.executions if self.executions else 0.0


@dataclass
class RunStats:
    """Everything measured during one simulation run."""

    config_name: str = ""
    workload_name: str = ""
    cycles: int = 0
    #: Main-thread instructions committed (the run's length).
    committed: int = 0
    #: Main-thread instructions fetched, including wrong-path.
    main_fetched: int = 0
    slice_fetched: int = 0
    slice_retired: int = 0
    #: Committed branch mispredictions (squash-causing).
    branch_mispredictions: int = 0
    #: Committed conditional/indirect branches.
    branches_committed: int = 0
    #: Committed loads that missed the L1 (post prefetch-buffer).
    load_misses: int = 0
    loads_committed: int = 0
    stores_committed: int = 0
    store_misses: int = 0
    #: Early resolutions triggered by late predictions.
    early_resolutions: int = 0
    #: Squashes caused by wrong slice value predictions (extension).
    value_mispredict_squashes: int = 0
    # Fork accounting (Table 4).
    fork_points_fetched: int = 0
    forks_taken: int = 0
    forks_ignored: int = 0
    forks_squashed: int = 0
    #: Fork requests suppressed by confidence gating (Section 6.3).
    forks_gated: int = 0
    slices_completed: int = 0
    #: Containment kills: helper threads terminated by the
    #: per-activation instruction fuse (``slice_hw.max_slice_insts``)
    #: and helper threads terminated by an architectural fault
    #: (null-pointer dereference, §3.2). Both are contained events —
    #: the main thread never observes them except as freed resources.
    slices_killed_fuse: int = 0
    slices_killed_fault: int = 0
    #: Per-static-PC branch behavior (conditional + indirect).
    branch_pcs: dict[int, PcCounter] = field(default_factory=dict)
    #: Per-static-PC memory behavior (loads and stores).
    mem_pcs: dict[int, PcCounter] = field(default_factory=dict)
    correlator: CorrelatorStats = field(default_factory=CorrelatorStats)
    hierarchy: dict[str, int] = field(default_factory=dict)
    #: True when the run hit its cycle ceiling before committing the region.
    hit_cycle_limit: bool = False
    #: Idle cycles the event-driven loop jumped over instead of
    #: stepping, and how many jumps it made. These are *simulator
    #: mechanics*, not simulated-machine state: they are the only
    #: fields allowed to differ between ``event_driven=True`` and
    #: ``False`` runs (see :data:`SIMULATOR_META_FIELDS`).
    cycles_skipped: int = 0
    skip_events: int = 0
    #: Sampled-simulation provenance (:mod:`repro.harness.fastforward`):
    #: instructions executed on the functional fast-forward tier before
    #: the detailed region, and whether the warmed snapshot came from
    #: the on-disk store (vs. built fresh). Simulator meta: the measured
    #: region's counters above are unaffected by either.
    ff_insts: int = 0
    snapshot_hit: bool = False
    #: Multi-region sampling (:func:`aggregate_stats`): how many
    #: detailed windows this result aggregates (0 = not a multi-region
    #: run), each window's IPC (feeding :attr:`ipc_mean` /
    #: :attr:`ipc_ci95`), and how many chain members were restored from
    #: the snapshot store rather than built. ``region_ipcs`` is
    #: *measured* data and must match across differential modes;
    #: ``sample_regions`` / ``snapshot_hits`` are simulator meta like
    #: ``ff_insts`` / ``snapshot_hit`` above.
    sample_regions: int = 0
    region_ipcs: tuple[float, ...] = ()
    snapshot_hits: int = 0
    #: Optional cycle accounting (fill with Core(cycle_accounting=True)):
    #: cycles attributed to commit-slot activity at the main thread's
    #: ROB head: "busy" (full commit width used), "memory" (head waits
    #: on a load miss), "execute" (head waits on computation),
    #: "frontend" (ROB empty: mispredict refill / fetch starvation),
    #: "drain" (partially filled commit).
    cycle_breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def ipc_mean(self) -> float:
        """Mean of the per-region IPCs for a multi-region run (each
        window weighted equally, the sampled estimator of whole-run
        IPC); falls back to the pooled :attr:`ipc` otherwise."""
        if self.region_ipcs:
            return sum(self.region_ipcs) / len(self.region_ipcs)
        return self.ipc

    @property
    def ipc_ci95(self) -> float:
        """95% confidence half-width on :attr:`ipc_mean` across the
        sampled regions (0.0 for point estimates: full-detail runs and
        N=1 sampling)."""
        if len(self.region_ipcs) < 2:
            return 0.0
        return mean_ci95(self.region_ipcs)[1]

    def count_branch(self, pc: int, mispredicted: bool) -> None:
        counter = self.branch_pcs.get(pc)
        if counter is None:
            counter = self.branch_pcs[pc] = PcCounter()
        counter.executions += 1
        if mispredicted:
            counter.events += 1

    def count_mem(self, pc: int, missed: bool) -> None:
        counter = self.mem_pcs.get(pc)
        if counter is None:
            counter = self.mem_pcs[pc] = PcCounter()
        counter.executions += 1
        if missed:
            counter.events += 1


def stats_digest(stats: RunStats, *, meta: bool = False) -> str:
    """Hex SHA-256 of a canonical serialization of *stats*.

    By default the :data:`SIMULATOR_META_FIELDS` are masked out, so the
    digest captures what the simulated machine did and is stable across
    execution strategies that are required to agree architecturally —
    serial vs. window-parallel sampling, cold vs. warm snapshot chains,
    fresh runs vs. per-window cache replays. Pass ``meta=True`` to
    digest every field (full bit-identity, provenance included).
    """
    payload = dataclasses.asdict(stats)
    if not meta:
        for name in SIMULATOR_META_FIELDS:
            payload.pop(name, None)
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Fields :func:`aggregate_stats` handles specially rather than
#: summing: identity strings, booleans (OR'd), container merges, and
#: the sampling meta it derives itself.
_NON_SUMMED_FIELDS = frozenset(
    {
        "config_name",
        "workload_name",
        "hit_cycle_limit",
        "snapshot_hit",
        "sample_regions",
        "region_ipcs",
        "snapshot_hits",
        "branch_pcs",
        "mem_pcs",
        "correlator",
        "hierarchy",
        "cycle_breakdown",
    }
)


def aggregate_stats(per_region) -> RunStats:
    """Fold one :class:`RunStats` per sampled region into a whole-run
    estimate.

    Event counters sum (the aggregate reads like one long run:
    ``committed`` is regions x sample length, miss/mispredict rates
    are instruction-weighted); per-PC counter maps, the hierarchy and
    cycle-breakdown maps, and the correlator merge field-wise;
    ``hit_cycle_limit`` ORs (one truncated window taints the whole
    estimate). The per-region IPCs are kept in ``region_ipcs`` so
    :attr:`RunStats.ipc_mean` / :attr:`RunStats.ipc_ci95` can report
    the sampled estimator with its confidence interval, and
    ``sample_regions`` / ``snapshot_hits`` record the sampling
    provenance.
    """
    regions = list(per_region)
    if not regions:
        raise ValueError("aggregate_stats needs at least one region")
    first = regions[0]
    total = RunStats(
        config_name=first.config_name, workload_name=first.workload_name
    )
    for f in dataclasses.fields(RunStats):
        if f.name in _NON_SUMMED_FIELDS:
            continue
        setattr(total, f.name, sum(getattr(s, f.name) for s in regions))
    correlator_fields = dataclasses.fields(CorrelatorStats)
    for stats in regions:
        total.hit_cycle_limit = total.hit_cycle_limit or stats.hit_cycle_limit
        for pcs, merged in (
            (stats.branch_pcs, total.branch_pcs),
            (stats.mem_pcs, total.mem_pcs),
        ):
            for pc, counter in pcs.items():
                into = merged.get(pc)
                if into is None:
                    into = merged[pc] = PcCounter()
                into.executions += counter.executions
                into.events += counter.events
        for mapping, merged in (
            (stats.hierarchy, total.hierarchy),
            (stats.cycle_breakdown, total.cycle_breakdown),
        ):
            for key, value in mapping.items():
                merged[key] = merged.get(key, 0) + value
        for f in correlator_fields:
            setattr(
                total.correlator,
                f.name,
                getattr(total.correlator, f.name)
                + getattr(stats.correlator, f.name),
            )
    total.region_ipcs = tuple(s.ipc for s in regions)
    total.sample_regions = len(regions)
    total.snapshot_hits = sum(s.snapshot_hits for s in regions) + sum(
        1 for s in regions if s.snapshot_hit
    )
    # "Hit" for the aggregate: every window that *needed* a snapshot
    # got it from the store (a cold depth-0 window needs none).
    needed = [s for s in regions if s.ff_insts]
    total.snapshot_hit = bool(needed) and all(s.snapshot_hit for s in needed)
    return total
