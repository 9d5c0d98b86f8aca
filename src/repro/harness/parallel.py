"""Parallel, fault-tolerant execution of experiment run matrices.

Every paper experiment reduces to a list of independent simulations.
This module gives the harness one entry point for all of them:

* :class:`RunRequest` — a declarative, picklable description of one
  simulation (workload name, scale, machine preset, mode, overrides).
* :func:`execute_request` — materialize and run one request (also the
  process-pool worker).
* :func:`run_matrix` — map requests to :class:`RunStats`, in input
  order, deduplicating identical requests, consulting the
  :class:`~repro.harness.cache.RunCache`, and fanning fresh runs out
  over a process pool (``--jobs`` / ``REPRO_JOBS`` / ``os.cpu_count()``).

The simulator is deterministic, so parallel and cached execution return
bit-identical stats to sequential fresh runs (asserted by
``tests/harness/test_determinism.py`` and ``tests/harness/test_cache.py``).

**Failure model.** A large matrix must survive partial failure: one
OOM-killed worker or one wedged simulation must not discard hours of
sibling results. :func:`run_matrix` therefore supports per-request
wall-clock timeouts (``timeout=`` / ``REPRO_TIMEOUT``), bounded retries
with exponential backoff and deterministic jitter (``retries=`` /
``REPRO_RETRIES``), and broken-pool recovery: when a worker dies the
pool is respawned and in-flight requests are requeued; when a request
times out its workers are terminated and innocent in-flight siblings
are requeued *without* being charged an attempt. The ``on_error``
policy decides the endgame for a request that exhausts its retries:
``"raise"`` (default) propagates the typed error; ``"skip"`` records
the failure and completes the rest of the matrix. Per-request
outcome/attempts/latency accounting is returned as a
:class:`MatrixReport` (``return_report=True``); the plain list form
substitutes empty placeholder stats for skipped requests so partial
renders survive. Deterministic fault injection for all of the above
lives in :mod:`repro.harness.faults`.

**Service mode.** When ``REPRO_SERVICE_URL`` (the ``--service`` CLI
flag) names a running experiment service (:mod:`repro.service`),
:func:`run_matrix` becomes a thin client with the *same signature and
result bytes*: cache hits still resolve locally, misses are submitted
as one sweep and executed by ``repro worker`` processes, and the
decoded results are re-published into the local cache. The in-process
pool remains the default.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import RunTimeoutError, SimulationError, WorkerCrashError

log = logging.getLogger(__name__)


def _default_event_driven() -> bool:
    """Request default for the core's cycle-skipping loop.

    ``REPRO_NO_SKIP`` (set by the ``--no-skip`` CLI flag) flips the
    default to the classic stepping loop for differential testing.
    """
    return not os.environ.get("REPRO_NO_SKIP")


def _default_fast_forward() -> int:
    """Request default for the functional fast-forward prefix length.

    ``REPRO_FAST_FORWARD`` (set by the ``--fast-forward`` CLI flag)
    makes every request constructed in-process a sampled run without
    threading the value through each call site.
    """
    return int(os.environ.get("REPRO_FAST_FORWARD", "0") or 0)


def _default_sample() -> int:
    """Request default for the measured-region length of a sampled run.

    ``REPRO_SAMPLE`` (set by the ``--sample`` CLI flag). ``0`` measures
    the workload's full region.
    """
    return int(os.environ.get("REPRO_SAMPLE", "0") or 0)


def _default_sample_regions() -> int:
    """Request default for the number of multi-region sampling windows.

    ``REPRO_SAMPLE_REGIONS`` (set by the ``--sample-regions`` CLI
    flag). ``0`` / ``1`` keep the legacy single-window path.
    """
    return int(os.environ.get("REPRO_SAMPLE_REGIONS", "0") or 0)


def _default_sample_period() -> int:
    """Request default for the spacing between multi-region windows.

    ``REPRO_SAMPLE_PERIOD`` (set by the ``--sample-period`` CLI flag).
    ``0`` spreads the windows uniformly over the workload's region.
    """
    return int(os.environ.get("REPRO_SAMPLE_PERIOD", "0") or 0)


from repro.harness.cache import RunCache
from repro.harness.runner import MODES, simulate
from repro.uarch.config import EIGHT_WIDE, FOUR_WIDE, MachineConfig
from repro.uarch.fusion import fusion_default
from repro.uarch.perfect import PerfectSpec
from repro.uarch.stats import RunStats
from repro.workloads import registry

#: Machine presets addressable by name from a request.
CONFIG_PRESETS: dict[str, MachineConfig] = {
    FOUR_WIDE.name: FOUR_WIDE,
    EIGHT_WIDE.name: EIGHT_WIDE,
}


def preset_name(config: MachineConfig, what: str) -> str:
    """The :data:`CONFIG_PRESETS` name of *config*, which must be an
    unmodified preset. A request names its config, so running *what*
    on a modified one would silently run the same-named preset: it is
    refused by name instead."""
    if CONFIG_PRESETS.get(config.name) != config:
        raise ValueError(
            f"cannot run {what} on config {config.name!r}: it needs an "
            f"unmodified preset config ({tuple(CONFIG_PRESETS)})"
        )
    return config.name


#: ``on_error`` policies for requests that exhaust their retries.
ON_ERROR_POLICIES = ("raise", "skip")


@dataclass(frozen=True)
class RunRequest:
    """One simulation, described declaratively.

    Hashable (for in-matrix deduplication), picklable (for the process
    pool), and JSON-serializable via ``dataclasses.asdict`` (for the
    cache fingerprint).
    """

    workload: str
    scale: float
    #: ``base`` | ``slice`` | ``limit`` | ``perfect``.
    mode: str = "base"
    #: Machine preset name (``4-wide`` / ``8-wide``).
    config: str = FOUR_WIDE.name
    #: ``(dotted.path, value)`` pairs applied to the preset with
    #: ``dataclasses.replace``, e.g. ``(("memory_latency", 400),)`` or
    #: ``(("slice_hw.predictions_per_branch", 4),)``.
    overrides: tuple[tuple[str, object], ...] = ()
    #: ``slice`` mode: dedicated execution resources for helper threads.
    dedicated: bool = False
    #: ``perfect`` mode: the idealized static PCs (sorted for stable
    #: fingerprints) or the all-instructions flags.
    perfect_branch_pcs: tuple[int, ...] = ()
    perfect_load_pcs: tuple[int, ...] = ()
    all_branches: bool = False
    all_loads: bool = False
    #: Event-driven cycle skipping in the core loop. Stats are
    #: identical either way (bar the skip counters), but the modes are
    #: fingerprinted separately so cached skip counters stay honest.
    event_driven: bool = field(default_factory=_default_event_driven)
    #: Fused basic-block execution tier. Stats are identical either way
    #: (bar the fusion meta counters), but fingerprinted separately so
    #: cached ``blocks_compiled`` / ``block_deopts`` stay honest.
    fused_blocks: bool = field(default_factory=fusion_default)
    #: Sampled simulation (:mod:`repro.harness.fastforward`): execute
    #: this many instructions on the functional fast-forward tier (with
    #: functional warming), restoring the detailed core from the warmed
    #: snapshot. ``0`` = full detailed run. Joins the cache fingerprint
    #: via ``dataclasses.asdict`` like every other field.
    fast_forward: int = field(default_factory=_default_fast_forward)
    #: Measured-region length of a sampled run: measure this many
    #: committed instructions after the detailed-warming discard window
    #: (see :func:`repro.harness.fastforward.detail_warmup`). ``0`` =
    #: the workload's full region.
    sample: int = field(default_factory=_default_sample)
    #: Multi-region statistical sampling (:meth:`schedule`): run this
    #: many periodic detailed windows of ``sample`` instructions each,
    #: fast-forwarding between them along a shared snapshot chain, and
    #: aggregate them with a confidence interval
    #: (:func:`repro.uarch.stats.aggregate_stats`). ``0`` / ``1`` =
    #: the legacy single-window path, bit-identical to before.
    sample_regions: int = field(default_factory=_default_sample_regions)
    #: Spacing between multi-region window starts (instructions).
    #: ``0`` derives it by spreading the windows uniformly over the
    #: workload's full region. Only a multi-region request may set it.
    sample_period: int = field(default_factory=_default_sample_period)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.config not in CONFIG_PRESETS:
            raise ValueError(
                f"unknown config {self.config!r}; "
                f"known: {tuple(CONFIG_PRESETS)}"
            )
        if self.fast_forward < 0 or self.sample < 0:
            raise ValueError(
                "fast_forward and sample must be non-negative "
                f"(got {self.fast_forward}, {self.sample})"
            )
        if self.sample_regions < 0 or self.sample_period < 0:
            raise ValueError(
                "sample_regions and sample_period must be non-negative "
                f"(got {self.sample_regions}, {self.sample_period})"
            )
        if self.sample_regions >= 2 and self.sample <= 0:
            raise ValueError(
                "multi-region sampling (sample_regions >= 2) requires "
                "a measured window length (sample > 0)"
            )
        if self.sample_period > 0 and self.sample_regions < 2:
            # It would not change a single window, only the run's key.
            raise ValueError(
                f"sample_period ({self.sample_period}) needs multi-region "
                f"sampling (sample_regions >= 2, got {self.sample_regions})"
            )
        # Normalize so equal requests fingerprint and hash equally.
        object.__setattr__(
            self, "perfect_branch_pcs", tuple(sorted(self.perfect_branch_pcs))
        )
        object.__setattr__(
            self, "perfect_load_pcs", tuple(sorted(self.perfect_load_pcs))
        )
        object.__setattr__(
            self, "overrides", tuple((str(p), v) for p, v in self.overrides)
        )

    def schedule(self, region: int | None = None) -> "SamplePlan":
        """The detailed windows this request measures: the one reading
        of ``fast_forward``, ``sample``, ``sample_regions`` and
        ``sample_period``.

        Full detail is one window at depth 0 and a single-window
        sampled run one window at ``fast_forward``. A multi-region run
        is ``sample_regions`` windows every period from
        ``fast_forward``; the period is clamped to the window so
        windows never overlap. Only a derived period
        (``sample_period == 0``, windows spread uniformly over the
        workload's *region*) needs the workload: *region* defaults to
        this process's :func:`shared_workload` build.
        """
        from repro.harness.fastforward import SamplePlan, detail_warmup

        warmup = detail_warmup(self.sample)
        measured = self.sample or None
        regions = self.sample_regions
        if regions < 2:
            return SamplePlan((self.fast_forward,), warmup, measured)
        window = warmup + self.sample
        period = self.sample_period
        if period <= 0:
            if region is None:
                region = shared_workload(self.workload, self.scale).region
            span = max(region - self.fast_forward, regions * window)
            period = span // regions
        period = max(period, window)
        depths = tuple(self.fast_forward + k * period for k in range(regions))
        return SamplePlan(depths, warmup, measured)

    def resolve_config(self) -> MachineConfig:
        """Materialize the machine configuration for this request."""
        config = CONFIG_PRESETS[self.config]
        for path, value in self.overrides:
            config = _apply_override(config, path, value)
        return config

    def resolve_perfect(self) -> PerfectSpec | None:
        """The perfect overlay of a ``perfect`` request; ``None`` for
        every other mode."""
        if self.mode != "perfect":
            return None
        return PerfectSpec(
            branch_pcs=frozenset(self.perfect_branch_pcs),
            load_pcs=frozenset(self.perfect_load_pcs),
            all_branches=self.all_branches,
            all_loads=self.all_loads,
        )


def _apply_override(config, path: str, value):
    """Replace the (possibly nested) field at dotted *path*."""
    head, _, rest = path.partition(".")
    if rest:
        value = _apply_override(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


def assemble_windows(depths, measure) -> RunStats | None:
    """Fold a multi-region request's windows into its whole-run
    aggregate: the one statement of the halt-drop rule.

    ``measure(depth)`` is called lazily, in depth order, and returns
    that window's stats (carrying ``ff_insts = snapshot.executed``) or
    ``None`` when the window is not measured yet or failed — which
    stops the fold and returns ``None``. The first window always counts
    (legacy degenerate semantics when ``fast_forward`` overshoots the
    program). After it, the first window whose functional prefix halted
    short of its depth (``ff_insts < depth``) ends the fold: the program
    ended before that window started (``workload.region`` is a ceiling,
    not a promise), so it and every later window are dropped, and no
    window after it is ever looked up. The aggregate is therefore the
    same however (or whenever, for cached windows) the windows were
    measured.
    """
    from repro.uarch.stats import aggregate_stats

    kept: list[RunStats] = []
    for depth in depths:
        stats = measure(depth)
        if stats is None:
            return None
        if kept and stats.ff_insts < depth:
            break
        kept.append(stats)
    return aggregate_stats(kept)


#: The most recently built workload in this process, as
#: ``((name, scale), workload)``. Window units arrive name-major, so one
#: entry catches nearly every rebuild; keeping more raises peak RSS.
#: A run never mutates its workload (``Memory`` copies the image).
_last_workload: tuple | None = None


def shared_workload(name: str, scale: float):
    """Workload *name* at *scale*, reusing this process's previous build
    when it is for the same ``(name, scale)``.

    Everything that builds a workload to run it in this process goes
    through here, so the previous build is never live beside the next.
    """
    global _last_workload
    key = (name, scale)
    last = _last_workload
    if last is not None and last[0] == key:
        return last[1]
    _last_workload = None  # drop the old build before making the next
    workload = registry.build(name, scale=scale)
    _last_workload = (key, workload)
    return workload


def execute_request(request: RunRequest, snapshots=None) -> RunStats:
    """Build and run one request, restoring and storing warmed
    snapshots in *snapshots* (a
    :class:`~repro.harness.fastforward.SnapshotStore`; ``None`` = the
    store under the default cache root). Top-level so the pool can
    pickle it.

    Every request is a list of windows (:meth:`RunRequest.schedule`),
    measured along one :func:`~repro.harness.fastforward.iter_chain`
    walk. The walk is a stream: each window's snapshot is restored,
    measured and released before the next member is touched, and the
    multi-region fold stops at the first short chain member, so the
    chain never advances past the one window it measures and drops. A
    depth-0 window restores nothing, so a full-detail request builds
    its Core exactly as a direct :func:`simulate` call does.
    """
    from repro.harness.fastforward import iter_chain

    workload = shared_workload(request.workload, request.scale)
    config = request.resolve_config()
    plan = request.schedule(workload.region)
    chain = iter_chain(workload, config, plan.depths, store=snapshots)

    def measure(depth: int) -> RunStats:
        snapshot, hit = next(chain)
        stats = simulate(
            workload,
            request.mode,
            config,
            perfect=request.resolve_perfect(),
            dedicated=request.dedicated,
            event_driven=request.event_driven,
            fused_blocks=request.fused_blocks,
            snapshot=snapshot,
            warmup=plan.warmup,
            region=plan.region,
        )
        if snapshot is not None:
            stats.ff_insts = snapshot.executed
            stats.snapshot_hit = hit
        return stats

    if request.sample_regions >= 2:
        return assemble_windows(plan.depths, measure)
    return measure(plan.depths[0])


def window_request(request: RunRequest, depth: int) -> RunRequest:
    """The single-window :class:`RunRequest` computing one detailed
    window of a multi-region *request*.

    A window at chain depth *d* is exactly the single-window sampled
    run ``fast_forward=d, sample=request.sample``: same snapshot-store
    key, same warmup/region pair, same dispatch — so executing the
    derived request is bit-identical to the serial loop's iteration at
    that depth (the oracle the differential tests assert against).
    """
    return dataclasses.replace(
        request, fast_forward=depth, sample_regions=0, sample_period=0
    )


@dataclass(frozen=True)
class _WindowUnit:
    """One per-window work unit of an exploded multi-region request.

    A first-class sibling of ordinary matrix entries in the pool:
    hashable, picklable, fault-targetable (``request_key`` works on any
    dataclass), and deduplicated by its content-addressed *key* so two
    parents with overlapping schedules share each common window.
    """

    request: RunRequest  # the derived single-window request
    key: str  # window_fingerprint — the windows-namespace cache key
    depth: int

    @property
    def workload(self) -> str:  # log-line protocol of _execute_pooled
        return self.request.workload

    @property
    def mode(self) -> str:
        return f"{self.request.mode}@{self.depth}"


def window_schedule(request: RunRequest) -> list[_WindowUnit]:
    """Explode a multi-region *request* into its per-window work units,
    in depth order, each carrying its windows-namespace cache key."""
    from repro.harness.cache import window_fingerprint

    return [
        _WindowUnit(
            request=window_request(request, depth),
            key=window_fingerprint(request, depth),
            depth=depth,
        )
        for depth in request.schedule().depths
    ]


def _assemble_outcome(
    request: RunRequest,
    units,
    window_cached,
    unit_outcomes,
) -> "RequestOutcome":
    """Reassemble one exploded request from its windows' outcomes with
    :func:`assemble_windows`; a window that failed (skipped after
    exhausting retries) fails the whole request unless an earlier short
    chain member already dropped it.

    Every looked-up window's attempts and latency are charged; only
    kept windows count as ``window_hits``.
    """
    by_depth = {unit.depth: unit for unit in units}
    attempts = 0
    latency = 0.0
    cached: list[bool] = []
    missing: str | None = None

    def measure(depth: int) -> RunStats | None:
        nonlocal attempts, latency, missing
        unit = by_depth[depth]
        stats = window_cached.get(unit.key)
        cached.append(stats is not None)
        if stats is not None:
            return stats
        outcome = unit_outcomes.get(unit.key)
        if outcome is not None:
            attempts += outcome.attempts
            latency = max(latency, outcome.latency)
            if outcome.stats is not None:
                return outcome.stats
        missing = (
            outcome.error
            if outcome is not None and outcome.error
            else f"window at depth {depth} was not measured"
        )
        return None

    stats = assemble_windows(list(by_depth), measure)
    kept = stats.sample_regions if stats is not None else len(cached)
    return RequestOutcome(
        request,
        "ok" if stats is not None else "skipped",
        stats,
        attempts=attempts,
        error=missing,
        latency=latency,
        windows=len(units),
        window_hits=sum(cached[:kept]),
    )


def _pool_entry(item, attempt: int, fault_plan, snapshots=None) -> RunStats:
    """Pool worker: apply any planned fault, then run the item — an
    ordinary :class:`RunRequest` or one :class:`_WindowUnit` of an
    exploded multi-region request."""
    if fault_plan is not None:
        fault_plan.perturb(item, attempt)
    if isinstance(item, _WindowUnit):
        item = item.request
    return execute_request(item, snapshots)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else CPU count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else (os.cpu_count() or 1)
    return max(1, jobs)


def _resolve_timeout(timeout: float | None) -> float | None:
    """Per-request timeout: explicit arg, else ``REPRO_TIMEOUT`` env."""
    if timeout is not None:
        return timeout if timeout > 0 else None
    env = os.environ.get("REPRO_TIMEOUT")
    if env:
        value = float(env)
        return value if value > 0 else None
    return None


def _resolve_retries(retries: int | None) -> int:
    """Retry budget: explicit arg, else ``REPRO_RETRIES`` env, else 0."""
    if retries is None:
        env = os.environ.get("REPRO_RETRIES")
        retries = int(env) if env else 0
    return max(0, retries)


def _resolve_on_error(on_error: str | None) -> str:
    if on_error is None:
        on_error = os.environ.get("REPRO_ON_ERROR", "raise")
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error {on_error!r}; known: {ON_ERROR_POLICIES}"
        )
    return on_error


def _backoff_delay(base: float, request: RunRequest, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter is drawn from the request identity and attempt number,
    so two workers retrying different requests desynchronize without
    any nondeterminism entering the harness.
    """
    if base <= 0:
        return 0.0
    digest = hashlib.sha256(f"{attempt}:{request!r}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    return min(base * (2 ** max(attempt - 1, 0)) * (1.0 + jitter), 30.0)


@dataclass
class RequestOutcome:
    """How one (deduplicated) request fared in a matrix."""

    request: RunRequest
    #: ``"ok"`` (fresh run), ``"cached"`` (cache hit), or ``"skipped"``
    #: (failed after exhausting retries under ``on_error="skip"``).
    status: str
    stats: RunStats | None
    #: Execution attempts consumed (0 for pure cache hits).
    attempts: int = 0
    #: Message of the last error seen, for skipped / retried requests.
    error: str | None = None
    #: Wall-clock seconds from first submission to resolution.
    latency: float = 0.0
    #: Window-parallel accounting (multi-region requests exploded into
    #: per-window units): how many windows this request's schedule has,
    #: and how many were answered from the windows cache namespace
    #: instead of being measured.
    windows: int = 0
    window_hits: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class MatrixReport:
    """Per-request accounting for one :func:`run_matrix` call.

    ``outcomes`` holds one entry per *input* request, in input order
    (duplicates share the underlying outcome object of their first
    occurrence).
    """

    outcomes: list[RequestOutcome] = field(default_factory=list)
    #: Times the process pool was torn down and respawned (worker
    #: crashes and timeout terminations).
    pool_respawns: int = 0
    #: Retry attempts beyond each request's first execution attempt.
    retries: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "skipped")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in _unique_outcomes(self.outcomes))

    @property
    def ff_insts(self) -> int:
        """Instructions executed on the functional fast-forward tier
        across unique outcomes (multi-region runs already carry their
        chain total)."""
        return sum(
            o.stats.ff_insts
            for o in _unique_outcomes(self.outcomes)
            if o.stats is not None
        )

    @property
    def snapshot_hits(self) -> int:
        """Warmed snapshots restored from the on-disk store instead of
        built (chain members included)."""
        total = 0
        for o in _unique_outcomes(self.outcomes):
            if o.stats is None:
                continue
            if o.stats.sample_regions:
                total += o.stats.snapshot_hits
            elif o.stats.snapshot_hit:
                total += 1
        return total

    @property
    def sampled_regions(self) -> int:
        """Detailed windows run under sampling (a multi-region run
        contributes its region count; a single-window sampled run
        contributes 1)."""
        total = 0
        for o in _unique_outcomes(self.outcomes):
            if o.stats is None:
                continue
            if o.stats.sample_regions:
                total += o.stats.sample_regions
            elif o.stats.ff_insts:
                total += 1
        return total

    @property
    def windows(self) -> int:
        """Windows scheduled through the window-parallel decomposition
        (0 when requests ran serially or came whole from the cache)."""
        return sum(o.windows for o in _unique_outcomes(self.outcomes))

    @property
    def window_hits(self) -> int:
        """Windows answered from the windows cache namespace instead of
        measured — the per-window reuse a re-sweep with an overlapping
        schedule (e.g. 8 -> 10 regions) gets."""
        return sum(o.window_hits for o in _unique_outcomes(self.outcomes))

    def stats_list(self) -> list[RunStats]:
        """Input-order stats; skipped requests yield empty placeholder
        :class:`RunStats` so downstream renderers survive partial
        matrices (the skip is still visible here and in the CLI exit
        code)."""
        return [
            o.stats
            if o.stats is not None
            else RunStats(
                config_name=o.request.config, workload_name=o.request.workload
            )
            for o in self.outcomes
        ]


def _unique_outcomes(outcomes):
    seen = set()
    for outcome in outcomes:
        if id(outcome) not in seen:
            seen.add(id(outcome))
            yield outcome


#: Skipped outcomes across every ``run_matrix`` call since the last
#: :func:`reset_skipped_log` — the CLI uses this to exit nonzero when
#: an experiment completed with holes in it.
_skipped_log: list[RequestOutcome] = []


def reset_skipped_log() -> None:
    _skipped_log.clear()


def skipped_outcomes() -> list[RequestOutcome]:
    return list(_skipped_log)


def run_matrix(
    requests,
    jobs: int | None = None,
    cache: RunCache | None = None,
    *,
    timeout: float | None = None,
    retries: int | None = None,
    on_error: str | None = None,
    backoff_base: float = 0.05,
    fault_plan=None,
    return_report: bool = False,
):
    """Execute *requests*, returning stats in input order.

    Identical requests are simulated once. Cached results are reused
    (pass a disabled :class:`RunCache` to opt out); warmed snapshots
    are built and restored in ``cache.snapshots``, under the cache's
    own root, even when it is disabled. Fresh runs go to a
    process pool when more than one worker is useful (or whenever a
    ``timeout`` is set — in-process execution cannot be preempted).

    **Window-parallel sampling.** With more than one worker, every
    multi-region request is exploded after the chain prebuild into
    per-window work units that fan out through the same pool as
    ordinary entries — inheriting timeout/retry/respawn/fault-plan
    semantics — and are reassembled in depth order by
    :func:`assemble_windows`, bit-identically. Each window also gets
    its own content-addressed entry in the ``windows`` cache namespace,
    so a re-sweep with an overlapping schedule (8 -> 10 regions, say)
    recomputes only the new windows. ``jobs=1`` measures each request's
    windows serially in one process: the bit-identity oracle.

    Resilience knobs (see the module docstring for the failure model):

    * ``timeout`` — per-request wall-clock budget in seconds
      (``REPRO_TIMEOUT`` env; ``None`` = unbounded).
    * ``retries`` — extra attempts per request after a crash, timeout,
      or transient error (``REPRO_RETRIES`` env; default 0).
    * ``on_error`` — ``"raise"`` (default, ``REPRO_ON_ERROR`` env) or
      ``"skip"``.
    * ``fault_plan`` — a :class:`~repro.harness.faults.FaultPlan` for
      deterministic fault injection (tests only).
    * ``return_report`` — return the full :class:`MatrixReport` instead
      of the plain stats list.
    """
    requests = list(requests)
    if cache is None:
        cache = RunCache()
    timeout = _resolve_timeout(timeout)
    retries = _resolve_retries(retries)
    on_error = _resolve_on_error(on_error)

    if fault_plan is not None:
        fault_plan.corrupt_cache_entries(cache, requests)

    by_request: dict[RunRequest, list[int]] = {}
    for index, request in enumerate(requests):
        by_request.setdefault(request, []).append(index)

    resolved: dict[RunRequest, RequestOutcome] = {}
    pending: list[RunRequest] = []
    for request in by_request:
        stats = cache.get(request)
        if stats is None:
            pending.append(request)
        else:
            resolved[request] = RequestOutcome(request, "cached", stats)

    report = MatrixReport()
    service = _service_url()
    if pending and service is not None:
        # Thin-client mode (``--service`` / ``REPRO_SERVICE_URL``): ship
        # the misses to the experiment service and let its workers pay
        # for execution — including snapshot prebuilds, which belong on
        # the machines that run the windows. Results come back
        # bit-identical (checksummed pickles) and are re-published into
        # the local cache below, so a later offline run is a pure hit.
        executed = _execute_service(
            pending, service, timeout=timeout, on_error=on_error
        )
        for request, outcome in executed.items():
            if outcome.status == "ok":
                cache.put(request, outcome.stats)
            else:
                _skipped_log.append(outcome)
            resolved[request] = outcome
        pending = []
    if pending:
        # Build each distinct warmed snapshot — for multi-region
        # requests, each distinct snapshot *chain* — once before
        # fanning out: every sweep point / pool worker then restores
        # from the shared store instead of re-paying the functional
        # prefix per run. Independent chains build concurrently under
        # the same resilience knobs as the matrix itself. (Races with
        # concurrent harnesses are benign — builds are deterministic
        # and writes are atomic.)
        from repro.harness.fastforward import prebuild_snapshots

        prebuild_snapshots(
            pending,
            store=cache.snapshots,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
        )
        # Two-level scheduling: explode multi-region requests into
        # per-window units (first-class pool siblings of the plain
        # requests), answering already-measured windows from the
        # ``windows`` cache namespace.
        workers = resolve_jobs(jobs)
        plans: dict[RunRequest, list[_WindowUnit]] = {}
        window_cached: dict[str, RunStats] = {}
        units_by_key: dict[str, _WindowUnit] = {}
        if workers > 1:
            multi = [r for r in pending if r.sample_regions >= 2]
            if multi:
                for request in multi:
                    units = window_schedule(request)
                    plans[request] = units
                    for unit in units:
                        if (
                            unit.key in window_cached
                            or unit.key in units_by_key
                        ):
                            continue
                        stats = cache.windows.get(unit.key)
                        if stats is not None:
                            window_cached[unit.key] = stats
                        else:
                            units_by_key[unit.key] = unit
        plain = [r for r in pending if r not in plans]
        pool_items: list = plain + list(units_by_key.values())
        executed: dict = {}
        if pool_items:
            workers = min(workers, len(pool_items))
            use_pool = workers > 1 or timeout is not None
            if use_pool:
                executed = _execute_pooled(
                    pool_items,
                    workers,
                    timeout=timeout,
                    retries=retries,
                    on_error=on_error,
                    backoff_base=backoff_base,
                    fault_plan=fault_plan,
                    report=report,
                    entry=functools.partial(
                        _pool_entry, snapshots=cache.snapshots
                    ),
                )
            else:
                executed = _execute_inline(
                    pool_items,
                    retries=retries,
                    on_error=on_error,
                    backoff_base=backoff_base,
                    fault_plan=fault_plan,
                    report=report,
                    snapshots=cache.snapshots,
                )
        # Publish fresh windows to their namespace, then reassemble
        # each exploded request in depth order (halt-drop applied at
        # assembly). Failed windows surface on the parent outcome.
        unit_outcomes: dict[str, RequestOutcome] = {}
        for item in list(executed):
            if isinstance(item, _WindowUnit):
                outcome = executed.pop(item)
                unit_outcomes[item.key] = outcome
                if outcome.status == "ok":
                    cache.windows.put(item.key, outcome.stats)
        for request, units in plans.items():
            executed[request] = _assemble_outcome(
                request, units, window_cached, unit_outcomes
            )
        for request, outcome in executed.items():
            if outcome.status == "ok":
                cache.put(request, outcome.stats)
            else:
                _skipped_log.append(outcome)
            resolved[request] = outcome

    report.outcomes = [resolved[request] for request in requests]
    cache.flush_counters()
    if return_report:
        return report
    return report.stats_list()


#: Thread-scoped override: inside :func:`direct_execution`, service
#: mode is ignored for this thread's ``run_matrix`` calls.
_direct = threading.local()


@contextmanager
def direct_execution():
    """Force in-process execution even when ``REPRO_SERVICE_URL`` is
    set. The service *worker* wraps its own ``run_matrix`` call in
    this: it is the service's executor, and must never loop a claimed
    job back into the queue it was claimed from. Thread-scoped, so a
    worker thread and a thin-client thread coexist in one process
    (the differential tests do exactly that)."""
    previous = getattr(_direct, "on", False)
    _direct.on = True
    try:
        yield
    finally:
        _direct.on = previous


def _service_url() -> str | None:
    """The configured experiment-service endpoint, if any (lazy import
    so the default in-process path never loads the service package)."""
    if getattr(_direct, "on", False):
        return None
    if not os.environ.get("REPRO_SERVICE_URL", "").strip():
        return None
    from repro.service.client import service_url

    return service_url()


def _execute_service(
    pending,
    url: str,
    timeout: float | None,
    on_error: str,
) -> dict[RunRequest, RequestOutcome]:
    """Run *pending* through a remote experiment service.

    One sweep submission, polled until the workers publish every
    result. The per-request ``timeout`` scales into a whole-sweep
    deadline (the client cannot preempt a remote worker, only give up
    waiting); jobs the service marks failed — and every job, if the
    service itself is unreachable — land on the usual ``on_error``
    policy as :class:`~repro.errors.ServiceError`.
    """
    from repro.errors import ServiceError
    from repro.harness.cache import fingerprint
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    deadline = timeout * max(1, len(pending)) if timeout else None
    start = time.monotonic()
    results: dict[str, RunStats] = {}
    failed: dict[str, str] = {}
    sweep_error: Exception | None = None
    try:
        results, failed = client.run(pending, deadline=deadline)
    except ServiceError as exc:
        sweep_error = exc

    outcomes: dict[RunRequest, RequestOutcome] = {}
    latency = time.monotonic() - start
    for request in pending:
        key = fingerprint(request)
        stats = results.get(key)
        if stats is not None:
            outcomes[request] = RequestOutcome(
                request, "ok", stats, attempts=1, latency=latency
            )
            continue
        error: Exception
        if key in failed:
            error = ServiceError(
                f"service failed job {key[:12]}: {failed[key]}", key=key
            )
        elif sweep_error is not None:
            error = sweep_error
        else:
            error = ServiceError(
                f"service returned no result for {key[:12]}", key=key
            )
        outcomes[request] = _finalize_failure(
            request, error, attempts=1, latency=latency, on_error=on_error
        )
    return outcomes


def _execute_inline(
    pending,
    retries: int,
    on_error: str,
    backoff_base: float,
    fault_plan,
    report: MatrixReport,
    snapshots,
) -> dict[RunRequest, RequestOutcome]:
    """Sequential in-process execution with retry/backoff.

    Used when one worker suffices and no timeout is requested (an
    in-process simulation cannot be preempted). Injected crashes are
    surfaced as :class:`WorkerCrashError` instead of killing the
    harness process.
    """
    outcomes: dict[RunRequest, RequestOutcome] = {}
    for request in pending:
        start = time.monotonic()
        error: Exception | None = None
        for attempt in range(retries + 1):
            if attempt:
                report.retries += 1
                time.sleep(_backoff_delay(backoff_base, request, attempt))
            try:
                if fault_plan is not None:
                    fault_plan.perturb(request, attempt, in_process=True)
                stats = execute_request(
                    request.request
                    if isinstance(request, _WindowUnit)
                    else request,
                    snapshots,
                )
            except Exception as exc:  # noqa: BLE001 — retry boundary
                error = exc
                log.warning(
                    "request %s/%s attempt %d failed: %s",
                    request.workload,
                    request.mode,
                    attempt + 1,
                    exc,
                )
                continue
            outcomes[request] = RequestOutcome(
                request,
                "ok",
                stats,
                attempts=attempt + 1,
                latency=time.monotonic() - start,
            )
            break
        else:
            outcomes[request] = _finalize_failure(
                request,
                error,
                attempts=retries + 1,
                latency=time.monotonic() - start,
                on_error=on_error,
            )
    return outcomes


def _finalize_failure(
    request: RunRequest,
    error: Exception | None,
    attempts: int,
    latency: float,
    on_error: str,
) -> RequestOutcome:
    """A request exhausted its retries: raise or record the skip."""
    if on_error == "raise":
        raise error if error is not None else SimulationError(
            f"request {request} failed with no recorded error"
        )
    log.warning(
        "skipping request %s/%s after %d attempt(s): %s",
        request.workload,
        request.mode,
        attempts,
        error,
    )
    return RequestOutcome(
        request,
        "skipped",
        None,
        attempts=attempts,
        error=str(error) if error is not None else None,
        latency=latency,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and abandon it.

    ``shutdown`` alone never interrupts a running task, so a hung or
    runaway worker would leak past any timeout; terminating the
    processes is the only preemption Python offers.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform-specific races
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _execute_pooled(
    pending,
    workers: int,
    timeout: float | None,
    retries: int,
    on_error: str,
    backoff_base: float,
    fault_plan,
    report: MatrixReport,
    entry=_pool_entry,
) -> dict[RunRequest, RequestOutcome]:
    """Pool execution with timeouts, retries, and broken-pool recovery.

    *entry* is the picklable worker function ``(item, attempt,
    fault_plan) -> result``; the default runs a :class:`RunRequest`,
    and the snapshot prebuilder passes its own chain-building entry
    with ``_PrebuildTask`` items (anything hashable exposing
    ``workload`` / ``mode`` for the log lines works).

    Invariants:

    * Every submission charges the request one attempt. A request whose
      attempt is *aborted through no fault of its own* (its pool was
      torn down because a sibling timed out) is refunded the attempt
      and simply requeued, so collateral damage never consumes retry
      budget. A broken pool cannot attribute the crash, so there every
      in-flight request is charged (this is what bounds respawn loops).
    * The loop terminates: each iteration either resolves a request,
      charges an attempt (bounded by ``(retries + 1)`` per request), or
      performs a refund that is paid for by a charged timeout/crash.
    """
    outcomes: dict[RunRequest, RequestOutcome] = {}
    attempts: dict[RunRequest, int] = {request: 0 for request in pending}
    first_submit: dict[RunRequest, float] = {}
    last_error: dict[RunRequest, Exception] = {}
    not_before: dict[RunRequest, float] = {}
    queue = deque(pending)
    pool = ProcessPoolExecutor(max_workers=workers)
    running: dict[object, tuple[RunRequest, float | None]] = {}

    def fail_or_requeue(request: RunRequest, error: Exception) -> None:
        """One attempt failed for real: retry with backoff or finalize."""
        last_error[request] = error
        if attempts[request] <= retries:
            report.retries += 1
            delay = _backoff_delay(backoff_base, request, attempts[request])
            not_before[request] = time.monotonic() + delay
            queue.append(request)
            log.warning(
                "request %s/%s attempt %d failed (%s); retrying in %.2fs",
                request.workload,
                request.mode,
                attempts[request],
                error,
                delay,
            )
        else:
            outcomes[request] = _finalize_failure(
                request,
                error,
                attempts=attempts[request],
                latency=time.monotonic() - first_submit[request],
                on_error=on_error,
            )

    try:
        while queue or running:
            now = time.monotonic()
            # Submit every eligible queued request (the pool itself
            # bounds concurrency to `workers`).
            blocked_until: float | None = None
            for _ in range(len(queue)):
                request = queue.popleft()
                eligible_at = not_before.get(request, 0.0)
                if eligible_at > now:
                    queue.append(request)
                    if blocked_until is None or eligible_at < blocked_until:
                        blocked_until = eligible_at
                    continue
                attempts[request] += 1
                first_submit.setdefault(request, now)
                try:
                    future = pool.submit(
                        entry, request, attempts[request] - 1, fault_plan
                    )
                except RuntimeError as exc:
                    # Pool broke between iterations; recover below.
                    attempts[request] -= 1
                    queue.append(request)
                    log.warning("submit failed (%s); respawning pool", exc)
                    _kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                    report.pool_respawns += 1
                    break
                deadline = now + timeout if timeout is not None else None
                running[future] = (request, deadline)
            if not running:
                if blocked_until is not None:
                    time.sleep(max(0.0, blocked_until - time.monotonic()))
                continue

            # Wake on the first completion or the earliest deadline.
            wait_for = None
            deadlines = [d for _, d in running.values() if d is not None]
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
            if blocked_until is not None:
                until = max(0.0, blocked_until - time.monotonic())
                wait_for = until if wait_for is None else min(wait_for, until)
            done, _ = wait(
                list(running), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for future in done:
                request, _deadline = running.pop(future)
                try:
                    stats = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    fail_or_requeue(
                        request,
                        WorkerCrashError(
                            "worker process died mid-request "
                            f"(attempt {attempts[request]})",
                            attempts=attempts[request],
                        ),
                    )
                except Exception as exc:  # noqa: BLE001 — retry boundary
                    fail_or_requeue(request, exc)
                else:
                    outcomes[request] = RequestOutcome(
                        request,
                        "ok",
                        stats,
                        attempts=attempts[request],
                        latency=time.monotonic() - first_submit[request],
                    )

            now = time.monotonic()
            timed_out = [
                future
                for future, (_, deadline) in running.items()
                if deadline is not None and deadline <= now
            ]
            if timed_out:
                for future in timed_out:
                    request, _deadline = running.pop(future)
                    fail_or_requeue(
                        request,
                        RunTimeoutError(
                            f"request exceeded {timeout:.1f}s "
                            f"(attempt {attempts[request]})",
                            timeout=timeout,
                            attempts=attempts[request],
                        ),
                    )
            if pool_broken or timed_out:
                # The pool is unusable (broken) or must be preempted
                # (timeout): tear it down and requeue the survivors.
                for future in list(running):
                    request, _deadline = running.pop(future)
                    if pool_broken:
                        # Cannot attribute the crash: charge everyone
                        # (bounds the respawn loop), retry or finalize.
                        fail_or_requeue(
                            request,
                            WorkerCrashError(
                                "process pool broke while request was "
                                f"in flight (attempt {attempts[request]})",
                                attempts=attempts[request],
                            ),
                        )
                    else:
                        # Innocent victim of a sibling's timeout:
                        # refund the attempt and requeue.
                        attempts[request] -= 1
                        queue.append(request)
                _kill_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
                report.pool_respawns += 1
    finally:
        _kill_pool(pool)
    return outcomes
