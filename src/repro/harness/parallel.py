"""Parallel, fault-tolerant execution of experiment run matrices.

Every paper experiment reduces to a list of independent simulations.
This module gives the harness one entry point for all of them:

* :class:`RunRequest` — a declarative, picklable description of one
  simulation (workload name, scale, machine preset, mode, overrides).
* :func:`execute_request` — materialize and run one request (also the
  process-pool worker).
* :func:`run_matrix` — map requests to :class:`RunStats`, in input
  order, splitting each multi-region request into its window requests,
  deduplicating identical requests and windows, consulting the
  :class:`~repro.harness.cache.RunCache`, and fanning fresh runs out
  over a process pool (``--jobs`` / ``REPRO_JOBS`` / ``os.cpu_count()``).

The simulator is deterministic, so parallel and cached execution return
bit-identical stats to sequential fresh runs (asserted by
``tests/harness/test_determinism.py`` and ``tests/harness/test_cache.py``),
and the worker count changes only speed: the same requests and windows
run, and reach the same cache entries, at every ``jobs``.

**Failure model.** A large matrix must survive partial failure: one
OOM-killed worker or one wedged simulation must not discard hours of
sibling results. One attempt loop, :func:`_execute`, runs the matrix,
the snapshot-chain prebuild and the fuzz seed batch alike. It supports
per-item wall-clock timeouts (``timeout=`` / ``REPRO_TIMEOUT``; a
deadline starts when a worker can start the item), bounded retries
with exponential backoff and deterministic jitter (``retries=`` /
``REPRO_RETRIES``), and broken-pool recovery: when a worker dies the
pool is respawned and in-flight items are requeued; when an item
times out its workers are terminated and innocent in-flight siblings
are requeued *without* being charged an attempt. The ``on_error``
policy decides the endgame for an item that exhausts its retries:
``"raise"`` (default) propagates the typed error; ``"skip"`` records
the failure and completes the rest. One worker with no timeout runs
on the loop's in-process backend: the same attempts, made in this
process, one at a time. Per-request outcome/attempts/latency
accounting is returned as a :class:`MatrixReport`
(``return_report=True``); the plain list form substitutes empty
placeholder stats for skipped requests so partial renders survive.
Deterministic fault injection for all of the above lives in
:mod:`repro.harness.faults`.

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
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import settings
from repro.errors import RunTimeoutError, WorkerCrashError
from repro.harness.cache import RunCache
from repro.harness.runner import MODES, simulate
from repro.uarch.config import EIGHT_WIDE, FOUR_WIDE, MachineConfig
from repro.uarch.perfect import PerfectSpec
from repro.uarch.stats import RunStats
from repro.workloads import registry

log = logging.getLogger(__name__)

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
    #: ``False`` is the stepping scheduler, the timing oracle.
    event_driven: bool = True
    #: Sampled simulation (:mod:`repro.harness.fastforward`): execute
    #: this many instructions on the functional fast-forward tier (with
    #: functional warming), restoring the detailed core from the warmed
    #: snapshot. ``0`` = full detailed run. Joins the cache fingerprint
    #: via ``dataclasses.asdict`` like every other field.
    fast_forward: int = field(
        default_factory=functools.partial(settings.get, "fast_forward")
    )
    #: Measured-region length of a sampled run: measure this many
    #: committed instructions after the detailed-warming discard window
    #: (see :func:`repro.harness.fastforward.detail_warmup`). ``0`` =
    #: the workload's full region.
    sample: int = field(
        default_factory=functools.partial(settings.get, "sample")
    )
    #: Multi-region statistical sampling (:meth:`schedule`): run this
    #: many periodic detailed windows of ``sample`` instructions each,
    #: fast-forwarding between them along a shared snapshot chain, and
    #: aggregate them with a confidence interval
    #: (:func:`repro.uarch.stats.aggregate_stats`). ``0`` / ``1`` =
    #: the legacy single-window path, bit-identical to before.
    sample_regions: int = field(
        default_factory=functools.partial(settings.get, "sample_regions")
    )
    #: Spacing between multi-region window starts (instructions).
    #: ``0`` derives it by spreading the windows uniformly over the
    #: workload's full region. Only a multi-region request may set it.
    sample_period: int = field(
        default_factory=functools.partial(settings.get, "sample_period")
    )

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
#: ``((name, scale), workload)``. Window requests arrive name-major, so
#: one entry catches nearly every rebuild; keeping more raises peak RSS.
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
    derived request is bit-identical to :func:`execute_request`'s walk
    at that depth (the oracle the differential tests assert against).
    """
    return dataclasses.replace(
        request, fast_forward=depth, sample_regions=0, sample_period=0
    )


def window_schedule(request: RunRequest) -> list[RunRequest]:
    """The single-window requests a multi-region *request* decomposes
    into, in depth order (:func:`window_request` at each scheduled
    depth). Window *w*'s ``windows``-namespace key is
    ``window_fingerprint(w, w.fast_forward)``."""
    return [
        window_request(request, depth) for depth in request.schedule().depths
    ]


def _assemble_outcome(
    request: RunRequest,
    windows: list[RunRequest],
    window_outcomes: dict[RunRequest, "RequestOutcome"],
) -> "RequestOutcome":
    """Reassemble one decomposed request from its windows' outcomes
    (``"cached"`` from the ``windows`` namespace, else executed) with
    :func:`assemble_windows`; a window that failed (skipped after
    exhausting retries) fails the whole request unless an earlier short
    chain member already dropped it.

    Every looked-up window's attempts and latency are charged; only
    kept windows count as ``window_hits``.
    """
    by_depth = {window.fast_forward: window for window in windows}
    attempts = 0
    latency = 0.0
    cached: list[bool] = []
    missing: str | None = None

    def measure(depth: int) -> RunStats | None:
        nonlocal attempts, latency, missing
        outcome = window_outcomes[by_depth[depth]]
        cached.append(outcome.status == "cached")
        attempts += outcome.attempts
        latency = max(latency, outcome.latency)
        if outcome.stats is None:
            missing = outcome.error or f"window at depth {depth} failed"
        return outcome.stats

    stats = assemble_windows(list(by_depth), measure)
    kept = stats.sample_regions if stats is not None else len(cached)
    return RequestOutcome(
        request,
        "ok" if stats is not None else "skipped",
        stats,
        attempts=attempts,
        error=missing,
        latency=latency,
        windows=len(windows),
        window_hits=sum(cached[:kept]),
    )


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else CPU count."""
    if jobs is None:
        jobs = settings.get("jobs")
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _resolve_timeout(timeout: float | None) -> float | None:
    """Per-request timeout: explicit arg, else ``REPRO_TIMEOUT``; a
    value <= 0 means none."""
    if timeout is None:
        timeout = settings.get("timeout")
    return timeout if timeout is not None and timeout > 0 else None


def _resolve_retries(retries: int | None) -> int:
    """Retry budget: explicit arg, else ``REPRO_RETRIES``, else 0."""
    if retries is None:
        retries = settings.get("retries")
    return max(0, retries)


def _resolve_on_error(on_error: str | None) -> str:
    if on_error is None:
        return settings.get("on_error")
    if on_error not in settings.ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error {on_error!r}; "
            f"known: {settings.ON_ERROR_POLICIES}"
        )
    return on_error


#: First retry delay in seconds; each further retry doubles it (see
#: :func:`_backoff_delay`). Tests lower it to run faster.
BACKOFF_BASE = 0.05


def _backoff_delay(request: RunRequest, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter is drawn from the request identity and attempt number,
    so two workers retrying different requests desynchronize without
    any nondeterminism entering the harness.
    """
    if BACKOFF_BASE <= 0:
        return 0.0
    digest = hashlib.sha256(f"{attempt}:{request!r}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    delay = BACKOFF_BASE * (2 ** max(attempt - 1, 0)) * (1.0 + jitter)
    return min(delay, 30.0)


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
    #: Window accounting of a multi-region request: how many windows
    #: its schedule has, and how many were answered from the windows
    #: cache namespace instead of being measured.
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
    def windows(self) -> int:
        """Windows scheduled by the multi-region requests that missed
        the run cache (0 when every request came whole from it), at
        every worker count."""
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
    fault_plan=None,
    return_report: bool = False,
):
    """Execute *requests*, returning stats in input order.

    Identical requests are simulated once. Cached results are reused
    (pass a disabled :class:`RunCache` to opt out); warmed snapshots
    are built and restored in ``cache.snapshots``, under the cache's
    own root, even when it is disabled. Fresh runs go through the one
    attempt loop, :func:`_execute`: to a process pool when more than
    one worker is useful or a ``timeout`` is set (in-process execution
    cannot be preempted), else in this process, in input order.

    **Window decomposition.** At every worker count, each multi-region
    request is split after the chain prebuild into its window requests
    (:func:`window_schedule`), which run through the attempt loop as
    siblings of the plain requests — inheriting timeout/retry/respawn/
    fault-plan semantics, and deduplicated with them — and are
    reassembled in depth order by :func:`assemble_windows`,
    bit-identically to :func:`execute_request`'s walk over the whole
    request (the oracle). Each window also gets its own
    content-addressed entry in the ``windows`` cache namespace, so a
    re-sweep with an overlapping schedule (8 -> 10 regions, say)
    recomputes only the new windows. ``jobs`` changes only how many
    workers run them.

    Resilience knobs (see the module docstring for the failure model):

    * ``timeout`` — per-request wall-clock budget in seconds
      (``REPRO_TIMEOUT`` env; ``None`` = unbounded).
    * ``retries`` — extra attempts per request after a crash, timeout,
      or transient error (``REPRO_RETRIES`` env; default 0), backing
      off from :data:`BACKOFF_BASE` seconds.
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
    executed: dict = {}
    if pending and service is not None:
        # Thin-client mode (``--service`` / ``REPRO_SERVICE_URL``): ship
        # the misses to the experiment service and let its workers pay
        # for execution — including snapshot prebuilds, which belong on
        # the machines that run the windows. Results come back
        # bit-identical (checksummed pickles) and are re-published into
        # the local cache below, so a later offline run is a pure hit.
        executed = _execute_service(
            pending, service, timeout, on_error, report
        )
    elif pending:
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
        # Two-level scheduling: every multi-region request splits into
        # its window requests, siblings of the plain requests in the
        # attempt loop; windows already measured are answered from the
        # ``windows`` cache namespace.
        from repro.harness.cache import window_fingerprint

        plans = {
            request: window_schedule(request)
            for request in pending
            if request.sample_regions >= 2
        }
        plain = [r for r in pending if r not in plans]
        window_outcomes: dict[RunRequest, RequestOutcome] = {}
        fresh: list[RunRequest] = []
        for window in dict.fromkeys(w for ws in plans.values() for w in ws):
            stats = cache.windows.get(
                window_fingerprint(window, window.fast_forward)
            )
            if stats is not None:
                window_outcomes[window] = RequestOutcome(
                    window, "cached", stats
                )
            else:
                fresh.append(window)
        executed = _execute(
            list(dict.fromkeys(plain + fresh)),
            functools.partial(execute_request, snapshots=cache.snapshots),
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            on_error=on_error,
            fault_plan=fault_plan,
            report=report,
        )
        # Publish fresh windows to their namespace, then reassemble
        # each decomposed request in depth order (halt-drop applied at
        # assembly). Failed windows surface on the parent outcome; a
        # window that is also a plain request keeps its own outcome.
        plain_set = set(plain)
        for window in fresh:
            outcome = (
                executed[window] if window in plain_set
                else executed.pop(window)
            )
            window_outcomes[window] = outcome
            if outcome.status == "ok":
                cache.windows.put(
                    window_fingerprint(window, window.fast_forward),
                    outcome.stats,
                )
        for request, windows in plans.items():
            executed[request] = _assemble_outcome(
                request, windows, window_outcomes
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
    """The configured experiment-service endpoint, if any."""
    if getattr(_direct, "on", False):
        return None
    return settings.get("service")


def _execute_service(
    pending,
    url: str,
    timeout: float | None,
    on_error: str | None,
    report: MatrixReport,
) -> dict[RunRequest, RequestOutcome]:
    """Run *pending* through a remote experiment service.

    One sweep submission, polled until the workers publish every
    result. The per-request ``timeout`` scales into a whole-sweep
    deadline (the client cannot preempt a remote worker, only give up
    waiting). The sweep is each request's one attempt: its results are
    collected through :func:`_execute` in this process with no retries,
    so jobs the service marks failed — and every job, if the service
    itself is unreachable — land on the usual ``on_error`` policy as
    :class:`~repro.errors.ServiceError`.
    """
    from repro.errors import ServiceError
    from repro.harness.cache import fingerprint
    from repro.service.client import ServiceClient

    limit = _resolve_timeout(timeout)
    deadline = limit * max(1, len(pending)) if limit else None
    results: dict[str, RunStats] = {}
    failed: dict[str, str] = {}
    sweep_error: Exception | None = None
    try:
        results, failed = ServiceClient(url).run(pending, deadline=deadline)
    except ServiceError as exc:
        sweep_error = exc

    def collect(request: RunRequest) -> RunStats:
        key = fingerprint(request)
        stats = results.get(key)
        if stats is not None:
            return stats
        if key in failed:
            raise ServiceError(
                f"service failed job {key[:12]}: {failed[key]}", key=key
            )
        if sweep_error is not None:
            raise sweep_error
        raise ServiceError(
            f"service returned no result for {key[:12]}", key=key
        )

    # timeout=0: nothing is left to preempt, so the in-process backend.
    return _execute(
        pending,
        collect,
        jobs=1,
        timeout=0,
        retries=0,
        on_error=on_error,
        report=report,
    )


def _finalize_failure(
    item, error: Exception, attempts: int, latency: float, on_error: str
) -> RequestOutcome:
    """An item exhausted its retries: raise or record the skip."""
    if on_error == "raise":
        raise error
    log.warning(
        "skipping request %s/%s after %d attempt(s): %s",
        item.workload,
        item.mode,
        attempts,
        error,
    )
    return RequestOutcome(
        item,
        "skipped",
        None,
        attempts=attempts,
        error=str(error),
        latency=latency,
    )


def _attempt(entry, item, attempt: int, fault_plan, in_process: bool):
    """One attempt at *item*: inject its planned fault, then return
    ``entry(item)``. Runs in a pool worker, or in this process on the
    in-process backend, where a planned crash raises
    :class:`WorkerCrashError` instead of exiting the harness."""
    if fault_plan is not None:
        target = getattr(item, "fault_target", item)
        fault_plan.perturb(target, attempt, in_process=in_process)
    return entry(item)


class _InProcess:
    """The attempt loop's one-worker backend: each submitted attempt
    runs in this process, at submit, and comes back as a settled
    :class:`~concurrent.futures.Future`. Nothing can preempt it, so
    the loop uses it only when no timeout is set."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — the loop's retry boundary
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


def _kill_pool(pool) -> None:
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


def _execute(
    items,
    entry,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    on_error: str | None = None,
    fault_plan=None,
    report: MatrixReport | None = None,
) -> dict:
    """Run ``entry(item)`` for each of *items* under the failure model:
    the harness's one attempt loop. Returns ``{item: RequestOutcome}``.

    *entry* is an ``item -> result`` function, picklable when a pool
    runs it: the matrix's :func:`execute_request`, the snapshot
    prebuild's chain builder, the fuzz batch's seed check. Items are
    hashable and expose ``workload`` / ``mode`` for the log lines; a
    planned fault targets the item's
    ``fault_target`` if it has one, else the item. ``jobs``,
    ``timeout``, ``retries`` and ``on_error`` are resolved here, from
    the argument or else the ``REPRO_*`` env.

    The backend is a process pool of ``min(jobs, len(items))`` workers
    or, at one worker with no timeout, :class:`_InProcess`: the same
    attempts made in this process, one at a time, in input order (the
    ``jobs=1`` bit-identity oracle).

    Invariants:

    * An item's deadline starts at submit, so with a timeout at most
      ``workers`` items are in flight and a worker can start each one
      when it is submitted. Without one the pool is fed every eligible
      item.
    * Every submission charges the item one attempt. An item whose
      attempt is *aborted through no fault of its own* (its pool was
      torn down because a sibling timed out) is refunded the attempt
      and simply requeued, so collateral damage never consumes retry
      budget. A broken pool cannot attribute the crash, so there every
      in-flight item is charged (this is what bounds respawn loops).
    * The loop terminates: each iteration either resolves an item,
      charges an attempt (bounded by ``(retries + 1)`` per item), or
      performs a refund that is paid for by a charged timeout/crash.
    """
    timeout = _resolve_timeout(timeout)
    retries = _resolve_retries(retries)
    on_error = _resolve_on_error(on_error)
    if not items:
        return {}
    workers = min(resolve_jobs(jobs), len(items))
    in_process = workers == 1 and timeout is None
    in_flight = workers if timeout is not None or in_process else len(items)
    if report is None:
        report = MatrixReport()

    def new_backend():
        if in_process:
            return _InProcess()
        return ProcessPoolExecutor(max_workers=workers)

    outcomes: dict = {}
    attempts = {item: 0 for item in items}
    first_submit: dict = {}
    not_before: dict = {}
    queue = deque(items)
    pool = new_backend()
    running: dict[Future, tuple[object, float | None]] = {}

    def fail_or_requeue(item, error: Exception) -> None:
        """One attempt failed for real: retry with backoff or finalize."""
        if attempts[item] <= retries:
            report.retries += 1
            delay = _backoff_delay(item, attempts[item])
            not_before[item] = time.monotonic() + delay
            queue.append(item)
            log.warning(
                "request %s/%s attempt %d failed (%s); retrying in %.2fs",
                item.workload,
                item.mode,
                attempts[item],
                error,
                delay,
            )
        else:
            outcomes[item] = _finalize_failure(
                item,
                error,
                attempts=attempts[item],
                latency=time.monotonic() - first_submit[item],
                on_error=on_error,
            )

    try:
        while queue or running:
            now = time.monotonic()
            # Submit eligible queued items, up to the in-flight bound
            # (past it, the pool itself bounds concurrency to `workers`).
            blocked_until: float | None = None
            for _ in range(len(queue)):
                if len(running) >= in_flight:
                    break
                item = queue.popleft()
                eligible_at = not_before.get(item, 0.0)
                if eligible_at > now:
                    queue.append(item)
                    if blocked_until is None or eligible_at < blocked_until:
                        blocked_until = eligible_at
                    continue
                attempts[item] += 1
                first_submit.setdefault(item, now)
                try:
                    future = pool.submit(
                        _attempt,
                        entry,
                        item,
                        attempts[item] - 1,
                        fault_plan,
                        in_process,
                    )
                except RuntimeError as exc:
                    # Pool broke between iterations; recover below.
                    attempts[item] -= 1
                    queue.append(item)
                    log.warning("submit failed (%s); respawning pool", exc)
                    _kill_pool(pool)
                    pool = new_backend()
                    report.pool_respawns += 1
                    break
                deadline = now + timeout if timeout is not None else None
                running[future] = (item, deadline)
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
                item, _deadline = running.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    fail_or_requeue(
                        item,
                        WorkerCrashError(
                            "worker process died mid-request "
                            f"(attempt {attempts[item]})",
                            attempts=attempts[item],
                        ),
                    )
                except Exception as exc:  # noqa: BLE001 — retry boundary
                    fail_or_requeue(item, exc)
                else:
                    outcomes[item] = RequestOutcome(
                        item,
                        "ok",
                        result,
                        attempts=attempts[item],
                        latency=time.monotonic() - first_submit[item],
                    )

            now = time.monotonic()
            timed_out = [
                future
                for future, (_, deadline) in running.items()
                if deadline is not None and deadline <= now
            ]
            if timed_out:
                for future in timed_out:
                    item, _deadline = running.pop(future)
                    fail_or_requeue(
                        item,
                        RunTimeoutError(
                            f"request exceeded {timeout:.1f}s "
                            f"(attempt {attempts[item]})",
                            timeout=timeout,
                            attempts=attempts[item],
                        ),
                    )
            if pool_broken or timed_out:
                # The pool is unusable (broken) or must be preempted
                # (timeout): tear it down and requeue the survivors.
                for future in list(running):
                    item, _deadline = running.pop(future)
                    if pool_broken:
                        # Cannot attribute the crash: charge everyone
                        # (bounds the respawn loop), retry or finalize.
                        fail_or_requeue(
                            item,
                            WorkerCrashError(
                                "process pool broke while request was "
                                f"in flight (attempt {attempts[item]})",
                                attempts=attempts[item],
                            ),
                        )
                    else:
                        # Innocent victim of a sibling's timeout:
                        # refund the attempt and requeue.
                        attempts[item] -= 1
                        queue.append(item)
                _kill_pool(pool)
                pool = new_backend()
                report.pool_respawns += 1
    finally:
        _kill_pool(pool)
    return outcomes
