"""Simulator self-benchmark regimes, shared by ``repro bench`` and
``benchmarks/bench_simulator_throughput.py``.

Not a paper experiment — these regimes track the simulator's own
performance (simulated instructions per wall second) so model changes
that slow it down are visible, and so ``repro bench --profile`` can
answer "where does the time go" without hand-building a workload:

* **balanced** — slice-assisted vpr at the default machine: fetch,
  issue, and commit are all busy most cycles, so this tracks the cost
  of the per-cycle work itself. The fused basic-block tier targets
  this regime.
* **memory_bound** — mcf (slices off) on a far-memory machine (small
  window, multi-thousand-cycle miss latency): nearly every cycle is
  idle miss-wait, the regime the event-driven skipping loop targets.
* **slice_heavy** — vpr's slices on an 8-context machine: more
  concurrent helper threads means constant fork/activation traffic and
  prediction-correlator churn, the regime where slice-machinery
  overheads (CAM probes, journal rollback, correlator retire hooks)
  dominate rather than the main thread's own per-cycle work.
* **sampled** — base mcf with a 20k-instruction warmed functional
  fast-forward and a 4k-instruction measured region
  (:mod:`repro.harness.fastforward`): the sampled-simulation regime,
  where the interpreter tier and snapshot restore carry most of the
  program and the detailed core only runs the discard window + region.
* **sampled_multi** — base mcf with eight periodic 2k-instruction
  windows along a snapshot chain built fresh in-memory every round:
  the multi-region regime, dominated by the fused functional-warming
  tier (:mod:`repro.uarch.warmfuse`) carrying the inter-window gaps.
  Unlike **sampled**, the chain build is *inside* the timed region —
  this measures the one-shot (unamortized) cost of a sampled run.
* **sampled_parallel** — the same 8-window mcf schedule, but run the
  way a sweep runs it: chain prebuilt into the snapshot store
  (untimed, amortized), then one ``run_matrix`` call exploding the
  windows into per-window work units fanned over 8 pool workers
  (:mod:`repro.harness.parallel`). End-to-end wall-clock of the whole
  matrix call — the window-parallel regime the PR 10 scheduler
  targets.

``run_all_regimes`` additionally measures the **interpreter** tier
(raw functional ``execute()`` throughput) and the **warming** tier
(:func:`measure_warming_rate` — the fused functional-warming loop on
the far-memory pointer chase, the rate that bounds every sampled
figure's chain build) so ``repro bench --all`` covers every execution
tier in one summary.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
import time
from dataclasses import dataclass

from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.core import Core
from repro.uarch.stats import RunStats
from repro.workloads import registry


@dataclass(frozen=True)
class BenchRegime:
    """One self-benchmark configuration: workload + machine + mode."""

    name: str
    workload: str
    scale: float
    mode: str  # "base" or "slice"
    config: MachineConfig
    description: str
    #: Sampled-regime knobs (:mod:`repro.harness.fastforward`): run the
    #: first ``fast_forward`` instructions functionally (restoring the
    #: detailed core from a warmed snapshot) and measure ``sample``
    #: committed instructions. 0/0 = full detailed run.
    fast_forward: int = 0
    sample: int = 0
    #: Multi-region sampling: ``sample_regions >= 2`` runs that many
    #: periodic detailed windows along a snapshot chain built fresh
    #: in-memory each round (the chain build IS the regime's cost —
    #: no store amortization, unlike the single-snapshot regime).
    sample_regions: int = 0
    sample_period: int = 0
    #: Window-level parallelism (``>= 2``): run the multi-region
    #: request through :func:`~repro.harness.parallel.run_matrix` with
    #: this many pool workers, windows exploded into parallel work
    #: units over a *prebuilt* (untimed, amortized) snapshot chain —
    #: the window-parallel regime's cost model, complementing the
    #: one-shot in-memory chain build of the serial multi-region
    #: regime.
    window_jobs: int = 0

    def build_workload(self):
        return registry.build(self.workload, scale=self.scale)

    def build_core(self, workload=None, **overrides) -> Core:
        """Build a Core; pass a prebuilt *workload* to share its Program
        (and therefore the program-wide fused-segment cache) across
        rounds — a fresh build would re-pay segment warmup every time.

        For a sampled regime, the warmed snapshot is fetched (or built)
        here — construction is untimed in :func:`run_regime`, matching
        the amortized case where a sweep shares one snapshot. Pass a
        prebuilt ``snapshot=`` override to skip even the store lookup.
        """
        if workload is None:
            workload = self.build_workload()
        kwargs = dict(
            memory_image=workload.memory_image,
            memory_normalized=True,
            region=workload.region,
            workload_name=workload.name,
        )
        if self.mode == "slice":
            kwargs["slices"] = tuple(workload.slices)
        if self.fast_forward > 0 or self.sample > 0:
            from repro.harness.fastforward import (
                detail_warmup,
                ensure_snapshot,
            )

            if self.sample > 0:
                kwargs["region"] = self.sample
            kwargs["warmup"] = detail_warmup(self.sample)
            if self.fast_forward > 0 and "snapshot" not in overrides:
                kwargs["snapshot"], _ = ensure_snapshot(
                    workload, self.config, self.fast_forward
                )
        kwargs.update(overrides)
        return Core(workload.program, self.config, **kwargs)

    def covered_insts(self, stats: RunStats) -> int:
        """Instructions the run advanced through the program: the
        fast-forwarded prefix, the detailed-warming discard window, and
        the measured region. The honest numerator for a sampled
        regime's throughput (the denominator still times only
        ``run()``; the shared snapshot is amortized across a sweep).

        For a multi-region regime the prefix term is the chain *span*
        (the deepest run window's depth in the request's schedule — all
        the chained build executes), not the per-window ``ff_insts``
        sum. That also covers window-parallel aggregates: a
        :func:`~repro.harness.parallel.run_matrix` aggregate sums each
        window's own prefix into ``ff_insts`` (the windows never see
        the chain as one object), so trusting ``ff_insts`` there would
        inflate the rate quadratically.
        """
        if self.sample_regions >= 2:
            plan = _bench_request(self).schedule()
            regions_run = stats.sample_regions or self.sample_regions
            span = plan.depths[regions_run - 1]
            return span + regions_run * plan.warmup + stats.committed
        if self.fast_forward > 0 or self.sample > 0:
            from repro.harness.fastforward import detail_warmup

            warmup = detail_warmup(self.sample)
            return stats.ff_insts + warmup + stats.committed
        return stats.committed


REGIMES: dict[str, BenchRegime] = {
    "balanced": BenchRegime(
        name="balanced",
        workload="vpr",
        scale=0.05,
        mode="slice",
        config=FOUR_WIDE,
        description="slice-assisted vpr, default machine (fetch-busy)",
    ),
    "memory_bound": BenchRegime(
        name="memory_bound",
        workload="mcf",
        scale=0.2,
        mode="base",
        # A small window bounds the wrong-path churn a miss can trigger,
        # and a ~1µs-class miss latency (3000 cycles at a few GHz —
        # remote/disaggregated memory) makes idle miss-wait dominate.
        config=dataclasses.replace(
            FOUR_WIDE,
            name="far-memory",
            memory_latency=3000,
            window_entries=32,
        ),
        description="base mcf, far-memory machine (miss-wait dominated)",
    ),
    "slice_heavy": BenchRegime(
        name="slice_heavy",
        workload="vpr",
        scale=0.1,
        mode="slice",
        # Twice the helper contexts: forks land on an idle context far
        # more often, so activation/release, per-slice journaling, and
        # correlator retire traffic all scale up.
        config=dataclasses.replace(
            FOUR_WIDE, name="8-context", thread_contexts=8
        ),
        description="slice-assisted vpr, 8 thread contexts (fork churn)",
    ),
    "sampled": BenchRegime(
        name="sampled",
        workload="mcf",
        scale=0.5,
        mode="base",
        config=FOUR_WIDE,
        # 20k instructions fast-forwarded functionally (with cache /
        # predictor warming), then a 400-inst detailed discard window
        # and a 4k-inst measured region — the sampled-simulation
        # regime, where the functional tier and snapshot restore carry
        # most of the program.
        fast_forward=20_000,
        sample=4_000,
        description=(
            "sampled mcf: 20k-inst warmed fast-forward + 4k-inst "
            "measured region"
        ),
    ),
    "sampled_multi": BenchRegime(
        name="sampled_multi",
        workload="mcf",
        scale=4.0,
        mode="base",
        config=FOUR_WIDE,
        # Eight 2k-inst windows every 25k instructions, snapshot chain
        # built fresh in-memory each round: the multi-region regime,
        # where the fused warming tier carries the inter-window gaps
        # and the detailed core only runs the windows. Timing includes
        # the chain build — this is the one-shot (unamortized) cost of
        # a multi-region sampled run.
        sample=2_000,
        sample_regions=8,
        sample_period=25_000,
        description=(
            "multi-region mcf: 8 x 2k-inst windows along a fresh "
            "in-memory snapshot chain"
        ),
    ),
    "sampled_parallel": BenchRegime(
        name="sampled_parallel",
        workload="mcf",
        scale=4.0,
        mode="base",
        config=FOUR_WIDE,
        # The same 8-window schedule as sampled_multi, but measured the
        # way a window-parallel sweep runs it: chain prebuilt into the
        # snapshot store (untimed — a sweep amortizes it), then one
        # run_matrix call fanning the 8 windows over 8 pool workers.
        # Wall-clock is the whole matrix call, so the rate is honest
        # end-to-end window-parallel throughput (pool spawn included).
        sample=2_000,
        sample_regions=8,
        sample_period=25_000,
        window_jobs=8,
        description=(
            "window-parallel mcf: 8 x 2k-inst windows fanned over 8 "
            "workers, prebuilt chain"
        ),
    ),
}


def _run_multi_region(regime: BenchRegime, workload) -> tuple[RunStats, float]:
    """One timed multi-region run: fresh in-memory chain build plus
    every detailed window.

    The snapshot store is disabled so each round pays the full chained
    fast-forward (that is the regime's cost model: the one-shot,
    unamortized multi-region run). The aggregate's ``ff_insts`` is
    rewritten to the chain *span* — the deepest prefix, which is all
    the incremental build executes — so the reported fast-forward
    count is what the round paid for.
    """
    from repro.harness.fastforward import SnapshotStore, iter_chain
    from repro.harness.parallel import assemble_windows

    plan = _bench_request(regime).schedule(workload.region)
    chain = iter_chain(
        workload, regime.config, plan.depths,
        store=SnapshotStore(enabled=False),
    )
    spans: list[int] = []

    def measure(depth: int) -> RunStats:
        snapshot, _hit = next(chain)
        kwargs = dict(
            memory_image=workload.memory_image,
            memory_normalized=True,
            region=plan.region,
            warmup=plan.warmup,
            workload_name=workload.name,
            snapshot=snapshot,
        )
        if regime.mode == "slice":
            kwargs["slices"] = tuple(workload.slices)
        stats = Core(workload.program, regime.config, **kwargs).run()
        if snapshot is not None:
            stats.ff_insts = snapshot.executed
        spans.append(stats.ff_insts)
        return stats

    start = time.perf_counter()
    total = assemble_windows(plan.depths, measure)
    elapsed = time.perf_counter() - start
    # The chain span is the deepest *kept* window's prefix.
    total.ff_insts = spans[total.sample_regions - 1]
    return total, elapsed


def _bench_request(regime: BenchRegime):
    """The :class:`~repro.harness.parallel.RunRequest` equivalent of
    *regime*: its window schedule, and the request window-parallel
    regimes run through ``run_matrix``."""
    from repro.harness.parallel import RunRequest

    return RunRequest(
        workload=regime.workload,
        scale=regime.scale,
        mode=regime.mode,
        config=regime.config.name,
        fast_forward=regime.fast_forward,
        sample=regime.sample,
        sample_regions=regime.sample_regions,
        sample_period=regime.sample_period,
    )


def _run_window_parallel(regime: BenchRegime) -> tuple[RunStats, float]:
    """One timed window-parallel multi-region run.

    The snapshot chain is prebuilt into the store first, *untimed* —
    the amortized case a sweep lives in (idempotent: rounds after the
    first are pure store hits). The timed region is one whole
    ``run_matrix`` call with the run cache disabled: window explosion,
    pool fan-out over ``regime.window_jobs`` workers, snapshot restore
    per window, and depth-order reassembly — end-to-end wall-clock,
    which is exactly what :meth:`BenchRegime.covered_insts` divides by.
    """
    from repro.harness.cache import RunCache
    from repro.harness.fastforward import prebuild_snapshots
    from repro.harness.parallel import run_matrix

    request = _bench_request(regime)
    prebuild_snapshots([request], jobs=regime.window_jobs)
    start = time.perf_counter()
    stats_list = run_matrix(
        [request], jobs=regime.window_jobs, cache=RunCache(enabled=False)
    )
    elapsed = time.perf_counter() - start
    return stats_list[0], elapsed


def run_regime(
    regime: BenchRegime, workload=None, **overrides
) -> tuple[RunStats, float]:
    """Run one simulation of *regime*, returning (stats, wall seconds).

    Core construction (workload build, slice load, snapshot fetch) is
    excluded from the timing; only ``run()`` is measured — except for
    a multi-region regime, whose timing deliberately includes its
    fresh in-memory chain build (see :func:`_run_multi_region`), and a
    window-parallel regime, which times one whole ``run_matrix`` call
    over a prebuilt chain (see :func:`_run_window_parallel`).
    """
    if regime.window_jobs >= 2:
        return _run_window_parallel(regime)
    if regime.sample_regions >= 2:
        if workload is None:
            workload = regime.build_workload()
        return _run_multi_region(regime, workload)
    core = regime.build_core(workload=workload, **overrides)
    start = time.perf_counter()
    stats = core.run()
    elapsed = time.perf_counter() - start
    if core.snapshot is not None:
        stats.ff_insts = core.snapshot.executed
    return stats, elapsed


def best_rate(
    regime: BenchRegime, rounds: int = 3, **overrides
) -> tuple[float, RunStats]:
    """Best-of-*rounds* simulated-instructions-per-second for *regime*.

    Machine noise only ever slows a round down, so best-of-N converges
    on the true cost. All rounds share one workload so fused segments
    compiled in round 1 are cache hits afterwards (the steady state a
    long experiment matrix sees). A sampled regime likewise shares one
    warmed snapshot across rounds, and its rate counts every
    instruction the run covered (prefix + discard window + region).
    """
    # A window-parallel regime's workloads are built inside the pool
    # workers; building one here would only add dead weight.
    workload = None if regime.window_jobs >= 2 else regime.build_workload()
    if regime.fast_forward > 0 and "snapshot" not in overrides:
        from repro.harness.fastforward import ensure_snapshot

        overrides = dict(overrides)
        overrides["snapshot"], _ = ensure_snapshot(
            workload, regime.config, regime.fast_forward
        )
    best = 0.0
    best_stats = None
    for _ in range(rounds):
        stats, elapsed = run_regime(regime, workload=workload, **overrides)
        rate = regime.covered_insts(stats) / elapsed
        if rate > best:
            best, best_stats = rate, stats
    return best, best_stats


def measure_interpreter_rate(
    rounds: int = 3, budget: int = 200_000
) -> tuple[float, int]:
    """Best-of-*rounds* functional ``execute()`` throughput
    (executions / wall second) on vpr's instruction stream — the
    interpreter-tier regime of ``BENCH_throughput.json``. Returns
    ``(rate, executed_per_round)``."""
    from repro.arch.interpreter import execute
    from repro.arch.memory import Memory
    from repro.arch.state import ThreadState

    workload = registry.build("vpr", scale=0.2)
    program = workload.program

    def one_round() -> tuple[int, float]:
        memory = Memory(
            workload.memory_image, journaling=False, normalized=True
        )
        state = ThreadState(memory, entry_pc=program.entry_pc)
        executed = 0
        start = time.perf_counter()
        while executed < budget and not state.halted:
            inst = program.at(state.pc)
            if inst is None:
                break
            execute(inst, state)
            executed += 1
        return executed, time.perf_counter() - start

    one_round()  # warm the per-instruction closures
    best = 0.0
    executed = 0
    for _ in range(rounds):
        executed, elapsed = one_round()
        best = max(best, executed / elapsed)
    return best, executed


#: The warming-regime measurement: the functional-warming loop on the
#: pointer-chasing workload whose miss-per-instruction rate dominates
#: every sampled figure's chain build (mcf at a far-memory footprint —
#: the working set dwarfs L2, so ~1 in 10 instructions takes the full
#: warm miss path). Scale 50 keeps the 2M-instruction measured span
#: well inside the region (no halt).
WARMING_WORKLOAD = "mcf"
WARMING_SCALE = 50.0
WARMING_INSTS = 2_000_000
#: Instructions advanced before timing starts: one pass over the hot
#: loops so every warm trace is compiled and bound before the clock
#: runs (the steady state a chain build spends its life in).
WARMING_PRIME_INSTS = 10_000


def _warming_run():
    """A fresh warming pass over the warming-regime workload, primed
    past trace compilation. Returns the live run, ready to time."""
    from repro.harness.fastforward import _LiveRun

    workload = registry.build(WARMING_WORKLOAD, scale=WARMING_SCALE)
    run = _LiveRun(workload, FOUR_WIDE, warming=True)
    run.advance(WARMING_PRIME_INSTS)
    return run


def measure_warming_rate(
    rounds: int = 3, insts: int = WARMING_INSTS
) -> tuple[float, int]:
    """Best-of-*rounds* functional-warming throughput (warmed
    instructions / wall second) on the far-memory pointer chase — the
    ``warming`` regime of ``BENCH_throughput.json``.

    Each round is a fresh live run (cold caches, cold stream table)
    advanced *insts* instructions past the priming prefix, so the rate
    is the cost a sampled figure's chain build actually pays. Returns
    ``(rate, insts_per_round)``.
    """
    best = 0.0
    for _ in range(rounds):
        run = _warming_run()
        start = time.perf_counter()
        run.advance(WARMING_PRIME_INSTS + insts)
        elapsed = time.perf_counter() - start
        best = max(best, insts / elapsed)
    return best, insts


def profile_warming(
    top: int = 25, insts: int = WARMING_INSTS
) -> tuple[float, str]:
    """One warming round under ``cProfile``; returns (rate, report).

    The rate is measured under the profiler (2-3x slower than real) —
    use the report for *relative* attribution (trace bodies vs. the
    warm miss path vs. the driver) and :func:`measure_warming_rate`
    for the honest number.
    """
    run = _warming_run()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run.advance(WARMING_PRIME_INSTS + insts)
    profiler.disable()
    elapsed = time.perf_counter() - start
    buf = io.StringIO()
    ps = pstats.Stats(profiler, stream=buf)
    ps.sort_stats("tottime").print_stats(top)
    header = (
        "cProfile, regime 'warming': functional-warming loop, "
        "far-memory pointer chase\n"
        f"workload={WARMING_WORKLOAD} scale={WARMING_SCALE:g} "
        f"machine={FOUR_WIDE.name} (warming is untimed; geometry only)\n"
        f"{insts:,} warmed instructions in {elapsed:.2f}s under the "
        "profiler (rates under cProfile are 2-3x pessimistic; "
        "sorted by tottime — self time is what the warm loop "
        "optimizes)\n"
    )
    return insts / elapsed, header + buf.getvalue()


def run_all_regimes(rounds: int = 3) -> dict:
    """Measure every regime (core regimes + the interpreter tier) in
    one pass — the ``repro bench --all`` backend. Returns a plain
    JSON-serializable mapping."""
    results: dict[str, dict] = {}
    for name, regime in REGIMES.items():
        rate, stats = best_rate(regime, rounds=rounds)
        results[name] = {
            "description": regime.description,
            "workload": regime.workload,
            "scale": regime.scale,
            "mode": regime.mode,
            "machine": regime.config.name,
            "instructions_per_second": round(rate),
            "committed_per_run": stats.committed,
            "best_of_rounds": rounds,
        }
        if regime.fast_forward or regime.sample_regions >= 2:
            results[name]["fast_forward"] = regime.fast_forward
            results[name]["sample"] = regime.sample
            results[name]["ff_insts"] = stats.ff_insts
        if regime.sample_regions >= 2:
            results[name]["sample_regions"] = regime.sample_regions
            results[name]["sample_period"] = regime.sample_period
            results[name]["regions_run"] = stats.sample_regions
        if regime.window_jobs >= 2:
            results[name]["window_jobs"] = regime.window_jobs
    rate, executed = measure_interpreter_rate(rounds=rounds)
    results["interpreter"] = {
        "description": "functional execute() tier, vpr instruction stream",
        "workload": "vpr",
        "scale": 0.2,
        "mode": "functional",
        "machine": "-",
        "instructions_per_second": round(rate),
        "committed_per_run": executed,
        "best_of_rounds": rounds,
    }
    rate, insts = measure_warming_rate(rounds=rounds)
    results["warming"] = {
        "description": (
            "functional-warming loop, far-memory pointer chase (fused "
            "warm tier)"
        ),
        "workload": WARMING_WORKLOAD,
        "scale": WARMING_SCALE,
        "mode": "warming",
        "machine": FOUR_WIDE.name,
        "instructions_per_second": round(rate),
        "committed_per_run": insts,
        "best_of_rounds": rounds,
    }
    return results


def render_all_regimes(results: dict) -> str:
    """Fixed-width summary of :func:`run_all_regimes` output."""
    lines = [
        "simulator self-benchmark, all regimes "
        f"(best of {next(iter(results.values()))['best_of_rounds']} rounds)",
        "",
        f"{'regime':14s} {'inst/s':>12s} {'insts/run':>10s}  description",
        "-" * 76,
    ]
    for name, entry in results.items():
        lines.append(
            f"{name:14s} {entry['instructions_per_second']:>12,d} "
            f"{entry['committed_per_run']:>10,d}  {entry['description']}"
        )
    return "\n".join(lines)


def profile_regime(
    regime: BenchRegime, top: int = 25, **overrides
) -> tuple[RunStats, str]:
    """Run *regime* once under ``cProfile``; return (stats, report).

    The report is the top-*top* entries by cumulative time — the
    standard first question ("which subsystem owns the wall clock")
    for a simulator perf regression.
    """
    profiler = cProfile.Profile()
    if regime.sample_regions >= 2:
        workload = regime.build_workload()
        profiler.enable()
        stats, _elapsed = _run_multi_region(regime, workload)
        profiler.disable()
    else:
        core = regime.build_core(**overrides)
        profiler.enable()
        stats = core.run()
        profiler.disable()
    buf = io.StringIO()
    ps = pstats.Stats(profiler, stream=buf)
    ps.sort_stats("cumulative").print_stats(top)
    header = (
        f"cProfile, regime {regime.name!r}: {regime.description}\n"
        f"workload={regime.workload} scale={regime.scale} "
        f"mode={regime.mode} machine={regime.config.name}\n"
        f"{stats.committed} committed instructions, {stats.cycles} cycles\n"
    )
    return stats, header + buf.getvalue()
