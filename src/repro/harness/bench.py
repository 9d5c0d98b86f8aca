"""Simulator self-benchmark regimes, shared by ``repro bench`` and
``benchmarks/bench_simulator_throughput.py``.

Not a paper experiment — these regimes track the simulator's own
performance (simulated instructions per wall second) so model changes
that slow it down are visible, and so ``repro bench --profile`` can
answer "where does the time go" without hand-building a workload.

Each Core regime is a :class:`~repro.harness.parallel.RunRequest`, and
its timed call is the artifact path itself: one
:func:`~repro.harness.parallel.execute_request` (``Core`` construction
included), or one :func:`~repro.harness.parallel.run_matrix` for the
window-parallel regime. The workload build and any snapshot prebuild
stay outside the timing.

* **balanced** — slice-assisted vpr at the default machine: fetch,
  issue, and commit are all busy most cycles, so this tracks the cost
  of the per-cycle work itself.
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
  (:mod:`repro.harness.fastforward`): the sampled-simulation regime.
  The snapshot is prebuilt into the store untimed (a sweep amortizes
  it); the timed call restores it from the store and runs the detailed
  core over the discard window + region.
* **sampled_multi** — base mcf with eight periodic 2k-instruction
  windows along a snapshot chain built fresh in memory every round
  (a disabled snapshot store): the multi-region regime, dominated by
  the trace-compiled warming tier (:mod:`repro.uarch.warmfuse`)
  carrying the inter-window gaps. Unlike **sampled**, the chain build
  is *inside* the timed call — this measures the one-shot
  (unamortized) cost of a sampled run.
* **sampled_parallel** — the same 8-window mcf schedule, but run the
  way a sweep runs it: chain prebuilt into the snapshot store
  (untimed, amortized), then one ``run_matrix`` call exploding the
  windows into per-window work units fanned over 8 pool workers
  (:mod:`repro.harness.parallel`). End-to-end wall-clock of the whole
  matrix call — the window-parallel regime.

``run_all_regimes`` additionally measures the **interpreter** tier
(raw functional ``execute()`` throughput) and the **warming** tier
(:func:`measure_warming_rate` — the functional-warming loop on the
far-memory pointer chase, the rate that bounds every sampled figure's
chain build) so ``repro bench --all`` covers every execution tier in
one summary.
"""

from __future__ import annotations

import cProfile
import functools
import io
import os
import platform
import pstats
import time
from dataclasses import dataclass
from typing import Callable

from repro.harness.cache import RunCache
from repro.harness.fastforward import SnapshotStore, prebuild_snapshots
from repro.harness.parallel import (
    RunRequest,
    execute_request,
    run_matrix,
    shared_workload,
)
from repro.uarch.config import FOUR_WIDE
from repro.uarch.stats import RunStats
from repro.workloads import registry


@dataclass(frozen=True)
class BenchRegime:
    """One self-benchmark: the request it times, and how many pool
    workers fan out a window-parallel run (``>= 2``; 0 runs the request
    in this process)."""

    name: str
    description: str
    request: RunRequest
    window_jobs: int = 0

    def fast_forwarded(self, stats: RunStats) -> int:
        """Instructions the run fast-forwarded: the depth of the
        deepest window it kept, or less if the program halted first.
        For a multi-region run that is the chain *span*, all the
        chained build executes, not the summed per-window ``ff_insts``
        of the aggregate (each window counts its own prefix there, so
        trusting it would inflate the rate quadratically)."""
        depths = self.request.schedule().depths
        return min(depths[max(stats.sample_regions, 1) - 1], stats.ff_insts)

    def covered_insts(self, stats: RunStats) -> int:
        """Instructions the run advanced through the program: the
        fast-forwarded prefix, each window's detailed-warming discard
        window, and the measured instructions. The honest numerator
        for a sampled regime's throughput."""
        plan = self.request.schedule()
        windows = max(stats.sample_regions, 1)
        return (
            self.fast_forwarded(stats)
            + windows * plan.warmup
            + stats.committed
        )


#: The ``RunRequest`` fields that default from ``REPRO_*`` variables,
#: pinned so the ambient environment cannot change what a regime
#: measures.
_PINNED = dict(
    event_driven=True,
    fast_forward=0,
    sample=0,
    sample_regions=0,
    sample_period=0,
)


def _request(workload: str, scale: float, mode: str, **fields) -> RunRequest:
    return RunRequest(workload, scale, mode, **{**_PINNED, **fields})


REGIMES: dict[str, BenchRegime] = {
    "balanced": BenchRegime(
        name="balanced",
        description="slice-assisted vpr, default machine (fetch-busy)",
        request=_request("vpr", 0.05, "slice"),
    ),
    "memory_bound": BenchRegime(
        name="memory_bound",
        description="base mcf, far-memory machine (miss-wait dominated)",
        # A small window bounds the wrong-path churn a miss can trigger,
        # and a ~1µs-class miss latency (3000 cycles at a few GHz —
        # remote/disaggregated memory) makes idle miss-wait dominate.
        request=_request(
            "mcf", 0.2, "base",
            overrides=(
                ("name", "far-memory"),
                ("memory_latency", 3000),
                ("window_entries", 32),
            ),
        ),
    ),
    "slice_heavy": BenchRegime(
        name="slice_heavy",
        description="slice-assisted vpr, 8 thread contexts (fork churn)",
        # Twice the helper contexts: forks land on an idle context far
        # more often, so activation/release, per-slice journaling, and
        # correlator retire traffic all scale up.
        request=_request(
            "vpr", 0.1, "slice",
            overrides=(("name", "8-context"), ("thread_contexts", 8)),
        ),
    ),
    "sampled": BenchRegime(
        name="sampled",
        description=(
            "sampled mcf: 20k-inst warmed fast-forward + 4k-inst "
            "measured region"
        ),
        # 20k instructions fast-forwarded functionally (with cache /
        # predictor warming), then a 400-inst detailed discard window
        # and a 4k-inst measured region.
        request=_request(
            "mcf", 0.5, "base", fast_forward=20_000, sample=4_000
        ),
    ),
    "sampled_multi": BenchRegime(
        name="sampled_multi",
        description=(
            "multi-region mcf: 8 x 2k-inst windows along a fresh "
            "in-memory snapshot chain"
        ),
        # Eight 2k-inst windows every 25k instructions; the chain build
        # is timed (see _timed_call).
        request=_request(
            "mcf", 4.0, "base",
            sample=2_000, sample_regions=8, sample_period=25_000,
        ),
    ),
    "sampled_parallel": BenchRegime(
        name="sampled_parallel",
        description=(
            "window-parallel mcf: 8 x 2k-inst windows fanned over 8 "
            "workers, prebuilt chain"
        ),
        # The same 8-window schedule as sampled_multi, measured the way
        # a window-parallel sweep runs it (pool spawn included).
        request=_request(
            "mcf", 4.0, "base",
            sample=2_000, sample_regions=8, sample_period=25_000,
        ),
        window_jobs=8,
    ),
}


#: What the ``interpreter`` regime measures.
INTERPRETER_DESCRIPTION = "functional execute() tier, vpr instruction stream"


def _timed_call(regime: BenchRegime) -> Callable[[], RunStats]:
    """Do *regime*'s untimed setup; return the call its timing covers.

    * window-parallel: prebuild the chain into the snapshot store (a
      sweep amortizes it), then time one whole ``run_matrix`` call with
      the run cache disabled — window explosion, pool fan-out, snapshot
      restore per window and reassembly;
    * multi-region: time one ``execute_request`` on a disabled snapshot
      store, so the call builds the chain fresh in memory (the
      one-shot cost model);
    * otherwise: prebuild the snapshot a sampled request restores, then
      time one ``execute_request``, which restores it from the store.

    In-process regimes build their workload here, untimed:
    ``shared_workload`` hands the same build to the timed call, so its
    compiled instruction closures carry over between rounds.
    """
    request = regime.request
    if regime.window_jobs >= 2:
        prebuild_snapshots([request], jobs=regime.window_jobs)
        return lambda: run_matrix(
            [request], jobs=regime.window_jobs, cache=RunCache(enabled=False)
        )[0]
    shared_workload(request.workload, request.scale)
    if request.sample_regions >= 2:
        return functools.partial(
            execute_request, request, snapshots=SnapshotStore(enabled=False)
        )
    prebuild_snapshots([request], jobs=1)
    return functools.partial(execute_request, request)


def run_regime(regime: BenchRegime) -> tuple[RunStats, float]:
    """Run one simulation of *regime*, returning (stats, wall seconds)
    of its timed call (see :func:`_timed_call`)."""
    call = _timed_call(regime)
    start = time.perf_counter()
    stats = call()
    return stats, time.perf_counter() - start


def best_rate(regime: BenchRegime, rounds: int = 3) -> tuple[float, RunStats]:
    """Best-of-*rounds* simulated-instructions-per-second for *regime*.

    Machine noise only ever slows a round down, so best-of-N converges
    on the true cost. The rate counts every instruction the run covered
    (:meth:`BenchRegime.covered_insts`).
    """
    best = 0.0
    best_stats = None
    for _ in range(rounds):
        stats, elapsed = run_regime(regime)
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
    run = _LiveRun(workload, FOUR_WIDE)
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


def host() -> dict:
    """The host a bench number was measured on, recorded beside it."""
    return {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
    }


def run_all_regimes(rounds: int = 3) -> dict:
    """Measure every regime (core regimes + the interpreter tier) in
    one pass — the ``repro bench --all`` backend. Returns a plain
    JSON-serializable mapping; every entry records its :func:`host`."""
    results: dict[str, dict] = {}
    for name, regime in REGIMES.items():
        rate, stats = best_rate(regime, rounds=rounds)
        request = regime.request
        results[name] = {
            "description": regime.description,
            "workload": request.workload,
            "scale": request.scale,
            "mode": request.mode,
            "machine": request.resolve_config().name,
            "instructions_per_second": round(rate),
            "committed_per_run": stats.committed,
            "best_of_rounds": rounds,
        }
        if request.fast_forward or request.sample_regions >= 2:
            results[name]["fast_forward"] = request.fast_forward
            results[name]["sample"] = request.sample
            results[name]["ff_insts"] = regime.fast_forwarded(stats)
        if request.sample_regions >= 2:
            results[name]["sample_regions"] = request.sample_regions
            results[name]["sample_period"] = request.sample_period
            results[name]["regions_run"] = stats.sample_regions
        if regime.window_jobs >= 2:
            results[name]["window_jobs"] = regime.window_jobs
    rate, executed = measure_interpreter_rate(rounds=rounds)
    results["interpreter"] = {
        "description": INTERPRETER_DESCRIPTION,
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
            "functional-warming loop, far-memory pointer chase "
            "(trace-compiled warm tier)"
        ),
        "workload": WARMING_WORKLOAD,
        "scale": WARMING_SCALE,
        "mode": "warming",
        "machine": FOUR_WIDE.name,
        "instructions_per_second": round(rate),
        "committed_per_run": insts,
        "best_of_rounds": rounds,
    }
    for entry in results.values():
        entry.update(host())
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


def profile_regime(regime: BenchRegime, top: int = 25) -> tuple[RunStats, str]:
    """Run *regime*'s timed call once under ``cProfile``; return
    (stats, report).

    The report is the top-*top* entries by cumulative time — the
    standard first question ("which subsystem owns the wall clock")
    for a simulator perf regression. A window-parallel regime's
    simulation runs in pool workers, so its profile shows the parent's
    side of the ``run_matrix`` call.
    """
    call = _timed_call(regime)
    profiler = cProfile.Profile()
    profiler.enable()
    stats = call()
    profiler.disable()
    buf = io.StringIO()
    ps = pstats.Stats(profiler, stream=buf)
    ps.sort_stats("cumulative").print_stats(top)
    request = regime.request
    header = (
        f"cProfile, regime {regime.name!r}: {regime.description}\n"
        f"workload={request.workload} scale={request.scale} "
        f"mode={request.mode} machine={request.resolve_config().name}\n"
        f"{stats.committed} committed instructions, {stats.cycles} cycles\n"
    )
    return stats, header + buf.getvalue()
