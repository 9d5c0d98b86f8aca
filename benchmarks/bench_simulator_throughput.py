"""Simulator self-benchmark: simulated instructions per wall second.

Not a paper experiment — this tracks the simulator's own performance so
model changes that slow it down are visible. Three regimes are
measured (definitions shared with ``repro bench`` via
:mod:`repro.harness.bench`):

* **balanced** — slice-assisted vpr at the default machine: fetch,
  issue, and commit are all busy most cycles, so this tracks the cost
  of the per-cycle work itself.
* **memory-bound** — mcf (slices off) on a far-memory machine (small
  window, multi-thousand-cycle miss latency): nearly every cycle is
  idle miss-wait, the regime the event-driven skipping loop targets.
  Measured skipping vs. stepping to report that speedup honestly.
* **slice-heavy** — vpr's slices on an 8-context machine: constant
  fork/activation traffic and prediction-correlator churn, the regime
  where the slice machinery itself dominates.

Alongside the text results, a machine-readable
``BENCH_throughput.json`` records the rates, the skip telemetry,
the run-cache behavior, and the regression floors that CI enforces
(see ``.github/workflows/ci.yml``). Each bench merges its section into
the JSON so they can run (or be re-run) independently; the top-level
``history`` list (one entry per landed PR, appended by hand when a PR
changes performance materially) is preserved by every merge.
"""

import json
import time

from conftest import RESULTS_DIR

from repro.harness.bench import REGIMES, best_rate, run_regime
from repro.harness.cache import RunCache
from repro.harness.parallel import RunRequest, run_matrix

#: Conservative regression floors (simulated instructions / wall
#: second) committed with the JSON; CI fails a PR whose fresh rates
#: fall below the *committed* floors. On the per-instruction fetch
#: tier a contended 2-vCPU host measured ~51-78k (balanced), ~27-42k
#: (memory-bound) and ~45-61k (slice-heavy); single-vCPU CI machines
#: swing ±20% or worse, so the floors sit well below the measured
#: rates — still a hard backstop against the order-of-2x regressions
#: that matter.
BALANCED_FLOOR = 30_000
MEMORY_BOUND_FLOOR = 22_000
SLICE_HEAVY_FLOOR = 30_000


def _merge_results(section: str | None, payload: dict) -> None:
    """Merge *payload* into ``BENCH_throughput.json`` (under *section*,
    or at top level when ``None``), preserving the other benches' data
    and the per-PR ``history`` list."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_throughput.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    if section is None:
        data.update(payload)
    else:
        data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")


def _interleaved_best(regime, rounds, variants):
    """Best-of-*rounds* wall time per variant, interleaved so transient
    machine load cannot bias one variant. *variants* maps a label to
    Core-kwarg overrides; all variants share one workload so compiled
    instruction closures stay cached across rounds. Returns
    ``{label: (best_seconds, stats)}``."""
    workload = regime.build_workload()
    best: dict[str, tuple[float, object]] = {}
    for _ in range(rounds):
        for label, overrides in variants.items():
            stats, elapsed = run_regime(regime, workload=workload, **overrides)
            if label not in best or elapsed < best[label][0]:
                best[label] = (elapsed, stats)
    return best


def bench_simulator_throughput(benchmark, publish, tmp_path):
    regime = REGIMES["balanced"]
    workload = regime.build_workload()

    def simulate():
        return regime.build_core(workload=workload).run()

    stats = benchmark(simulate)
    if benchmark.stats is not None:
        mean = benchmark.stats.stats.mean
        rounds = benchmark.stats.stats.rounds
    else:  # --benchmark-disable: time a single run ourselves
        start = time.perf_counter()
        stats = simulate()
        mean = time.perf_counter() - start
        rounds = 1
    # Best of three more rounds as well: machine noise only ever slows
    # a round down.
    best, _ = best_rate(regime, rounds=3)
    rate = max(stats.committed / mean, best)

    # Exercise the run cache (cold, then warm) so the JSON captures its
    # behavior too: a warm re-render must be pure hits.
    cache = RunCache(tmp_path / "cache")
    request = RunRequest(workload="vpr", scale=0.05, mode="slice")
    run_matrix([request], jobs=1, cache=cache)
    run_matrix([request], jobs=1, cache=cache)

    publish(
        "simulator_throughput",
        "Simulator throughput (slice-assisted vpr, scale 0.05)\n\n"
        f"{stats.committed} committed instructions per run; "
        f"~{rate:,.0f} simulated instructions/second",
    )
    _merge_results(
        None,
        {
            "instructions_per_second": round(rate),
            "committed_per_run": stats.committed,
            "runs": rounds,
            "mean_seconds_per_run": mean,
            "floor_instructions_per_second": BALANCED_FLOOR,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
            },
        },
    )
    assert cache.hits == 1 and cache.misses == 1
    assert stats.committed > 5_000
    assert rate > BALANCED_FLOOR


def bench_simulator_throughput_memory_bound(publish):
    """Skip-vs-step on the far-memory regime (event-driven loop's target)."""
    regime = REGIMES["memory_bound"]
    # Interleave the two modes and keep each mode's best round:
    # machine noise only ever slows a round down, so best-of-N
    # converges on the true cost and the interleaving keeps transient
    # load from biasing one mode.
    rounds = 5
    modes = _interleaved_best(
        regime,
        rounds=rounds,
        variants={"skip": {}, "step": {"event_driven": False}},
    )
    best_skip, skip_stats = modes["skip"]
    best_step, _ = modes["step"]

    skip_rate = skip_stats.committed / best_skip
    step_rate = skip_stats.committed / best_step
    speedup = best_step / best_skip

    publish(
        "simulator_throughput_memory_bound",
        "Simulator throughput, memory-bound regime "
        f"(base mcf, scale {regime.scale}, "
        f"{regime.config.memory_latency}-cycle misses, "
        f"{regime.config.window_entries}-entry window)\n\n"
        f"event-driven: ~{skip_rate:,.0f} inst/s; "
        f"stepping: ~{step_rate:,.0f} inst/s; "
        f"speedup {speedup:.2f}x\n"
        f"{skip_stats.cycles_skipped:,} of {skip_stats.cycles:,} cycles "
        f"skipped in {skip_stats.skip_events:,} jumps",
    )
    _merge_results(
        "memory_bound",
        {
            "workload": regime.workload,
            "mode": regime.mode,
            "scale": regime.scale,
            "memory_latency": regime.config.memory_latency,
            "window_entries": regime.config.window_entries,
            "instructions_per_second": round(skip_rate),
            "stepping_instructions_per_second": round(step_rate),
            "speedup_vs_stepping": round(speedup, 2),
            "committed_per_run": skip_stats.committed,
            "cycles": skip_stats.cycles,
            "cycles_skipped": skip_stats.cycles_skipped,
            "skip_events": skip_stats.skip_events,
            "best_of_rounds": rounds,
            "floor_instructions_per_second": MEMORY_BOUND_FLOOR,
        },
    )
    assert skip_stats.cycles_skipped > skip_stats.cycles // 2
    assert speedup > 2.0
    assert skip_rate > MEMORY_BOUND_FLOOR


def bench_simulator_throughput_slice_heavy(publish):
    """Fork/correlator churn: vpr's slices on an 8-context machine."""
    regime = REGIMES["slice_heavy"]
    rounds = 5
    rate, stats = best_rate(regime, rounds=rounds)

    publish(
        "simulator_throughput_slice_heavy",
        "Simulator throughput, slice-heavy regime "
        f"(slice-assisted vpr, scale {regime.scale}, "
        f"{regime.config.thread_contexts} thread contexts)\n\n"
        f"~{rate:,.0f} inst/s\n"
        f"{stats.slice_fetched:,} slice instructions fetched alongside "
        f"{stats.main_fetched:,} main",
    )
    _merge_results(
        "slice_heavy",
        {
            "workload": regime.workload,
            "mode": regime.mode,
            "scale": regime.scale,
            "thread_contexts": regime.config.thread_contexts,
            "instructions_per_second": round(rate),
            "committed_per_run": stats.committed,
            "slice_fetched": stats.slice_fetched,
            "best_of_rounds": rounds,
            "floor_instructions_per_second": SLICE_HEAVY_FLOOR,
        },
    )
    assert stats.slice_fetched > 0
    assert rate > SLICE_HEAVY_FLOOR
