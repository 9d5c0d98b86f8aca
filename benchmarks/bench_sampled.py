"""Sampled-simulation benchmarks: throughput floor and sweep speedup.

Two measurements of :mod:`repro.harness.fastforward`:

* **sampled throughput** — the ``sampled`` regime from
  :mod:`repro.harness.bench` (base mcf, 20k-instruction warmed
  functional fast-forward, 4k-instruction measured region). Rate counts
  every instruction the run covered (prefix + discard window + region)
  against detailed wall time only — the amortized case a sweep sees,
  since all points share one snapshot. Merged into
  ``BENCH_throughput.json`` under ``sampled`` with a CI floor.
* **sweep speedup** — the headline claim: a memory-latency sweep on mcf
  with a shared warmed snapshot must be >= 3x faster than running each
  point in full detail, while every point's region IPC stays within 2%
  of the full-detail run over the same region. The full-detail
  comparator runs each point with ``warmup = fast_forward + discard``
  and ``region = sample`` so both sides measure the identical
  instruction interval; only how the prefix is executed differs
  (detailed vs. functional-with-warming).
* **multi-region throughput** — the ``sampled_multi`` regime: covered
  instructions per second for a fresh multi-region run whose snapshot
  chain is built inside the timed region (the one-shot, unamortized
  cost model), merged into ``BENCH_throughput.json`` with a CI floor.
* **multi-region differential** — the acceptance bar at experiment
  scale: a 10^7-instruction mcf run estimated from 10 periodic
  windows must be >= 20x faster than full detail, with the full-detail
  IPC inside the sampled estimate's 95% confidence interval.
* **window-parallel throughput** — the ``sampled_parallel`` regime:
  covered instructions per second for a multi-region run whose chain
  is prebuilt (amortized) and whose windows fan out over the process
  pool through one ``run_matrix`` call, merged into
  ``BENCH_throughput.json`` with a CI floor.
* **window-parallel speedup** — the PR 10 acceptance bar: a 10-window
  mcf run over a prebuilt chain must be >= 2x faster wall-clock at 8
  pool workers than the serial ``--jobs 1`` oracle, with a
  bit-identical aggregate RunStats digest (asserted unconditionally;
  the speedup floor is asserted where the host can physically deliver
  it, i.e. >= 4 CPUs — CI runners qualify, a 1-vCPU sandbox records
  the ratio without failing on physics).
"""

import dataclasses
import os
import time

from bench_simulator_throughput import _merge_results

from repro.harness.bench import REGIMES, best_rate
from repro.harness.fastforward import (
    SnapshotStore,
    detail_warmup,
    ensure_snapshot,
    iter_chain,
    list_snapshots,
)
from repro.harness.parallel import (
    RunRequest,
    _apply_override,
    assemble_windows,
)
from repro.harness.runner import simulate
from repro.uarch.config import FOUR_WIDE
from repro.workloads import registry

#: Floor for the sampled regime (covered simulated instructions / wall
#: second). Measures ~160-180k locally (vs ~50-100k for the detailed
#: regimes); a third of that absorbs single-vCPU CI noise while still
#: catching a regression that makes sampling no faster than detail.
SAMPLED_FLOOR = 50_000

#: The acceptance bar for the sweep: shared-snapshot sampling must beat
#: per-point full detail by at least this factor...
SWEEP_SPEEDUP_FLOOR = 3.0

#: ...without moving any point's region IPC by more than this.
IPC_DEVIATION_CAP = 0.02

#: Floor for the multi-region regime (covered instructions / wall
#: second, chain build *included* — the one-shot cost model). Measures
#: ~120-140k locally; a third absorbs single-vCPU CI noise.
MULTI_FLOOR = 40_000

#: The acceptance bar for multi-region sampling at experiment scale: a
#: 10^7-instruction run estimated from 10 periodic windows must be at
#: least this much faster than simulating every instruction in detail.
MULTI_SPEEDUP_FLOOR = 20.0

#: Floor for the window-parallel regime (covered instructions / wall
#: second against the whole ``run_matrix`` wall clock, prebuilt chain).
#: Measures ~95k even on a single vCPU (where the pool serializes); a
#: third of that absorbs CI noise while catching a scheduler
#: regression that re-serializes the windows *and* adds overhead.
PARALLEL_FLOOR = 30_000

#: The PR 10 acceptance bar: window-parallel wall clock at 8 workers
#: must beat the serial window loop by at least this factor.
WINDOW_SPEEDUP_FLOOR = 2.0

#: Asserting a parallel speedup needs parallel hardware: the floor is
#: enforced at >= this many CPUs (CI runners qualify) and recorded
#: without being asserted below it.
WINDOW_SPEEDUP_MIN_CPUS = 4


def bench_sampled_throughput(publish):
    regime = REGIMES["sampled"]
    rate, stats = best_rate(regime, rounds=3)
    warmup = detail_warmup(regime.sample)

    publish(
        "sampled_throughput",
        "Sampled-simulation throughput "
        f"(base {regime.workload}, scale {regime.scale}, "
        f"{regime.fast_forward:,}-inst warmed fast-forward, "
        f"{regime.sample:,}-inst region)\n\n"
        f"~{rate:,.0f} covered instructions/second "
        f"({stats.ff_insts:,} fast-forwarded + {warmup:,} discard + "
        f"{stats.committed:,} measured, best of 3 runs)",
    )
    _merge_results(
        "sampled",
        {
            "workload": regime.workload,
            "mode": regime.mode,
            "scale": regime.scale,
            "fast_forward": regime.fast_forward,
            "sample": regime.sample,
            "detail_warmup": warmup,
            "instructions_per_second": round(rate),
            "ff_insts": stats.ff_insts,
            "committed_per_run": stats.committed,
            "best_of_rounds": 3,
            "floor_instructions_per_second": SAMPLED_FLOOR,
        },
    )
    assert stats.ff_insts == regime.fast_forward
    assert stats.committed == regime.sample
    assert rate > SAMPLED_FLOOR


def bench_sampled_sweep_speedup(publish, tmp_path, monkeypatch):
    """Memory-latency sweep, sampled vs. full detail: >= 3x faster,
    per-point region IPC within 2%."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    workload = registry.build("mcf", scale=0.5)
    fast_forward, sample = 20_000, 4_000
    region, warmup = sample, detail_warmup(sample)
    latencies = (50, 100, 200, 400)
    configs = [
        _apply_override(FOUR_WIDE, "memory_latency", value)
        for value in latencies
    ]

    # Sampled side: the snapshot build is timed (it is real work the
    # sweep pays), but paid once — the warm-config key dedups across
    # points since memory_latency does not shape warmed state.
    store = SnapshotStore(tmp_path / "cache")
    sampled_start = time.perf_counter()
    sampled_ipc = []
    for config in configs:
        snapshot, _ = ensure_snapshot(
            workload, config, fast_forward, store=store
        )
        stats = simulate(
            workload, "base", config,
            snapshot=snapshot, warmup=warmup, region=region,
        )
        sampled_ipc.append(stats.ipc)
    sampled_s = time.perf_counter() - sampled_start
    snapshots_on_disk = len(list_snapshots(store))

    # Full-detail side: same measured interval, but the prefix runs on
    # the detailed core (warming every structure along the way).
    full_start = time.perf_counter()
    full_ipc = []
    for config in configs:
        stats = simulate(
            workload, "base", config,
            warmup=fast_forward + warmup, region=sample,
        )
        full_ipc.append(stats.ipc)
    full_s = time.perf_counter() - full_start

    speedup = full_s / sampled_s
    deviations = [
        abs(s - f) / f for s, f in zip(sampled_ipc, full_ipc)
    ]
    table = "\n".join(
        f"  {latency:>4d}-cycle memory: full {f:.3f} IPC, "
        f"sampled {s:.3f} IPC ({dev:+.2%})"
        for latency, f, s, dev in zip(
            latencies, full_ipc, sampled_ipc,
            (s - f for s, f in zip(sampled_ipc, full_ipc)),
        )
    )
    publish(
        "sampled_sweep_speedup",
        "Sampled memory-latency sweep (mcf, scale 0.5, "
        f"{len(latencies)} points, one shared {fast_forward:,}-inst "
        "warmed snapshot)\n\n"
        f"full detail: {full_s:.2f}s; sampled: {sampled_s:.2f}s "
        f"(speedup {speedup:.2f}x, {snapshots_on_disk} snapshot on "
        "disk)\n" + table,
    )
    _merge_results(
        "sampled_sweep",
        {
            "workload": "mcf",
            "scale": 0.5,
            "sweep": "memory_latency",
            "points": list(latencies),
            "fast_forward": fast_forward,
            "sample": sample,
            "full_detail_seconds": round(full_s, 3),
            "sampled_seconds": round(sampled_s, 3),
            "speedup": round(speedup, 2),
            "snapshots_built": snapshots_on_disk,
            "max_ipc_deviation": round(max(deviations), 5),
            "speedup_floor": SWEEP_SPEEDUP_FLOOR,
            "ipc_deviation_cap": IPC_DEVIATION_CAP,
        },
    )
    assert snapshots_on_disk == 1  # warm-config key shared the prefix
    assert speedup >= SWEEP_SPEEDUP_FLOOR
    assert max(deviations) < IPC_DEVIATION_CAP


def bench_sampled_multi_throughput(publish):
    """The ``sampled_multi`` regime: covered instructions per second
    for a fresh (unamortized) multi-region run, chain build included."""
    regime = REGIMES["sampled_multi"]
    rate, stats = best_rate(regime, rounds=3)
    warmup = detail_warmup(regime.sample)

    publish(
        "sampled_multi_throughput",
        "Multi-region sampled throughput "
        f"(base {regime.workload}, scale {regime.scale}, "
        f"{stats.sample_regions} x {regime.sample:,}-inst windows, "
        f"period {regime.sample_period:,}, chain build timed)\n\n"
        f"~{rate:,.0f} covered instructions/second "
        f"({stats.ff_insts:,} chain span + "
        f"{stats.sample_regions * warmup:,} discard + "
        f"{stats.committed:,} measured, best of 3 runs)",
    )
    _merge_results(
        "sampled_multi",
        {
            "workload": regime.workload,
            "mode": regime.mode,
            "scale": regime.scale,
            "sample": regime.sample,
            "sample_regions": regime.sample_regions,
            "sample_period": regime.sample_period,
            "detail_warmup": warmup,
            "instructions_per_second": round(rate),
            "chain_span_insts": stats.ff_insts,
            "committed_per_run": stats.committed,
            "ipc_mean": round(stats.ipc_mean, 4),
            "ipc_ci95": round(stats.ipc_ci95, 4),
            "best_of_rounds": 3,
            "floor_instructions_per_second": MULTI_FLOOR,
        },
    )
    assert stats.sample_regions == regime.sample_regions
    assert stats.committed == regime.sample_regions * regime.sample
    assert rate > MULTI_FLOOR


def bench_sampled_multi_differential(publish, tmp_path, monkeypatch):
    """The acceptance differential at experiment scale: a 10^7-inst
    mcf run estimated from 10 periodic 2k-inst windows must be >= 20x
    faster than full detail, and the full-detail IPC must fall inside
    the sampled estimate's 95% confidence interval.

    The period is pinned to 1M instructions because ``workload.region``
    is a ceiling, not a promise — mcf at this scale halts around
    10.02M dynamic instructions, so evenly spacing windows over the
    ceiling would plan some of them past the halt. The full-detail
    side raises ``max_cycles`` past the 50M-cycle default (at mcf's
    ~0.16 IPC the run needs ~63M cycles) so it really commits every
    instruction; a truncated comparator would flatter the speedup.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    workload = registry.build("mcf", scale=181)
    sample, regions, period = 2_000, 10, 1_000_000
    plan = RunRequest(
        "mcf", 181, fast_forward=0, sample=sample,
        sample_regions=regions, sample_period=period,
    ).schedule()

    # Sampled side: the chained fast-forward is built fresh, in memory
    # (the one-shot cost model, same as the sampled_multi regime —
    # persisting ten multi-megaword snapshots is the amortized case a
    # sweep pays once, benched separately above).
    chain = iter_chain(
        workload, FOUR_WIDE, plan.depths, store=SnapshotStore(enabled=False)
    )

    def measure(depth):
        snapshot, _hit = next(chain)
        stats = simulate(
            workload,
            snapshot=snapshot, warmup=plan.warmup, region=plan.region,
        )
        if snapshot is not None:
            stats.ff_insts = snapshot.executed
        return stats

    sampled_start = time.perf_counter()
    sampled = assemble_windows(plan.depths, measure)
    sampled_s = time.perf_counter() - sampled_start

    from repro.uarch.core import Core

    full_start = time.perf_counter()
    full = Core(
        workload.program, FOUR_WIDE,
        memory_image=workload.memory_image,
        memory_normalized=True,
        region=workload.region,
        workload_name=workload.name,
    ).run(max_cycles=150_000_000)
    full_s = time.perf_counter() - full_start

    speedup = full_s / sampled_s
    error = abs(sampled.ipc_mean - full.ipc)
    regions_txt = ", ".join(f"{ipc:.3f}" for ipc in sampled.region_ipcs)
    publish(
        "sampled_multi_differential",
        "Multi-region differential (mcf, scale 181, "
        f"{full.committed / 1e6:.2f}M insts full detail vs "
        f"{sampled.sample_regions} x {sample:,}-inst sampled windows, "
        f"period {period:,})\n\n"
        f"full detail:  {full_s:.1f}s, IPC {full.ipc:.4f}\n"
        f"sampled:      {sampled_s:.1f}s, IPC {sampled.ipc_mean:.4f} "
        f"± {sampled.ipc_ci95:.4f} (95% CI)\n"
        f"speedup {speedup:.1f}x, |error| {error:.4f}\n"
        f"region IPCs: {regions_txt}",
    )
    _merge_results(
        "sampled_multi_differential",
        {
            "workload": "mcf",
            "scale": 181,
            "full_detail_insts": full.committed,
            "sample": sample,
            "sample_regions": sampled.sample_regions,
            "sample_period": period,
            "full_detail_seconds": round(full_s, 1),
            "sampled_seconds": round(sampled_s, 1),
            "speedup": round(speedup, 1),
            "full_ipc": round(full.ipc, 4),
            "sampled_ipc_mean": round(sampled.ipc_mean, 4),
            "sampled_ipc_ci95": round(sampled.ipc_ci95, 4),
            "speedup_floor": MULTI_SPEEDUP_FLOOR,
        },
    )
    assert sampled.sample_regions == regions  # nothing planned past halt
    assert not full.hit_cycle_limit  # comparator ran to the real halt
    assert speedup >= MULTI_SPEEDUP_FLOOR
    # The estimator's own interval must cover the truth.
    assert error <= sampled.ipc_ci95


def bench_sampled_parallel_throughput(publish, tmp_path, monkeypatch):
    """The ``sampled_parallel`` regime: covered instructions per second
    with the chain prebuilt and the windows fanned over the pool."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    regime = REGIMES["sampled_parallel"]
    rate, stats = best_rate(regime, rounds=3)
    warmup = detail_warmup(regime.sample)

    publish(
        "sampled_parallel_throughput",
        "Window-parallel sampled throughput "
        f"(base {regime.workload}, scale {regime.scale}, "
        f"{stats.sample_regions} x {regime.sample:,}-inst windows, "
        f"period {regime.sample_period:,}, {regime.window_jobs} pool "
        "workers, prebuilt chain)\n\n"
        f"~{rate:,.0f} covered instructions/second against the whole "
        "run_matrix wall clock (best of 3 runs)",
    )
    _merge_results(
        "sampled_parallel",
        {
            "workload": regime.workload,
            "mode": regime.mode,
            "scale": regime.scale,
            "sample": regime.sample,
            "sample_regions": regime.sample_regions,
            "sample_period": regime.sample_period,
            "window_jobs": regime.window_jobs,
            "detail_warmup": warmup,
            "instructions_per_second": round(rate),
            "committed_per_run": stats.committed,
            "ipc_mean": round(stats.ipc_mean, 4),
            "ipc_ci95": round(stats.ipc_ci95, 4),
            "best_of_rounds": 3,
            "floor_instructions_per_second": PARALLEL_FLOOR,
        },
    )
    assert stats.sample_regions == regime.sample_regions
    assert stats.committed == regime.sample_regions * regime.sample
    assert rate > PARALLEL_FLOOR


def bench_window_parallel_speedup(publish, tmp_path, monkeypatch):
    """The PR 10 acceptance differential: a 10-window mcf run over a
    prebuilt snapshot chain, window-parallel at 8 workers vs the
    serial ``--jobs 1`` oracle.

    Both sides run through ``run_matrix`` with the run cache disabled
    (fresh detailed measurement either way; only the scheduling
    differs) over the same prebuilt chain, so the wall-clock ratio
    isolates exactly what the two-level scheduler buys. The aggregate
    RunStats must be bit-identical — the digest assertion holds on any
    host; the >= 2x floor is asserted on hosts with enough CPUs to
    make a parallel speedup physically possible (CI qualifies).
    """
    from repro.harness.cache import RunCache
    from repro.harness.fastforward import prebuild_snapshots
    from repro.harness.parallel import run_matrix
    from repro.uarch.stats import stats_digest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Period pinned under the workload's real dynamic length (mcf at
    # this scale halts around 440k instructions — ``workload.region``
    # is a ceiling, not a promise), so all ten windows really run.
    sample, regions, period = 40_000, 10, 42_000
    request = RunRequest(
        workload="mcf",
        scale=8.0,
        mode="base",
        sample=sample,
        sample_regions=regions,
        sample_period=period,
    )
    # The chain is shared, amortized state — both sides restore the
    # same ten snapshots from the store; the build is untimed.
    prebuild_snapshots([request], jobs=8)

    serial_start = time.perf_counter()
    serial = run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
    serial_s = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = run_matrix([request], jobs=8, cache=RunCache(enabled=False))[0]
    parallel_s = time.perf_counter() - parallel_start

    speedup = serial_s / parallel_s
    cpus = os.cpu_count() or 1
    enforced = cpus >= WINDOW_SPEEDUP_MIN_CPUS
    publish(
        "window_parallel_speedup",
        f"Window-parallel speedup (mcf, scale 8.0, {regions} x "
        f"{sample:,}-inst windows, period {period:,}, prebuilt chain)\n\n"
        f"serial (--jobs 1): {serial_s:.2f}s\n"
        f"window-parallel (8 workers): {parallel_s:.2f}s\n"
        f"speedup {speedup:.2f}x on {cpus} CPU(s) "
        f"(floor {WINDOW_SPEEDUP_FLOOR}x "
        f"{'enforced' if enforced else 'recorded only — too few CPUs'})\n"
        f"aggregate digest identical: "
        f"{stats_digest(serial) == stats_digest(parallel)}",
    )
    _merge_results(
        "window_parallel_speedup",
        {
            "workload": "mcf",
            "scale": 8.0,
            "sample": sample,
            "sample_regions": regions,
            "sample_period": period,
            "window_jobs": 8,
            "serial_seconds": round(serial_s, 2),
            "parallel_seconds": round(parallel_s, 2),
            "speedup": round(speedup, 2),
            "cpus": cpus,
            "speedup_floor": WINDOW_SPEEDUP_FLOOR,
            "speedup_floor_enforced": enforced,
        },
    )
    # Bit-identity is the tentpole's correctness bar: same masked
    # digest AND field-for-field equality including simulator meta.
    assert stats_digest(serial) == stats_digest(parallel)
    assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)
    assert serial.sample_regions == regions
    if enforced:
        assert speedup >= WINDOW_SPEEDUP_FLOOR
