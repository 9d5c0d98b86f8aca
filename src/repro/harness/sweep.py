"""Parameter-sensitivity sweeps.

The paper fixes one machine (Table 1) and reasons qualitatively about
how its conclusions scale ("programs and processors with low base IPCs
are more likely to benefit", §6.3). These sweeps make those arguments
quantitative on our simulator: each varies one machine parameter and
re-runs the baseline/slice pair, reporting how the slice benefit moves.

Each sweep is expressed as a list of :class:`RunRequest` descriptors
with a single ``overrides`` entry and executed through
:func:`~repro.harness.parallel.run_matrix`, so sweep points run in
parallel and repeat renders hit the on-disk cache. The workload must
come from the registry and the config must be a named preset: those
are the only things a request can name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.cache import RunCache
from repro.harness.parallel import CONFIG_PRESETS, RunRequest, run_matrix
from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.stats import RunStats, mean_ci95
from repro.workloads import registry
from repro.workloads.base import Workload


@dataclass
class SweepPoint:
    """One (parameter value, baseline, assisted) measurement."""

    value: int
    base: RunStats
    assisted: RunStats

    def region_speedups(self) -> list[float]:
        """Per-region slice speedups of a multi-region point.

        Base and assisted windows are *paired* (same chain, same
        depths), so the per-region ratio is the natural sample for the
        speedup's confidence interval."""
        base = self.base.region_ipcs
        assisted = self.assisted.region_ipcs
        n = min(len(base), len(assisted))
        return [
            assisted[k] / base[k] - 1.0 for k in range(n) if base[k]
        ]

    @property
    def speedup(self) -> float:
        return self.assisted.ipc / self.base.ipc - 1.0

    @property
    def speedup_ci95(self) -> float:
        """95% confidence half-width on the mean per-region speedup
        (0.0 for full-detail and single-window points)."""
        ratios = self.region_speedups()
        if len(ratios) < 2:
            return 0.0
        return mean_ci95(ratios)[1]


def _sweep(
    workload: Workload,
    config: MachineConfig,
    override_path: str,
    values: tuple[int, ...],
    jobs: int | None,
    cache: RunCache | None,
    fast_forward: int = 0,
    sample: int = 0,
    sample_regions: int = 0,
    sample_period: int = 0,
) -> list[SweepPoint]:
    """Run the base/assisted pair at each override value.

    With ``fast_forward``/``sample`` set, every point is a sampled run
    sharing one warmed snapshot — with ``sample_regions >= 2``, one
    warmed snapshot *chain*: the sweep parameters vary timing, not the
    warming-relevant sub-configs, so the architectural prefix is paid
    once for the whole sweep (``run_matrix`` pre-builds it).
    """
    if (
        workload.name not in registry.WORKLOAD_BUILDERS
        or CONFIG_PRESETS.get(config.name) != config
    ):
        # A request names its workload and preset; anything else would
        # silently run the registry build or the same-named preset.
        raise ValueError(
            f"cannot sweep workload {workload.name!r} on config "
            f"{config.name!r}: sweeps need a registered workload and an "
            f"unmodified preset config ({tuple(CONFIG_PRESETS)})"
        )
    requests = []
    for value in values:
        overrides = ((override_path, value),)
        for mode in ("base", "slice"):
            requests.append(
                RunRequest(
                    workload=workload.name,
                    scale=workload.scale,
                    mode=mode,
                    config=config.name,
                    overrides=overrides,
                    fast_forward=fast_forward,
                    sample=sample,
                    sample_regions=sample_regions,
                    sample_period=sample_period,
                )
            )
    stats = run_matrix(requests, jobs=jobs, cache=cache)
    return [
        SweepPoint(value=value, base=stats[2 * i], assisted=stats[2 * i + 1])
        for i, value in enumerate(values)
    ]


def sweep_memory_latency(
    workload: Workload,
    latencies: tuple[int, ...] = (50, 100, 200, 400),
    config: MachineConfig = FOUR_WIDE,
    jobs: int | None = None,
    cache: RunCache | None = None,
    fast_forward: int = 0,
    sample: int = 0,
    sample_regions: int = 0,
    sample_period: int = 0,
) -> list[SweepPoint]:
    """Scale main-memory latency: prefetch-driven slice benefit should
    grow with the latency the slice tolerates."""
    return _sweep(
        workload, config, "memory_latency", latencies, jobs, cache,
        fast_forward=fast_forward, sample=sample,
        sample_regions=sample_regions, sample_period=sample_period,
    )


def sweep_window_size(
    workload: Workload,
    windows: tuple[int, ...] = (32, 64, 128, 256),
    config: MachineConfig = FOUR_WIDE,
    jobs: int | None = None,
    cache: RunCache | None = None,
    fast_forward: int = 0,
    sample: int = 0,
    sample_regions: int = 0,
    sample_period: int = 0,
) -> list[SweepPoint]:
    """Scale the instruction window: a bigger window already tolerates
    more latency on its own, moving the baseline."""
    return _sweep(
        workload, config, "window_entries", windows, jobs, cache,
        fast_forward=fast_forward, sample=sample,
        sample_regions=sample_regions, sample_period=sample_period,
    )


def sweep_prediction_slots(
    workload: Workload,
    slot_counts: tuple[int, ...] = (2, 4, 8, 16),
    config: MachineConfig = FOUR_WIDE,
    jobs: int | None = None,
    cache: RunCache | None = None,
    fast_forward: int = 0,
    sample: int = 0,
    sample_regions: int = 0,
    sample_period: int = 0,
) -> list[SweepPoint]:
    """Scale the correlator's per-branch prediction slots (Figure 10
    provisions 8): too few slots starve loop slices."""
    return _sweep(
        workload,
        config,
        "slice_hw.predictions_per_branch",
        slot_counts,
        jobs,
        cache,
        fast_forward=fast_forward,
        sample=sample,
        sample_regions=sample_regions,
        sample_period=sample_period,
    )


def render_sweep(
    title: str, parameter: str, points: list[SweepPoint]
) -> str:
    """Fixed-width rendering of one sweep.

    Multi-region points render the sampled estimators with their 95%
    confidence half-widths and the region count; full-detail points
    keep the compact legacy table.
    """
    if any(p.base.sample_regions >= 2 for p in points):
        lines = [
            title,
            "",
            f"{parameter:>12s}{'base IPC':>16s}{'slice IPC':>16s}"
            f"{'speedup':>16s}{'N':>4s}",
            "-" * 64,
        ]
        for point in points:
            base = f"{point.base.ipc_mean:.3f}±{point.base.ipc_ci95:.3f}"
            assisted = (
                f"{point.assisted.ipc_mean:.3f}"
                f"±{point.assisted.ipc_ci95:.3f}"
            )
            speedup = (
                f"{point.speedup:+.1%}±{point.speedup_ci95:.1%}"
            )
            lines.append(
                f"{point.value:>12d}{base:>16s}{assisted:>16s}"
                f"{speedup:>16s}{point.base.sample_regions:>4d}"
            )
        return "\n".join(lines)
    lines = [
        title,
        "",
        f"{parameter:>12s}{'base IPC':>10s}{'slice IPC':>11s}{'speedup':>9s}",
        "-" * 42,
    ]
    for point in points:
        lines.append(
            f"{point.value:>12d}{point.base.ipc:>10.3f}"
            f"{point.assisted.ipc:>11.3f}{point.speedup:>9.1%}"
        )
    return "\n".join(lines)
