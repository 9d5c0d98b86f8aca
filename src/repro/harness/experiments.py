"""Experiment drivers: one entry point per table/figure in the paper.

Each function builds the required :class:`RunRequest` matrix, executes
it through :func:`~repro.harness.parallel.run_matrix` (parallel across
``--jobs`` / ``REPRO_JOBS`` workers, memoized by the on-disk
:class:`~repro.harness.cache.RunCache`), and returns
``(data, rendered_text)``. The benches in ``benchmarks/`` call these;
so can users, e.g.::

    from repro.harness.experiments import experiment_figure11
    results, text = experiment_figure11(scale=0.2, jobs=4)
    print(text)

``scale`` scales workload working sets and run lengths; 1.0 is the
benchmark-sized configuration (the paper used 100M-instruction regions;
our scale-1.0 regions are ~10^5-10^6 instructions, see DESIGN.md).
"""

from __future__ import annotations

import math
import os

from repro.analysis.characterize import characterize_run, characterize_slice
from repro.analysis.problem import classify_problem_instructions
from repro.harness import report
from repro.harness.cache import RunCache
from repro.harness.parallel import RunRequest, preset_name, run_matrix
from repro.harness.runner import PerfectSweepResult, TripleResult
from repro.uarch.config import EIGHT_WIDE, FOUR_WIDE, MachineConfig
from repro.workloads import registry
from repro.workloads.registry import WorkloadRef

#: Benchmarks Table 4 reports (those with non-trivial speedups).
TABLE4_BENCHMARKS = ("bzip2", "eon", "gap", "gzip", "mcf", "perl", "twolf", "vpr")


def default_scale() -> float:
    """Benchmark scale; override with the REPRO_SCALE env variable."""
    return float(os.environ.get("REPRO_SCALE", "0.35"))


# ----------------------------------------------------------------------
# Long-horizon sampled defaults (sampled figure benches by default)
# ----------------------------------------------------------------------

#: Functional run length to HALT per workload, as
#: ``(anchor_scale, insts_at_anchor, growth_exponent)`` — length at
#: scale *s* is ``insts * (s / anchor) ** exponent``. Measured with the
#: functional fast-forward tier; every workload is linear in scale
#: (exponent 1.0, <2% error out to the 10^6-instruction scales below).
#: gzip's length is data-dependent and jagged — a few scales hit
#: unusually long lazy-match tails and run *past* the model — but a
#: longer run only gives the windows more room, so the halt-aware
#: schedule stays valid. The figure benches use this model to place
#: detailed sample windows *inside* the run — ``workload.region`` is a
#: generous ceiling (3-4x the real HALT depth for several workloads),
#: so deriving periods from it would drop most windows past HALT.
RUN_LENGTH_MODEL: dict[str, tuple[float, int, float]] = {
    "bzip2": (4.0, 455_346, 1.0),
    "crafty": (4.0, 252_019, 1.0),
    "eon": (4.0, 671_539, 1.0),
    "gap": (4.0, 156_634, 1.0),
    "gcc": (4.0, 283_764, 1.0),
    "gzip": (4.0, 706_356, 1.0),
    "mcf": (4.0, 221_367, 1.0),
    "parser": (4.0, 394_727, 1.0),
    "perl": (4.0, 340_733, 1.0),
    "twolf": (4.0, 497_208, 1.0),
    "vortex": (4.0, 211_204, 1.0),
    "vpr": (4.0, 1_099_615, 1.0),
}

#: Default horizon for sampled figure benches: each workload arm
#: covers ~2x10^6 functionally-warmed instructions (vs the ~10^4-10^5
#: full-detail regions of ``default_scale()``), estimated from
#: SAMPLED_REGIONS detailed windows with Student-t CIs.
SAMPLED_HORIZON = 2_000_000
SAMPLED_REGIONS = 10
SAMPLED_WINDOW = 2_000

#: Fraction of the modeled run length the windows may span; the slack
#: absorbs the run-length model's error so the last window always
#: lands before HALT (a window past HALT is dropped and costs a CI
#: sample).
_HORIZON_MARGIN = 0.97


def run_length(name: str, scale: float) -> int:
    """Modeled functional run length (instructions to HALT) of
    workload *name* at *scale*."""
    anchor, insts, exponent = RUN_LENGTH_MODEL[name]
    return int(insts * (scale / anchor) ** exponent)


def scale_for_horizon(name: str, horizon: int | None = None) -> float:
    """The scale at which workload *name* runs ~*horizon* instructions
    before HALT (inverse of :func:`run_length`).

    Floored (not rounded) to two decimals: rounding up can cross onto
    one of gzip's anomalous inputs (e.g. 11.33 runs 5.65M instructions
    in a lazy-match tail while 11.32 lands on-model), and a hair-short
    scale only shaves the 3% schedule margin.
    """
    horizon = horizon or SAMPLED_HORIZON
    anchor, insts, exponent = RUN_LENGTH_MODEL[name]
    return math.floor(anchor * (horizon / insts) ** (1.0 / exponent) * 100) / 100


def sampled_plan(
    name: str,
    horizon: int | None = None,
    regions: int | None = None,
    window: int | None = None,
) -> dict:
    """Halt-aware long-horizon sampling plan for one workload.

    Returns RunRequest keyword arguments: the scale at which *name*
    runs ~*horizon* instructions, and a periodic multi-region schedule
    whose windows all land before HALT. The first window sits one
    period in (``fast_forward = period``), skipping initialization the
    same way every later window skips its gap, so all ``regions``
    chain members are warmed snapshots.
    """
    horizon = horizon or SAMPLED_HORIZON
    regions = regions or SAMPLED_REGIONS
    window = window if window is not None else SAMPLED_WINDOW
    from repro.harness.fastforward import detail_warmup

    warmup = detail_warmup(window)
    span = int(horizon * _HORIZON_MARGIN) - (window + warmup)
    period = max(span // regions, window + warmup)
    return {
        "scale": scale_for_horizon(name, horizon),
        "fast_forward": period,
        "sample": window,
        "sample_regions": regions,
        "sample_period": period,
    }


#: Scale of the one build per workload that Table 4 counts covered
#: branch PCs from. Slice PCs do not depend on scale (pinned by
#: ``tests/harness/test_experiments.py``), and a build this small takes
#: milliseconds where a sampled plan's scale can take seconds.
SLICE_PROBE_SCALE = 0.01


def _covered_branch_count(name: str) -> int:
    """Distinct branch PCs workload *name*'s slices cover."""
    workload = registry.build(name, SLICE_PROBE_SCALE)
    return len(
        {pc for spec in workload.slices for pc in spec.covered_branch_pcs}
    )


def experiment_table1() -> tuple[list[MachineConfig], str]:
    """Table 1: print both machine configurations."""
    configs = [FOUR_WIDE, EIGHT_WIDE]
    text = "\n\n".join(report.render_table1(config) for config in configs)
    return configs, text


def experiment_workload_mix(scale: float | None = None):
    """Characterize the workload suite (instruction mix, working sets)."""
    from repro.analysis.mix import instruction_mix, render_mix_table

    scale = scale if scale is not None else default_scale()
    rows = [
        (name, instruction_mix(registry.build(name, scale)))
        for name in registry.all_names()
    ]
    return rows, render_mix_table(rows)


def experiment_table2(
    scale: float | None = None,
    jobs: int | None = None,
    cache: RunCache | None = None,
):
    """Table 2: problem-instruction coverage across all benchmarks."""
    scale = scale if scale is not None else default_scale()
    names = registry.all_names()
    stats = run_matrix(
        [RunRequest(name, scale, mode="base") for name in names],
        jobs=jobs,
        cache=cache,
    )
    rows = [
        (name, classify_problem_instructions(s).coverage())
        for name, s in zip(names, stats)
    ]
    return rows, report.render_table2(rows)


def experiment_figure1(
    scale: float | None = None,
    configs=(FOUR_WIDE, EIGHT_WIDE),
    jobs: int | None = None,
    cache: RunCache | None = None,
):
    """Figure 1: baseline vs problem-perfect vs all-perfect IPC.

    Two matrix phases: the baselines run first (they feed the problem-
    instruction profiler), then the per-instruction-perfect and
    all-perfect overlays run from the profiled PC sets. A modified
    (non-preset) config raises ``ValueError``.
    """
    scale = scale if scale is not None else default_scale()
    pairs = [
        (name, config)
        for name in registry.all_names()
        for config in configs
    ]
    base_stats = run_matrix(
        [
            RunRequest(
                name,
                scale,
                mode="base",
                config=preset_name(config, "Figure 1"),
            )
            for name, config in pairs
        ],
        jobs=jobs,
        cache=cache,
    )
    classifications = [classify_problem_instructions(s) for s in base_stats]
    perfect_requests = []
    for (name, config), cls in zip(pairs, classifications):
        perfect_requests.append(
            RunRequest(
                name,
                scale,
                mode="perfect",
                config=config.name,
                perfect_branch_pcs=tuple(cls.branch_pcs),
                perfect_load_pcs=tuple(cls.load_pcs),
            )
        )
        perfect_requests.append(
            RunRequest(
                name,
                scale,
                mode="perfect",
                config=config.name,
                all_branches=True,
                all_loads=True,
            )
        )
    perfect_stats = run_matrix(perfect_requests, jobs=jobs, cache=cache)

    results: list[PerfectSweepResult] = []
    for i, ((name, config), cls) in enumerate(zip(pairs, classifications)):
        results.append(
            PerfectSweepResult(
                workload=WorkloadRef(name, scale),
                config=config,
                base=base_stats[i],
                problem_perfect=perfect_stats[2 * i],
                all_perfect=perfect_stats[2 * i + 1],
                classification=cls,
            )
        )
    return results, report.render_figure1(results)


def experiment_table3(scale: float | None = None):
    """Table 3: characterization of the hand-constructed slices."""
    scale = scale if scale is not None else default_scale()
    rows = []
    for name in registry.all_names():
        workload = registry.build(name, scale)
        for spec in workload.slices:
            rows.append(characterize_slice(name, spec))
    return rows, report.render_table3(rows)


def experiment_figure11(
    scale: float | None = None,
    config: MachineConfig = FOUR_WIDE,
    jobs: int | None = None,
    cache: RunCache | None = None,
    sampled: bool = False,
    horizon: int | None = None,
):
    """Figure 11: slice speedup vs constrained limit study.

    With ``sampled=True`` (the figure benches' default), each workload
    runs at its own long-horizon scale — ~``horizon`` (default
    :data:`SAMPLED_HORIZON`) instructions covered by a halt-aware
    multi-region plan from :func:`sampled_plan` — instead of one
    global full-detail ``scale``. All three modes of a workload share
    one warmed snapshot chain (prebuilt in parallel by ``run_matrix``),
    and speedups gain per-region confidence intervals. A modified
    (non-preset) config raises ``ValueError``.
    """
    scale = scale if scale is not None else default_scale()
    preset = preset_name(config, "Figure 11")
    names = registry.all_names()
    plans = (
        {name: sampled_plan(name, horizon) for name in names}
        if sampled
        else {name: {"scale": scale} for name in names}
    )
    requests = [
        RunRequest(name, mode=mode, config=preset, **plans[name])
        for name in names
        for mode in ("base", "slice", "limit")
    ]
    stats = run_matrix(requests, jobs=jobs, cache=cache)
    results = [
        TripleResult(
            workload=WorkloadRef(name, plans[name]["scale"]),
            config=config,
            base=stats[3 * i],
            assisted=stats[3 * i + 1],
            limit=stats[3 * i + 2],
        )
        for i, name in enumerate(names)
    ]
    return results, report.render_figure11(results)


def experiment_table4(
    scale: float | None = None,
    config: MachineConfig = FOUR_WIDE,
    benchmarks=TABLE4_BENCHMARKS,
    jobs: int | None = None,
    cache: RunCache | None = None,
    sampled: bool = False,
    horizon: int | None = None,
):
    """Table 4: detailed with/without-slices characterization.

    ``sampled=True`` switches to per-workload long-horizon plans (see
    :func:`experiment_figure11`); base and slice arms share one chain.
    A modified (non-preset) config raises ``ValueError``.
    """
    scale = scale if scale is not None else default_scale()
    preset = preset_name(config, "Table 4")
    plans = (
        {name: sampled_plan(name, horizon) for name in benchmarks}
        if sampled
        else {name: {"scale": scale} for name in benchmarks}
    )
    requests = [
        RunRequest(name, mode=mode, config=preset, **plans[name])
        for name in benchmarks
        for mode in ("base", "slice")
    ]
    stats = run_matrix(requests, jobs=jobs, cache=cache)
    rows = [
        characterize_run(
            name, stats[2 * i], stats[2 * i + 1], _covered_branch_count(name)
        )
        for i, name in enumerate(benchmarks)
    ]
    return rows, report.render_table4(rows)
