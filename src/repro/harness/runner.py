"""Run drivers: the baseline / slice-assisted / limit triples of Section 6.

Each experiment in the paper compares up to three machine setups on the
same workload region:

* **base** — the Table 1 machine;
* **slice** — base plus the slice-execution hardware and the workload's
  hand slices on a 4-context SMT;
* **limit** — the constrained limit study: the PDEs of exactly the
  problem instructions the slices cover are "magically" avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.problem import (
    ProblemClassification,
    classify_problem_instructions,
)
from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.core import Core
from repro.uarch.perfect import ALL_PERFECT, PerfectSpec, problem_perfect
from repro.uarch.stats import RunStats
from repro.workloads.base import Workload
from repro.workloads.registry import WorkloadRef


def run_baseline(
    workload: Workload,
    config: MachineConfig = FOUR_WIDE,
    event_driven: bool = True,
    fused_blocks: bool | None = None,
    snapshot=None,
    warmup: int = 0,
    region: int | None = None,
) -> RunStats:
    """Run the Table 1 machine with no slice hardware.

    *snapshot*/*warmup*/*region* support sampled runs
    (:mod:`repro.harness.fastforward`): start from a warmed-state
    snapshot, discard the first *warmup* committed instructions, and
    measure *region* instructions instead of the workload's full
    region. The defaults reproduce the full detailed run exactly.
    """
    return Core(
        workload.program,
        config,
        memory_image=workload.memory_image,
        memory_normalized=True,
        region=workload.region if region is None else region,
        warmup=warmup,
        snapshot=snapshot,
        workload_name=workload.name,
        event_driven=event_driven,
        fused_blocks=fused_blocks,
    ).run()


def run_with_slices(
    workload: Workload,
    config: MachineConfig = FOUR_WIDE,
    dedicated: bool = False,
    slices=None,
    event_driven: bool = True,
    fused_blocks: bool | None = None,
    snapshot=None,
    warmup: int = 0,
    region: int | None = None,
) -> RunStats:
    """Run with the workload's speculative slices loaded."""
    return Core(
        workload.program,
        config,
        slices=tuple(workload.slices if slices is None else slices),
        memory_image=workload.memory_image,
        memory_normalized=True,
        region=workload.region if region is None else region,
        warmup=warmup,
        snapshot=snapshot,
        dedicated_slice_resources=dedicated,
        workload_name=workload.name,
        event_driven=event_driven,
        fused_blocks=fused_blocks,
    ).run()


def run_perfect(
    workload: Workload,
    perfect: PerfectSpec,
    config: MachineConfig = FOUR_WIDE,
    event_driven: bool = True,
    fused_blocks: bool | None = None,
    snapshot=None,
    warmup: int = 0,
    region: int | None = None,
) -> RunStats:
    """Run with a per-static-instruction perfect overlay."""
    return Core(
        workload.program,
        config,
        perfect=perfect,
        memory_image=workload.memory_image,
        memory_normalized=True,
        region=workload.region if region is None else region,
        warmup=warmup,
        snapshot=snapshot,
        workload_name=workload.name,
        event_driven=event_driven,
        fused_blocks=fused_blocks,
    ).run()


def covered_problem_spec(workload: Workload) -> PerfectSpec:
    """Problem instructions covered by the workload's slices — the set
    the constrained limit study of Section 6 perfects."""
    branch_pcs = set()
    load_pcs = set()
    for spec in workload.slices:
        branch_pcs.update(spec.covered_branch_pcs)
        load_pcs.update(spec.covered_load_pcs)
    if not branch_pcs and not load_pcs:
        # No slices (parser): the limit perfects the annotated problem
        # instructions so the bar still shows what was left on the table.
        branch_pcs = set(workload.problem_branch_pcs)
        load_pcs = set(workload.problem_load_pcs)
    return problem_perfect(branch_pcs, load_pcs)


@dataclass
class TripleResult:
    """base / slice / limit results for one workload and config.

    ``workload`` is the built :class:`Workload` when :func:`run_triple`
    simulated it here, and a :class:`WorkloadRef` when the results came
    from a request matrix: rendering reads only its name.
    """

    workload: Workload | WorkloadRef
    config: MachineConfig
    base: RunStats
    assisted: RunStats
    limit: RunStats

    @property
    def slice_speedup(self) -> float:
        return self.assisted.ipc / self.base.ipc - 1.0

    @property
    def limit_speedup(self) -> float:
        return self.limit.ipc / self.base.ipc - 1.0

    @property
    def slice_speedup_ci95(self) -> float:
        """95% confidence half-width on the slice speedup of a
        multi-region sampled pair (0.0 for full-detail runs). Base and
        assisted windows are paired (same chain, same depths), so the
        samples are the per-region speedup ratios."""
        from repro.uarch.stats import mean_ci95

        base = self.base.region_ipcs
        assisted = self.assisted.region_ipcs
        paired = min(len(base), len(assisted))
        if paired < 2:
            return 0.0
        ratios = [
            assisted[k] / base[k] - 1.0 for k in range(paired) if base[k]
        ]
        if len(ratios) < 2:
            return 0.0
        return mean_ci95(ratios)[1]


def run_triple(
    workload: Workload, config: MachineConfig = FOUR_WIDE
) -> TripleResult:
    """Run the Section 6 experiment for one workload."""
    base = run_baseline(workload, config)
    assisted = run_with_slices(workload, config)
    limit = run_perfect(workload, covered_problem_spec(workload), config)
    return TripleResult(workload, config, base, assisted, limit)


@dataclass
class PerfectSweepResult:
    """base / problem-perfect / all-perfect results (Figure 1).

    ``workload`` is built or a :class:`WorkloadRef`, as in
    :class:`TripleResult`.
    """

    workload: Workload | WorkloadRef
    config: MachineConfig
    base: RunStats
    problem_perfect: RunStats
    all_perfect: RunStats
    #: The profiled problem set behind ``problem_perfect``. ``None``
    #: only when a caller assembles a result without profiling; the
    #: drivers in this package always supply it.
    classification: ProblemClassification | None = field(
        repr=False, default=None
    )


def run_perfect_sweep(
    workload: Workload, config: MachineConfig = FOUR_WIDE
) -> PerfectSweepResult:
    """Run the Figure 1 experiment: profile the baseline, classify its
    problem instructions, then idealize them and everything."""
    base = run_baseline(workload, config)
    classification = classify_problem_instructions(base)
    prob = run_perfect(
        workload,
        problem_perfect(classification.branch_pcs, classification.load_pcs),
        config,
    )
    allp = run_perfect(workload, ALL_PERFECT, config)
    return PerfectSweepResult(workload, config, base, prob, allp, classification)
