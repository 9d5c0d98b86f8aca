"""The one simulation driver: :func:`simulate` runs a workload in one
of the Section 6 experiment arms.

Each experiment in the paper compares machine setups on the same
workload region:

* **base** — the Table 1 machine;
* **slice** — base plus the slice-execution hardware and the workload's
  hand slices on a 4-context SMT;
* **limit** — the constrained limit study: the PDEs of exactly the
  problem instructions the slices cover are "magically" avoided;
* **perfect** — an arbitrary per-static-instruction perfect overlay
  (Figure 1).

Paper artifacts run these arms as
:class:`~repro.harness.parallel.RunRequest` matrices; the result
records below hold what the drivers in
:mod:`repro.harness.experiments` assemble from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.problem import ProblemClassification
from repro.uarch.config import FOUR_WIDE, MachineConfig
from repro.uarch.core import Core
from repro.uarch.perfect import PerfectSpec, problem_perfect
from repro.uarch.stats import RunStats, paired_speedup_ci95
from repro.workloads.base import Workload
from repro.workloads.registry import WorkloadRef

#: The ``Core`` arguments of each run mode (the Section 6 experiment
#: arms), as ``(workload, slices, perfect, dedicated) -> kwargs``.
_MODE_ARGS = {
    "base": lambda workload, slices, perfect, dedicated: {},
    "slice": lambda workload, slices, perfect, dedicated: {
        "slices": tuple(workload.slices if slices is None else slices),
        "dedicated_slice_resources": dedicated,
    },
    "limit": lambda workload, slices, perfect, dedicated: {
        "perfect": covered_problem_spec(workload)
    },
    "perfect": lambda workload, slices, perfect, dedicated: {
        "perfect": perfect
    },
}

#: Run modes, in the order of the Section 6 experiment arms.
MODES = tuple(_MODE_ARGS)


def simulate(
    workload: Workload,
    mode: str = "base",
    config: MachineConfig = FOUR_WIDE,
    *,
    slices=None,
    perfect: PerfectSpec | None = None,
    dedicated: bool = False,
    event_driven: bool = True,
    snapshot=None,
    warmup: int = 0,
    region: int | None = None,
) -> RunStats:
    """Run *workload* on *config* in one of the :data:`MODES`.

    * ``base`` — the Table 1 machine, no slice hardware;
    * ``slice`` — *slices* (default: the workload's hand slices) loaded,
      on *dedicated* execution resources if asked;
    * ``limit`` — the problem instructions the slices cover perfected
      (:func:`covered_problem_spec`);
    * ``perfect`` — the caller's *perfect* overlay.

    *snapshot*/*warmup*/*region* support sampled runs
    (:mod:`repro.harness.fastforward`): start from a warmed-state
    snapshot, discard the first *warmup* committed instructions, and
    measure *region* instructions instead of the workload's full
    region. The defaults reproduce the full detailed run exactly.
    """
    if mode not in _MODE_ARGS:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    if mode == "perfect" and perfect is None:
        raise ValueError("mode 'perfect' needs a perfect= overlay")
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
        **_MODE_ARGS[mode](workload, slices, perfect, dedicated),
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
    """base / slice / limit results for one workload and config."""

    workload: WorkloadRef
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
        multi-region sampled pair (0.0 for full-detail runs)."""
        return paired_speedup_ci95(self.base, self.assisted)


@dataclass
class PerfectSweepResult:
    """base / problem-perfect / all-perfect results (Figure 1)."""

    workload: WorkloadRef
    config: MachineConfig
    base: RunStats
    problem_perfect: RunStats
    all_perfect: RunStats
    #: The profiled problem set behind ``problem_perfect``.
    classification: ProblemClassification = field(repr=False)
