"""Experiment harness: runners, experiment drivers, and text reports."""

from repro.harness.cache import RunCache
from repro.harness.faults import FaultKind, FaultPlan
from repro.harness.parallel import (
    MatrixReport,
    RequestOutcome,
    RunRequest,
    execute_request,
    run_matrix,
)
from repro.harness.runner import (
    PerfectSweepResult,
    TripleResult,
    covered_problem_spec,
    simulate,
)

__all__ = [
    "FaultKind",
    "FaultPlan",
    "MatrixReport",
    "PerfectSweepResult",
    "RequestOutcome",
    "RunCache",
    "RunRequest",
    "TripleResult",
    "covered_problem_spec",
    "execute_request",
    "run_matrix",
    "simulate",
]
