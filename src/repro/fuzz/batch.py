"""Seed-batch fan-out: run many differential checks in parallel.

Runs on the harness's one attempt loop
(:func:`repro.harness.parallel._execute`) — the same retry / timeout /
broken-pool recovery discipline and fault injection every experiment
matrix gets, on a pool or, at one worker with no timeout, in this
process — with a fuzz-specific entry point. A worker receives only
``(seed, scale)``; it regenerates the workload locally (generation is
deterministic, and compiled programs are unpicklable anyway) and
returns the picklable :class:`~repro.fuzz.diff.Divergence` or ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzz.diff import Divergence, check_seed
from repro.harness.parallel import _execute


@dataclass(frozen=True)
class _FuzzTask:
    """One seed check: hashable + picklable executor item.

    ``workload`` / ``mode`` satisfy the attempt loop's logging
    contract (what :class:`RunRequest` provides for matrix runs).
    """

    seed: int
    scale: float

    @property
    def workload(self) -> str:
        from repro.fuzz.gen import seed_name

        return seed_name(self.seed)

    @property
    def mode(self) -> str:
        return "fuzz"


def _fuzz_entry(task: _FuzzTask) -> Divergence | None:
    """The batch's executor entry: check one seed."""
    return check_seed(task.seed, task.scale)


@dataclass
class FuzzReport:
    """Outcome of one seed batch."""

    scale: float
    checked: list[int]
    divergences: list[Divergence]
    #: ``(seed, error)`` for checks that failed to complete (crash /
    #: timeout after retries) — holes, not verdicts.
    skipped: list[tuple[int, str]]

    @property
    def clean(self) -> bool:
        return not self.divergences and not self.skipped


def run_fuzz_batch(
    seeds,
    scale: float = 1.0,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    fault_plan=None,
) -> FuzzReport:
    """Differentially check every seed in *seeds*.

    Divergences are findings, not failures: a seed whose check
    *completes* with a divergence resolves normally and is reported in
    ``FuzzReport.divergences``. Only checks that cannot complete
    (crash, timeout or error after retries, at any ``jobs``) land in
    ``skipped`` —
    matching the matrix harness's ``on_error="skip"`` discipline, so
    one wedged seed never discards the rest of the batch.
    """
    tasks = [_FuzzTask(seed, scale) for seed in dict.fromkeys(seeds)]
    outcomes = _execute(
        tasks,
        _fuzz_entry,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        on_error="skip",
        fault_plan=fault_plan,
    )
    divergences: list[Divergence] = []
    skipped: list[tuple[int, str]] = []
    for task in tasks:
        outcome = outcomes[task]
        if outcome.status == "skipped":
            skipped.append((task.seed, outcome.error))
        elif outcome.stats is not None:
            divergences.append(outcome.stats)
    return FuzzReport(
        scale=scale,
        checked=[t.seed for t in tasks],
        divergences=divergences,
        skipped=skipped,
    )
