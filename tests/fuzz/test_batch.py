"""Seed-batch fan-out: pooled execution, dedupe, and fault holes."""

import pytest

from repro.fuzz.batch import _FuzzTask, run_fuzz_batch
from repro.harness.faults import FaultKind, FaultPlan

SCALE = 0.25


def test_batch_dedupes_and_reports_clean():
    report = run_fuzz_batch([0, 1, 1, 0, 2], scale=SCALE, jobs=1)
    assert report.checked == [0, 1, 2]
    assert report.divergences == []
    assert report.skipped == []
    assert report.clean


def test_pooled_batch_matches_inline():
    inline = run_fuzz_batch(range(4), scale=SCALE, jobs=1)
    pooled = run_fuzz_batch(range(4), scale=SCALE, jobs=2)
    assert pooled.checked == inline.checked
    assert pooled.divergences == inline.divergences
    assert pooled.skipped == inline.skipped


@pytest.mark.parametrize(
    "jobs, kind, retries",
    [
        (1, FaultKind.CRASH, 2),
        (2, FaultKind.CRASH, 2),
        (1, FaultKind.FLAKY, 1),
    ],
    ids=["1-crash", "2-crash", "1-flaky"],
)
def test_worker_crash_is_retried_to_completion(jobs, kind, retries):
    """A failed first attempt is retried on the same terms at any
    ``jobs``: at one worker a planned crash raises in this process
    instead of exiting it."""
    plan = FaultPlan.targeting({(_FuzzTask(1, SCALE), 0): kind})
    report = run_fuzz_batch(
        range(3), scale=SCALE, jobs=jobs, retries=retries, fault_plan=plan
    )
    assert report.clean
    assert report.checked == [0, 1, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhausted_retries_become_holes_not_verdicts(jobs):
    """A seed whose check cannot complete is reported as skipped — the
    rest of the batch still gets real verdicts."""
    plan = FaultPlan.targeting(
        {
            (_FuzzTask(1, SCALE), 0): FaultKind.FLAKY,
            (_FuzzTask(1, SCALE), 1): FaultKind.FLAKY,
        }
    )
    report = run_fuzz_batch(
        range(3), scale=SCALE, jobs=jobs, retries=1, fault_plan=plan
    )
    assert not report.clean
    assert report.divergences == []
    (hole,) = report.skipped
    assert hole[0] == 1
    assert "(attempt 1)" in hole[1]  # the retry ran before the skip
    assert report.checked == [0, 1, 2]
