"""Chaos tests: the run matrix under deterministic fault injection.

A seeded :class:`FaultPlan` crashes workers, hangs requests, injects
transient failures, and corrupts cache entries at fixed points; the
harness must converge to the same bit-identical ``RunStats`` it
produces fault-free, with every attempt accounted for in the
``MatrixReport``.
"""

import dataclasses
import pickle

import pytest

from repro.errors import SimulationError
from repro.harness import parallel
from repro.harness.cache import RunCache
from repro.harness.faults import FaultKind, FaultPlan, request_key
from repro.harness.parallel import (
    RunRequest,
    execute_request,
    run_matrix,
    skipped_outcomes,
    reset_skipped_log,
)

VPR_BASE = RunRequest(workload="vpr", scale=0.05, mode="base")
VPR_SLICE = RunRequest(workload="vpr", scale=0.05, mode="slice")
GZIP_BASE = RunRequest(workload="gzip", scale=0.05, mode="base")
MATRIX = [VPR_BASE, VPR_SLICE, GZIP_BASE]


def same_stats(a, b):
    return dataclasses.asdict(a) == dataclasses.asdict(b)


# ---------------------------------------------------------------------------
# FaultPlan mechanics.
# ---------------------------------------------------------------------------


def test_plan_is_deterministic_and_picklable():
    plan = FaultPlan(seed=7, crash_rate=0.5, flaky_rate=0.3)
    decisions = [
        plan.fault_for(req, attempt)
        for req in MATRIX
        for attempt in range(4)
    ]
    clone = pickle.loads(pickle.dumps(plan))
    assert decisions == [
        clone.fault_for(req, attempt)
        for req in MATRIX
        for attempt in range(4)
    ]
    # Same seed, fresh instance: same decisions. Different seed: not all.
    assert decisions == [
        FaultPlan(seed=7, crash_rate=0.5, flaky_rate=0.3).fault_for(r, a)
        for r in MATRIX
        for a in range(4)
    ]
    other = [
        FaultPlan(seed=8, crash_rate=0.5, flaky_rate=0.3).fault_for(r, a)
        for r in MATRIX
        for a in range(4)
    ]
    assert decisions != other


def test_request_key_ignores_nothing_and_is_stable():
    assert request_key(VPR_BASE) == request_key(
        RunRequest(workload="vpr", scale=0.05, mode="base")
    )
    assert request_key(VPR_BASE) != request_key(VPR_SLICE)


def test_targeting_builds_exact_plan():
    plan = FaultPlan.targeting(
        {(VPR_BASE, 0): FaultKind.CRASH, (GZIP_BASE, 1): FaultKind.FLAKY},
        corrupt={VPR_SLICE},
    )
    assert plan.fault_for(VPR_BASE, 0) is FaultKind.CRASH
    assert plan.fault_for(VPR_BASE, 1) is None
    assert plan.fault_for(GZIP_BASE, 1) is FaultKind.FLAKY
    assert plan.corrupt_keys == {request_key(VPR_SLICE)}
    assert plan.active


# ---------------------------------------------------------------------------
# Individual fault kinds through run_matrix.
# ---------------------------------------------------------------------------


def test_worker_crash_is_retried_to_bit_identical_stats(monkeypatch):
    """A worker killed mid-request (os._exit) is respawned and the
    request retried; final stats match a fault-free sequential run."""
    plan = FaultPlan.targeting({(VPR_BASE, 0): FaultKind.CRASH})
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)
    report = run_matrix(
        MATRIX,
        jobs=2,
        cache=RunCache(enabled=False),
        retries=2,
        fault_plan=plan,
        return_report=True,
    )
    assert report.completed == len(MATRIX)
    assert report.skipped == 0
    assert report.pool_respawns >= 1
    by_request = {o.request: o for o in report.outcomes}
    assert by_request[VPR_BASE].attempts >= 2
    for request, outcome in by_request.items():
        assert same_stats(outcome.stats, execute_request(request))


def test_transient_failure_inline_retry(monkeypatch):
    """jobs=1 runs in-process; a transient SimulationError on the first
    attempt is retried with backoff and succeeds."""
    plan = FaultPlan.targeting({(GZIP_BASE, 0): FaultKind.FLAKY})
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.0)
    report = run_matrix(
        [GZIP_BASE],
        jobs=1,
        cache=RunCache(enabled=False),
        retries=1,
        fault_plan=plan,
        return_report=True,
    )
    (outcome,) = report.outcomes
    assert outcome.ok and outcome.attempts == 2
    assert report.retries == 1
    assert same_stats(outcome.stats, execute_request(GZIP_BASE))


def test_hang_is_timed_out_and_retried(monkeypatch):
    """A hung worker is terminated at the timeout and the request
    retried on a fresh pool."""
    plan = FaultPlan.targeting(
        {(VPR_BASE, 0): FaultKind.HANG}, hang_seconds=60.0
    )
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)
    report = run_matrix(
        [VPR_BASE, GZIP_BASE],
        jobs=2,
        cache=RunCache(enabled=False),
        timeout=10.0,
        retries=1,
        fault_plan=plan,
        return_report=True,
    )
    assert report.completed == 2
    by_request = {o.request: o for o in report.outcomes}
    assert by_request[VPR_BASE].attempts == 2
    assert same_stats(by_request[VPR_BASE].stats, execute_request(VPR_BASE))


def test_exhausted_retries_raise_by_default(monkeypatch):
    plan = FaultPlan.targeting(
        {(GZIP_BASE, 0): FaultKind.FLAKY, (GZIP_BASE, 1): FaultKind.FLAKY}
    )
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.0)
    with pytest.raises(SimulationError):
        run_matrix(
            [GZIP_BASE],
            jobs=1,
            cache=RunCache(enabled=False),
            retries=1,
            fault_plan=plan,
        )


def test_on_error_skip_records_hole_and_finishes_matrix(monkeypatch):
    reset_skipped_log()
    plan = FaultPlan.targeting(
        {(VPR_BASE, 0): FaultKind.CRASH, (VPR_BASE, 1): FaultKind.CRASH}
    )
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.0)
    results = run_matrix(
        [VPR_BASE, GZIP_BASE],
        jobs=1,
        cache=RunCache(enabled=False),
        retries=1,
        on_error="skip",
        fault_plan=plan,
    )
    # List mode: the hole gets a placeholder (zero-commit) RunStats so
    # downstream renderers survive; the real result is untouched.
    assert len(results) == 2
    assert results[0].committed == 0
    assert same_stats(results[1], execute_request(GZIP_BASE))
    (skipped,) = skipped_outcomes()
    assert skipped.request == VPR_BASE
    assert skipped.attempts == 2
    assert "crash" in skipped.error
    reset_skipped_log()


def test_cache_corruption_quarantined_and_rerun(tmp_path):
    cache = RunCache(tmp_path / "cache")
    warm = run_matrix([VPR_BASE], jobs=1, cache=cache)
    plan = FaultPlan.targeting({}, corrupt={VPR_BASE})
    (result,) = run_matrix([VPR_BASE], jobs=1, cache=cache, fault_plan=plan)
    assert cache.corruptions == 1
    assert list((tmp_path / "cache" / "corrupt").iterdir())
    assert same_stats(result, warm[0])
    # The fresh rerun repopulated the cache: next get is a clean hit.
    assert cache.get(VPR_BASE) is not None


def test_queued_requests_get_their_full_timeout():
    """A deadline starts when a worker can start the request, not when
    it was queued: six requests that each hang ~1 s under a 2.5 s
    timeout on 2 workers all finish on their first attempt (the last
    two used to time out waiting behind the first four)."""
    requests = [
        RunRequest(workload=name, scale=0.02)
        for name in ("gzip", "mcf", "bzip2", "twolf", "gap", "parser")
    ]
    plan = FaultPlan(hang_rate=1.0, hang_seconds=1.0)
    report = run_matrix(
        requests,
        jobs=2,
        cache=RunCache(enabled=False),
        timeout=2.5,
        on_error="skip",
        fault_plan=plan,
        return_report=True,
    )
    assert [o.status for o in report.outcomes] == ["ok"] * len(requests)
    assert [o.attempts for o in report.outcomes] == [1] * len(requests)
    assert report.pool_respawns == 0


# ---------------------------------------------------------------------------
# Snapshot-chain prebuild under faults.
# ---------------------------------------------------------------------------


def _digests(store):
    from repro.harness.fastforward import snapshot_digest

    return {
        path.stem: snapshot_digest(store.get(path.stem))
        for path in store.entry_paths()
    }


def test_prebuild_crash_and_hang_converge_to_serial_digests(tmp_path):
    """ISSUE acceptance: a worker crash and a hang injected into the
    parallel chain prebuild must still converge — same store keys,
    same provenance-masked member digests as a serial fresh-store
    build. (A killed attempt leaves a chain prefix behind; the retry
    resumes from the deepest stored member, so partial progress must
    compose into identical bytes.)"""
    from repro.harness.fastforward import SnapshotStore, prebuild_snapshots

    sampled = [
        dataclasses.replace(
            request, fast_forward=2000, sample=300, sample_regions=3
        )
        for request in (VPR_BASE, GZIP_BASE)
    ]
    serial_store = SnapshotStore(tmp_path / "serial")
    prebuild_snapshots(sampled, store=serial_store, jobs=1)
    serial = _digests(serial_store)
    assert serial, "serial prebuild stored no chain members"

    plan = FaultPlan.targeting(
        {
            (sampled[0], 0): FaultKind.CRASH,
            (sampled[1], 0): FaultKind.HANG,
        },
        hang_seconds=60.0,
    )
    chaos_store = SnapshotStore(tmp_path / "chaos")
    prebuild_snapshots(
        sampled,
        store=chaos_store,
        jobs=2,
        timeout=10.0,
        retries=2,
        fault_plan=plan,
    )
    assert _digests(chaos_store) == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_prebuild_exhausted_faults_skip_not_raise(tmp_path, jobs):
    """Prebuilding is an optimization: a chain whose every attempt
    fails is skipped (the run that needs it builds inline), and the
    other chain still lands in full, at any ``jobs``. (Transient
    in-worker failures, not crashes: a crashed worker breaks the pool
    and legitimately charges the innocent in-flight sibling an
    attempt.)"""
    from repro.harness.fastforward import SnapshotStore, prebuild_snapshots

    sampled = [
        dataclasses.replace(
            request, fast_forward=2000, sample=300, sample_regions=3
        )
        for request in (VPR_BASE, GZIP_BASE)
    ]
    serial_store = SnapshotStore(tmp_path / "serial")
    prebuild_snapshots([sampled[1]], store=serial_store, jobs=1)

    plan = FaultPlan.targeting(
        {(sampled[0], attempt): FaultKind.FLAKY for attempt in range(3)}
    )
    chaos_store = SnapshotStore(tmp_path / "chaos")
    prebuild_snapshots(
        sampled, store=chaos_store, jobs=jobs, retries=2, fault_plan=plan
    )
    assert _digests(chaos_store) == _digests(serial_store)


# ---------------------------------------------------------------------------
# The acceptance scenario: everything at once.
# ---------------------------------------------------------------------------


def test_combined_crash_timeout_and_corruption_converge(tmp_path, monkeypatch):
    """ISSUE acceptance: a matrix with an injected worker crash, an
    injected hang (timed out), and a corrupted cache entry completes
    with bit-identical RunStats for every request, and the report
    accounts for every attempt."""
    cache = RunCache(tmp_path / "cache")
    # Warm exactly one entry so the corruption has something to eat.
    run_matrix([GZIP_BASE], jobs=1, cache=cache)
    expected = {r: execute_request(r) for r in MATRIX}

    # The hang targets attempts 0 AND 1: a pool break can charge an
    # innocent sibling's first attempt, and the hang must still fire.
    plan = FaultPlan.targeting(
        {
            (VPR_BASE, 0): FaultKind.CRASH,
            (VPR_SLICE, 0): FaultKind.HANG,
            (VPR_SLICE, 1): FaultKind.HANG,
        },
        corrupt={GZIP_BASE},
        hang_seconds=60.0,
    )
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)
    report = run_matrix(
        MATRIX,
        jobs=2,
        cache=cache,
        timeout=10.0,
        retries=2,
        on_error="raise",
        fault_plan=plan,
        return_report=True,
    )
    assert report.completed == len(MATRIX)
    assert report.skipped == 0
    assert cache.corruptions == 1
    by_request = {o.request: o for o in report.outcomes}
    for request in MATRIX:
        outcome = by_request[request]
        assert outcome.ok
        assert same_stats(outcome.stats, expected[request])
    # Attempt accounting: the crash and the hang each charged at least
    # one extra attempt; nothing ran more than 1 + retries times.
    assert by_request[VPR_BASE].attempts >= 2
    assert by_request[VPR_SLICE].attempts >= 2
    for outcome in report.outcomes:
        assert 1 <= outcome.attempts <= 3
    assert sum(o.attempts for o in report.outcomes) >= len(MATRIX) + 2
    assert report.pool_respawns >= 1
    # The corrupted entry was quarantined, rerun, and rewritten.
    assert cache.get(GZIP_BASE) is not None
