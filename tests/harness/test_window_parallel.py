"""Differential tests for window-parallel sampled execution.

The tentpole invariant: exploding a multi-region request into
per-window pool units (``jobs > 1``) must be *bit-identical* to
the serial in-request loop (``jobs=1``, the oracle) — every
stat, every workload, both slice arms, halt-drop included — while a
re-sweep with an overlapping window schedule answers the shared
windows from the ``windows`` cache namespace instead of re-measuring
them. Fault injection rides the same pool path, so a worker crash
mid-window consumes retry budget and still converges to the
undisturbed aggregate.
"""

import dataclasses

import pytest

from repro.harness.cache import RunCache, WindowCache, window_fingerprint
from repro.harness.faults import FaultKind, FaultPlan
from repro.harness.parallel import (
    RunRequest,
    assemble_windows,
    execute_request,
    run_matrix,
    window_request,
    window_schedule,
)
from repro.workloads import registry


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Point every store (run cache + windows + snapshots) at a temp
    root so the snapshot chains are shared between the serial and
    parallel arms (the comparison is about execution, not warming)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def same_stats(a, b):
    return dataclasses.asdict(a) == dataclasses.asdict(b)


def sampled(workload, mode, **kw):
    kw.setdefault("scale", 0.05)
    kw.setdefault("sample", 200)
    kw.setdefault("sample_regions", 3)
    kw.setdefault("sample_period", 1_500)
    return RunRequest(workload=workload, mode=mode, **kw)


# ----------------------------------------------------------------------
# The 12-workload x slices on/off differential
# ----------------------------------------------------------------------


def test_window_parallel_bit_identical_all_workloads(cache_env):
    """Every registered workload, slices off and on, through one
    matrix: the window-parallel aggregates equal the ``jobs=1``
    oracle field-for-field (``dataclasses.asdict``, nothing masked)."""
    matrix = [
        sampled(name, mode)
        for name in sorted(registry.WORKLOAD_BUILDERS)
        for mode in ("base", "slice")
    ]
    serial = run_matrix(matrix, jobs=1, cache=RunCache(enabled=False))
    parallel = run_matrix(matrix, jobs=2, cache=RunCache(enabled=False))
    for request, want, got in zip(matrix, serial, parallel):
        assert same_stats(want, got), (request.workload, request.mode)
        assert got.sample_regions >= 1


def test_window_parallel_halt_drop_matches_serial(cache_env):
    """A chain that halts mid-schedule drops the tail windows at
    assembly exactly as the serial loop never runs them (mcf@0.2 halts
    at ~11.1k dynamic instructions; the depth-15k window overshoots)."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=500,
        sample_regions=4, sample_period=5_000,
    )
    serial = run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
    report = run_matrix(
        [request], jobs=2, cache=RunCache(enabled=False), return_report=True
    )
    outcome = report.outcomes[0]
    assert same_stats(serial, outcome.stats)
    assert serial.sample_regions == 3  # the depth-15k window was dropped
    # The parallel explosion still *scheduled* (and measured) all four
    # windows — the drop is an assembly decision, not a scheduling one.
    assert outcome.windows == 4


def test_failed_window_past_the_halt_is_never_needed(cache_env):
    """mcf@0.2 halts at ~11.1k instructions, so of depths 0/5k/10k/15k/
    20k the 15k window is the short one and the 20k window is never
    looked up: failing it on every attempt leaves the parent ``ok`` and
    equal to the serial oracle, charged only the four windows the fold
    read."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=500,
        sample_regions=5, sample_period=5_000,
    )
    units = window_schedule(request)
    assert units[4].depth == 20_000
    plan = FaultPlan.targeting({
        (units[4], 0): FaultKind.FLAKY,
        (units[4], 1): FaultKind.FLAKY,
    })
    report = run_matrix(
        [request],
        jobs=2,
        cache=RunCache(enabled=False),
        retries=1,
        backoff_base=0.01,
        on_error="skip",
        fault_plan=plan,
        return_report=True,
    )
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.attempts == 4
    serial = run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
    assert same_stats(serial, outcome.stats)
    assert serial.sample_regions == 3


# ----------------------------------------------------------------------
# Per-window cache reuse: the 8 -> 10 region re-sweep
# ----------------------------------------------------------------------


def test_resweep_answers_shared_windows_from_cache(cache_env):
    """Re-running a sweep with 10 regions after an 8-region run
    recomputes only the 2 new windows: the parent fingerprints differ
    (so the run cache misses) but the 8 shared windows hit the
    ``windows`` namespace. Both runs reassemble the serial oracle's
    aggregate, at 2 workers and at 8 (every window in flight at
    once)."""
    eight = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=8, sample_period=1_000,
    )
    ten = dataclasses.replace(eight, sample_regions=10)
    oracles = [
        run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
        for request in (eight, ten)
    ]
    for jobs in (2, 8):
        cache = RunCache(cache_env / f"jobs{jobs}")
        first = run_matrix([eight], jobs=jobs, cache=cache, return_report=True)
        assert first.outcomes[0].windows == 8
        assert first.window_hits == 0
        assert same_stats(oracles[0], first.outcomes[0].stats)

        second = run_matrix([ten], jobs=jobs, cache=cache, return_report=True)
        outcome = second.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.windows == 10
        assert outcome.window_hits == 8  # only the 2 new depths measured
        assert same_stats(oracles[1], outcome.stats)

        # An exact re-run is a parent-level run-cache hit: no windows.
        third = run_matrix([ten], jobs=jobs, cache=cache, return_report=True)
        assert third.outcomes[0].status == "cached"
        assert third.windows == 0


def test_window_fingerprint_ignores_schedule_shape():
    """Window keys must be shared across schedules: the same depth in
    an 8-region and a 10-region request is the same cache entry, while
    depth / measured-window changes produce distinct keys."""
    eight = sampled("mcf", "base", sample_regions=8)
    ten = dataclasses.replace(eight, sample_regions=10)
    assert window_fingerprint(eight, 3_000) == window_fingerprint(ten, 3_000)
    assert window_fingerprint(eight, 3_000) != window_fingerprint(eight, 4_500)
    longer = dataclasses.replace(eight, sample=400)
    assert window_fingerprint(eight, 3_000) != window_fingerprint(longer, 3_000)


def test_window_request_is_single_window_oracle(cache_env):
    """Executing a derived window request is bit-identical to the
    serial loop's iteration at that depth (same snapshot key, same
    warmup/region pair)."""
    request = sampled("gzip", "base", scale=0.1, sample_period=2_000)
    execute_request(request)  # build the chain once: both arms warm
    depths = request.schedule().depths
    assembled = assemble_windows(
        depths, lambda d: execute_request(window_request(request, d))
    )
    serial = execute_request(request)
    assert same_stats(assembled, serial)


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------


def test_window_jobs_is_not_part_of_the_fingerprint():
    """Window-level parallelism follows ``jobs``: execution strategy,
    not experiment identity, so no RunRequest field (and therefore no
    fingerprint) carries it."""
    assert "window_jobs" not in {
        f.name for f in dataclasses.fields(RunRequest)
    }


# ----------------------------------------------------------------------
# Chaos: a worker crash mid-window
# ----------------------------------------------------------------------


def test_window_crash_consumes_retry_and_converges(cache_env):
    """A worker killed while measuring one window (os._exit mid-pool)
    consumes retry budget and the matrix still converges to the
    undisturbed serial aggregate, attempts accounted."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=3, sample_period=1_000,
    )
    units = window_schedule(request)
    plan = FaultPlan.targeting({(units[1], 0): FaultKind.CRASH})
    report = run_matrix(
        [request],
        jobs=2,
        cache=RunCache(enabled=False),
        retries=1,
        backoff_base=0.01,
        fault_plan=plan,
        return_report=True,
    )
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert report.pool_respawns >= 1
    assert report.retries >= 1
    # The crashed window was charged its retry on top of each window's
    # first attempt (crash attribution may charge in-flight siblings
    # too, so this is a floor, not an equality).
    assert outcome.attempts >= len(units) + 1
    undisturbed = run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
    assert same_stats(undisturbed, outcome.stats)


def test_window_crash_exhausting_retries_skips_parent(cache_env):
    """A window that crashes on every attempt fails its parent request
    under on_error='skip' — the hole is visible, never silent."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=3, sample_period=1_000,
    )
    units = window_schedule(request)
    plan = FaultPlan.targeting({
        (units[2], 0): FaultKind.CRASH,
        (units[2], 1): FaultKind.CRASH,
    })
    report = run_matrix(
        [request],
        jobs=2,
        cache=RunCache(enabled=False),
        retries=1,
        backoff_base=0.01,
        on_error="skip",
        fault_plan=plan,
        return_report=True,
    )
    outcome = report.outcomes[0]
    assert outcome.status == "skipped"
    assert outcome.stats is None
    assert outcome.error


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cache_clear_covers_windows(cache_env, capsys):
    from repro.harness import cli

    cache = RunCache(cache_env)
    request = sampled("gzip", "base", scale=0.1, sample_period=2_000)
    run_matrix([request], jobs=2, cache=cache)
    windows = WindowCache(cache_env)
    assert len(list(windows.entry_paths())) == 3
    assert cli.main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "3 window result(s)" in out
    assert len(list(WindowCache(cache_env).entry_paths())) == 0
