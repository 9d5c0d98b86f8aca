"""Differential tests for window-decomposed sampled execution.

The invariant: splitting a multi-region request into its window
requests in ``run_matrix``, at any worker count, must be
*bit-identical* to :func:`execute_request`'s streaming walk over the
whole request (the oracle) — every stat, every workload, both slice
arms, halt-drop included — while a re-sweep with an overlapping window
schedule answers the shared windows from the run cache, where each
window is stored under its own request fingerprint, instead of
re-measuring them. Fault injection rides the same
attempt loop, so a worker crash mid-window consumes retry budget and
still converges to the undisturbed aggregate.
"""

import dataclasses

import pytest

from repro.harness.cache import RunCache, fingerprint
from repro.harness.fastforward import prebuild_snapshots
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
    """Point every store (run cache + snapshots) at a temp
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
    matrix at 1 and at 2 workers: the reassembled aggregates equal the
    walk field-for-field (``dataclasses.asdict``, nothing masked)."""
    matrix = [
        sampled(name, mode)
        for name in sorted(registry.WORKLOAD_BUILDERS)
        for mode in ("base", "slice")
    ]
    results = {
        jobs: run_matrix(matrix, jobs=jobs, cache=RunCache(enabled=False))
        for jobs in (1, 2)
    }
    # The walk runs after the matrices, so it restores the chains their
    # prebuild stored, as their windows did.
    for index, request in enumerate(matrix):
        want = execute_request(request)
        for jobs, got in results.items():
            assert same_stats(want, got[index]), (
                request.workload, request.mode, jobs,
            )
        assert want.sample_regions >= 1


def test_window_parallel_halt_drop_matches_serial(cache_env):
    """A chain that halts mid-schedule drops the tail windows at
    assembly exactly as the walk never runs them (mcf@0.2 halts at
    ~11.1k dynamic instructions; the depth-15k window overshoots)."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=500,
        sample_regions=4, sample_period=5_000,
    )
    outcomes = [
        run_matrix(
            [request], jobs=jobs, cache=RunCache(enabled=False),
            return_report=True,
        ).outcomes[0]
        for jobs in (1, 2)
    ]
    serial = execute_request(request)
    assert serial.sample_regions == 3  # the depth-15k window was dropped
    for outcome in outcomes:
        assert same_stats(serial, outcome.stats)
        # The matrix still *scheduled* (and measured) all four windows
        # — the drop is an assembly decision, not a scheduling one.
        assert outcome.windows == 4


def test_failed_window_past_the_halt_is_never_needed(cache_env, monkeypatch):
    """mcf@0.2 halts at ~11.1k instructions, so of depths 0/5k/10k/15k/
    20k the 15k window is the short one and the 20k window is never
    looked up: failing it on every attempt leaves the parent ``ok`` and
    equal to the walk, at 1 and at 2 workers, charged only the four
    windows the fold read."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=500,
        sample_regions=5, sample_period=5_000,
    )
    windows = window_schedule(request)
    assert windows[4].fast_forward == 20_000
    plan = FaultPlan.targeting({
        (windows[4], 0): FaultKind.FLAKY,
        (windows[4], 1): FaultKind.FLAKY,
    })
    monkeypatch.setattr("repro.harness.parallel.BACKOFF_BASE", 0.01)
    outcomes = [
        run_matrix(
            [request],
            jobs=jobs,
            cache=RunCache(enabled=False),
            retries=1,
            on_error="skip",
            fault_plan=plan,
            return_report=True,
        ).outcomes[0]
        for jobs in (1, 2)
    ]
    serial = execute_request(request)
    assert serial.sample_regions == 3
    for outcome in outcomes:
        assert outcome.status == "ok"
        assert outcome.attempts == 4
        assert same_stats(serial, outcome.stats)


# ----------------------------------------------------------------------
# Per-window cache reuse: the 8 -> 10 region re-sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_resweep_answers_shared_windows_from_cache(cache_env, jobs):
    """Re-running a sweep with 10 regions after an 8-region run
    recomputes only the 2 new windows: the parent fingerprints differ
    (so the parent misses) but the 8 shared windows are run-cache
    hits. Both runs reassemble the walk's aggregate,
    at 1 worker (in this process), 2 and 8 (every window in flight at
    once): the worker count changes only speed."""
    eight = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=8, sample_period=1_000,
    )
    ten = dataclasses.replace(eight, sample_regions=10)
    # Prebuilt, so the walk restores every member as the matrix does.
    prebuild_snapshots([eight, ten], jobs=1)
    oracles = [execute_request(request) for request in (eight, ten)]
    cache = RunCache(cache_env / "sweep")
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


def test_window_shared_with_a_plain_request_runs_once(cache_env, monkeypatch):
    """A matrix holding a multi-region request and one of its own
    windows as a plain request measures that window once, in this
    process too: it is one ``RunRequest`` in the attempt loop, and its
    result is one run-cache entry, the one both share."""
    from repro.uarch.core import Core

    request = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=3, sample_period=1_000,
    )
    windows = window_schedule(request)
    shared = windows[1]
    runs = []
    real_run = Core.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Core, "run", counting_run)
    cache = RunCache(cache_env)
    report = run_matrix(
        [request, shared], jobs=1, cache=cache, return_report=True
    )
    assert len(runs) == len(windows)
    parent, plain = report.outcomes
    assert parent.status == plain.status == "ok"
    assert parent.windows == len(windows)
    assert same_stats(cache.get(shared), plain.stats)
    monkeypatch.setattr(Core, "run", real_run)
    assert same_stats(execute_request(request), parent.stats)


def test_window_fingerprint_ignores_schedule_shape():
    """Window keys must be shared across schedules: the same depth in
    an 8-region and a 10-region request is the same cache entry, while
    depth / measured-window changes produce distinct keys."""
    def key(request, depth):
        return fingerprint(window_request(request, depth))

    eight = sampled("mcf", "base", sample_regions=8)
    ten = dataclasses.replace(eight, sample_regions=10)
    shifted = dataclasses.replace(eight, fast_forward=1_500)
    assert key(eight, 3_000) == key(ten, 3_000) == key(shifted, 3_000)
    assert key(eight, 3_000) != key(eight, 4_500)
    longer = dataclasses.replace(eight, sample=400)
    assert key(eight, 3_000) != key(longer, 3_000)


def test_window_request_is_single_window_oracle(cache_env):
    """Executing a derived window request is bit-identical to the
    walk's iteration at that depth (same snapshot key, same
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


def test_window_crash_consumes_retry_and_converges(cache_env, monkeypatch):
    """A worker killed while measuring one window (os._exit mid-pool)
    consumes retry budget and the matrix still converges to the
    undisturbed walk's aggregate, attempts accounted."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=3, sample_period=1_000,
    )
    windows = window_schedule(request)
    plan = FaultPlan.targeting({(windows[1], 0): FaultKind.CRASH})
    monkeypatch.setattr("repro.harness.parallel.BACKOFF_BASE", 0.01)
    report = run_matrix(
        [request],
        jobs=2,
        cache=RunCache(enabled=False),
        retries=1,
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
    assert outcome.attempts >= len(windows) + 1
    assert same_stats(execute_request(request), outcome.stats)


def test_window_crash_exhausting_retries_skips_parent(cache_env, monkeypatch):
    """A window that crashes on every attempt fails its parent request
    under on_error='skip' — the hole is visible, never silent."""
    request = sampled(
        "mcf", "base", scale=0.2, sample=300,
        sample_regions=3, sample_period=1_000,
    )
    windows = window_schedule(request)
    plan = FaultPlan.targeting({
        (windows[2], 0): FaultKind.CRASH,
        (windows[2], 1): FaultKind.CRASH,
    })
    monkeypatch.setattr("repro.harness.parallel.BACKOFF_BASE", 0.01)
    report = run_matrix(
        [request],
        jobs=2,
        cache=RunCache(enabled=False),
        retries=1,
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
    # The parent and its 3 windows are 4 run-cache entries.
    assert len(list(cache.entry_paths())) == 4
    assert cli.main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "4 cached run(s)" in out
    assert "window" not in out
    assert len(list(RunCache(cache_env).entry_paths())) == 0
