"""Tests for the content-addressed run cache."""

import dataclasses
import pickle

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import RunCache, fingerprint
from repro.harness.parallel import RunRequest, execute_request, run_matrix

REQUEST = RunRequest(workload="gzip", scale=0.05, mode="base")


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


def test_hit_returns_identical_stats(cache):
    """Cached stats equal fresh stats, field for field."""
    fresh = execute_request(REQUEST)
    cache.put(REQUEST, fresh)
    cached = cache.get(REQUEST)
    assert cached is not None
    assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)
    assert cache.hits == 1 and cache.misses == 0


def test_miss_then_hit_counters(cache):
    assert cache.get(REQUEST) is None
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.get(REQUEST) is not None
    assert (cache.hits, cache.misses) == (1, 1)


def test_source_hash_change_invalidates(cache, monkeypatch):
    """Any simulator-source change must turn hits back into misses."""
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.get(REQUEST) is not None
    monkeypatch.setattr(cache_mod, "_source_hash_cache", "0" * 64)
    assert cache.get(REQUEST) is None


def test_different_requests_different_keys():
    slice_request = dataclasses.replace(REQUEST, mode="slice")
    assert fingerprint(REQUEST) != fingerprint(slice_request)
    scaled = dataclasses.replace(REQUEST, scale=0.06)
    assert fingerprint(REQUEST) != fingerprint(scaled)


def test_corrupted_entry_recovers_by_rerunning(cache):
    """A truncated/garbage entry is deleted and treated as a miss."""
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(b"not a pickle")
    assert cache.get(REQUEST) is None
    assert not path.exists()
    # The full matrix path falls back to re-running, not crashing.
    cache.put(REQUEST, stats)
    path.write_bytes(pickle.dumps({"schema": -1, "stats": object()}))
    (result,) = run_matrix([REQUEST], jobs=1, cache=cache)
    assert dataclasses.asdict(result) == dataclasses.asdict(stats)


def test_disabled_cache_never_reads_or_writes(tmp_path):
    cache = RunCache(tmp_path / "cache", enabled=False)
    cache.put(REQUEST, execute_request(REQUEST))
    assert not (tmp_path / "cache").exists()
    assert cache.get(REQUEST) is None


def test_clear_removes_entries(cache):
    cache.put(REQUEST, execute_request(REQUEST))
    assert cache.clear() == 1
    assert cache.get(REQUEST) is None


# ---------------------------------------------------------------------------
# Corruption taxonomy: every flavor of rot is quarantined (moved to
# corrupt/, counted, warned) and falls back to a fresh identical run.
# ---------------------------------------------------------------------------


def _assert_quarantined_and_recovers(cache, path, expected):
    assert cache.get(REQUEST) is None  # corrupt -> miss
    assert cache.corruptions == 1
    assert not path.exists()
    assert (cache.corrupt_dir / path.name).exists()
    # The matrix path falls back to a fresh, bit-identical run and
    # repopulates the cache.
    (result,) = run_matrix([REQUEST], jobs=1, cache=cache)
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)
    assert cache.get(REQUEST) is not None
    assert cache.corruptions == 1  # no new corruption


def test_truncated_entry_is_quarantined(cache, caplog):
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with caplog.at_level("WARNING", logger="repro.harness.cache"):
        _assert_quarantined_and_recovers(cache, path, stats)
    assert any("quarantined" in r.message for r in caplog.records)


def test_bit_flipped_entry_fails_checksum(cache):
    """A single flipped byte in the payload blob trips the checksum."""
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    _assert_quarantined_and_recovers(cache, path, stats)


def test_foreign_schema_entry_is_quarantined(cache):
    stats = execute_request(REQUEST)
    cache.put(REQUEST, stats)
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(
        pickle.dumps({"schema": 99, "sha256": "0" * 64, "blob": b"x"})
    )
    _assert_quarantined_and_recovers(cache, path, stats)


def test_clear_sweeps_quarantine_too(cache):
    cache.put(REQUEST, execute_request(REQUEST))
    path = cache._path(fingerprint(REQUEST))
    path.write_bytes(b"rot")
    assert cache.get(REQUEST) is None
    cache.put(REQUEST, execute_request(REQUEST))
    # One live entry + one quarantined entry.
    assert cache.clear() == 2


# ---------------------------------------------------------------------------
# One root per run cache, one key scheme.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_namespaces_follow_the_cache_root(tmp_path, monkeypatch, jobs):
    """A run cache handed to run_matrix takes its windows and snapshots
    with it: runs, windows and snapshots (prebuild, inline and pool
    workers) all land under its root, never under REPRO_CACHE_DIR."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    cache = RunCache(tmp_path / "a")
    # Two multi-region requests: two independent chains, so jobs=2
    # prebuilds them in pool workers.
    requests = [
        RunRequest(
            workload=name, scale=scale, mode="base", fast_forward=0,
            sample=300, sample_regions=3, sample_period=2_000,
        )
        for name, scale in (("gzip", 0.1), ("mcf", 0.2))
    ]
    run_matrix(requests, jobs=jobs, cache=cache)

    def entries(root, suffix):
        return list(root.rglob(f"*{suffix}")) if root.exists() else []

    a = tmp_path / "a"
    assert len(entries(a, ".pkl")) == 2
    assert len(entries(a, ".snap")) == 4  # depths 2k and 4k per chain
    assert len(entries(a, ".win")) == (6 if jobs > 1 else 0)
    assert not (tmp_path / "b").exists()


def test_disabled_run_cache_still_reuses_snapshots(tmp_path):
    """The siblings share the run cache's root. ``--no-cache`` policy:
    windows follow its enabled flag; warmed snapshots stay enabled."""
    cache = RunCache(tmp_path, enabled=False)
    assert cache.windows.root == tmp_path / "windows"
    assert cache.snapshots.root == tmp_path / "snapshots"
    assert not cache.windows.enabled
    assert cache.snapshots.enabled


def test_key_scheme_is_pinned():
    """The three key functions share one helper; these literal keys
    were computed before it existed, so no stored entry moved."""
    from repro.harness.cache import window_fingerprint
    from repro.harness.fastforward import snapshot_fingerprint
    from repro.uarch.config import FOUR_WIDE

    source = "0" * 64
    fixed = dict(event_driven=True, fused_blocks=True)
    single = RunRequest(
        workload="vpr", scale=0.05, mode="slice", fast_forward=0,
        sample=0, sample_regions=0, sample_period=0, **fixed,
    )
    multi = RunRequest(
        workload="mcf", scale=0.5, mode="base",
        overrides=(("memory_latency", 400),), fast_forward=1_000,
        sample=2_000, sample_regions=4, sample_period=5_000, **fixed,
    )
    assert fingerprint(single, source_hash=source) == (
        "4be4bcbf0b89b8174ac4ea5d749be25f3440d73f478592ce67e0e522cbcbfad4"
    )
    assert fingerprint(multi, source_hash=source) == (
        "7523e51fc1ec3d8e4c7fc7f913b8da7611a54414ae16472f20ef828523bfd101"
    )
    assert window_fingerprint(multi, 6_000, source_hash=source) == (
        "10d4b154f7c3b0706e68e727eba98d37bd5bb340d858cc58b06895f5302b9831"
    )
    assert snapshot_fingerprint(
        "mcf", 0.5, 6_000, FOUR_WIDE, source_hash=source
    ) == "12a3f6134c3cfe54b928a078beb8833a63386cdc623c985ee1fb5a9ad7d617aa"
    assert snapshot_fingerprint(
        "mcf", 0.5, 6_000, FOUR_WIDE, warming=False, source_hash=source
    ) == "dfa4fec833a6340dfde4c9563a961eba85721ef2fefac0c89e25bd2cf4e359fd"
