"""ContentStore: one stats/clear/quarantine contract over the run
cache, snapshot store, and fuzz corpus, plus cross-process counter
persistence."""

import hashlib
import json
import pickle

import pytest

from repro.fuzz.diff import Divergence
from repro.fuzz.gen import generate
from repro.harness.cache import fingerprint
from repro.harness.parallel import RunRequest, run_matrix
from repro.service.store import NAMESPACES, ContentStore
from repro.uarch.stats import RunStats

VPR = RunRequest(workload="vpr", scale=0.05)


@pytest.fixture
def divergence():
    return Divergence(
        seed=3,
        scale=0.25,
        tier_a="interp",
        tier_b="event",
        kind="stream",
        detail="synthetic fixture",
    )


def test_namespaces_share_one_root(tmp_path):
    store = ContentStore(tmp_path)
    assert tuple(store.namespaces()) == NAMESPACES
    assert store.runs.root == store.root
    assert store.snapshots.root == store.root / "snapshots"
    assert store.fuzz.root == store.root / "fuzz"
    # One shared quarantine directory across every namespace.
    assert store.snapshots.corrupt_dir == store.runs.corrupt_dir
    assert store.fuzz.corrupt_dir == store.runs.corrupt_dir


def test_stats_counts_entries_and_bytes(tmp_path, divergence):
    store = ContentStore(tmp_path)
    store.runs.put(VPR, RunStats(config_name="4-wide", workload_name="vpr"))
    store.fuzz.put(generate(3, 0.25), divergence)
    stats = store.stats()
    assert stats["runs"]["entries"] == 1
    assert stats["runs"]["bytes"] > 0
    assert stats["fuzz"]["entries"] == 1
    assert stats["snapshots"]["entries"] == 0
    assert stats["snapshots"]["hit_rate"] is None


def _populate(store, divergence):
    """One entry in every namespace; returns ``{namespace: (key,
    lookup)}`` where ``lookup()`` reads that entry back."""
    from repro.harness.fastforward import Snapshot

    snap_key = "cd" * 32
    stats = RunStats(config_name="4-wide", workload_name="vpr")
    store.runs.put(VPR, stats)
    store.snapshots.put(
        snap_key,
        Snapshot(
            workload="gzip", scale=0.05, ff_insts=1, executed=1, pc=0,
            halted=False, regs=[0] * 32, memory_words={}, warming=False,
        ),
    )
    case = store.fuzz.put(generate(3, 0.25), divergence)
    fuzz_key = case.name.removesuffix(".repro.json")
    return {
        "runs": (fingerprint(VPR), lambda: store.runs.get(VPR)),
        "snapshots": (snap_key, lambda: store.snapshots.get(snap_key)),
        "fuzz": (fuzz_key, lambda: store.fuzz.get(fuzz_key)),
    }


def truncated(ns, store, raw):
    return raw[: len(raw) // 2]


def bit_flip(ns, store, raw):
    raw = bytearray(raw)
    raw[len(raw) // 2] ^= 0xFF
    return bytes(raw)


def foreign_schema(ns, store, raw):
    if ns == "fuzz":
        return b'{"schema": 99}'
    return raw.replace(store.magic, b"repro-foreign-9\n", 1)


def wrong_type(ns, store, raw):
    """Checksum-valid (or valid JSON) but not the namespace's type:
    the checksum proves integrity, not provenance."""
    if ns == "fuzz":
        return b"[1, 2, 3]"
    field = "snapshot" if ns == "snapshots" else "stats"
    blob = pickle.dumps({field: {"ipc": 2.0}})
    digest = hashlib.sha256(blob).hexdigest().encode()
    return store.magic + digest + b"\n" + blob


@pytest.mark.parametrize("ns", NAMESPACES)
@pytest.mark.parametrize(
    "rot",
    [truncated, bit_flip, foreign_schema, wrong_type],
    ids=lambda rot: rot.__name__,
)
def test_corrupt_entry_is_quarantined(tmp_path, divergence, ns, rot):
    """Every namespace, every flavor of rot: the lookup is a miss, the
    entry moves to the shared corrupt/, the corruption is counted, and
    clearing the namespace leaves the others alone."""
    store = ContentStore(tmp_path)
    entries = _populate(store, divergence)
    namespace = store.namespaces()[ns]
    key, lookup = entries[ns]
    path = namespace._path(key)
    assert lookup() is not None
    assert namespace._load("0" * 64) is None  # absent: a plain miss
    path.write_bytes(rot(ns, namespace, path.read_bytes()))

    assert lookup() is None
    assert not path.exists()
    assert (tmp_path / "corrupt" / path.name).is_file()
    assert namespace.corruptions == 1
    stats = store.stats()
    assert stats[ns]["quarantined"] == 1
    assert stats[ns]["corruptions"] == 1

    assert store.clear(only=ns) == {ns: 1}  # the quarantined entry
    for other, entry in store.stats().items():
        assert entry["entries"] == (0 if other == ns else 1), other
        assert entry["quarantined"] == 0


def test_clear_reports_per_namespace(tmp_path, divergence):
    store = ContentStore(tmp_path)
    store.runs.put(VPR, RunStats(config_name="4-wide", workload_name="vpr"))
    store.fuzz.put(generate(3, 0.25), divergence)
    removed = store.clear()
    assert removed["runs"] == 1
    assert removed["fuzz"] == 1
    assert removed["snapshots"] == 0
    assert store.stats()["runs"]["entries"] == 0


def test_clear_only_one_namespace(tmp_path, divergence):
    store = ContentStore(tmp_path)
    store.runs.put(VPR, RunStats(config_name="4-wide", workload_name="vpr"))
    store.fuzz.put(generate(3, 0.25), divergence)
    removed = store.clear(only="fuzz")
    assert removed == {"fuzz": 1}
    assert store.stats()["runs"]["entries"] == 1
    with pytest.raises(ValueError):
        store.clear(only="nope")


def test_counters_persist_across_processes(tmp_path):
    store = ContentStore(tmp_path)
    assert store.runs.get(VPR) is None  # miss
    store.runs.put(VPR, RunStats(config_name="4-wide", workload_name="vpr"))
    assert store.runs.get(VPR) is not None  # hit
    store.flush_counters()
    assert store.counters_path.is_file()

    fresh = ContentStore(tmp_path)  # simulates a new process
    stats = fresh.stats()
    assert stats["runs"]["hits"] == 1
    assert stats["runs"]["misses"] == 1
    assert stats["runs"]["hit_rate"] == 0.5


def test_flush_is_delta_based_not_double_counted(tmp_path):
    store = ContentStore(tmp_path)
    store.runs.get(VPR)
    store.flush_counters()
    store.flush_counters()  # no new events: no double count
    assert ContentStore(tmp_path).stats()["runs"]["misses"] == 1
    store.runs.get(VPR)
    store.flush_counters()
    assert ContentStore(tmp_path).stats()["runs"]["misses"] == 2


def test_run_matrix_flushes_store_counters(tmp_path):
    store = ContentStore(tmp_path)
    run_matrix([VPR], jobs=1, cache=store.runs)
    # The miss (and the re-read pattern of the matrix) must have been
    # persisted without an explicit flush call.
    persisted = json.loads(store.counters_path.read_text())
    assert persisted["runs"]["misses"] >= 1


def test_full_clear_drops_persistent_counters_and_queue(tmp_path):
    from repro.service.queue import JobQueue

    store = ContentStore(tmp_path)
    store.runs.get(VPR)
    store.flush_counters()
    queue = JobQueue(tmp_path)
    queue.submit(VPR)
    queue.close()
    removed = store.clear()
    assert removed["queue"] == 1
    assert not store.counters_path.exists()
    assert ContentStore(tmp_path).stats()["runs"]["misses"] == 0


def test_disabled_store_never_touches_disk(tmp_path):
    store = ContentStore(tmp_path, enabled=False)
    store.runs.put(VPR, RunStats(config_name="4-wide", workload_name="vpr"))
    assert store.runs.get(VPR) is None
    assert store.stats()["runs"]["entries"] == 0
