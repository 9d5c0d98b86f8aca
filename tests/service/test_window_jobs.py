"""Service-side window decomposition: ``repro serve`` turns a
multi-region sweep into per-window ``kind="window"`` jobs, workers
publish each window into the ``windows`` store namespace, and the poll
path reassembles the whole-run aggregate — so a half-warm re-sweep
(8 -> 10 regions, say) enqueues only the missing windows and a fully
warm one is answered with zero simulation.

These drive :meth:`ExperimentServer._route` directly (no HTTP): the
routing layer is exercised end-to-end by ``tests/service/test_service.py``
and the CI service-smoke job.
"""

import dataclasses
import json

import pytest

from repro.harness.cache import RunCache, fingerprint, window_fingerprint
from repro.harness.parallel import (
    RunRequest,
    execute_request,
    run_matrix,
    window_request,
)
from repro.service.codec import decode_stats, encode_request
from repro.service.queue import JobQueue
from repro.service.server import ExperimentServer
from repro.service.store import ContentStore
from repro.service.worker import Worker

#: gzip@0.1 runs ~17.6k dynamic instructions; depths up to 8k all fit.
SWEEP = RunRequest(
    workload="gzip", scale=0.1, mode="base",
    sample=300, sample_regions=3, sample_period=2_000,
)


@pytest.fixture
def server(tmp_path, monkeypatch):
    """A routed-but-unbound server over a temp store + queue. The env
    root is the store's root, so the direct ``execute_request`` oracle
    restores the same snapshots the workers built (``snapshot_hits``
    match)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "server"))
    store = ContentStore(tmp_path / "server")
    queue = JobQueue(store.root)
    server = ExperimentServer(store=store, queue=queue, port=0)
    yield server
    queue.close()


def submit(server, requests):
    body = json.dumps(
        {"requests": [encode_request(r) for r in requests]}
    ).encode()
    status, payload = server._route("POST", "/api/sweep", body)
    assert status == 200
    return payload


def poll(server, sid):
    status, payload = server._route("GET", f"/api/sweep/{sid}", b"")
    assert status == 200
    return payload


def drain(server, jobs=None):
    worker = Worker(store=server.store, queue=server.queue, lease=10.0)
    resolved = worker.run(drain=True)
    if jobs is not None:
        assert resolved == jobs
    return worker


def test_sweep_decomposes_into_window_jobs(server):
    first = submit(server, [SWEEP])
    assert first["enqueued"] == 3  # one job per window, not one per run
    assert server.counters["window_jobs"] == 3
    key = fingerprint(SWEEP)
    assert first["pending"] == [key]
    for depth in SWEEP.schedule().depths:
        job = server.queue.job(window_fingerprint(SWEEP, depth))
        assert job is not None and job.kind == "window"

    drain(server, jobs=3)
    polled = poll(server, first["sweep"])
    assert polled["pending"] == []
    got = decode_stats(polled["results"][key])
    # Bit-identical to the in-process walk, every field.
    want = execute_request(SWEEP)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert server.counters["assembled"] == 1
    # Assembly published the aggregate: the run cache now owns the key.
    assert server.store.runs.get_by_key(key) is not None


def test_half_warm_resweep_enqueues_only_missing_windows(server):
    submit(server, [SWEEP])
    drain(server, jobs=3)
    poll(server, submit(server, [SWEEP])["sweep"])

    wider = dataclasses.replace(SWEEP, sample_regions=5)
    second = submit(server, [wider])
    # Parent run-cache key differs (sample_regions fingerprints), but
    # the 3 shared windows are already in the windows namespace: only
    # the 2 new depths become jobs.
    assert second["enqueued"] == 2
    drain(server, jobs=2)
    polled = poll(server, second["sweep"])
    got = decode_stats(polled["results"][fingerprint(wider)])
    want = execute_request(wider)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_fully_warm_sweep_served_at_submit(server):
    """Once every window is published, a *new* parent over the same
    windows is assembled and served inline at submit time — zero jobs,
    zero simulation."""
    submit(server, [SWEEP])
    drain(server, jobs=3)
    # A distinct parent (different region count) whose schedule is a
    # prefix of the published windows.
    narrower = dataclasses.replace(SWEEP, sample_regions=2)
    response = submit(server, [narrower])
    assert response["enqueued"] == 0
    assert response["pending"] == []
    key = fingerprint(narrower)
    got = decode_stats(response["results"][key])
    want = execute_request(narrower)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_failed_window_past_the_halt_is_never_needed(server):
    """mcf@0.2 halts at ~11.1k instructions, so of depths 0/5k/10k/15k/
    20k the 15k window is the short one. The poll serves the parent
    even though the 20k window's job failed: that window is never
    looked up, exactly as the walk never runs it."""
    sweep = RunRequest(
        workload="mcf", scale=0.2, mode="base",
        sample=500, sample_regions=5, sample_period=5_000,
    )
    # The oracle runs first, so both sides restore the same stored chain.
    want = run_matrix([sweep], jobs=1, cache=RunCache(enabled=False))[0]
    first = submit(server, [sweep])
    assert first["enqueued"] == 5
    # Play the worker: publish every window but the 20k one, whose job
    # fails on each of its attempts.
    tail = window_fingerprint(sweep, 20_000)
    while (job := server.queue.claim("tester")) is not None:
        if job.key == tail:
            server.queue.fail(job.key, "tester", "injected failure")
        else:
            server.store.windows.put(job.key, execute_request(job.request))
            server.queue.complete(job.key, "tester")
    assert server.queue.job(tail).status == "failed"
    polled = poll(server, first["sweep"])
    key = fingerprint(sweep)
    assert polled["failed"] == {} and polled["pending"] == []
    got = decode_stats(polled["results"][key])
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got.sample_regions == 3


def test_requests_without_closed_form_schedule_stay_whole(server):
    """No explicit period -> the schedule depends on workload length,
    which the server must not compute (it never simulates): the request
    stays one ordinary kind='run' job. Unsampled requests likewise."""
    derived = dataclasses.replace(SWEEP, sample_period=0)
    plain = RunRequest(workload="gzip", scale=0.05, mode="base")
    response = submit(server, [derived, plain])
    assert response["enqueued"] == 2
    assert server.counters["window_jobs"] == 0
    for request in (derived, plain):
        job = server.queue.job(fingerprint(request))
        assert job is not None and job.kind == "run"


def test_worker_short_circuits_published_window(server):
    """A claimed window job whose result already landed (another worker
    or an in-process run sharing the store) completes without running."""
    submit(server, [SWEEP])
    depths = SWEEP.schedule().depths
    keys = [window_fingerprint(SWEEP, d) for d in depths]
    donor = ContentStore(server.store.root)
    for depth, wkey in zip(depths, keys):
        donor.windows.put(wkey, execute_request(window_request(SWEEP, depth)))
    worker = drain(server, jobs=3)
    assert worker.completed == 3
    # All three were answered from the store: the queue shows them done.
    assert server.queue.status_counts()["done"] == 3


def test_queue_kind_and_assembly_roundtrip(tmp_path):
    queue = JobQueue(tmp_path)
    try:
        with pytest.raises(ValueError):
            queue.submit(SWEEP, kind="nonsense")
        with pytest.raises(ValueError):
            queue.submit(SWEEP, kind="window")  # window jobs need a key
        queue.save_assembly("k1", {"windows": [[0, "a"], [100, "b"]]})
        assert queue.load_assembly("k1") == {"windows": [[0, "a"], [100, "b"]]}
        assert queue.load_assembly("missing") is None
        queue.save_assembly("k1", {"windows": []})  # idempotent overwrite
        assert queue.load_assembly("k1") == {"windows": []}
    finally:
        queue.close()
