"""Service-side window decomposition: ``repro serve`` turns a
multi-region sweep into one ordinary job per window request, keyed by
the window's own fingerprint; workers publish each window into the run
cache like any run, and the poll path reassembles the whole-run
aggregate — so a half-warm re-sweep (8 -> 10 regions, say) enqueues
only the missing windows, a fully warm one is answered with zero
simulation, and windows measured in process and in the service answer
each other.

These drive :meth:`ExperimentServer._route` directly (no HTTP): the
routing layer is exercised end-to-end by ``tests/service/test_service.py``
and the CI service-smoke job.
"""

import dataclasses
import json

import pytest

from repro.harness.cache import RunCache, fingerprint
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
        window = window_request(SWEEP, depth)
        job = server.queue.job(fingerprint(window))
        assert job is not None and job.request == window

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
    # the 3 shared windows are already in the run cache: only
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
    tail = fingerprint(window_request(sweep, 20_000))
    while (job := server.queue.claim("tester")) is not None:
        if job.key == tail:
            server.queue.fail(job.key, "tester", "injected failure")
        else:
            server.store.runs.put(job.request, execute_request(job.request))
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
    stays one whole-request job. Unsampled requests likewise."""
    derived = dataclasses.replace(SWEEP, sample_period=0)
    plain = RunRequest(workload="gzip", scale=0.05, mode="base")
    response = submit(server, [derived, plain])
    assert response["enqueued"] == 2
    assert server.counters["window_jobs"] == 0
    for request in (derived, plain):
        job = server.queue.job(fingerprint(request))
        assert job is not None and job.request == request


def test_worker_short_circuits_published_window(server):
    """A claimed window job whose result already landed (another worker
    or an in-process run sharing the store) completes without running."""
    submit(server, [SWEEP])
    depths = SWEEP.schedule().depths
    donor = ContentStore(server.store.root)
    for depth in depths:
        window = window_request(SWEEP, depth)
        donor.runs.put(window, execute_request(window))
    worker = drain(server, jobs=3)
    assert worker.completed == 3
    # All three were answered from the store: the queue shows them done.
    assert server.queue.status_counts()["done"] == 3


def same_stats(a, b):
    return dataclasses.asdict(a) == dataclasses.asdict(b)


def test_window_submitted_plain_shares_its_job(server, monkeypatch):
    """A sweep holding a multi-region request and one of its own
    windows as a plain request enqueues one job per window — the plain
    copy is the same request, so the same job — and the drained worker
    simulates each window once."""
    from repro.uarch.core import Core

    window = window_request(SWEEP, SWEEP.schedule().depths[1])
    runs = []
    real_run = Core.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Core, "run", counting_run)
    first = submit(server, [SWEEP, window])
    assert first["enqueued"] == 3
    assert server.counters["window_jobs"] == 3
    drain(server, jobs=3)
    assert len(runs) == 3
    polled = poll(server, first["sweep"])
    assert polled["pending"] == [] and polled["failed"] == {}
    monkeypatch.setattr(Core, "run", real_run)
    for request in (SWEEP, window):
        got = decode_stats(polled["results"][fingerprint(request)])
        assert same_stats(got, execute_request(request))


def test_in_process_windows_answer_the_service(server):
    """Windows an in-process ``run_matrix`` measured on the server's
    root are the service's windows too: a narrower sweep over them is
    assembled and served at submit, enqueuing nothing."""
    run_matrix([SWEEP], jobs=1, cache=RunCache(server.store.root))
    narrower = dataclasses.replace(SWEEP, sample_regions=2)
    response = submit(server, [narrower])
    assert response["enqueued"] == 0
    assert response["pending"] == []
    got = decode_stats(response["results"][fingerprint(narrower)])
    assert same_stats(got, execute_request(narrower))


def test_worker_windows_answer_in_process(server):
    """Windows a worker drained are run-cache hits for an in-process
    ``run_matrix`` of a wider request: every shared window is counted
    in ``window_hits``, and only the new ones are measured."""
    submit(server, [SWEEP])
    drain(server, jobs=3)
    wider = dataclasses.replace(SWEEP, sample_regions=5)
    report = run_matrix(
        [wider], jobs=1, cache=RunCache(server.store.root),
        return_report=True,
    )
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.windows == 5
    assert outcome.window_hits == 3
    assert same_stats(outcome.stats, execute_request(wider))


def test_queue_kind_and_assembly_roundtrip(tmp_path):
    """Jobs have no kind: a window job is keyed by its request's
    fingerprint like any other. A queue database written while jobs
    still carried a ``kind`` column opens, and its column's default
    fills every new row."""
    import sqlite3

    (tmp_path / "queue").mkdir()
    old = sqlite3.connect(tmp_path / "queue" / "jobs.db")
    old.execute(
        "CREATE TABLE jobs (key TEXT PRIMARY KEY, request TEXT NOT NULL,"
        " kind TEXT NOT NULL DEFAULT 'run',"
        " status TEXT NOT NULL DEFAULT 'pending',"
        " attempts INTEGER NOT NULL DEFAULT 0,"
        " max_attempts INTEGER NOT NULL, owner TEXT, lease_deadline REAL,"
        " error TEXT, created REAL NOT NULL, updated REAL NOT NULL)"
    )
    old.commit()
    old.close()
    queue = JobQueue(tmp_path)
    try:
        window = window_request(SWEEP, 2_000)
        assert queue.submit(window) == (fingerprint(window), True)
        job = queue.claim("tester")
        assert job.key == fingerprint(window) and job.request == window
        queue.save_assembly("k1", {"windows": [[0, "a"], [100, "b"]]})
        assert queue.load_assembly("k1") == {"windows": [[0, "a"], [100, "b"]]}
        assert queue.load_assembly("missing") is None
        queue.save_assembly("k1", {"windows": []})  # idempotent overwrite
        assert queue.load_assembly("k1") == {"windows": []}
    finally:
        queue.close()
