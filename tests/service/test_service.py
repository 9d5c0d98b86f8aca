"""End-to-end service differential: a sweep executed by ``repro
serve`` + ``repro worker`` must be *bit-identical* to the in-process
pool — same ``RunStats`` pickle bytes, same content-addressed cache
keys — and a repeated sweep must be answered entirely from the
ContentStore with zero jobs enqueued."""

import json
import pickle
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.harness.cache import RunCache, fingerprint
from repro.harness.parallel import (
    RunRequest,
    reset_skipped_log,
    run_matrix,
)
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.server import ExperimentServer, sweep_id
from repro.service.store import ContentStore
from repro.service.worker import Worker

MATRIX = [
    RunRequest(workload="vpr", scale=0.05, mode="base"),
    RunRequest(workload="vpr", scale=0.05, mode="slice"),
    RunRequest(workload="gzip", scale=0.05, mode="base"),
]


@pytest.fixture
def service(tmp_path):
    """A live ExperimentServer on an ephemeral port, with its store
    and queue under ``tmp_path/server``."""
    import asyncio

    store = ContentStore(tmp_path / "server")
    queue = JobQueue(store.root)
    server = ExperimentServer(store=store, queue=queue, port=0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    yield server
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)
    queue.close()


def drain_in_background(server: ExperimentServer, max_jobs: int) -> Worker:
    """A worker thread that blocks until it resolves *max_jobs* jobs."""
    worker = Worker(store=server.store, queue=server.queue, lease=10.0)
    thread = threading.Thread(
        target=worker.run, kwargs={"max_jobs": max_jobs}, daemon=True
    )
    thread.start()
    worker.thread = thread
    return worker


def test_service_mode_is_bit_identical_to_in_process(
    tmp_path, service, monkeypatch
):
    expected = run_matrix(
        MATRIX, jobs=1, cache=RunCache(tmp_path / "inproc")
    )

    worker = drain_in_background(service, max_jobs=len(MATRIX))
    monkeypatch.setenv(
        "REPRO_SERVICE_URL", f"http://127.0.0.1:{service.port}"
    )
    client_cache = RunCache(tmp_path / "client")
    got = run_matrix(MATRIX, jobs=1, cache=client_cache)
    worker.thread.join(120)
    assert not worker.thread.is_alive()

    assert [pickle.dumps(s) for s in got] == [
        pickle.dumps(s) for s in expected
    ]
    # Identical content addresses on both sides of the wire: the keys
    # the client re-published under match the keys the worker stored.
    keys = {fingerprint(request) for request in MATRIX}
    assert {p.stem for p in client_cache.entry_paths()} == keys
    assert {p.stem for p in service.store.runs.entry_paths()} == keys


def test_repeat_sweep_is_served_without_enqueueing(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    first = client.submit_sweep(MATRIX)
    assert first["enqueued"] == len(MATRIX)
    worker = Worker(store=service.store, queue=service.queue, lease=10.0)
    assert worker.run(drain=True) == len(MATRIX)

    submitted_before = service.queue.counters().get("submitted", 0)
    second = client.submit_sweep(MATRIX)
    assert second["sweep"] == first["sweep"]  # content-addressed sweep id
    assert second["enqueued"] == 0
    assert second["pending"] == []
    assert set(second["results"]) == set(first["keys"])
    # The queue saw no new work at all: pure ContentStore serve path.
    assert service.queue.counters().get("submitted", 0) == submitted_before
    assert service.queue.status_counts()["pending"] == 0

    # And the poll path re-serves the whole sweep from the store too.
    polled = client.poll_sweep(first["sweep"])
    assert set(polled["results"]) == set(first["keys"])
    assert polled["pending"] == []


def test_duplicate_requests_collapse_to_one_job(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    response = client.submit_sweep([MATRIX[0], MATRIX[0], MATRIX[0]])
    assert response["enqueued"] == 1
    assert len(response["keys"]) == 3  # input order preserved
    assert response["keys"][0] == response["keys"][1]


def test_failed_job_surfaces_as_skip_not_hang(service, monkeypatch):
    # An unknown workload passes request validation but fails every
    # execution attempt; the queue quarantines it and the client's
    # on_error="skip" policy records the hole instead of waiting.
    bogus = RunRequest(workload="vpr", scale=0.05, overrides=(
        ("memory_latency", "not-a-latency"),
    ))
    worker = drain_in_background(
        service, max_jobs=service.queue.max_attempts
    )
    monkeypatch.setenv(
        "REPRO_SERVICE_URL", f"http://127.0.0.1:{service.port}"
    )
    reset_skipped_log()
    report = run_matrix(
        [bogus],
        jobs=1,
        cache=RunCache(None, enabled=False),
        on_error="skip",
        return_report=True,
    )
    worker.thread.join(60)
    assert report.skipped == 1
    outcome = report.outcomes[0]
    assert outcome.status == "skipped"
    assert "failed job" in outcome.error
    reset_skipped_log()


def test_unreachable_service_raises_service_error(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_URL", "http://127.0.0.1:1")
    with pytest.raises(ServiceError):
        run_matrix(
            [MATRIX[0]], jobs=1, cache=RunCache(None, enabled=False)
        )


def test_local_cache_hits_never_reach_the_service(
    tmp_path, service, monkeypatch
):
    local = RunCache(tmp_path / "local")
    expected = run_matrix([MATRIX[0]], jobs=1, cache=local)
    monkeypatch.setenv(
        "REPRO_SERVICE_URL", f"http://127.0.0.1:{service.port}"
    )
    before = dict(service.counters)
    again = run_matrix([MATRIX[0]], jobs=1, cache=local)
    assert pickle.dumps(again[0]) == pickle.dumps(expected[0])
    assert service.counters == before  # no HTTP traffic at all


def test_http_surface(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    assert client.healthz()
    status = client.status()
    assert set(status) == {"server", "queue", "store"}
    with pytest.raises(ServiceError):
        client.poll_sweep("doesnotexist")
    with pytest.raises(ServiceError):
        client._call("POST", "/api/sweep", {"requests": [{"bad": 1}]})
    with pytest.raises(ServiceError):
        client._call("GET", "/api/result/unknownkey")


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_gets_a_400(service, length):
    """A Content-Length that is not a non-negative integer is answered
    with a JSON 400, not a dropped connection."""
    with socket.create_connection(("127.0.0.1", service.port), 10) as conn:
        conn.sendall(
            f"POST /api/sweep HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode()
        )
        reply = b""
        while chunk := conn.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert "Content-Length" in json.loads(body)["error"]


def test_sweep_id_is_content_addressed():
    keys = [fingerprint(request) for request in MATRIX]
    assert sweep_id(keys) == sweep_id(list(keys))
    assert sweep_id(keys) != sweep_id(keys[::-1])
