"""Idle-worker responsiveness and concurrent draining.

An idle ``repro worker`` must notice a new job within a few poll
intervals (it polls every ``IDLE_POLL_SECONDS``), whatever the phase of
the submit relative to its last empty claim; and two workers on one
cache root, each with its own queue connection, must drain a queue
exactly once between them at that poll rate.

Every job's result is put in the store beforehand, so executing a job
is a cache hit: the timings below measure the hand-off, not simulation.
"""

import sys
import threading
import time

from repro.harness.parallel import RunRequest
from repro.service.queue import JobQueue
from repro.service.store import ContentStore
from repro.service.worker import Worker
from repro.uarch.stats import RunStats

#: Submit → the job leaves ``pending``: a few idle polls, with room for
#: a loaded CI host.
HANDOFF_S = 0.1


def stored_requests(store: ContentStore, count: int) -> list[RunRequest]:
    """*count* distinct requests whose results are already stored."""
    requests = [
        RunRequest(workload="vpr", scale=0.01 * (i + 1)) for i in range(count)
    ]
    for request in requests:
        store.runs.put(request, RunStats())
    return requests


def wait_until(predicate, timeout: float = 10.0, step: float = 0.001) -> float:
    """Poll *predicate* until true; return the monotonic time it was."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(step)
    return time.monotonic()


def test_idle_worker_claims_a_new_job_promptly(tmp_path):
    store = ContentStore(tmp_path / "cache")
    requests = stored_requests(store, 5)
    queue = JobQueue(store.root)
    worker = Worker(store=ContentStore(store.root))
    stop = threading.Event()
    thread = threading.Thread(
        target=worker.run, kwargs={"stop_event": stop}, daemon=True
    )
    thread.start()
    try:
        time.sleep(0.6)  # idle past the old 0.5 s poll
        for i, request in enumerate(requests):
            # Each submit lands at a different phase of the idle loop.
            time.sleep(0.05 + 0.1 * i)
            submitted = time.monotonic()
            key, enqueued = queue.submit(request)
            assert enqueued
            claimed = wait_until(lambda: queue.job(key).status != "pending")
            assert claimed - submitted < HANDOFF_S, (
                f"job {i} waited {claimed - submitted:.3f}s in pending"
            )
            wait_until(lambda: queue.job(key).status == "done")

        # An idle run() notices stop_event just as promptly.
        time.sleep(0.2)
        stopped = time.monotonic()
        stop.set()
        thread.join(HANDOFF_S)
        assert not thread.is_alive()
        assert time.monotonic() - stopped < HANDOFF_S
        assert worker.completed == 5
    finally:
        stop.set()
        thread.join(10)
        worker.queue.close()
        queue.close()


def test_two_workers_drain_a_queue_exactly_once(tmp_path):
    store = ContentStore(tmp_path / "cache")
    requests = stored_requests(store, 8)
    queue = JobQueue(store.root)
    workers = [
        Worker(store=ContentStore(store.root), owner=f"w{i}")
        for i in range(2)
    ]
    stop = threading.Event()
    errors: list[Exception] = []

    def run(worker: Worker) -> None:
        try:
            worker.run(stop_event=stop)
        except Exception as exc:  # noqa: BLE001 — asserted empty below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(worker,), daemon=True)
        for worker in workers
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two claimers finely
    for thread in threads:
        thread.start()
    try:
        keys = [queue.submit(request)[0] for request in requests]
        wait_until(lambda: queue.status_counts()["done"] == len(keys))
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)

    assert errors == []  # e.g. no sqlite3.OperationalError from a race
    for key in keys:
        job = queue.job(key)
        assert job.status == "done"
        assert job.attempts == 1
    counters = queue.counters()
    assert counters["completed"] == 8
    assert counters.get("lease_expiries", 0) == 0
    assert counters.get("failed", 0) == 0
    assert sum(worker.completed for worker in workers) == 8
    assert sum(worker.failed for worker in workers) == 0
    for worker in workers:
        worker.queue.close()
    queue.close()
