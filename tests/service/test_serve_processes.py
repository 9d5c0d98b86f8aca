"""``repro serve`` and ``repro worker`` as real processes over HTTP.

One ``repro serve --port 0`` and two ``repro worker`` processes share a
fresh cache root. The client reads the server's port from its
``listening on`` announcement, pushes a small sweep through the wire,
re-submits it, then drives a multi-region sampled sweep through window
decomposition; every job must complete exactly once between the two
workers.
"""

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from repro.harness.parallel import RunRequest
from repro.service.client import ServiceClient
from repro.service.codec import encode_request

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Seconds to wait for the server's announcement, a sweep or the queue.
STARTUP_S = 60.0
SWEEP_S = 120.0
SETTLE_S = 20.0


def _announced_url(log: pathlib.Path, proc: subprocess.Popen) -> str:
    """The URL ``repro serve`` says it bound, read from its stderr."""
    deadline = time.monotonic() + STARTUP_S
    while time.monotonic() < deadline:
        match = re.search(r"listening on (http://\S+)", log.read_text())
        if match:
            return match.group(1)
        assert proc.poll() is None, f"repro serve exited: {log.read_text()}"
        time.sleep(0.05)
    raise AssertionError(f"repro serve never announced: {log.read_text()}")


@pytest.fixture
def service(tmp_path):
    """A running ``repro serve --port 0`` plus two ``repro worker``
    processes on a fresh cache root; yields the server's URL."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    procs = []

    def spawn(name, *args):
        with open(tmp_path / f"{name}.log", "w") as log:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=env, cwd=tmp_path,
                stdout=subprocess.DEVNULL, stderr=log,
            ))
        return procs[-1]

    try:
        serve = spawn("serve", "serve", "--port", "0")
        url = _announced_url(tmp_path / "serve.log", serve)
        spawn("worker0", "worker")
        spawn("worker1", "worker")
        yield url
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(10)


def _caller(url: str):
    def call(method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read()

    return call


def _assembled(call, sweep: str) -> None:
    """Poll *sweep* until its result is assembled."""
    deadline = time.monotonic() + SWEEP_S
    while time.monotonic() < deadline:
        polled = json.loads(call("GET", "/api/sweep/" + sweep))
        assert not polled["failed"], polled["failed"]
        if polled["results"]:
            return
        time.sleep(0.1)
    raise AssertionError(f"sweep {sweep} never assembled")


def test_serve_and_two_workers_over_http(service):
    call = _caller(service)
    assert re.fullmatch(r"http://127\.0\.0\.1:\d+", service)
    assert not service.endswith(":0")

    # A small sweep computed once by the workers; two warm re-sweeps
    # enqueue nothing, are served from cache, and are byte-identical.
    matrix = [
        RunRequest(workload="vpr", scale=0.05, mode="base"),
        RunRequest(workload="vpr", scale=0.05, mode="slice"),
        RunRequest(workload="gzip", scale=0.05, mode="base"),
    ]
    results, failed = ServiceClient(service).run(matrix, deadline=SWEEP_S)
    assert not failed
    assert len(results) == 3

    before = json.loads(call("GET", "/api/status"))
    body = {"requests": [encode_request(r) for r in matrix]}
    warm_a = call("POST", "/api/sweep", body)
    warm_b = call("POST", "/api/sweep", body)
    assert warm_a == warm_b
    warm = json.loads(warm_a)
    assert not warm["pending"]
    assert warm["enqueued"] == 0
    assert len(warm["results"]) == 3
    after = json.loads(call("GET", "/api/status"))
    assert after["server"]["enqueued"] == before["server"]["enqueued"]
    assert after["queue"]["jobs"].get("pending", 0) == 0
    hits = (
        after["server"]["served_from_cache"]
        - before["server"]["served_from_cache"]
    )
    assert hits == 6

    # Window decomposition over the wire: an 8-region sampled sweep
    # becomes 8 window jobs; the 10-region re-sweep finds those 8
    # published and enqueues only the 2 missing windows.
    eight = RunRequest(
        workload="mcf", scale=0.2, mode="base",
        sample=300, sample_regions=8, sample_period=1_000,
    )
    resp8 = json.loads(
        call("POST", "/api/sweep", {"requests": [encode_request(eight)]})
    )
    assert resp8["enqueued"] == 8
    _assembled(call, resp8["sweep"])
    ten = dataclasses.replace(eight, sample_regions=10)
    resp10 = json.loads(
        call("POST", "/api/sweep", {"requests": [encode_request(ten)]})
    )
    assert resp10["enqueued"] == 2
    _assembled(call, resp10["sweep"])
    status = json.loads(call("GET", "/api/status"))["server"]
    assert status["window_jobs"] == 10, status
    assert status["assembled"] >= 2, status

    # Two claimers, one queue: every submitted job completed exactly
    # once, none failed, no lease expired. A worker publishes a result
    # before it marks the job done, so wait for the queue to settle.
    deadline = time.monotonic() + SETTLE_S
    while True:
        queue = json.loads(call("GET", "/api/status"))["queue"]
        jobs = queue["jobs"]
        if not jobs.get("pending", 0) and not jobs.get("leased", 0):
            break
        assert time.monotonic() < deadline, f"queue never settled: {jobs}"
        time.sleep(0.1)
    counters = queue["counters"]
    assert counters["completed"] == counters["submitted"], counters
    assert counters.get("failed", 0) == 0, counters
    assert counters.get("lease_expiries", 0) == 0, counters
