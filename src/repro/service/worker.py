"""``repro worker`` — lease-draining executor for the job queue.

A worker is the compute half of the experiment service: it claims jobs
from the :class:`~repro.service.queue.JobQueue`, executes each through
the *same* :func:`~repro.harness.parallel.run_matrix` path as an
in-process run (inheriting the PR 3 timeout/retry/respawn discipline
and the snapshot store), publishes the result into the shared
content-addressed store, and marks the job done. Any number of workers
on any machines sharing the cache root can drain one queue.

Crash safety is the lease's job, not the worker's: while a job runs, a
background thread heartbeats the lease; a worker that dies mid-job
simply stops heartbeating and the queue re-grants the job after the
deadline (see :mod:`repro.service.queue`). Because results are
content-addressed and the simulator is deterministic, the re-run
converges to bit-identical bytes — asserted by
``tests/service/test_worker_crash.py``.

Deterministic fault injection reuses
:class:`~repro.harness.faults.FaultPlan`: a planned ``CRASH`` is
applied at the *worker* level (``in_process=False`` → ``os._exit``),
so the whole worker process dies holding its lease — exactly the
failure the queue must survive.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.harness.parallel import direct_execution, run_matrix
from repro.service.queue import (
    DEFAULT_LEASE_SECONDS,
    JobQueue,
    default_owner,
)
from repro.service.store import ContentStore

log = logging.getLogger(__name__)

#: Seconds to sleep between claim attempts when the queue is empty: an
#: idle worker claims a new job within ~10 ms, for ~1.3% of one CPU
#: (~140 us per wake-up; 2-vCPU VM, CPython 3.11).
IDLE_POLL_SECONDS = 0.01


class Worker:
    """One queue-draining worker process (or thread, in tests)."""

    def __init__(
        self,
        store: ContentStore | None = None,
        queue: JobQueue | None = None,
        owner: str | None = None,
        lease: float = DEFAULT_LEASE_SECONDS,
        jobs: int | None = 1,
        timeout: float | None = None,
        retries: int | None = None,
        fault_plan=None,
    ):
        self.store = store if store is not None else ContentStore()
        self.queue = (
            queue if queue is not None else JobQueue(self.store.root)
        )
        self.owner = owner or default_owner()
        self.lease = lease
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.fault_plan = fault_plan
        #: Jobs this worker resolved (done + failed), for logs/tests.
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------

    def run_once(self) -> bool:
        """Claim and execute one job; ``False`` if the queue was empty."""
        job = self.queue.claim(self.owner, lease=self.lease)
        if job is None:
            return False
        log.info(
            "worker %s leased %s (%s/%s, attempt %d/%d)",
            self.owner,
            job.key[:12],
            job.request.workload,
            job.request.mode,
            job.attempts,
            job.max_attempts,
        )
        if self.fault_plan is not None:
            # Worker-level fault injection: a planned CRASH kills this
            # process *while it holds the lease* (attempt indices are
            # 0-based, mirroring the pool's fault keying).
            self.fault_plan.perturb(
                job.request, job.attempts - 1, in_process=False
            )
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job.key, stop), daemon=True
        )
        beat.start()
        try:
            # One-element matrix through the standard harness path:
            # cache hit short-circuits (a window another worker or an
            # in-process run already published, say), a fresh run lands
            # in the shared store via ``cache.put`` — publication and
            # execution are one step. ``direct_execution`` pins this
            # thread to the in-process backend: the executor must never
            # become a thin client of the queue it just claimed from.
            with direct_execution():
                run_matrix(
                    [job.request],
                    jobs=self.jobs,
                    cache=self.store.runs,
                    timeout=self.timeout,
                    retries=self.retries,
                    on_error="raise",
                )
        except Exception as exc:  # noqa: BLE001 — lease boundary
            stop.set()
            beat.join()
            self.failed += 1
            self.queue.fail(job.key, self.owner, f"{type(exc).__name__}: {exc}")
            log.warning("worker %s failed %s: %s", self.owner, job.key[:12], exc)
        else:
            stop.set()
            beat.join()
            if self.queue.complete(job.key, self.owner):
                self.completed += 1
            else:
                # Lease lost mid-run (e.g. a long stall past the
                # deadline). The published result is still valid —
                # content-addressed, identical to the re-leased
                # worker's — so this is bookkeeping, not data loss.
                log.warning(
                    "worker %s lost lease on %s before completion",
                    self.owner,
                    job.key[:12],
                )
        self.store.flush_counters()
        return True

    def _heartbeat_loop(self, key: str, stop: threading.Event) -> None:
        interval = max(self.lease / 3.0, 0.05)
        while not stop.wait(interval):
            if not self.queue.heartbeat(key, self.owner, lease=self.lease):
                return  # lease lost; completion will notice

    def run(
        self,
        max_jobs: int | None = None,
        drain: bool = False,
        stop_event: threading.Event | None = None,
    ) -> int:
        """Drain the queue; returns jobs resolved by this worker.

        ``drain=True`` exits when the queue yields nothing; otherwise
        the worker polls forever (``repro worker`` service mode).
        """
        resolved = 0
        while max_jobs is None or resolved < max_jobs:
            if stop_event is not None and stop_event.is_set():
                break
            if self.run_once():
                resolved += 1
                continue
            if drain:
                break
            time.sleep(IDLE_POLL_SECONDS)
        return resolved


def work(
    store: ContentStore | None = None,
    lease: float = DEFAULT_LEASE_SECONDS,
    jobs: int | None = 1,
    timeout: float | None = None,
    retries: int | None = None,
    max_jobs: int | None = None,
    drain: bool = False,
) -> int:
    """Blocking entry point for ``repro worker``."""
    worker = Worker(
        store=store, lease=lease, jobs=jobs, timeout=timeout, retries=retries
    )
    try:
        return worker.run(max_jobs=max_jobs, drain=drain)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return worker.completed + worker.failed
