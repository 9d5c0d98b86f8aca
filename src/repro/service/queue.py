"""Persistent, crash-safe job queue for the experiment service.

One SQLite database under ``<cache root>/queue/jobs.db`` holds every
outstanding :class:`~repro.harness.parallel.RunRequest` as a job keyed
by its run-cache fingerprint — the same content address the result
will be published under — plus the sweeps the server has accepted.
A window of a decomposed multi-region sweep is such a job too: its
request is the single-window ``RunRequest`` it computes.
SQLite gives the queue what the file-per-entry stores cannot: an
atomic compare-and-set per claim, so any number of ``repro worker``
processes on any machines sharing the cache root can drain one queue
without double-granting a job.

**Lease/claim/heartbeat.** A claim marks the job ``leased`` with an
owner and a deadline; the worker heartbeats to push the deadline out
while it runs. A worker that dies mid-lease simply stops heartbeating:
once the deadline passes, the next claim re-leases the job (counted in
``lease_expiries``), charging one attempt — the queue-level mirror of
the PR 3 pool discipline (a crash costs an attempt; attempts are
bounded; the job is *quarantined* as ``failed`` when they run out).
Completion is owner-checked, so a worker that lost its lease cannot
complete a job out from under the worker that re-leased it; because
results are content-addressed and the simulator is deterministic, a
doubly-*executed* job still converges to identical bytes in the store
(asserted by ``tests/service/test_worker_crash.py``).

Job states: ``pending`` → ``leased`` → ``done`` | ``failed``
(a failed job is revived to ``pending`` by resubmission).
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.harness.blobstore import resolve_cache_root
from repro.harness.cache import fingerprint
from repro.service.codec import decode_request, encode_request

#: Subdirectory of the cache root holding the queue database.
QUEUE_SUBDIR = "queue"

#: Default attempts a job may consume (first execution included)
#: before it is marked ``failed`` — the queue-level retry budget.
DEFAULT_MAX_ATTEMPTS = 3

#: Default seconds a claim holds its lease without a heartbeat.
DEFAULT_LEASE_SECONDS = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key            TEXT PRIMARY KEY,
    request        TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL,
    owner          TEXT,
    lease_deadline REAL,
    error          TEXT,
    created        REAL NOT NULL,
    updated        REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, created);
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id TEXT PRIMARY KEY,
    keys     TEXT NOT NULL,
    created  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS assemblies (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

JOB_STATUSES = ("pending", "leased", "done", "failed")


def default_owner() -> str:
    """Worker identity for lease bookkeeping (diagnostic, not auth)."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class Job:
    """One queue row, with the request decoded back to a dataclass."""

    key: str
    request: object  # RunRequest
    status: str
    attempts: int
    max_attempts: int
    owner: str | None
    lease_deadline: float | None
    error: str | None


class JobQueue:
    """SQLite-backed lease queue under ``<cache root>/queue/``.

    Safe for concurrent use from multiple processes (SQLite locking)
    and from multiple threads of one process (an instance lock
    serializes the shared connection).
    """

    def __init__(
        self,
        cache_root: str | os.PathLike | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.root = resolve_cache_root(cache_root) / QUEUE_SUBDIR
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "jobs.db"
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._db = sqlite3.connect(
            self.path,
            timeout=30.0,
            isolation_level=None,  # explicit transactions only
            check_same_thread=False,
        )
        self._db.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, request) -> tuple[str, bool]:
        """Enqueue *request* under ``fingerprint(request)``; return
        ``(key, enqueued)``.

        Idempotent on the content-addressed key: a request already
        pending, leased, or done is not enqueued again (``enqueued``
        False); a previously *failed* job is revived to ``pending``
        with a fresh attempt budget. A window of a decomposed sweep is
        submitted as the single-window request it is
        (:func:`~repro.harness.parallel.window_request`), so it shares
        its job with an identical plain request.
        """
        key = fingerprint(request)
        payload = json.dumps(
            encode_request(request), sort_keys=True, separators=(",", ":")
        )
        now = time.time()
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                row = self._db.execute(
                    "SELECT status FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    self._db.execute(
                        "INSERT INTO jobs (key, request, status,"
                        " attempts, max_attempts, created, updated)"
                        " VALUES (?, ?, 'pending', 0, ?, ?, ?)",
                        (key, payload, self.max_attempts, now, now),
                    )
                    self._bump("submitted")
                    enqueued = True
                elif row[0] == "failed":
                    self._db.execute(
                        "UPDATE jobs SET status = 'pending', attempts = 0,"
                        " owner = NULL, lease_deadline = NULL, error = NULL,"
                        " updated = ? WHERE key = ?",
                        (now, key),
                    )
                    self._bump("resubmitted")
                    enqueued = True
                else:
                    enqueued = False
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        return key, enqueued

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def claim(
        self, owner: str | None = None, lease: float = DEFAULT_LEASE_SECONDS
    ) -> Job | None:
        """Atomically lease the oldest runnable job, or ``None``.

        Runnable means ``pending``, or ``leased`` past its deadline
        (the previous owner crashed or hung — the re-lease is counted
        in ``lease_expiries``). Claiming charges one attempt; a job
        whose expired lease already spent its last attempt is marked
        ``failed`` here rather than re-granted forever.
        """
        owner = owner or default_owner()
        now = time.time()
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                while True:
                    row = self._db.execute(
                        "SELECT key, request, status, attempts,"
                        " max_attempts"
                        " FROM jobs WHERE status = 'pending'"
                        " OR (status = 'leased' AND lease_deadline < ?)"
                        " ORDER BY created LIMIT 1",
                        (now,),
                    ).fetchone()
                    if row is None:
                        self._db.execute("COMMIT")
                        return None
                    key, payload, status, attempts, max_attempts = row
                    if status == "leased":
                        self._bump("lease_expiries")
                        if attempts >= max_attempts:
                            self._db.execute(
                                "UPDATE jobs SET status = 'failed',"
                                " owner = NULL, lease_deadline = NULL,"
                                " error = ?, updated = ? WHERE key = ?",
                                (
                                    f"lease expired after {attempts} "
                                    "attempt(s); retries exhausted",
                                    now,
                                    key,
                                ),
                            )
                            self._bump("failed")
                            continue
                    self._db.execute(
                        "UPDATE jobs SET status = 'leased', owner = ?,"
                        " lease_deadline = ?, attempts = attempts + 1,"
                        " updated = ? WHERE key = ?",
                        (owner, now + lease, now, key),
                    )
                    self._db.execute("COMMIT")
                    return Job(
                        key=key,
                        request=decode_request(json.loads(payload)),
                        status="leased",
                        attempts=attempts + 1,
                        max_attempts=max_attempts,
                        owner=owner,
                        lease_deadline=now + lease,
                        error=None,
                    )
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def heartbeat(
        self,
        key: str,
        owner: str,
        lease: float = DEFAULT_LEASE_SECONDS,
    ) -> bool:
        """Extend *owner*'s lease on *key*; ``False`` if the lease was
        lost (expired and re-granted, or the job already resolved)."""
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET lease_deadline = ?, updated = ?"
                " WHERE key = ? AND status = 'leased' AND owner = ?",
                (time.time() + lease, time.time(), key, owner),
            )
        return cursor.rowcount == 1

    def complete(self, key: str, owner: str) -> bool:
        """Mark *key* done — only for the worker still holding its
        lease, so a zombie that lost the job cannot resolve it twice.
        (The zombie's *result* is harmless either way: it published
        content-addressed bytes identical to the live worker's.)"""
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET status = 'done', owner = NULL,"
                " lease_deadline = NULL, error = NULL, updated = ?"
                " WHERE key = ? AND status = 'leased' AND owner = ?",
                (time.time(), key, owner),
            )
            if cursor.rowcount == 1:
                self._bump("completed")
                return True
        return False

    def fail(self, key: str, owner: str, error: str) -> bool:
        """Record a failed attempt: requeue as ``pending`` while the
        attempt budget lasts, else mark ``failed`` (the queue's
        quarantine state). Owner-checked like :meth:`complete`."""
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                row = self._db.execute(
                    "SELECT attempts, max_attempts FROM jobs"
                    " WHERE key = ? AND status = 'leased' AND owner = ?",
                    (key, owner),
                ).fetchone()
                if row is None:
                    self._db.execute("COMMIT")
                    return False
                attempts, max_attempts = row
                status = "pending" if attempts < max_attempts else "failed"
                self._db.execute(
                    "UPDATE jobs SET status = ?, owner = NULL,"
                    " lease_deadline = NULL, error = ?, updated = ?"
                    " WHERE key = ?",
                    (status, error, time.time(), key),
                )
                if status == "failed":
                    self._bump("failed")
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        return True

    # ------------------------------------------------------------------
    # Sweeps (server bookkeeping: a named list of result keys)
    # ------------------------------------------------------------------

    def save_sweep(self, sweep_id: str, keys: list[str]) -> None:
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO sweeps (sweep_id, keys, created)"
                " VALUES (?, ?, ?)",
                (sweep_id, json.dumps(keys), time.time()),
            )

    def load_sweep(self, sweep_id: str) -> list[str] | None:
        with self._lock:
            row = self._db.execute(
                "SELECT keys FROM sweeps WHERE sweep_id = ?", (sweep_id,)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    # ------------------------------------------------------------------
    # Assemblies (server bookkeeping: a decomposed multi-region request
    # awaiting its windows — the parent's run-cache key maps to the
    # encoded parent request and its depth-ordered window keys)
    # ------------------------------------------------------------------

    def save_assembly(self, key: str, payload: dict) -> None:
        """Record that run-cache key *key* is assembled from windows.

        *payload* is ``{"request": <encoded parent request>,
        "windows": [[depth, window_key], ...]}`` in depth order — all
        the server's poll path needs to reassemble the aggregate once
        every (kept) window has landed in the run cache. A window key
        is the window request's own fingerprint.
        """
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO assemblies (key, payload, created)"
                " VALUES (?, ?, ?)",
                (key, json.dumps(payload, sort_keys=True), time.time()),
            )

    def load_assembly(self, key: str) -> dict | None:
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM assemblies WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------

    def job(self, key: str) -> Job | None:
        with self._lock:
            row = self._db.execute(
                "SELECT key, request, status, attempts, max_attempts,"
                " owner, lease_deadline, error"
                " FROM jobs WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        return Job(
            key=row[0],
            request=decode_request(json.loads(row[1])),
            status=row[2],
            attempts=row[3],
            max_attempts=row[4],
            owner=row[5],
            lease_deadline=row[6],
            error=row[7],
        )

    def status_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(JOB_STATUSES, 0)
        with self._lock:
            for status, count in self._db.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            ):
                counts[status] = count
        return counts

    def counters(self) -> dict[str, int]:
        """Lifetime event counters (submissions, completions, lease
        expiries, failures) — they survive queue restarts."""
        with self._lock:
            return dict(
                self._db.execute("SELECT name, value FROM counters")
            )

    def stats(self) -> dict:
        return {"jobs": self.status_counts(), "counters": self.counters()}

    def clear(self) -> int:
        """Drop every job and sweep; return the number of jobs removed
        (lifetime counters are kept — they are accounting, not state)."""
        with self._lock:
            removed = self._db.execute(
                "SELECT COUNT(*) FROM jobs"
            ).fetchone()[0]
            self._db.execute("DELETE FROM jobs")
            self._db.execute("DELETE FROM sweeps")
            self._db.execute("DELETE FROM assemblies")
        return removed

    # ------------------------------------------------------------------

    def _bump(self, name: str) -> None:
        """Increment a lifetime counter (caller holds lock/txn)."""
        self._db.execute(
            "INSERT INTO counters (name, value) VALUES (?, 1)"
            " ON CONFLICT(name) DO UPDATE SET value = value + 1",
            (name,),
        )
