"""``repro serve`` — the experiment service's HTTP front end.

A small asyncio HTTP/1.1 server (stdlib only) over one
:class:`~repro.service.store.ContentStore` and one
:class:`~repro.service.queue.JobQueue`. The serving contract is the
ROADMAP's: **hot results are served, not recomputed** — a sweep query
whose results are all cached is answered entirely from the store with
one O(1) content-addressed read per request, and its only queue write
is the ``save_sweep`` row that registers it for polling; only misses
are enqueued, for ``repro worker`` processes to drain.

Endpoints (all JSON):

* ``GET  /healthz`` — liveness.
* ``GET  /api/status`` — server counters + queue stats + store stats.
* ``POST /api/sweep`` — body ``{"requests": [<request JSON>, ...]}``.
  Deduplicates, answers every cache hit inline (checksummed pickled
  RunStats, see :mod:`repro.service.codec`), enqueues every miss, and
  registers the sweep for polling. Response carries ``sweep``,
  ``results`` (by key), ``pending``/``failed`` keys, and ``enqueued``.
* ``GET  /api/sweep/<id>`` — re-poll a registered sweep. Pure serve
  path: store reads only, never enqueues.
* ``GET  /api/result/<key>`` — one result by content address (404
  while it is still being computed).

The server never simulates anything itself: it is I/O-bound glue
between the store and the queue, which is why one asyncio task per
connection suffices.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging

from repro.harness.cache import fingerprint, window_fingerprint
from repro.harness.parallel import assemble_windows, window_request
from repro.service.codec import decode_request, encode_request, encode_stats
from repro.service.queue import JobQueue
from repro.service.store import ContentStore

log = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8737

#: Cap on request-body size (a sweep of ~100k requests; far beyond any
#: real matrix, small enough to bound a bogus Content-Length).
MAX_BODY_BYTES = 64 * 1024 * 1024


def sweep_id(keys: list[str]) -> str:
    """Content address of a sweep: digest of its result keys in
    request order — the same matrix resubmitted gets the same id."""
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


class ExperimentServer:
    """One service instance: store + queue + asyncio HTTP listener."""

    def __init__(
        self,
        store: ContentStore | None = None,
        queue: JobQueue | None = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ):
        self.store = store if store is not None else ContentStore()
        self.queue = (
            queue if queue is not None else JobQueue(self.store.root)
        )
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Serve-path accounting (process lifetime; surfaced by
        #: ``/api/status`` and asserted by the service-smoke CI job).
        self.counters = {
            "sweeps": 0,
            "requests": 0,
            "served_from_cache": 0,
            "enqueued": 0,
            #: Window-decomposition accounting: window jobs enqueued
            #: (a subset of ``enqueued``), and multi-region parents
            #: reassembled from per-window store hits.
            "window_jobs": 0,
            "assembled": 0,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns ``(status_code, payload)``."""
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/api/status":
            self.store.flush_counters()
            return 200, {
                "server": dict(self.counters),
                "queue": self.queue.stats(),
                "store": self.store.stats(),
            }
        if method == "POST" and path == "/api/sweep":
            return self._submit_sweep(body)
        if method == "GET" and path.startswith("/api/sweep/"):
            return self._poll_sweep(path.removeprefix("/api/sweep/"))
        if method == "GET" and path.startswith("/api/result/"):
            return self._fetch_result(path.removeprefix("/api/result/"))
        return 404, {"error": f"no route for {method} {path}"}

    def _submit_sweep(self, body: bytes):
        try:
            payload = json.loads(body)
            requests = [
                decode_request(item) for item in payload["requests"]
            ]
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"malformed sweep body: {exc}"}
        keys = [fingerprint(request) for request in requests]
        sid = sweep_id(keys)
        self.queue.save_sweep(sid, keys)
        self.counters["sweeps"] += 1
        self.counters["requests"] += len(requests)

        results: dict[str, dict] = {}
        pending: list[str] = []
        enqueued = 0
        seen: set[str] = set()
        for request, key in zip(requests, keys):
            if key in seen:
                continue
            seen.add(key)
            stats = self.store.runs.get_by_key(key)
            if stats is not None:
                # Hot path: answered inline from the content-addressed
                # store — the queue is never touched for a hit.
                results[key] = encode_stats(stats)
                self.counters["served_from_cache"] += 1
                continue
            stats, fresh = self._submit_request(request, key)
            if stats is not None:
                # Partially-or-fully warm multi-region request answered
                # entirely from per-window hits: assembled, published
                # to the run cache, served — still zero simulation.
                results[key] = encode_stats(stats)
                self.counters["served_from_cache"] += 1
            else:
                enqueued += fresh
                pending.append(key)
        self.counters["enqueued"] += enqueued
        return 200, {
            "sweep": sid,
            "keys": keys,
            "results": results,
            "pending": pending,
            "failed": {},
            "enqueued": enqueued,
        }

    def _submit_request(self, request, key: str) -> tuple[object, int]:
        """Resolve one run-cache miss: serve it from window hits, or
        enqueue the missing work; returns ``(stats | None, enqueued)``.

        A multi-region request with an explicit ``sample_period`` has a
        closed-form window schedule (no workload build — the server
        never simulates), so it is decomposed: each window already in
        the ``windows`` namespace is a hit, each missing window becomes
        one ``kind="window"`` job, and the parent is registered as an
        *assembly* for the poll path. A half-warm 8→10-region re-sweep
        therefore enqueues only the 2 new windows. Requests without an
        explicit period (schedule depends on workload length) and
        unsampled requests stay whole-request jobs.
        """
        if request.sample_regions < 2 or request.sample_period <= 0:
            _, fresh = self.queue.submit(request)
            return None, int(fresh)
        windows = [
            (depth, window_fingerprint(request, depth))
            for depth in request.schedule().depths
        ]
        self.queue.save_assembly(
            key,
            {
                "request": encode_request(request),
                "windows": [[depth, wkey] for depth, wkey in windows],
            },
        )
        stats, _error = self._assemble(key)
        if stats is not None:
            return stats, 0
        enqueued = 0
        for depth, wkey in windows:
            if self.store.windows.get(wkey) is not None:
                continue
            _, fresh = self.queue.submit(
                window_request(request, depth), kind="window", key=wkey
            )
            enqueued += int(fresh)
        self.counters["window_jobs"] += enqueued
        return None, enqueued

    def _assemble(self, key: str) -> tuple[object, str | None]:
        """Try to reassemble run-cache key *key* from its windows with
        :func:`~repro.harness.parallel.assemble_windows`: a short chain
        member ends the fold, so a halted chain is served even while
        its never-needed tail windows are missing. Returns
        ``(stats, None)`` on success — publishing the aggregate to the
        run cache so every later poll is a plain O(1) hit —
        ``(None, error)`` if a needed window's job failed, and
        ``(None, None)`` while still pending (or if *key* has no
        assembly at all).
        """
        assembly = self.queue.load_assembly(key)
        if assembly is None:
            return None, None
        wkeys = dict(assembly["windows"])
        failed: list[str] = []

        def measure(depth: int):
            stats = self.store.windows.get(wkeys[depth])
            if stats is None:
                job = self.queue.job(wkeys[depth])
                if job is not None and job.status == "failed":
                    failed.append(
                        f"window at depth {depth}: {job.error or 'failed'}"
                    )
            return stats

        aggregate = assemble_windows(wkeys, measure)
        if aggregate is None:
            return None, (failed[0] if failed else None)
        request = decode_request(assembly["request"])
        self.store.runs.put(request, aggregate)
        self.counters["assembled"] += 1
        return aggregate, None

    def _poll_sweep(self, sid: str):
        keys = self.queue.load_sweep(sid)
        if keys is None:
            return 404, {"error": f"unknown sweep {sid!r}"}
        results: dict[str, dict] = {}
        pending: list[str] = []
        failed: dict[str, str] = {}
        for key in dict.fromkeys(keys):  # dedupe, keep order
            stats = self.store.runs.get_by_key(key)
            error = None
            if stats is None:
                # Decomposed parent: fold finished windows back into
                # the whole-run aggregate (and into the run cache) the
                # moment the last needed one lands.
                stats, error = self._assemble(key)
            if stats is not None:
                results[key] = encode_stats(stats)
                self.counters["served_from_cache"] += 1
                continue
            if error is not None:
                failed[key] = error
                continue
            job = self.queue.job(key)
            if job is not None and job.status == "failed":
                failed[key] = job.error or "failed"
            else:
                pending.append(key)
        return 200, {
            "sweep": sid,
            "keys": keys,
            "results": results,
            "pending": pending,
            "failed": failed,
            "enqueued": 0,
        }

    def _fetch_result(self, key: str):
        stats = self.store.runs.get_by_key(key)
        if stats is None:
            stats, _error = self._assemble(key)
        if stats is None:
            job = self.queue.job(key)
            status = job.status if job is not None else "unknown"
            return 404, {"error": f"no result for {key}", "status": status}
        self.counters["served_from_cache"] += 1
        return 200, {"key": key, "stats": encode_stats(stats)}

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                writer.close()
                return
            method, path = parts[0], parts[1]
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    # HTTP allows ASCII digits only: anything else
                    # (``abc``, ``-5``) is answered 400, never read.
                    ascii_digits = value.isascii() and value.isdigit()
                    length = int(value) if ascii_digits else -1
            if length < 0:
                status, payload = 400, {"error": "bad Content-Length"}
            elif length > MAX_BODY_BYTES:
                status, payload = 413, {"error": "body too large"}
            else:
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload = self._route(method, path, body)
                except Exception as exc:  # noqa: BLE001 — boundary
                    log.exception("service request failed")
                    status, payload = 500, {"error": str(exc)}
            data = json.dumps(payload).encode()
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      413: "Payload Too Large", 500: "Error"}.get(status, "")
            writer.write(
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n".encode() + data
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown race
                pass

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # An ephemeral port (port=0) resolves at bind time.
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        log.info("repro serve listening on %s:%d", self.host, self.port)
        async with self._server:
            await self._server.serve_forever()

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    store: ContentStore | None = None,
    queue: JobQueue | None = None,
) -> None:
    """Blocking entry point for ``repro serve``."""
    server = ExperimentServer(store=store, queue=queue, host=host, port=port)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
