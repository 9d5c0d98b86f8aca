"""HTTP client for the experiment service.

:class:`ServiceClient` is how :func:`~repro.harness.parallel.run_matrix`
becomes a thin client: when ``REPRO_SERVICE_URL`` (the ``--service``
CLI flag) names a running ``repro serve``, cache misses are submitted
as one sweep, polled until ``repro worker`` processes publish the
results, and decoded back to :class:`~repro.uarch.stats.RunStats` —
checksummed on the wire, bit-identical to an in-process run (asserted
by ``tests/service/test_service.py``).

Stdlib only: ``urllib.request`` over the hand-rolled asyncio server.
Connection errors, bad statuses, and checksum failures all surface as
:class:`~repro.errors.ServiceError` so ``run_matrix`` can apply its
normal ``on_error`` policy.
"""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request

from repro.errors import ServiceError
from repro.service.codec import decode_stats, encode_request

log = logging.getLogger(__name__)

#: Seconds between sweep polls while jobs are pending.
DEFAULT_POLL_SECONDS = 0.25

#: Per-HTTP-request socket timeout (the *sweep* deadline is separate).
DEFAULT_HTTP_TIMEOUT = 30.0


class ServiceClient:
    """Blocking JSON client for one ``repro serve`` endpoint."""

    def __init__(
        self,
        url: str,
        http_timeout: float = DEFAULT_HTTP_TIMEOUT,
        poll: float = DEFAULT_POLL_SECONDS,
    ):
        self.url = url.rstrip("/")
        self.http_timeout = http_timeout
        self.poll = poll

    # ------------------------------------------------------------------

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.http_timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001 — error-path best effort
                detail = ""
            raise ServiceError(
                f"service returned {exc.code} for {method} {path}"
                + (f": {detail}" if detail else "")
            ) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServiceError(
                f"service unreachable at {self.url}: {exc}"
            ) from exc

    def healthz(self) -> bool:
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except ServiceError:
            return False

    def status(self) -> dict:
        return self._call("GET", "/api/status")

    def submit_sweep(self, requests) -> dict:
        """POST one sweep; returns the server's full response (inline
        results for every cache hit, ``pending`` keys for the rest)."""
        return self._call(
            "POST",
            "/api/sweep",
            {"requests": [encode_request(r) for r in requests]},
        )

    def poll_sweep(self, sweep_id: str) -> dict:
        return self._call("GET", f"/api/sweep/{sweep_id}")

    # ------------------------------------------------------------------

    def run(
        self, requests, deadline: float | None = None
    ) -> tuple[dict, dict]:
        """Submit *requests* and wait for every result.

        Returns ``(results, failed)``: decoded
        :class:`~repro.uarch.stats.RunStats` by fingerprint key, and
        error strings by key for jobs the service gave up on. Raises
        :class:`~repro.errors.ServiceError` if *deadline* (wall-clock
        seconds) expires with jobs still pending — an absent worker
        looks exactly like this.
        """
        requests = list(requests)
        if not requests:
            return {}, {}
        response = self.submit_sweep(requests)
        start = time.monotonic()
        results = {
            key: decode_stats(payload)
            for key, payload in response["results"].items()
        }
        failed = dict(response.get("failed", {}))
        sweep = response["sweep"]
        while response.get("pending"):
            if (
                deadline is not None
                and time.monotonic() - start > deadline
            ):
                raise ServiceError(
                    f"sweep {sweep} still has "
                    f"{len(response['pending'])} pending job(s) after "
                    f"{deadline:.1f}s — is a `repro worker` running?",
                    key=response["pending"][0],
                )
            time.sleep(self.poll)
            response = self.poll_sweep(sweep)
            for key, payload in response["results"].items():
                if key not in results:
                    results[key] = decode_stats(payload)
            failed.update(response.get("failed", {}))
        return results, failed
