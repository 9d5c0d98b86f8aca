"""Deterministic fault injection for the experiment harness.

Resilience is only trustworthy if it is itself under test. A
:class:`FaultPlan` is a seeded, picklable description of *exactly*
which faults to inject where: worker crashes, worker hangs, transient
failures, and cache corruption. Determinism comes from keying every
decision on ``(seed, request identity, attempt number)`` through
SHA-256 — the same plan injects the same faults on every run, in every
worker process, regardless of scheduling.

Plans are consumed by :func:`~repro.harness.parallel.run_matrix`
(``fault_plan=``): worker-side faults fire inside the pool worker just
before the simulation starts; cache corruption is applied to the
on-disk entries before the matrix consults the cache. The chaos suite
(``tests/harness/test_chaos.py``) uses plans to assert that matrices
converge to bit-identical :class:`~repro.uarch.stats.RunStats` under
injected faults.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
from dataclasses import dataclass

from repro.errors import SimulationError, WorkerCrashError

#: Exit code used by injected worker crashes (distinguishable from
#: ordinary interpreter deaths in pool post-mortems).
CRASH_EXIT_CODE = 86


class FaultKind(enum.Enum):
    """What a planned fault does to its target."""

    #: The worker process dies immediately (``os._exit``), breaking the
    #: process pool mid-request.
    CRASH = "crash"
    #: The worker sleeps past any reasonable per-request timeout, then
    #: proceeds normally — exercising timeout detection and worker
    #: termination.
    HANG = "hang"
    #: The worker raises a transient :class:`SimulationError` —
    #: exercising plain retry with backoff.
    FLAKY = "flaky"
    #: One byte of the request's on-disk cache entry is flipped —
    #: exercising checksum verification and quarantine.
    CORRUPT_CACHE = "corrupt-cache"


def request_key(request) -> str:
    """Stable identity of a request for fault targeting.

    Unlike the cache fingerprint this is independent of the source-tree
    hash, so a plan authored in a test targets the same request no
    matter what revision executes it.
    """
    payload = dataclasses.asdict(request)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def _roll(seed: int, kind: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision."""
    digest = hashlib.sha256(
        f"{seed}:{kind}:{attempt}:{key}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of injected faults.

    Two targeting modes compose freely:

    * **Explicit** — :meth:`targeting` pins a :class:`FaultKind` to one
      ``(request, attempt)`` pair (or one request, for cache
      corruption). This is what precision tests use.
    * **Probabilistic** — the ``*_rate`` fields inject each kind with
      the given probability per ``(request, attempt)``, drawn
      deterministically from the seed. This is what chaos sweeps use.

    The plan crosses the process-pool boundary with every request, so
    it must stay small and picklable: explicit targets are stored as
    ``(request_key, attempt, kind_value)`` string tuples.
    """

    seed: int = 0
    #: Explicit worker faults: ``(request_key, attempt, kind value)``.
    injected: tuple[tuple[str, int, str], ...] = ()
    #: Requests whose on-disk cache entries are corrupted (by key).
    corrupt_keys: frozenset[str] = frozenset()
    #: Probabilistic per-(request, attempt) injection rates.
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    flaky_rate: float = 0.0
    #: How long an injected hang sleeps. Far past any sane timeout by
    #: default; tests lower it so a leaked worker cannot outlive them.
    hang_seconds: float = 3600.0

    @classmethod
    def targeting(
        cls,
        faults: dict,
        seed: int = 0,
        hang_seconds: float = 3600.0,
        corrupt=(),
        **rates,
    ) -> "FaultPlan":
        """Build a plan from ``{(request, attempt): FaultKind}``.

        ``FaultKind.CORRUPT_CACHE`` entries may be keyed by a bare
        request (the attempt is irrelevant for at-rest corruption), or
        passed as an iterable of requests via ``corrupt=``.
        """
        injected = []
        corrupt = {request_key(request) for request in corrupt}
        for target, kind in faults.items():
            if kind is FaultKind.CORRUPT_CACHE:
                request = target[0] if isinstance(target, tuple) else target
                corrupt.add(request_key(request))
                continue
            request, attempt = target
            injected.append((request_key(request), attempt, kind.value))
        return cls(
            seed=seed,
            injected=tuple(sorted(injected)),
            corrupt_keys=frozenset(corrupt),
            hang_seconds=hang_seconds,
            **rates,
        )

    # ------------------------------------------------------------------

    def fault_for(self, request, attempt: int) -> FaultKind | None:
        """The worker fault planned for *request*'s *attempt*, if any."""
        key = request_key(request)
        for planned_key, planned_attempt, kind in self.injected:
            if planned_key == key and planned_attempt == attempt:
                return FaultKind(kind)
        for kind, rate in (
            (FaultKind.CRASH, self.crash_rate),
            (FaultKind.HANG, self.hang_rate),
            (FaultKind.FLAKY, self.flaky_rate),
        ):
            if rate > 0.0 and _roll(self.seed, kind.value, key, attempt) < rate:
                return kind
        return None

    @property
    def active(self) -> bool:
        """Does this plan inject anything at all?"""
        return bool(
            self.injected
            or self.corrupt_keys
            or self.crash_rate
            or self.hang_rate
            or self.flaky_rate
        )

    # ------------------------------------------------------------------

    def perturb(self, request, attempt: int, in_process: bool = False) -> None:
        """Apply the planned worker fault for ``(request, attempt)``.

        Called inside the pool worker before the simulation runs. With
        ``in_process=True`` (sequential execution in the harness
        process) an injected crash raises :class:`WorkerCrashError`
        instead of killing the interpreter.
        """
        kind = self.fault_for(request, attempt)
        if kind is None or kind is FaultKind.CORRUPT_CACHE:
            return
        if kind is FaultKind.CRASH:
            if in_process:
                raise WorkerCrashError(
                    f"injected worker crash (attempt {attempt})",
                    attempts=attempt + 1,
                )
            os._exit(CRASH_EXIT_CODE)
        if kind is FaultKind.HANG:
            time.sleep(self.hang_seconds)
            return
        # FaultKind.FLAKY
        raise SimulationError(f"injected transient failure (attempt {attempt})")

    def corrupt_cache_entries(self, cache, requests) -> int:
        """Flip one byte in each targeted request's cache entry.

        The flipped offset is drawn deterministically from the seed.
        Returns the number of entries actually corrupted (entries that
        do not exist on disk are silently skipped).
        """
        from repro.harness.cache import fingerprint

        corrupted = 0
        seen = set()
        for request in requests:
            key = request_key(request)
            if key in seen or key not in self.corrupt_keys:
                continue
            seen.add(key)
            path = cache._path(fingerprint(request))
            try:
                raw = bytearray(path.read_bytes())
            except OSError:
                continue
            if not raw:
                continue
            offset = int(
                _roll(self.seed, "corrupt-offset", key, 0) * len(raw)
            )
            raw[offset] ^= 0xFF
            path.write_bytes(bytes(raw))
            corrupted += 1
        return corrupted
