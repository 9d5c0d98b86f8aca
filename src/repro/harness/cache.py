"""Content-addressed on-disk cache for simulation runs.

Every paper experiment is a pure function of its
:class:`~repro.harness.parallel.RunRequest` — the simulator is
deterministic (see ``tests/harness/test_determinism.py``) — so a run's
:class:`~repro.uarch.stats.RunStats` can be cached on disk and replayed
for free. Keys are content-addressed:

``key = sha256(schema version + source-tree hash + canonical request)``

where the *source-tree hash* digests every ``.py`` file under
``src/repro/``. Any simulator change therefore invalidates the whole
cache cleanly, while re-rendering a table after an unrelated edit (docs,
tests, benchmarks) is a pure cache hit.

Entries live under ``.repro_cache/<key[:2]>/<key>.pkl`` (override the
root with ``REPRO_CACHE_DIR``) with the checksummed-payload /
corrupt-quarantine disk discipline of
:class:`~repro.harness.blobstore.IntegrityStore`; a corrupt entry is
moved to ``.repro_cache/corrupt/``, counted
(:attr:`RunCache.corruptions`), and logged, then treated as a miss.
A window of a multi-region run is itself a single-window
``RunRequest`` (:func:`~repro.harness.parallel.window_request`), so its
result is an ordinary entry keyed by :func:`fingerprint`. A run cache
carries the ``snapshots`` namespace
(:class:`~repro.harness.fastforward.SnapshotStore`) under the same
root. Escape hatches:
the ``--no-cache`` CLI flag and ``repro cache clear``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.harness.blobstore import IntegrityStore
from repro.uarch.stats import RunStats

__all__ = [
    "RunCache",
    "SCHEMA_VERSION",
    "content_key",
    "fingerprint",
    "request_payload",
    "source_tree_hash",
]

#: Bump when the cache payload layout changes; old entries become
#: misses instead of unpickling into the wrong shape. (2: plain-bytes
#: integrity header + checksummed pickle payload.)
SCHEMA_VERSION = 2

_source_hash_cache: str | None = None


def source_tree_hash() -> str:
    """Digest of every Python source file under ``src/repro/``.

    Computed once per process: the source tree cannot change underneath
    a running experiment in any way the cache should honor.
    """
    global _source_hash_cache
    if _source_hash_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _source_hash_cache = digest.hexdigest()
    return _source_hash_cache


def content_key(payload: dict, source_hash: str | None = None) -> str:
    """The one key scheme of every store namespace: SHA-256 of
    *payload* plus the source-tree hash, as canonical JSON."""
    payload = {
        **payload,
        "source": source_hash if source_hash is not None else source_tree_hash(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def request_payload(request) -> dict:
    """The canonical form of *request* that every key digests.

    ``fused_blocks`` names a retired fetch tier that every request once
    carried as ``True``; it stays in the payload as that constant so no
    stored key moved when the tier was removed.
    """
    return {**dataclasses.asdict(request), "fused_blocks": True}


def fingerprint(request, source_hash: str | None = None) -> str:
    """Content-addressed key for *request* (a ``RunRequest``)."""
    return content_key(
        {"schema": SCHEMA_VERSION, "request": request_payload(request)},
        source_hash,
    )


# No code under ``src`` constructs this class; the end-to-end
# benchmark's tracer imports it and wraps its ``get``/``put``, so it
# stays declared until that import goes.
class WindowCache(IntegrityStore):
    subdir = "windows"
    magic = b"repro-window-%d\n" % SCHEMA_VERSION
    suffix = ".win"
    payload_type = RunStats


class RunCache(IntegrityStore):
    """Run results at the cache root, keyed by :func:`fingerprint`:
    whole runs and single windows of multi-region runs alike.

    A run cache knows its ``snapshots`` sibling under the same root.
    The snapshot store is always enabled, so a disabled run cache
    (``--no-cache``) still reuses warmed snapshots instead of
    re-warming every window from the entry point.
    """

    magic = b"repro-cache-%d\n" % SCHEMA_VERSION
    payload_type = RunStats

    def __init__(
        self,
        cache_root: str | os.PathLike | None = None,
        enabled: bool = True,
    ):
        # Local import: fastforward imports this module for the key
        # scheme.
        from repro.harness.fastforward import SnapshotStore

        super().__init__(cache_root, enabled)
        self.snapshots = SnapshotStore(self.cache_root)

    def get(self, request) -> RunStats | None:
        """Return the cached stats for *request*, or ``None`` on a miss
        (corrupt entries quarantined and counted)."""
        return self._load(fingerprint(request))

    def get_by_key(self, key: str) -> RunStats | None:
        """Like :meth:`get`, addressed by an already-computed
        fingerprint — the experiment service's serve path, which holds
        result keys, not request objects."""
        return self._load(key)

    def put(self, request, stats: RunStats) -> None:
        """Store *stats* for *request* (atomic rename, last writer wins)."""
        self._write(fingerprint(request), stats)

    def flush_counters(self) -> None:
        """No-op: a bare run cache keeps its counters in process;
        :class:`~repro.service.store.ContentStore` persists them."""
