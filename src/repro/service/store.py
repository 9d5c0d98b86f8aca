"""The content store: every namespace of one cache root behind one
object.

Four namespaces share the cache root and its ``corrupt/`` quarantine,
each an :class:`~repro.harness.blobstore.IntegrityStore` declaration
with its own subdirectory, suffix and schema check:

* ``runs`` — whole-run results (:class:`~repro.harness.cache.RunCache`);
* ``windows`` — per-window results of multi-region runs
  (:class:`~repro.harness.cache.WindowCache`);
* ``snapshots`` — warmed snapshots and chains
  (:class:`~repro.harness.fastforward.SnapshotStore`);
* ``fuzz`` — the fuzz corpus (:class:`FuzzNamespace`). Cases stay
  plain JSON — diffable, committable — so this namespace validates by
  JSON parse and schema check rather than checksum; a case that fails
  either is quarantined to ``corrupt/`` and counted like any rotten
  entry, and ``repro fuzz ls`` lists the rest.

:class:`ContentStore` is the run cache plus the fuzz namespace,
stats, clear and the **persistent hit/miss counters** behind
``repro cache stats``: each namespace's in-process counters are
accumulated into ``<cache root>/stats_counters.json`` by
:meth:`ContentStore.flush_counters` (called by ``run_matrix``, the
worker loop, and the server), so hit rates survive across processes.
Lookups made inside ``run_matrix`` pool workers are not flushed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.fuzz import corpus as fuzz_corpus
from repro.harness.blobstore import IntegrityStore
from repro.harness.cache import RunCache

#: Namespaces every :class:`ContentStore` exposes, in display order.
NAMESPACES = ("runs", "windows", "snapshots", "fuzz")

#: Persistent counter accumulator under the cache root.
COUNTERS_FILE = "stats_counters.json"


class FuzzNamespace(IntegrityStore):
    """The fuzz corpus under ``<cache root>/fuzz/``, keyed by the
    corpus's own case names (``0x2a``-style seed tags); values are the
    schema-checked case dicts."""

    subdir = fuzz_corpus.CORPUS_SUBDIR
    suffix = fuzz_corpus.CASE_SUFFIX

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def _decode(self, raw: bytes) -> dict:
        return fuzz_corpus.check_case(json.loads(raw))

    def put(self, workload, divergence, **kwargs) -> Path:
        """Persist one case through the corpus writer (plain JSON, no
        checksum header)."""
        return fuzz_corpus.save_case(
            workload, divergence, cache_root=self.cache_root, **kwargs
        )


class ContentStore(RunCache):
    """The run cache of one root plus its fuzz namespace, per-namespace
    stats and clear, and counter persistence. Hand it to ``run_matrix``
    (directly or as :attr:`runs`) and the matrix flushes its counters.
    """

    def __init__(
        self,
        cache_root: str | os.PathLike | None = None,
        enabled: bool = True,
    ):
        super().__init__(cache_root, enabled)
        self.fuzz = FuzzNamespace(self.cache_root, enabled)
        self._flushed: dict[str, tuple[int, int, int]] = {}

    @property
    def runs(self) -> ContentStore:
        return self

    def namespaces(self) -> dict[str, IntegrityStore]:
        return {
            "runs": self,
            "windows": self.windows,
            "snapshots": self.snapshots,
            "fuzz": self.fuzz,
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def counters_path(self) -> Path:
        return self.root / COUNTERS_FILE

    def flush_counters(self) -> None:
        """Accumulate this process's hit/miss/corruption counters into
        the persistent per-root file (read-merge-rename; concurrent
        flushes may drop each other's deltas — the counters are
        operational telemetry, not correctness state)."""
        totals = self._read_counters()
        dirty = False
        for name, store in self.namespaces().items():
            seen = self._flushed.get(name, (0, 0, 0))
            delta = (
                store.hits - seen[0],
                store.misses - seen[1],
                store.corruptions - seen[2],
            )
            if any(delta):
                dirty = True
                entry = totals.setdefault(
                    name, {"hits": 0, "misses": 0, "corruptions": 0}
                )
                entry["hits"] += delta[0]
                entry["misses"] += delta[1]
                entry["corruptions"] += delta[2]
                self._flushed[name] = (
                    store.hits, store.misses, store.corruptions
                )
        if not dirty:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.counters_path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(totals, sort_keys=True, indent=1))
            os.replace(tmp, self.counters_path)
        except OSError:
            pass  # telemetry write failure must never fail a run

    def _read_counters(self) -> dict:
        try:
            data = json.loads(self.counters_path.read_text())
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def stats(self) -> dict:
        """Per-namespace disk + counter accounting for
        ``repro cache stats`` and the server's ``/api/status``."""
        persisted = self._read_counters()
        out = {}
        for name, store in self.namespaces().items():
            lifetime = persisted.get(name, {})
            hits = lifetime.get("hits", 0) + store.hits
            misses = lifetime.get("misses", 0) + store.misses
            lookups = hits + misses
            out[name] = {
                "entries": sum(1 for _ in store.entry_paths()),
                "bytes": store.total_bytes(),
                "quarantined": store.quarantined_count(),
                "hits": hits,
                "misses": misses,
                "corruptions": (
                    lifetime.get("corruptions", 0) + store.corruptions
                ),
                "hit_rate": (hits / lookups) if lookups else None,
            }
        return out

    # ------------------------------------------------------------------
    # Clear
    # ------------------------------------------------------------------

    def clear(self, only: str | None = None) -> dict[str, int]:
        """Clear namespaces (all, or just *only*); returns
        ``{namespace: entries removed}`` so the CLI can report exactly
        what went away. Clearing everything also drops the persistent
        counters and the job queue's outstanding jobs."""
        stores = self.namespaces()
        if only is not None and only not in stores:
            raise ValueError(
                f"unknown namespace {only!r}; known: {tuple(stores)}"
            )
        # IntegrityStore.clear, not store.clear: the runs namespace is
        # this object, whose own clear() is this method.
        names = tuple(stores) if only is None else (only,)
        removed = {name: IntegrityStore.clear(stores[name]) for name in names}
        if only is not None:
            return removed
        try:
            self.counters_path.unlink()
        except OSError:
            pass
        self._flushed.clear()
        queue_db = self.root / "queue" / "jobs.db"
        if queue_db.exists():
            from repro.service.queue import JobQueue

            queue = JobQueue(self.root)
            removed["queue"] = queue.clear()
            queue.close()
        return removed
