"""Checksummed, quarantining on-disk store: the one implementation
behind every cache namespace.

Every namespace of the cache root — run results, each window of a
multi-region run included (:class:`~repro.harness.cache.RunCache`),
warmed snapshots
(:class:`~repro.harness.fastforward.SnapshotStore`) and the fuzz corpus
(:class:`~repro.service.store.FuzzNamespace`) — is an
:class:`IntegrityStore` subclass that only *declares* its subdirectory,
schema magic, file suffix and payload type. This class resolves the
root, reads, verifies, decodes, type-checks, quarantines, counts, lists
and clears entries.

Pickled entries follow a fixed plain-bytes header — magic + schema tag
+ payload SHA-256 — and the checksum is verified **before any
unpickling**, so corrupted bytes never reach the pickle parser (whose
failure modes on rotten input include attempting multi-GB allocations,
not just raising). An entry that fails validation is **quarantined** —
moved to the shared ``corrupt/`` directory, counted, and logged — then
treated as a miss, so the result is recomputed and the evidence
survives for inspection; corruption is never silently swallowed.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from pathlib import Path

from repro import settings
from repro.errors import CacheCorruptionError

log = logging.getLogger(__name__)

#: Subdirectory of the cache root where corrupt entries are moved.
CORRUPT_SUBDIR = "corrupt"

#: Exceptions a hostile or rotten payload can raise while being
#: decoded and validated. Anything else (a bug in our own code, a
#: KeyboardInterrupt, an OS-level failure) propagates — only *decode*
#: failures mean corruption.
DECODE_ERRORS = (
    pickle.PickleError,
    EOFError,
    ValueError,
    KeyError,
    IndexError,
    TypeError,
    AttributeError,
    ImportError,
    MemoryError,
)


def resolve_cache_root(cache_root: str | os.PathLike | None = None) -> Path:
    """The cache root: *cache_root* if given, else the
    ``REPRO_CACHE_DIR`` knob (default ``.repro_cache``)."""
    if cache_root is None:
        cache_root = settings.get("cache_dir")
    return Path(cache_root)


def payload_digest(blob: bytes) -> str:
    """Hex SHA-256 of a payload — the digest stored in entry headers."""
    return hashlib.sha256(blob).hexdigest()


class IntegrityStore:
    """One namespace of the cache root: key -> checksummed payload,
    with hit/miss/corruption accounting.

    Subclasses declare :attr:`subdir`, :attr:`magic` (which carries
    their schema version), :attr:`suffix` (distinct suffixes let
    namespaces share one tree without clearing each other) and
    :attr:`payload_type`. A payload is the pickled dict
    ``{field: value}``. A disabled store (``enabled=False``) never
    reads or writes but still exists as an object, so call sites need
    no branching.
    """

    #: Namespace directory under the cache root (``""`` = the root).
    subdir = ""
    magic = b""
    suffix = ".pkl"
    #: Type the payload's :attr:`field` value must have.
    payload_type: type = object
    field = "stats"

    def __init__(
        self,
        cache_root: str | os.PathLike | None = None,
        enabled: bool = True,
    ):
        self.cache_root = resolve_cache_root(cache_root)
        self.root = self.cache_root / self.subdir
        self.corrupt_dir = self.cache_root / CORRUPT_SUBDIR
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Entries that failed checksum/schema validation and were
        #: quarantined instead of being trusted.
        self.corruptions = 0

    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    @classmethod
    def encode(cls, value) -> bytes:
        """Payload bytes for *value* (what the header's digest covers)."""
        return pickle.dumps(
            {cls.field: value}, protocol=pickle.HIGHEST_PROTOCOL
        )

    def _decode(self, raw: bytes):
        """Validate one entry's header + checksum, then unpickle and
        type-check its payload.

        Integrity first, parsing second: the payload is only handed to
        ``pickle.loads`` after its checksum verifies.
        """
        magic = self.magic
        header_len = len(magic) + 64 + 1  # magic + sha256 hex + \n
        if not raw.startswith(magic):
            raise CacheCorruptionError(f"bad magic/schema (want {magic!r})")
        digest = raw[len(magic) : len(magic) + 64]
        if raw[len(magic) + 64 : header_len] != b"\n":
            raise CacheCorruptionError("malformed entry header")
        blob = raw[header_len:]
        if payload_digest(blob).encode() != digest:
            raise CacheCorruptionError("payload checksum mismatch")
        value = pickle.loads(blob)[self.field]
        if not isinstance(value, self.payload_type):
            raise CacheCorruptionError(
                f"payload is {type(value).__name__}, "
                f"not {self.payload_type.__name__}"
            )
        return value

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a corrupt entry aside — evidence, not a silent miss."""
        self.corruptions += 1
        dest = self.corrupt_dir / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            where = str(dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            where = "(unlinked; quarantine failed)"
        log.warning(
            "quarantined corrupt cache entry %s -> %s: %s",
            path.name,
            where,
            reason,
        )

    def _load(self, key: str):
        """The decoded value for *key*, or ``None`` on a miss.

        An entry that fails verification or decoding is quarantined and
        counted as both a corruption and a miss.
        """
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            # Unreadable but present (permissions, I/O error): a miss,
            # but not evidence of corruption — leave the file alone.
            log.warning("unreadable cache entry %s: %s", path, exc)
            self.misses += 1
            return None
        try:
            value = self._decode(raw)
        except CacheCorruptionError as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        except DECODE_ERRORS as exc:
            self._quarantine(path, CacheCorruptionError(str(exc), str(path)))
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(self, key: str, value) -> None:
        """Write *value* under *key* (atomic rename, last writer wins).
        A disabled store encodes nothing, so an in-memory chain build
        never pays a pickle per member."""
        if not self.enabled:
            return
        blob = self.encode(value)
        digest = payload_digest(blob)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(self.magic + digest.encode() + b"\n" + blob)
        os.replace(tmp, path)

    # ------------------------------------------------------------------

    def get(self, key: str):
        """The stored value for *key*, or ``None`` on a miss (corrupt
        entries quarantined and counted)."""
        return self._load(key)

    def put(self, key: str, value) -> None:
        """Store *value* under *key*."""
        self._write(key, value)

    def contains(self, key: str) -> bool:
        """Cheap existence probe — no read, no checksum, no counters.

        Used to plan work (e.g. "is this snapshot chain fully built?")
        without paying a multi-megabyte unpickle per member. A corrupt
        entry still reads as present; a lookup is what detects and
        quarantines it when the payload is actually needed.
        """
        return self.enabled and self._path(key).exists()

    def items(self):
        """``(key, value, path)`` for every live entry that verifies;
        corrupt entries met on the way are quarantined."""
        for path in self.entry_paths():
            key = path.name.removesuffix(self.suffix)
            value = self._load(key)
            if value is not None:
                yield key, value, path

    def quarantined_count(self) -> int:
        """Number of quarantined entries bearing this store's suffix."""
        if not self.corrupt_dir.exists():
            return 0
        return sum(1 for _ in self.corrupt_dir.glob(f"*{self.suffix}"))

    def total_bytes(self) -> int:
        """Total on-disk size of live entries (headers included)."""
        return sum(path.stat().st_size for path in self.entry_paths())

    def entry_paths(self) -> list[Path]:
        """Every live entry file (quarantined ones excluded)."""
        if not self.root.exists():
            return []
        corrupt = self.corrupt_dir
        return [
            path
            for path in sorted(self.root.rglob(f"*{self.suffix}"))
            if corrupt not in path.parents
        ]

    def clear(self) -> int:
        """Delete every entry with this store's suffix (quarantined
        ones included); return the number removed."""
        paths = self.entry_paths()
        if self.corrupt_dir.exists():
            paths += self.corrupt_dir.glob(f"*{self.suffix}")
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
