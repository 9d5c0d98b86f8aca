"""Set-associative caches and the two-level data hierarchy of Table 1.

The hierarchy is a latency model with full hit/miss/fill behavior:
write-back write-allocate caches with true LRU, a write buffer that
absorbs store misses, a unified 64-entry prefetch/victim buffer checked
in parallel with the L1, and hooks for the stream prefetcher.

Timing is returned per access as a load-use latency; port and bandwidth
contention are enforced by the core (which owns the load/store ports).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.config import CacheConfig, MachineConfig


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with LRU.

    Lines are tracked by line address (``addr // line_bytes``); data
    contents live in the functional memory, so the cache stores presence
    and dirtiness only.

    **Packed representation.** Each set is a flat list of ints, one per
    resident line, most recent last: ``(line_addr << 1) | dirty``. A
    tag compare is one shift, a dirty update is one ``|=``, and no
    tuples are allocated on the access path — the functional-warming
    loop probes these sets on every memory operation, so the entry
    layout is its hottest data structure. :meth:`image` /
    :meth:`load_image` convert to and from the legacy picklable
    ``(line_addr, dirty_bool)`` form, so snapshot payloads (and
    therefore digests) are unchanged.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        # Each set is a list of (line_addr << 1) | dirty, MRU last.
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def line_of(self, addr: int) -> int:
        """Return the line address containing byte address *addr*."""
        return addr >> self._line_shift

    def lookup(self, addr: int, is_store: bool = False) -> bool:
        """Access the cache; return True on hit. Updates LRU and dirty."""
        line = addr >> self._line_shift
        bucket = self._sets[line & self._set_mask]
        for i, entry in enumerate(bucket):
            if entry >> 1 == line:
                del bucket[i]
                bucket.append(entry | is_store)
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe(self, addr: int) -> bool:
        """Check presence without updating LRU or counters."""
        line = addr >> self._line_shift
        for entry in self._sets[line & self._set_mask]:
            if entry >> 1 == line:
                return True
        return False

    def fill(self, addr: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert the line containing *addr*.

        Returns the evicted ``(line_addr, dirty)`` victim, or ``None``.
        Filling a line already present only updates its dirty bit.
        """
        line = addr >> self._line_shift
        bucket = self._sets[line & self._set_mask]
        for i, entry in enumerate(bucket):
            if entry >> 1 == line:
                del bucket[i]
                bucket.append(entry | dirty)
                return None
        victim = None
        if len(bucket) >= self.config.associativity:
            evicted = bucket.pop(0)
            victim = (evicted >> 1, bool(evicted & 1))
        bucket.append((line << 1) | dirty)
        return victim

    def image(self) -> list[list[tuple[int, bool]]]:
        """Picklable copy of the sets in the legacy
        ``(line_addr, dirty_bool)`` tuple form (MRU last)."""
        return [
            [(entry >> 1, bool(entry & 1)) for entry in bucket]
            for bucket in self._sets
        ]

    def load_image(self, image: list[list[tuple[int, bool]]]) -> None:
        """Install a legacy-form :meth:`image` into the packed sets."""
        self._sets = [
            [(line << 1) | (1 if dirty else 0) for line, dirty in bucket]
            for bucket in image
        ]


class PrefetchVictimBuffer:
    """Unified fully-associative prefetch/victim buffer (64 entries).

    Checked in parallel with the L1 on every access; holds both
    prefetched lines and L1 victims, at L1-line granularity. A hit
    promotes the line into the L1.
    """

    def __init__(self, entries: int, line_bytes: int):
        self._entries = entries
        self._line_shift = line_bytes.bit_length() - 1
        self._lines: dict[int, bool] = {}  # line -> was_prefetch
        self.hits = 0
        self.prefetch_hits = 0

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def lookup(self, addr: int) -> bool | None:
        """Remove and return the line's provenance if present.

        Returns ``None`` on miss; otherwise True if the line was brought
        in by a prefetch, False if it was an L1 victim.
        """
        line = self.line_of(addr)
        was_prefetch = self._lines.pop(line, None)
        if was_prefetch is None:
            return None
        self.hits += 1
        if was_prefetch:
            self.prefetch_hits += 1
        return was_prefetch

    def contains(self, addr: int) -> bool:
        return self.line_of(addr) in self._lines

    def insert(self, addr: int, from_prefetch: bool) -> None:
        """Insert a line, evicting the oldest entry if full (FIFO)."""
        line = self.line_of(addr)
        if line in self._lines:
            # Keep the existing entry's provenance; refresh recency.
            from_prefetch = self._lines.pop(line) and from_prefetch
        elif len(self._lines) >= self._entries:
            oldest = next(iter(self._lines))
            del self._lines[oldest]
        self._lines[line] = from_prefetch


@dataclass(slots=True)
class AccessResult:
    """Outcome of one data access through the hierarchy."""

    latency: int
    l1_hit: bool
    l2_hit: bool = False
    buffer_hit: bool = False
    to_memory: bool = False
    #: An L1 miss as observed by the program (false when the prefetch
    #: buffer or write buffer absorbed it).
    counts_as_miss: bool = False


@dataclass
class HierarchyStats:
    """Aggregate statistics for the data hierarchy."""

    loads: int = 0
    stores: int = 0
    load_l1_misses: int = 0
    store_l1_misses: int = 0
    l2_misses: int = 0
    buffer_hits: int = 0
    prefetches_issued: int = 0
    prefetch_buffer_hits: int = 0
    slice_prefetches: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class DataHierarchy:
    """L1D + unified L2 + memory, with prefetch/victim buffer hooks.

    The stream prefetcher (:mod:`repro.uarch.prefetch`) is attached by
    the core and notified of L1 misses; its prefetches land in the
    prefetch/victim buffer via :meth:`prefetch_fill`.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.l1 = SetAssociativeCache(config.l1d, "L1D")
        self.l2 = SetAssociativeCache(config.l2, "L2")
        self.buffer = PrefetchVictimBuffer(
            config.prefetch.buffer_entries, config.l1d.line_bytes
        )
        self.stats = HierarchyStats()
        self._miss_listener = None
        #: MSHR-style arrival tracking: L1 line -> cycle its fill
        #: completes. A second access to an in-flight line merges and
        #: waits only for the remaining latency.
        self._arrival: dict[int, int] = {}

    def set_miss_listener(self, listener) -> None:
        """Register ``listener(addr, now)``, invoked on L1 misses."""
        self._miss_listener = listener

    # ------------------------------------------------------------------

    def _pending_extra(self, addr: int, now: int) -> int:
        """Remaining fill latency if *addr*'s line is still in flight."""
        line = self.l1.line_of(addr)
        arrival = self._arrival.get(line)
        if arrival is None:
            return 0
        if arrival <= now:
            del self._arrival[line]
            return 0
        return arrival - now

    def access(
        self, addr: int, is_store: bool, from_slice: bool = False, now: int = 0
    ) -> AccessResult:
        """Perform a demand access at cycle *now*; return timing/outcome.

        Store misses retire into the write buffer: the line is still
        allocated (write-allocate), but the store's latency is the L1
        latency and the miss does not stall the pipeline. Accesses to
        lines with an in-flight fill (demand or prefetch) pay only the
        remaining latency; an access fully covered by an earlier
        prefetch does not count as a miss.
        """
        l1_latency = self.config.l1d.latency
        if is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1

        if self.l1.lookup(addr, is_store):
            extra = self._pending_extra(addr, now)
            return AccessResult(
                latency=max(l1_latency, extra),
                l1_hit=True,
                counts_as_miss=extra > l1_latency,
            )

        # L1 miss: the prefetch/victim buffer is checked in parallel.
        was_prefetch = self.buffer.lookup(addr)
        if was_prefetch is not None:
            self.stats.buffer_hits += 1
            if was_prefetch:
                self.stats.prefetch_buffer_hits += 1
            self._fill_l1(addr, dirty=is_store)
            # A buffer hit still trains the stream prefetcher: the
            # access would have missed the L1, so the stream is live and
            # must keep running ahead.
            if self._miss_listener is not None:
                self._miss_listener(addr, now)
            extra = self._pending_extra(addr, now)
            latency = l1_latency if is_store else max(l1_latency, extra)
            return AccessResult(
                latency=latency,
                l1_hit=False,
                buffer_hit=True,
                counts_as_miss=extra > l1_latency,
            )

        if is_store:
            self.stats.store_l1_misses += 1
        else:
            self.stats.load_l1_misses += 1
        if self._miss_listener is not None:
            self._miss_listener(addr, now)
        if from_slice:
            self.stats.slice_prefetches += 1

        if self.l2.lookup(addr, is_store=False):
            latency = l1_latency + self.config.l2.latency
            self._fill_l1(addr, dirty=is_store)
            result = AccessResult(
                latency=latency, l1_hit=False, l2_hit=True, counts_as_miss=True
            )
        else:
            latency = (
                l1_latency + self.config.l2.latency + self.config.memory_latency
            )
            self.l2.fill(addr)
            self._fill_l1(addr, dirty=is_store)
            result = AccessResult(
                latency=latency,
                l1_hit=False,
                to_memory=True,
                counts_as_miss=True,
            )
        self._arrival[self.l1.line_of(addr)] = now + result.latency
        if is_store:
            # Write buffer absorbs the store's latency.
            result.latency = l1_latency
        return result

    def prefetch_fill(self, addr: int, now: int = 0) -> None:
        """Launch a prefetch of *addr*'s line into the prefetch buffer.

        The line is installed immediately but its *arrival time* is
        tracked: a demand access before the fill completes pays the
        remaining latency (partial coverage).
        """
        if self.l1.probe(addr) or self.buffer.contains(addr):
            return
        self.stats.prefetches_issued += 1
        if self.l2.probe(addr):
            fill_latency = self.config.l1d.latency + self.config.l2.latency
        else:
            fill_latency = (
                self.config.l1d.latency
                + self.config.l2.latency
                + self.config.memory_latency
            )
            self.l2.fill(addr)
        self.buffer.insert(addr, from_prefetch=True)
        self._arrival[self.l1.line_of(addr)] = now + fill_latency

    # ------------------------------------------------------------------
    # Functional-warming images (sampled simulation)
    # ------------------------------------------------------------------

    def warm_image(self) -> dict:
        """Picklable copy of the cache *contents* (L1/L2 sets and the
        prefetch/victim buffer) for a warmed-state snapshot.

        Contents only: hit/miss counters and in-flight fill arrivals
        are measurement/timing state, which a restored run must start
        fresh (the snapshot's warming pass ran with no clock). The
        payload stays in the legacy ``(line_addr, dirty_bool)`` tuple
        form — :meth:`SetAssociativeCache.image` converts from the
        packed sets — so snapshot bytes (and digests) are identical
        across the representation change.
        """
        return {
            "l1": self.l1.image(),
            "l2": self.l2.image(),
            "buffer": dict(self.buffer._lines),
        }

    def load_warm_image(self, image: dict) -> None:
        """Install a :meth:`warm_image` into this hierarchy.

        The image's geometry must match this hierarchy's configuration —
        snapshot keys include the cache geometry precisely so a stale
        image can never be applied to a differently-shaped machine.
        """
        if len(image["l1"]) != len(self.l1._sets) or len(image["l2"]) != len(
            self.l2._sets
        ):
            raise ValueError(
                "warm image geometry does not match this hierarchy "
                f"(image {len(image['l1'])}/{len(image['l2'])} sets, "
                f"config {len(self.l1._sets)}/{len(self.l2._sets)})"
            )
        self.l1.load_image(image["l1"])
        self.l2.load_image(image["l2"])
        self.buffer._lines.clear()
        self.buffer._lines.update(image["buffer"])
        self._arrival.clear()

    # ------------------------------------------------------------------

    def _fill_l1(self, addr: int, dirty: bool) -> None:
        victim = self.l1.fill(addr, dirty=dirty)
        if victim is not None:
            victim_line, _victim_dirty = victim
            victim_addr = victim_line << self.l1._line_shift
            self.buffer.insert(victim_addr, from_prefetch=False)
