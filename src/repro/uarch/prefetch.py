"""Hardware stream prefetcher (Table 1).

Detects cache misses with unit stride (positive or negative) and
launches prefetches once a stream is confirmed. Before a stride is
detected, sequential next blocks are prefetched to exploit spatial
locality beyond one 64-byte line. Prefetched lines land in the unified
prefetch/victim buffer via :meth:`DataHierarchy.prefetch_fill`.

**O(1) matching.** The stream table used to be scanned linearly per
miss — the second-hottest operation of the functional-warming loop
after the L1 access. Streams are now also indexed by the line a miss
would have to land on to continue them (``last_line + stride`` once
confirmed; ``last_line ± 1`` before): a miss resolves to its stream
with one dict probe. The legacy scan returned the *first* match in
table order, streams are never reordered by a match, and eviction pops
the oldest entry — so table order is allocation order, and a
per-stream allocation sequence number reproduces the first-match
tie-break exactly when two streams expect the same line.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.uarch.cache import DataHierarchy
from repro.uarch.config import PrefetchConfig


@dataclass(slots=True)
class _Stream:
    """One tracked miss stream, keyed by its last miss line."""

    last_line: int
    stride: int  # lines; 0 until confirmed
    confirmed: bool
    #: Allocation order, for the first-match-in-table-order tie-break.
    seq: int = 0


class StreamPrefetcher:
    """Unit-stride stream detector and prefetch launcher.

    Attach with :meth:`attach`, which registers the prefetcher as the
    hierarchy's miss listener; every demand L1 miss then trains it.
    """

    def __init__(self, config: PrefetchConfig, hierarchy: DataHierarchy):
        self._config = config
        self._hierarchy = hierarchy
        self._line_bytes = hierarchy.config.l1d.line_bytes
        self._line_shift = self._line_bytes.bit_length() - 1
        #: Allocation order, oldest first (so eviction is an O(1)
        #: ``popleft`` instead of ``list.pop(0)``).
        self._streams: deque[_Stream] = deque()
        #: expected-next-line -> the stream(s) a miss on that line
        #: would continue. Values are a bare ``_Stream`` in the
        #: (overwhelmingly common) single-stream case and collapse to
        #: a list only while two or more streams expect the same line
        #: — the miss path allocates no bookkeeping list that way.
        self._index: dict[int, _Stream | list[_Stream]] = {}
        #: Preallocated stream records: the table's worth of ``_Stream``
        #: objects is built once here, handed out as the table fills,
        #: and recycled in place on eviction — the steady-state
        #: allocate path constructs nothing.
        self._spare: list[_Stream] = [
            _Stream(0, 0, False, 0)
            for _ in range(config.stream_table_entries)
        ]
        self._seq = 0
        self.prefetches_launched = 0
        self.streams_confirmed = 0

    def attach(self) -> None:
        """Register as the hierarchy's L1-miss listener."""
        self._hierarchy.set_miss_listener(self.on_miss)

    def on_miss(self, addr: int, now: int = 0) -> None:
        """Train on a demand L1 miss at cycle *now*; launch prefetches."""
        line = addr >> self._line_shift

        candidates = self._index.get(line)
        if candidates is not None:
            # First match in table order == smallest allocation seq
            # (matches never reorder the table; eviction is FIFO).
            if type(candidates) is list:
                stream = candidates[0]
                for other in candidates:
                    if other.seq < stream.seq:
                        stream = other
            else:
                stream = candidates
            self._index_remove(stream)
            if not stream.confirmed:
                stream.stride = line - stream.last_line
                stream.confirmed = True
                self.streams_confirmed += 1
            stream.last_line = line
            self._index_add(stream)
            self._launch(line, stream.stride, self._config.stream_depth, now)
            return

        # No stream matched: allocate a tracker for this miss and,
        # before any stride is known, prefetch the sequential next block.
        self._allocate(line)
        if self._config.sequential_next_line:
            self._launch(line, stride=1, depth=1, now=now)

    # ------------------------------------------------------------------

    def _expected_lines(self, stream: _Stream) -> tuple[int, ...]:
        """The lines a miss must land on to continue *stream* (the
        legacy ``_match`` predicate, inverted into index keys)."""
        if stream.confirmed:
            return (stream.last_line + stream.stride,)
        return (stream.last_line + 1, stream.last_line - 1)

    def _index_add(self, stream: _Stream) -> None:
        index = self._index
        for key in self._expected_lines(stream):
            prev = index.setdefault(key, stream)
            if prev is not stream:
                if type(prev) is list:
                    prev.append(stream)
                else:
                    index[key] = [prev, stream]

    def _index_remove(self, stream: _Stream) -> None:
        # ``pop`` folds the lookup and the delete into one dict
        # operation; the (rare) shared-line bucket is trimmed and
        # reinserted.
        index = self._index
        for key in self._expected_lines(stream):
            bucket = index.pop(key)
            if type(bucket) is list:
                bucket.remove(stream)
                index[key] = bucket[0] if len(bucket) == 1 else bucket

    def _allocate(self, line: int) -> None:
        streams = self._streams
        if len(streams) >= self._config.stream_table_entries:
            # Evict the oldest tracker and recycle its record in place.
            stream = streams.popleft()
            self._index_remove(stream)
        else:
            stream = self._spare.pop()
        self._seq += 1
        stream.last_line = line
        stream.stride = 0
        stream.confirmed = False
        stream.seq = self._seq
        streams.append(stream)
        self._index_add(stream)

    # ------------------------------------------------------------------
    # Functional-warming images (sampled simulation)
    # ------------------------------------------------------------------

    def warm_image(self) -> list[tuple[int, int, bool]]:
        """Picklable copy of the stream table for a warmed-state
        snapshot. Without it, a detailed region resumed from a snapshot
        would start with a cold stream table while a straight-through
        run would not — the divergence the split-vs-straight warmup
        differential pins down. The payload is the table in allocation
        order (the legacy list order), so snapshot bytes are unchanged
        by the deque + index representation."""
        return [
            (stream.last_line, stream.stride, stream.confirmed)
            for stream in self._streams
        ]

    def load_warm_image(self, image: list[tuple[int, int, bool]]) -> None:
        """Install a :meth:`warm_image` (image order is table order and
        is preserved — :meth:`_allocate` evicts the oldest entry)."""
        self._streams = deque()
        self._index = {}
        self._seq = 0
        for last_line, stride, confirmed in image:
            self._seq += 1
            stream = _Stream(
                last_line=last_line,
                stride=stride,
                confirmed=confirmed,
                seq=self._seq,
            )
            self._streams.append(stream)
            self._index_add(stream)
        # Refill the record pool for whatever table headroom remains.
        self._spare = [
            _Stream(0, 0, False, 0)
            for _ in range(
                max(0, self._config.stream_table_entries - len(image))
            )
        ]

    # ------------------------------------------------------------------

    def _launch(self, line: int, stride: int, depth: int, now: int = 0) -> None:
        hierarchy = self._hierarchy
        buffer_lines = hierarchy.buffer._lines
        l1 = hierarchy.l1
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        prefetch_fill = hierarchy.prefetch_fill
        line_bytes = self._line_bytes
        launched = self.prefetches_launched
        for step in range(1, depth + 1):
            target = line + stride * step
            if target < 0:
                break
            launched += 1
            # Side-effect-free prechecks: a line already buffered or
            # resident in the L1 makes prefetch_fill return before any
            # state or statistics update, so skipping the call is
            # behavior-identical. It is also the dominant case:
            # consecutive launch windows of one stream overlap in all
            # but one line.
            if target in buffer_lines:
                continue
            covered = False
            for entry in l1_sets[target & l1_mask]:
                if entry >> 1 == target:
                    covered = True
                    break
            if covered:
                continue
            prefetch_fill(target * line_bytes, now)
        self.prefetches_launched = launched


# ----------------------------------------------------------------------
# Combined warm miss path (functional warming)
# ----------------------------------------------------------------------


def build_warm_access(hierarchy: DataHierarchy, prefetcher: StreamPrefetcher):
    """The state-only demand access of functional warming: hierarchy
    transitions *and* stream training fused into a single closure.

    Returns a ``warm_access(addr, is_store)`` function that performs
    exactly the cache, buffer and stream-table transitions of a timed
    :meth:`DataHierarchy.access` with *prefetcher* attached as its miss
    listener — same LRU updates, same fill and victim motion, same
    order (buffer promote before training on a buffer hit; training
    before the L2/L1 fills on a full miss, whose launches touch the
    same L2 sets), same ``prefetches_launched`` / ``streams_confirmed``
    counters — with the timing stripped: no latency, no MSHR arrival
    tracking, no statistics, and prefetch launches that fill the L2
    and the buffer without arrival times. None of that is part of a
    warm image (a restored run starts its clock and counters fresh).
    The listener call, the stream-index maintenance, and every
    prefetch fill are inlined, and all geometry and containers are
    held in closure cells instead of being re-read through three
    objects per miss.

    This is the one warm access rule. The warming driver
    (:class:`repro.harness.fastforward._LiveRun`) keeps the closure and
    hands it to both warming tiers; nothing is installed on the
    hierarchy. The cells bind the *current* container objects, so the
    closure must be built after any ``load_warm_image`` (which replaces
    them) — the same contract as ``warmfuse.WarmContext``.
    """
    l1 = hierarchy.l1
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    l1_sets = l1._sets
    l1_assoc = l1.config.associativity
    l2 = hierarchy.l2
    l2_delta = l2._line_shift - l1_shift
    l2_mask = l2._set_mask
    l2_sets = l2._sets
    l2_assoc = l2.config.associativity
    buffer = hierarchy.buffer
    buf_lines = buffer._lines
    buf_entries = buffer._entries
    streams = prefetcher._streams
    index = prefetcher._index
    index_pop = index.pop
    spare = prefetcher._spare
    config = prefetcher._config
    table_entries = config.stream_table_entries
    depth = config.stream_depth
    sequential = config.sequential_next_line
    # The allocation sequence counter lives in a cell while the
    # closure is active; only relative order among live streams is
    # ever observed (the first-match tie-break), and a warm-image
    # load — the only other writer — forces a closure rebuild.
    seq = prefetcher._seq

    def warm_access(addr: int, is_store: bool) -> None:
        nonlocal seq
        line = addr >> l1_shift
        bucket = l1_sets[line & l1_mask]
        # MRU-first, iterator-free probe (the matching entry is unique,
        # so scan order is unobservable; a hit at MRU is a dirty-OR in
        # place, the exact legacy del+append reduction).
        n = len(bucket)
        if n:
            entry = bucket[n - 1]
            if entry >> 1 == line:
                if is_store:
                    bucket[n - 1] = entry | 1
                return
            i = n - 2
            while i >= 0:
                entry = bucket[i]
                if entry >> 1 == line:
                    del bucket[i]
                    bucket.append(entry | is_store)
                    return
                i -= 1
        # ---- L1 miss: buffer checked in parallel ----
        from_buffer = buf_lines.pop(line, None) is not None
        if from_buffer:
            # Promote into the L1 (inlined ``_fill_l1``; the victim
            # spills into the buffer, whose pop above freed a slot).
            if n >= l1_assoc:
                victim = bucket.pop(0) >> 1
                if victim in buf_lines:
                    del buf_lines[victim]
                elif len(buf_lines) >= buf_entries:
                    del buf_lines[next(iter(buf_lines))]
                buf_lines[victim] = False
            bucket.append((line << 1) | is_store)
        # ---- Train the stream table (the miss listener, inlined) ----
        candidates = index.get(line)
        if candidates is None:
            # No stream continues here: allocate a tracker (evicting
            # and recycling the oldest) and prefetch the sequential
            # next block.
            if len(streams) >= table_entries:
                # Evict the oldest tracker; its index entries come out
                # with one ``pop`` each (lookup + delete fused), and
                # its record is recycled in place.
                stream = streams.popleft()
                last = stream.last_line
                if stream.confirmed:
                    key = last + stream.stride
                    ob = index_pop(key)
                    if type(ob) is list:
                        ob.remove(stream)
                        index[key] = ob[0] if len(ob) == 1 else ob
                else:
                    ob = index_pop(last + 1)
                    if type(ob) is list:
                        ob.remove(stream)
                        index[last + 1] = ob[0] if len(ob) == 1 else ob
                    ob = index_pop(last - 1)
                    if type(ob) is list:
                        ob.remove(stream)
                        index[last - 1] = ob[0] if len(ob) == 1 else ob
            else:
                # Preallocated at construction: nothing to build here.
                stream = spare.pop()
            seq += 1
            stream.last_line = line
            stream.stride = 0
            stream.confirmed = False
            stream.seq = seq
            streams.append(stream)
            up = line + 1
            prev = index.setdefault(up, stream)
            if prev is not stream:
                if type(prev) is list:
                    prev.append(stream)
                else:
                    index[up] = [prev, stream]
            down = line - 1
            prev = index.setdefault(down, stream)
            if prev is not stream:
                if type(prev) is list:
                    prev.append(stream)
                else:
                    index[down] = [prev, stream]
            if sequential:
                # _launch(line, stride=1, depth=1) with the warm fill
                # inlined; ``up`` is never negative (line >= 0).
                prefetcher.prefetches_launched += 1
                if up not in buf_lines:
                    b2 = l1_sets[up & l1_mask]
                    i = len(b2) - 1
                    while i >= 0:
                        if b2[i] >> 1 == up:
                            break
                        i -= 1
                    if i < 0:
                        l2_line = up >> l2_delta
                        l2b = l2_sets[l2_line & l2_mask]
                        i = len(l2b) - 1
                        while i >= 0:
                            if l2b[i] >> 1 == l2_line:
                                break
                            i -= 1
                        if i < 0:
                            if len(l2b) >= l2_assoc:
                                del l2b[0]
                            l2b.append(l2_line << 1)
                        if len(buf_lines) >= buf_entries:
                            del buf_lines[next(iter(buf_lines))]
                        buf_lines[up] = True
        else:
            # A stream continues here: first match in table order ==
            # smallest allocation seq (see ``on_miss``).
            if type(candidates) is list:
                stream = candidates[0]
                for other in candidates:
                    if other.seq < stream.seq:
                        stream = other
            else:
                stream = candidates
            last = stream.last_line
            if stream.confirmed:
                key = last + stream.stride
                ob = index_pop(key)
                if type(ob) is list:
                    ob.remove(stream)
                    index[key] = ob[0] if len(ob) == 1 else ob
            else:
                ob = index_pop(last + 1)
                if type(ob) is list:
                    ob.remove(stream)
                    index[last + 1] = ob[0] if len(ob) == 1 else ob
                ob = index_pop(last - 1)
                if type(ob) is list:
                    ob.remove(stream)
                    index[last - 1] = ob[0] if len(ob) == 1 else ob
                stream.stride = line - last
                stream.confirmed = True
                prefetcher.streams_confirmed += 1
            stream.last_line = line
            stride = stream.stride
            nkey = line + stride
            prev = index.setdefault(nkey, stream)
            if prev is not stream:
                if type(prev) is list:
                    prev.append(stream)
                else:
                    index[nkey] = [prev, stream]
            # _launch(line, stride, stream_depth), warm fills inlined.
            launched = prefetcher.prefetches_launched
            target = line
            for _step in range(depth):
                target += stride
                if target < 0:
                    break
                launched += 1
                if target in buf_lines:
                    continue
                b2 = l1_sets[target & l1_mask]
                i = len(b2) - 1
                while i >= 0:
                    if b2[i] >> 1 == target:
                        break
                    i -= 1
                if i >= 0:
                    continue
                l2_line = target >> l2_delta
                l2b = l2_sets[l2_line & l2_mask]
                i = len(l2b) - 1
                while i >= 0:
                    if l2b[i] >> 1 == l2_line:
                        break
                    i -= 1
                if i < 0:
                    if len(l2b) >= l2_assoc:
                        del l2b[0]
                    l2b.append(l2_line << 1)
                if len(buf_lines) >= buf_entries:
                    del buf_lines[next(iter(buf_lines))]
                buf_lines[target] = True
            prefetcher.prefetches_launched = launched
        if from_buffer:
            return
        # ---- L2 lookup (MRU-last move, no store from the L1's view)
        # or fill (victim dropped), then the L1 demand fill ----
        l2_line = line >> l2_delta
        l2b = l2_sets[l2_line & l2_mask]
        n2 = len(l2b)
        i = n2 - 1
        while i >= 0:
            entry = l2b[i]
            if entry >> 1 == l2_line:
                if i + 1 != n2:
                    del l2b[i]
                    l2b.append(entry)
                break
            i -= 1
        if i < 0:
            if n2 >= l2_assoc:
                del l2b[0]
            l2b.append(l2_line << 1)
        if n >= l1_assoc:
            victim = bucket.pop(0) >> 1
            if victim in buf_lines:
                del buf_lines[victim]
            elif len(buf_lines) >= buf_entries:
                del buf_lines[next(iter(buf_lines))]
            buf_lines[victim] = False
        bucket.append((line << 1) | is_store)

    return warm_access
