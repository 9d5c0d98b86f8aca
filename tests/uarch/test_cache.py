"""Tests for set-associative caches and the data hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch.cache import (
    DataHierarchy,
    PrefetchVictimBuffer,
    SetAssociativeCache,
)
from repro.uarch.config import FOUR_WIDE, CacheConfig


def small_cache(size=1024, assoc=2, line=64, latency=3):
    return SetAssociativeCache(CacheConfig(size, assoc, line, latency))


def test_cold_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(0x1000)
    cache.fill(0x1000)
    assert cache.lookup(0x1000)
    assert cache.hits == 1
    assert cache.misses == 1


def test_same_line_different_offsets_hit():
    cache = small_cache()
    cache.fill(0x1000)
    assert cache.lookup(0x103F)  # same 64B line
    assert not cache.lookup(0x1040)  # next line


def test_lru_eviction_order():
    cache = small_cache(size=256, assoc=2, line=64)  # 2 sets
    # Three lines mapping to set 0 (line addresses even).
    a, b, c = 0x0000, 0x0080, 0x0100
    cache.fill(a)
    cache.fill(b)
    cache.lookup(a)  # a becomes MRU
    victim = cache.fill(c)  # evicts b
    assert victim is not None
    assert victim[0] == cache.line_of(b)
    assert cache.probe(a)
    assert not cache.probe(b)


def test_fill_existing_line_is_not_duplicate():
    cache = small_cache()
    cache.fill(0x1000)
    assert cache.fill(0x1000, dirty=True) is None
    line = cache.line_of(0x1000)
    entries = [e for bucket in cache.image() for e in bucket if e[0] == line]
    assert entries == [(line, True)]


def test_store_sets_dirty_and_eviction_reports_it():
    cache = small_cache(size=128, assoc=1, line=64)  # 2 sets, direct mapped
    cache.fill(0x0000)
    cache.lookup(0x0000, is_store=True)
    victim = cache.fill(0x0080)  # same set, evicts dirty line
    assert victim == (0, True)


def test_config_rejects_non_power_of_two_sets():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=96, associativity=1, line_bytes=32, latency=1)


def test_victim_buffer_fifo_and_promotion():
    buf = PrefetchVictimBuffer(entries=2, line_bytes=64)
    buf.insert(0x0000, from_prefetch=True)
    buf.insert(0x0040, from_prefetch=False)
    buf.insert(0x0080, from_prefetch=False)  # evicts 0x0000
    assert buf.lookup(0x0000) is None
    assert buf.lookup(0x0040) is False
    # lookup removes the entry
    assert buf.lookup(0x0040) is None


def test_hierarchy_l1_hit_latency():
    hier = DataHierarchy(FOUR_WIDE)
    first = hier.access(0x4000, is_store=False, now=0)
    assert not first.l1_hit
    assert first.to_memory
    assert first.latency == 3 + 6 + 100
    second = hier.access(0x4000, is_store=False, now=500)
    assert second.l1_hit
    assert second.latency == 3


def test_hierarchy_inflight_miss_merges():
    """A second access while the fill is in flight pays the remainder."""
    hier = DataHierarchy(FOUR_WIDE)
    first = hier.access(0x4000, is_store=False, now=0)
    assert first.latency == 109
    second = hier.access(0x4000, is_store=False, now=50)
    assert second.l1_hit
    assert second.latency == 109 - 50
    assert second.counts_as_miss  # still mostly uncovered
    third = hier.access(0x4000, is_store=False, now=108)
    assert third.latency == 3
    assert not third.counts_as_miss


def test_hierarchy_l2_hit_latency():
    hier = DataHierarchy(FOUR_WIDE)
    hier.access(0x4000, is_store=False, now=0)  # now in L1+L2
    # Touch a different L1 line sharing the same L2 line (L2 lines are
    # 128B = two L1 lines).
    result = hier.access(0x4040, is_store=False, now=500)
    assert not result.l1_hit
    assert result.l2_hit
    assert result.latency == 3 + 6


def test_store_miss_absorbed_by_write_buffer():
    hier = DataHierarchy(FOUR_WIDE)
    result = hier.access(0x8000, is_store=True, now=0)
    assert not result.l1_hit
    assert result.latency == FOUR_WIDE.l1d.latency
    assert hier.stats.store_l1_misses == 1
    # Write-allocate: the line is now present.
    assert hier.access(0x8000, is_store=False, now=500).l1_hit


def test_prefetch_fill_lands_in_buffer_not_l1():
    hier = DataHierarchy(FOUR_WIDE)
    hier.prefetch_fill(0xC000, now=0)
    assert not hier.l1.probe(0xC000)
    result = hier.access(0xC000, is_store=False, now=500)
    assert result.buffer_hit
    assert not result.counts_as_miss
    assert result.latency == FOUR_WIDE.l1d.latency
    assert hier.stats.prefetch_buffer_hits == 1
    # Promotion: next access is an L1 hit.
    assert hier.access(0xC000, is_store=False, now=600).l1_hit


def test_prefetch_partial_coverage():
    """A demand access soon after the prefetch pays the remainder."""
    hier = DataHierarchy(FOUR_WIDE)
    hier.prefetch_fill(0xC000, now=0)  # arrives at 109
    result = hier.access(0xC000, is_store=False, now=40)
    assert result.buffer_hit
    assert result.latency == 109 - 40
    assert result.counts_as_miss


def test_prefetch_fill_skips_lines_already_cached():
    hier = DataHierarchy(FOUR_WIDE)
    hier.access(0x4000, is_store=False)
    hier.prefetch_fill(0x4000)
    assert hier.stats.prefetches_issued == 0


def test_miss_listener_fires_on_misses_and_buffer_hits():
    hier = DataHierarchy(FOUR_WIDE)
    seen = []
    hier.set_miss_listener(lambda addr, now: seen.append(addr))
    hier.access(0x4000, is_store=False)  # miss -> listener
    hier.access(0x4000, is_store=False)  # L1 hit: no training
    hier.prefetch_fill(0x9000)
    hier.access(0x9000, is_store=False)  # buffer hit: trains streams
    assert seen == [0x4000, 0x9000]


@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
def test_cache_contents_never_exceed_capacity(addresses):
    """Property: a set never holds more lines than its associativity."""
    cache = small_cache(size=512, assoc=2, line=64)
    for addr in addresses:
        if not cache.lookup(addr):
            cache.fill(addr)
    for bucket in cache._sets:
        assert len(bucket) <= 2
        assert len({entry >> 1 for entry in bucket}) == len(bucket)


@given(st.lists(st.integers(0, 2**16), max_size=120))
def test_hierarchy_access_hit_after_access(addresses):
    """Property: immediately re-accessing an address always hits L1."""
    hier = DataHierarchy(FOUR_WIDE)
    for addr in addresses:
        hier.access(addr, is_store=False)
        assert hier.access(addr, is_store=False).l1_hit


@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.booleans()), min_size=1, max_size=300
    )
)
def test_lru_matches_reference_model(accesses):
    """Property: the set-associative cache behaves exactly like an
    ordered-dict LRU reference model."""
    from collections import OrderedDict

    cache = small_cache(size=512, assoc=2, line=64)  # 4 sets, 2 ways
    reference: dict[int, OrderedDict] = {i: OrderedDict() for i in range(4)}

    for line_index, is_store in accesses:
        addr = line_index * 64
        set_index = line_index % 4
        bucket = reference[set_index]

        expect_hit = line_index in bucket
        got_hit = cache.lookup(addr, is_store=is_store)
        assert got_hit == expect_hit, (line_index, is_store)

        if expect_hit:
            bucket.move_to_end(line_index)
            if is_store:
                bucket[line_index] = True
        else:
            cache.fill(addr, dirty=is_store)
            if len(bucket) == 2:
                victim_line, victim_dirty = bucket.popitem(last=False)
            bucket[line_index] = is_store

    # Final contents agree.
    for set_index, bucket in reference.items():
        for line_index in bucket:
            assert cache.probe(line_index * 64)
