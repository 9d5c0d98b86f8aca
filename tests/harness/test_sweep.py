"""Tests for the sensitivity-sweep helpers."""

import dataclasses

import pytest

from repro.harness.sweep import (
    render_sweep,
    sweep_memory_latency,
    sweep_prediction_slots,
    sweep_window_size,
)
from repro.uarch.config import FOUR_WIDE
from repro.workloads import registry


def test_memory_latency_sweep_moves_base_ipc():
    workload = registry.build("mcf", scale=0.1)
    points = sweep_memory_latency(workload, (50, 200))
    assert points[0].base.ipc > points[1].base.ipc
    assert all(p.assisted.ipc >= p.base.ipc * 0.95 for p in points)


def test_window_sweep_monotone_baseline():
    workload = registry.build("vpr", scale=0.08)
    points = sweep_window_size(workload, (32, 256))
    assert points[1].base.ipc > points[0].base.ipc


def test_prediction_slot_sweep_runs():
    workload = registry.build("vpr", scale=0.08)
    points = sweep_prediction_slots(workload, (2, 8))
    assert [p.value for p in points] == [2, 8]
    for p in points:
        assert p.assisted.committed == p.base.committed


def test_sweep_results_cacheable(tmp_path):
    """A repeated sweep is served from the cache with identical points."""
    from repro.harness.cache import RunCache

    workload = registry.build("vpr", scale=0.05)
    cache = RunCache(tmp_path / "cache")
    first = sweep_memory_latency(workload, (50, 200), cache=cache)
    assert cache.hits == 0 and cache.misses == 4
    second = sweep_memory_latency(workload, (50, 200), cache=cache)
    assert cache.hits == 4
    for a, b in zip(first, second):
        assert (a.base.ipc, a.assisted.ipc) == (b.base.ipc, b.assisted.ipc)


def test_sweep_rejects_unregistered_workload():
    """A sweep runs through RunRequests, which can only name registered
    workloads and unmodified presets: anything else is refused, never
    silently swapped for the registry build or the same-named preset."""
    workload = registry.build("vpr", scale=0.05)
    workload.name = "hand-rolled"
    with pytest.raises(ValueError, match="hand-rolled"):
        sweep_window_size(workload, (64,))
    workload = registry.build("vpr", scale=0.05)
    tweaked = dataclasses.replace(FOUR_WIDE, memory_latency=999)
    with pytest.raises(ValueError, match=FOUR_WIDE.name):
        sweep_window_size(workload, (64,), config=tweaked)


def test_render_sweep_format():
    workload = registry.build("vpr", scale=0.05)
    points = sweep_window_size(workload, (64,))
    text = render_sweep("Sweep: window", "entries", points)
    assert "Sweep: window" in text
    assert "64" in text and "%" in text
