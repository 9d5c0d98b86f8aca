"""Unit tests for the perfect overlays, config presets, and stats."""

import dataclasses

import pytest

from repro.uarch.config import CacheConfig, EIGHT_WIDE, FOUR_WIDE
from repro.uarch.perfect import ALL_PERFECT, NO_PERFECT, problem_perfect
from repro.uarch.stats import PcCounter, RunStats


def test_no_perfect_is_empty():
    assert not (NO_PERFECT.all_branches or NO_PERFECT.all_loads)
    assert not (NO_PERFECT.branch_pcs or NO_PERFECT.load_pcs)
    assert not NO_PERFECT.branch_is_perfect(0x100)
    assert not NO_PERFECT.load_is_perfect(0x100)


def test_all_perfect_matches_everything():
    assert ALL_PERFECT.branch_is_perfect(0xDEAD)
    assert ALL_PERFECT.load_is_perfect(0xBEEF)


def test_problem_perfect_is_selective():
    spec = problem_perfect(branch_pcs=[0x10], load_pcs=[0x20])
    assert spec.branch_is_perfect(0x10)
    assert not spec.branch_is_perfect(0x20)
    assert spec.load_is_perfect(0x20)
    assert not spec.load_is_perfect(0x10)


def test_table1_presets():
    assert FOUR_WIDE.width == 4
    assert FOUR_WIDE.simple_alus == 4
    assert EIGHT_WIDE.simple_alus == 8
    assert EIGHT_WIDE.l1d == FOUR_WIDE.l1d  # shared memory system
    assert FOUR_WIDE.l1d.num_sets == 64 * 1024 // (2 * 64)


def test_widened_derives_consistently():
    custom = FOUR_WIDE.widened("16-wide", width=16, window=512, ports=8)
    assert custom.width == 16
    assert custom.simple_alus == 16
    assert custom.window_entries == 512
    assert custom.l2 == FOUR_WIDE.l2


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, associativity=2, line_bytes=64, latency=1)


def test_pc_counter_rate():
    counter = PcCounter(executions=200, events=50)
    assert counter.rate == 0.25
    assert PcCounter().rate == 0.0


def test_run_stats_rates_and_counters():
    stats = RunStats(cycles=100, committed=250)
    assert stats.ipc == 2.5
    stats.count_branch(0x10, mispredicted=True)
    stats.count_branch(0x10, mispredicted=False)
    stats.count_mem(0x20, missed=True)
    assert stats.branch_pcs[0x10].executions == 2
    assert stats.branch_pcs[0x10].events == 1
    assert stats.mem_pcs[0x20].rate == 1.0
    assert RunStats().ipc == 0.0


def test_frozen_configs_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        FOUR_WIDE.width = 8
