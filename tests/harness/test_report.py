"""Tests for the table/figure text renderers."""

from repro.analysis.characterize import RunCharacterization, SliceCharacterization
from repro.analysis.problem import CoverageSummary
from repro.harness import report
from repro.uarch.config import FOUR_WIDE


def coverage(n=3):
    return CoverageSummary(
        mem_problem_count=n,
        mem_dynamic_share=0.05,
        mem_miss_coverage=0.97,
        branch_problem_count=n + 1,
        branch_dynamic_share=0.30,
        branch_misp_coverage=0.83,
    )


def test_render_table1_mentions_all_parameters():
    text = report.render_table1(FOUR_WIDE)
    for fragment in ("4-wide", "128-entry window", "YAGS", "2MB", "100-cycle"):
        assert fragment in text


def test_render_table2_rows_and_percentages():
    text = report.render_table2([("bzip2", coverage())])
    assert "bzip2" in text
    assert "97%" in text and "83%" in text


def test_render_table3_loop_annotations():
    row = SliceCharacterization(
        program="vpr",
        slice_name="vpr_heap",
        static_size=12,
        loop_size=7,
        live_ins=1,
        prefetches=2,
        prefetches_in_loop=2,
        predictions=1,
        predictions_in_loop=1,
        kills=2,
        kills_in_loop=1,
        max_iterations=4,
    )
    text = report.render_table3([row])
    assert "12 (7)" in text  # static (loop) formatting
    assert "2 (2)" in text


def test_render_table4_columns():
    row = RunCharacterization(
        program="vpr",
        base_fetched=100_000,
        base_mispredictions=1000,
        base_load_misses=500,
        base_ipc=2.0,
        slice_fetched_main=80_000,
        slice_fetched_helper=10_000,
        slice_retired_helper=9_000,
        fork_points=700,
        forks_squashed=100,
        forks_ignored=5,
        problem_branches_covered=1,
        predictions_generated=1500,
        mispredictions_remaining=300,
        incorrect_predictions=2,
        late_fraction=0.1,
        prefetches_performed=60,
        load_misses_remaining=200,
        slice_ipc=2.6,
    )
    text = report.render_table4([row])
    assert "70%" in text  # mispredictions removed
    assert "+30%" in text  # speedup
    assert "-10%" in text  # total fetch change (90k vs 100k)


def test_render_figure11_bars():
    from repro.harness.runner import TripleResult
    from repro.uarch.stats import RunStats
    from repro.workloads.registry import WorkloadRef

    workload = WorkloadRef("vpr", 0.05)
    base = RunStats(cycles=100, committed=100)
    assisted = RunStats(cycles=80, committed=100)
    limit = RunStats(cycles=50, committed=100)
    result = TripleResult(workload, FOUR_WIDE, base, assisted, limit)
    text = report.render_figure11([result])
    assert "25.0%" in text and "100.0%" in text
    assert "s|" in text and "l|" in text


def test_render_figure1_stacked_bars():
    from repro.analysis.problem import ProblemClassification
    from repro.harness.runner import PerfectSweepResult
    from repro.uarch.stats import RunStats
    from repro.workloads.registry import WorkloadRef

    result = PerfectSweepResult(
        workload=WorkloadRef("vpr", 0.05),
        config=FOUR_WIDE,
        base=RunStats(cycles=100, committed=100),
        problem_perfect=RunStats(cycles=50, committed=100),
        all_perfect=RunStats(cycles=40, committed=100),
        classification=ProblemClassification(frozenset(), frozenset()),
    )
    text = report.render_figure1([result])
    assert "vpr" in text and "4-wide" in text
    bar_line = next(line for line in text.splitlines() if "vpr" in line)
    assert "B" in bar_line and "P" in bar_line and "A" in bar_line
