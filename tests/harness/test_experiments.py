"""Integration smoke tests for the experiment drivers (tiny scale)."""

import pytest

from repro.harness import experiments
from repro.harness.parallel import RunRequest
from repro.uarch.config import FOUR_WIDE


def _last_window_end(name: str, plan: dict) -> int:
    """Where the last window of *plan*'s schedule (warmup included)
    ends."""
    schedule = RunRequest(name, **plan).schedule()
    return schedule.depths[-1] + schedule.warmup + schedule.region


def test_default_scale_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.42")
    assert experiments.default_scale() == 0.42
    monkeypatch.delenv("REPRO_SCALE")
    assert experiments.default_scale() == 0.35


def test_experiment_table1_lists_both_machines():
    configs, text = experiments.experiment_table1()
    assert [c.name for c in configs] == ["4-wide", "8-wide"]
    assert text.count("Table 1") == 2


def test_experiment_table3_covers_slice_benchmarks():
    rows, text = experiments.experiment_table3(scale=0.05)
    programs = {row.program for row in rows}
    assert "vpr" in programs and "mcf" in programs
    assert "parser" not in programs  # ships no slices
    assert "Table 3" in text


@pytest.mark.slow
def test_experiment_table2_smoke():
    rows, text = experiments.experiment_table2(scale=0.05)
    assert len(rows) == 12
    assert "Table 2" in text
    # The concentration property: someone covers most mispredictions.
    assert any(cov.branch_misp_coverage > 0.5 for _n, cov in rows)


@pytest.mark.slow
def test_experiment_figure11_smoke():
    results, text = experiments.experiment_figure11(
        scale=0.05, config=FOUR_WIDE
    )
    assert len(results) == 12
    assert "Figure 11" in text
    by_name = {r.workload.name: r for r in results}
    assert by_name["vpr"].slice_speedup > 0.1


@pytest.mark.slow
def test_experiment_table4_smoke():
    rows, text = experiments.experiment_table4(
        scale=0.05, benchmarks=("vpr", "mcf")
    )
    assert [row.program for row in rows] == ["vpr", "mcf"]
    assert "Table 4" in text
    assert all(row.predictions_generated > 0 for row in rows)


def test_experiment_workload_mix_smoke():
    rows, text = experiments.experiment_workload_mix(scale=0.05)
    assert len(rows) == 12
    assert "Workload characterization" in text


# ----------------------------------------------------------------------
# Long-horizon sampled plans (sampled figure benches by default)
# ----------------------------------------------------------------------


def test_scale_for_horizon_inverts_run_length():
    for name in experiments.RUN_LENGTH_MODEL:
        scale = experiments.scale_for_horizon(name, 2_000_000)
        modeled = experiments.run_length(name, scale)
        assert abs(modeled - 2_000_000) / 2_000_000 < 0.02, name


def test_sampled_plan_schedule_fits_horizon():
    for name in experiments.RUN_LENGTH_MODEL:
        plan = experiments.sampled_plan(name)
        regions = plan["sample_regions"]
        assert regions == experiments.SAMPLED_REGIONS
        # The last window (plus its discard warmup) must land inside
        # the margin.
        assert _last_window_end(name, plan) <= experiments.SAMPLED_HORIZON
        schedule = RunRequest(name, **plan).schedule()
        window = schedule.warmup + schedule.region
        assert plan["sample_period"] >= window  # windows never overlap


@pytest.mark.parametrize("workload_name", sorted(experiments.RUN_LENGTH_MODEL))
def test_sampled_plan_windows_land_before_halt(workload_name):
    """Halt-awareness, measured: at the plan's scale the workload
    really runs past the last scheduled window before HALT."""
    from repro.harness import fastforward as ff
    from repro.workloads import registry

    horizon = 100_000
    plan = experiments.sampled_plan(workload_name, horizon=horizon)
    last_end = _last_window_end(workload_name, plan)
    workload = registry.build(workload_name, scale=plan["scale"])
    run = ff._LiveRun(workload, FOUR_WIDE, warming=False)
    run.advance(2 * horizon)
    # A run may exceed the model (gzip's jagged match tails) but must
    # never HALT short of the last scheduled window.
    assert run.executed >= last_end, (
        f"{workload_name}: halts at {run.executed}, last window ends "
        f"at {last_end}"
    )


@pytest.mark.slow
def test_experiment_table4_sampled_smoke():
    rows, text = experiments.experiment_table4(
        benchmarks=("vpr", "mcf"), sampled=True, horizon=60_000
    )
    assert [row.program for row in rows] == ["vpr", "mcf"]
    assert "Table 4" in text
    assert all(row.speedup is not None for row in rows)


# ----------------------------------------------------------------------
# Rendering reads no workloads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", experiments.RUN_LENGTH_MODEL)
def test_slice_pcs_do_not_depend_on_scale(name):
    """Table 4 counts covered branch PCs from one small probe build, so
    every workload's slices must name the same PCs at every scale: the
    probe scale, test and default scales, and the sampled plan's."""
    from repro.workloads import registry

    def slice_pcs(scale):
        return [
            (spec.name, spec.covered_branch_pcs, spec.covered_load_pcs)
            for spec in registry.build(name, scale).slices
        ]

    probe = slice_pcs(experiments.SLICE_PROBE_SCALE)
    for scale in (0.05, 0.35, experiments.sampled_plan(name, 30_000)["scale"]):
        assert slice_pcs(scale) == probe, (name, scale)


@pytest.mark.slow
def test_rendering_builds_no_workloads(tmp_path, monkeypatch):
    """A warm Figure 11 or Figure 1 regeneration builds nothing, and
    Table 4 builds only its probe-scale workloads; each text is what
    the report renders from fully built workloads."""
    import dataclasses

    from repro.harness import report
    from repro.harness.cache import RunCache
    from repro.workloads import registry

    real_build = registry.build
    builds = []

    def counting_build(name, scale=1.0):
        builds.append((name, scale))
        return real_build(name, scale)

    monkeypatch.setattr(registry, "build", counting_build)
    cache = RunCache(tmp_path / "cache")

    def warm_builds(experiment, **kwargs):
        experiment(jobs=1, cache=cache, **kwargs)
        builds.clear()
        data, text = experiment(jobs=1, cache=cache, **kwargs)
        return data, text, list(builds)

    def built(results):
        return [
            dataclasses.replace(
                r, workload=real_build(r.workload.name, r.workload.scale)
            )
            for r in results
        ]

    scale = 0.01
    sampled = {"sampled": True, "horizon": 5_000}

    def sampled_scale(name):
        return experiments.sampled_plan(name, 5_000)["scale"]

    for kwargs, scale_of in (
        (sampled, sampled_scale),
        ({"scale": scale}, lambda name: scale),
    ):
        results, text, made = warm_builds(
            experiments.experiment_figure11, **kwargs
        )
        assert made == [], kwargs
        assert [
            (r.workload.name, r.workload.scale) for r in results
        ] == [(name, scale_of(name)) for name in registry.all_names()]
        assert text == report.render_figure11(built(results))

    results, text, made = warm_builds(
        experiments.experiment_figure1, scale=scale
    )
    assert made == []
    assert text == report.render_figure1(built(results))

    # Sampled, so the rows' run scales differ from the probe scale.
    rows, text, made = warm_builds(experiments.experiment_table4, **sampled)
    assert made == [
        (name, experiments.SLICE_PROBE_SCALE)
        for name in experiments.TABLE4_BENCHMARKS
    ]
    from_built = []
    for row in rows:
        workload = real_build(row.program, sampled_scale(row.program))
        covered = {
            pc for spec in workload.slices for pc in spec.covered_branch_pcs
        }
        from_built.append(
            dataclasses.replace(row, problem_branches_covered=len(covered))
        )
    assert text == report.render_table4(from_built)


@pytest.mark.parametrize(
    "experiment",
    [
        experiments.experiment_figure1,
        experiments.experiment_figure11,
        experiments.experiment_table4,
    ],
)
def test_sampled_run_refuses_a_modified_config(experiment, monkeypatch):
    """A request names a preset, so an experiment on a modified config
    is refused by name, sampled or not, rather than silently run on
    the same-named preset or in full detail at ``scale``. Nothing is
    simulated first."""
    import dataclasses

    monkeypatch.setattr(experiments, "run_matrix", None)
    tweaked = dataclasses.replace(FOUR_WIDE, memory_latency=999)
    if experiment is experiments.experiment_figure1:
        calls = [dict(configs=(FOUR_WIDE, tweaked))]
    else:
        calls = [
            dict(config=tweaked),
            dict(config=tweaked, sampled=True, horizon=30_000),
        ]
    for kwargs in calls:
        with pytest.raises(ValueError, match=f"config {FOUR_WIDE.name!r}"):
            experiment(scale=0.01, jobs=1, **kwargs)
