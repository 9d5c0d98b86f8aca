"""Tests for the command-line interface."""

import os
import re

import pytest

from repro import settings
from repro.errors import DeadlockError
from repro.harness import cli
from repro.harness.cache import RunCache
from repro.harness.cli import EXPERIMENTS, build_parser, main, run_experiment
from repro.harness.faults import FaultKind, FaultPlan
from repro.harness.parallel import RunRequest, run_matrix
from repro.uarch.stats import RunStats


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in EXPERIMENTS:
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table99"])


def test_every_bench_regime_in_help_is_dispatched(monkeypatch, capsys):
    """Each regime ``repro --help`` names runs (its measurement stubbed
    out) instead of exiting 2 as unknown, and the list is exactly the
    bench module's Core regimes plus the two functional tiers."""
    from repro.harness import bench

    text = " ".join(build_parser().format_help().split())
    listed = re.search(r"bench regime: (.*?) \(with 'bench'", text).group(1)
    names = re.findall(r"'(\w+)'", listed)
    assert names == list(cli.BENCH_REGIMES)
    assert set(names) == {*bench.REGIMES, "interpreter", "warming"}

    stats = RunStats(committed=1)
    monkeypatch.setattr(bench, "best_rate", lambda regime, rounds: (1.0, stats))
    monkeypatch.setattr(
        bench, "measure_interpreter_rate", lambda rounds: (1.0, 1)
    )
    monkeypatch.setattr(bench, "measure_warming_rate", lambda rounds: (1.0, 1))
    for name in names:
        assert main(["bench", name]) == 0, name
        assert capsys.readouterr().out.startswith(f"{name}: ")
    assert main(["bench", "nonesuch"]) == 2
    assert "unknown bench regime 'nonesuch'" in capsys.readouterr().err


def test_run_table1_renders():
    text = run_experiment("table1", scale=None)
    assert "Table 1" in text and "YAGS" in text


def test_main_table3_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = main(["table3", "--scale", "0.05", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "Table 3" in captured.out
    assert "vpr" in out.read_text()


def test_parser_accepts_resilience_flags():
    args = build_parser().parse_args(
        ["table4", "--timeout", "12.5", "--retries", "3", "--on-error", "skip"]
    )
    assert args.timeout == 12.5
    assert args.retries == 3
    assert args.on_error == "skip"


def test_parser_accepts_sampled_flags():
    args = build_parser().parse_args(
        ["figure11", "--sampled", "--horizon", "500000"]
    )
    assert args.sampled is True
    assert args.horizon == 500_000


def test_sampled_flag_reaches_experiment(monkeypatch):
    """--sampled routes to the experiment's sampled= keyword."""
    seen = {}

    def fake_table4(scale=None, jobs=None, cache=None, sampled=False,
                    horizon=None):
        seen.update(sampled=sampled, horizon=horizon)
        return [], "Table 4 (stub)"

    monkeypatch.setitem(EXPERIMENTS, "table4", fake_table4)
    text = run_experiment(
        "table4", scale=None, sampled=True, horizon=250_000
    )
    assert "Table 4" in text
    assert seen == {"sampled": True, "horizon": 250_000}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["figure1", "--sampled"], "--sampled"),
        (["table2", "--sampled"], "--sampled"),
        (["figure11", "--horizon", "30000"], "--horizon"),
        (["table4", "--horizon", "30000"], "--horizon"),
    ],
    ids=["figure1-sampled", "table2-sampled", "figure11-horizon",
         "table4-horizon"],
)
def test_dropped_sampling_flags_exit_2(argv, message, monkeypatch, capsys):
    """A single experiment that would ignore --sampled or --horizon
    refuses them with a one-line error instead of running full detail."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("experiment ran")

    monkeypatch.setitem(EXPERIMENTS, argv[0], must_not_run)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_all_keeps_sampled_for_the_sampled_experiments(
    monkeypatch, tmp_path
):
    """`repro all --sampled` runs the sampled experiments sampled and the
    rest as usual."""
    seen = {}

    def stub(name):
        def run(scale=None, jobs=None, cache=None, sampled=False,
                horizon=None):
            seen[name] = sampled
            return [], name

        return run

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for name in EXPERIMENTS:
        if name != "table1":
            monkeypatch.setitem(EXPERIMENTS, name, stub(name))
    assert main(["all", "--sampled", "--no-cache"]) == 0
    assert seen.pop("figure11") is True and seen.pop("table4") is True
    assert seen and not any(seen.values())


def test_parser_rejects_unknown_on_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table4", "--on-error", "explode"])


#: An example argument per knob flag and the text ``main`` exports.
_FLAG_VALUES = {
    "scale": ("0.05", "0.05"),
    "jobs": ("3", "3"),
    "timeout": ("7", "7.0"),
    "retries": ("2", "2"),
    "on_error": ("skip", "skip"),
    "no_skip": (None, "1"),
    "fast_forward": ("9", "9"),
    "sample": ("4", "4"),
    "sample_regions": ("6", "6"),
    "sample_period": ("123", "123"),
    "service": ("http://host:8737/", "http://host:8737"),
}


@pytest.mark.parametrize(
    "setting",
    [s for s in settings.SETTINGS if s.flag is not None],
    ids=lambda s: s.name,
)
def test_knob_flag_exports_to_env(monkeypatch, tmp_path, setting):
    """Each knob flag travels to nested run_matrix calls, pool and
    service workers as its REPRO_* variable."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(setting.env, raising=False)
    arg, exported = _FLAG_VALUES[setting.name]
    argv = [setting.flag] if arg is None else [setting.flag, arg]
    assert main(["snapshot", "ls", *argv]) == 0
    assert os.environ[setting.env] == exported


@pytest.mark.parametrize(
    "env, text",
    [
        ("REPRO_JOBS", "two"),
        ("REPRO_ON_ERROR", "bogus"),
        ("REPRO_SAMPLE", "abc"),
        ("REPRO_TIMEOUT", "soon"),
        ("REPRO_SCALE", "big"),
    ],
)
def test_malformed_knob_exits_2_naming_it(monkeypatch, capsys, env, text):
    """A bad REPRO_* value is refused up front, in one line that names
    the variable, and nothing runs."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran despite a malformed knob")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    monkeypatch.setenv(env, text)
    assert main(["table2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {env}={text!r}: ")
    assert err.count("\n") == 1  # one line, no traceback


def test_deadlock_exits_2_without_traceback(monkeypatch, capsys):
    def deadlocking(scale=None):
        raise DeadlockError(
            "simulated machine deadlock at cycle 42 "
            "(ready=0, completions=0, fetchable_threads=[])",
            cycle=42,
        )

    monkeypatch.setitem(cli.EXPERIMENTS, "table3", deadlocking)
    code = main(["table3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "deadlock" in captured.err
    assert "Traceback" not in captured.err


def test_skipped_requests_exit_3_and_list_holes(monkeypatch, capsys):
    """--on-error skip finishes the run but the CLI reports the holes
    and exits nonzero."""
    request = RunRequest(workload="gzip", scale=0.05, mode="base")
    plan = FaultPlan.targeting({(request, 0): FaultKind.FLAKY})

    def holey(scale=None):
        run_matrix(
            [request],
            jobs=1,
            cache=RunCache(enabled=False),
            retries=0,
            on_error="skip",
            fault_plan=plan,
        )
        return {}, "Table 3 (partial)"

    monkeypatch.setitem(cli.EXPERIMENTS, "table3", holey)
    code = main(["table3"])
    assert code == 3
    captured = capsys.readouterr()
    assert "Table 3 (partial)" in captured.out
    assert "skipped" in captured.err
    assert "gzip/base" in captured.err
    assert "injected transient failure" in captured.err


def test_skip_policy_clean_run_exits_0(monkeypatch, tmp_path, capsys):
    """The resilience flags leave a run without failures clean: exit 0
    and no skipped requests reported."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code = main([
        "table2", "--scale", "0.05", "--timeout", "600", "--retries", "2",
        "--on-error", "skip",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "Table 2" in captured.out
    assert "skipped" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["figure11", "--scale", "0.05"],
        ["table4", "--sampled", "--horizon", "25000"],
        ["figure1", "--scale", "0.05"],
    ],
    ids=["figure11", "table4-sampled", "figure1"],
)
def test_warm_rerender_is_byte_identical(monkeypatch, tmp_path, argv):
    """A warm-cache re-render is a pure cache replay through the
    parallel harness: the same text, byte for byte. Figure 1 also
    covers the two-phase matrix (baselines, then the perfect overlays
    built from the profiled PCs)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold, warm = tmp_path / "cold.txt", tmp_path / "warm.txt"
    assert main([*argv, "--jobs", "2", "--out", str(cold)]) == 0
    assert main([*argv, "--jobs", "2", "--out", str(warm)]) == 0
    assert cold.read_bytes()
    assert warm.read_bytes() == cold.read_bytes()
