"""The ``repro bench`` regimes time the artifact path: each Core regime
is a pinned :class:`~repro.harness.parallel.RunRequest`, and its timed
run gives the same stats ``run_matrix`` does."""

import dataclasses
import importlib

import pytest

from repro.harness import bench, cli
from repro.harness.cache import RunCache
from repro.harness.parallel import run_matrix
from repro.uarch.stats import RunStats, stats_digest

#: Smoke-size replacements for each Core regime's request.
SMOKE = {
    "balanced": dict(scale=0.02),
    "memory_bound": dict(scale=0.05),
    "slice_heavy": dict(scale=0.02),
    "sampled": dict(scale=0.1, fast_forward=2_000, sample=500),
    "sampled_multi": dict(
        scale=0.5, sample=300, sample_regions=3, sample_period=2_000
    ),
    "sampled_parallel": dict(
        scale=0.5, sample=300, sample_regions=3, sample_period=2_000
    ),
}


def test_smoke_table_covers_every_regime():
    assert set(SMOKE) == set(bench.REGIMES)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_regime_runs_the_artifact_path(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    regime = bench.REGIMES[name]
    request = dataclasses.replace(regime.request, **SMOKE[name])
    regime = dataclasses.replace(
        regime, request=request, window_jobs=min(regime.window_jobs, 2)
    )
    stats, elapsed = bench.run_regime(regime)
    expected = run_matrix([request], jobs=1, cache=RunCache(enabled=False))[0]
    assert stats_digest(stats) == stats_digest(expected)
    assert elapsed > 0.0
    assert regime.covered_insts(stats) >= stats.committed > 0


def test_regimes_ignore_the_ambient_environment(monkeypatch):
    """``RunRequest`` fields default from ``REPRO_*`` variables when a
    request is built; every regime pins them, so importing the bench
    module under a stray environment measures the same runs."""
    clean = {name: r.request for name, r in bench.REGIMES.items()}
    with monkeypatch.context() as env:
        env.setenv("REPRO_NO_SKIP", "1")
        env.setenv("REPRO_SAMPLE", "500")
        env.setenv("REPRO_FAST_FORWARD", "1000")
        importlib.reload(bench)
        ambient = {name: r.request for name, r in bench.REGIMES.items()}
    importlib.reload(bench)
    assert ambient == clean
    assert all(request.event_driven for request in clean.values())


def test_bench_reports_the_chain_span(monkeypatch, capsys):
    """A multi-region aggregate sums every window's own prefix into
    ``ff_insts``; ``repro bench`` reports the chain span, the deepest
    kept window's depth, which is all the chained build executed."""
    regime = bench.REGIMES["sampled_parallel"]
    depths = regime.request.schedule().depths
    stats = RunStats(
        committed=16_000, sample_regions=len(depths), ff_insts=sum(depths)
    )
    monkeypatch.setattr(bench, "best_rate", lambda regime, rounds: (1.0, stats))
    assert cli.main(["bench", "sampled_parallel"]) == 0
    assert f", {depths[-1]} fast-forwarded" in capsys.readouterr().out
