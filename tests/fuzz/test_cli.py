"""``repro fuzz`` CLI: batch, ls, replay, cache-clear integration."""

import pytest

from repro.fuzz import corpus
from repro.fuzz.diff import Divergence
from repro.fuzz.gen import generate
from repro.harness.cli import build_parser, main


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _stored_case(cache_root, seed=3):
    divergence = Divergence(
        seed=seed,
        scale=0.25,
        tier_a="interp",
        tier_b="event-fused",
        kind="stream",
        detail="synthetic fixture",
    )
    return corpus.save_case(
        generate(seed, 0.25), divergence, cache_root=cache_root
    )


def test_parser_accepts_fuzz_flags():
    args = build_parser().parse_args(
        ["fuzz", "--seeds", "10", "--seed-start", "5", "--shrink"]
    )
    assert args.experiment == "fuzz"
    assert args.seeds == 10
    assert args.seed_start == 5
    assert args.shrink


def test_clean_batch_exits_0(cache_root, capsys):
    code = main(["fuzz", "--seeds", "3", "--scale", "0.25", "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 seed(s)" in out
    assert "0 divergence(s)" in out


def test_seeds_file_batch(cache_root, tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# pinned\n0\n0x1\n2  # trailing comment\n")
    code = main(
        ["fuzz", "--seeds-file", str(seeds), "--scale", "0.25", "--jobs", "1"]
    )
    assert code == 0
    assert "3 seed(s)" in capsys.readouterr().out


def test_ls_lists_stored_cases(cache_root, capsys):
    assert main(["fuzz", "ls"]) == 0
    assert "no fuzz repros" in capsys.readouterr().out
    _stored_case(cache_root)
    assert main(["fuzz", "ls"]) == 0
    out = capsys.readouterr().out
    assert "0x3" in out
    assert "stream:interp/event-fused" in out


@pytest.mark.parametrize(
    "rot", [b'{"schema": 99}', b"\x80 not json"], ids=["schema", "bytes"]
)
def test_ls_quarantines_corrupt_case(cache_root, capsys, rot):
    """One rotten case costs only itself: it moves to the shared
    corrupt/ directory, the good case is still listed, exit 0."""
    good = _stored_case(cache_root)
    bad = good.with_name("0xbad.repro.json")
    bad.write_bytes(rot)
    assert main(["fuzz", "ls"]) == 0
    out = capsys.readouterr().out
    assert "0x3" in out
    assert "1 stored repro(s)" in out
    assert "1 quarantined case(s)" in out
    assert not bad.exists()
    assert (cache_root / "corrupt" / bad.name).is_file()


def test_replay_clean_case_exits_0(cache_root, capsys):
    path = _stored_case(cache_root)
    assert main(["fuzz", "--replay", str(path)]) == 0
    assert "replays clean" in capsys.readouterr().out


def test_unknown_fuzz_action_exits_2(cache_root, capsys):
    assert main(["fuzz", "frobnicate"]) == 2
    assert "unknown fuzz action" in capsys.readouterr().err


def test_cache_clear_reports_fuzz_corpus(cache_root, capsys):
    _stored_case(cache_root)
    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "1 fuzz repro(s)" in out
    assert corpus.list_cases() == []


def test_cache_clear_fuzz_only_keeps_other_stores(cache_root, capsys):
    from repro.harness.cache import RunCache
    from repro.harness.parallel import RunRequest, run_matrix

    run_matrix(
        [RunRequest(workload="gzip", scale=0.05, mode="base")],
        jobs=1,
        cache=RunCache(),
    )
    _stored_case(cache_root)
    assert main(["cache", "clear", "--fuzz-only"]) == 0
    assert "1 fuzz repro(s)" in capsys.readouterr().out
    assert corpus.list_cases() == []
    assert RunCache().get(
        RunRequest(workload="gzip", scale=0.05, mode="base")
    ) is not None
