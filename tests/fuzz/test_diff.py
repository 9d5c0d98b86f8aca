"""Differential cross-check: clean seeds agree, injected bugs diverge."""

from pathlib import Path

from repro.fuzz.diff import check_seed

#: Canonical seeds (scale 0.25) known to expose the store-journal bug
#: (the ``broken_store_journal`` fixture).
BUGGY_SEEDS = (6, 12)


def test_clean_seeds_agree_across_all_tiers():
    for seed in range(6):
        divergence = check_seed(seed, scale=0.25)
        assert divergence is None, str(divergence)


def test_injected_store_journal_bug_is_detected(broken_store_journal):
    """An intentionally-introduced tier bug (stores skip the rollback
    journal) is caught by the cross-check and classified against the
    first detailed tier."""
    found = [
        (seed, check_seed(seed, scale=0.25)) for seed in BUGGY_SEEDS
    ]
    for seed, divergence in found:
        assert divergence is not None, f"seed {seed} missed the bug"
        assert divergence.seed == seed
        assert divergence.klass == "stream:interp/step"


def test_divergence_is_deterministic(broken_store_journal):
    a = check_seed(BUGGY_SEEDS[0], scale=0.25)
    b = check_seed(BUGGY_SEEDS[0], scale=0.25)
    assert a == b


def test_pinned_seed_batch_parses():
    """The CI batch file stays well-formed and pins the canonical
    bug-hunting seeds."""
    lines = (
        Path(__file__).with_name("seeds.txt").read_text().splitlines()
    )
    seeds = [
        int(text, 0)
        for text in (line.split("#", 1)[0].strip() for line in lines)
        if text
    ]
    assert len(seeds) == len(set(seeds)) == 50
    assert set(BUGGY_SEEDS) <= set(seeds)
