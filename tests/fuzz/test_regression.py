"""Promoted corpus cases: fixed bugs stay fixed.

Each ``corpus/*.repro.json`` here is a shrunk minimal repro promoted
from a fuzzing run (via ``repro fuzz --shrink``). Replaying runs the
full differential check against the *current* tree, so a case failing
this test means one of the execution tiers regressed into a previously
observed bug.

``0x6.repro.json``: seed 6, shrunk from 236 to 26 units. Found by
fuzzing an intentionally broken store path that skipped the rollback
journal (wrong-path stores survived recovery and leaked into
architectural state through a later load). Its recorded divergence
names the fused fetch tier the bug was injected into then; that tier is
retired, and the same bug injected into ``Memory.store`` makes the case
diverge on the first remaining detailed tier, at the same load.
Pinned with the bug absent.
"""

from pathlib import Path

import pytest

from repro.fuzz import corpus

CASES = sorted((Path(__file__).parent / "corpus").glob("*.repro.json"))


def test_corpus_is_populated():
    assert CASES, "tests/fuzz/corpus/ lost its promoted repro cases"


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_promoted_case_replays_clean(path):
    divergence = corpus.replay(path)
    assert divergence is None, (
        f"{path.name} regressed: {divergence}"
    )


def test_seed6_case_still_detects_its_bug(request):
    """The fixture keeps its teeth: the case agrees across every tier
    as the tree stands, and reintroducing the store-journal bug makes it
    diverge again, on the detailed tiers."""
    path = Path(__file__).parent / "corpus" / "0x6.repro.json"
    assert corpus.replay(path) is None
    request.getfixturevalue("broken_store_journal")
    divergence = corpus.replay(path)
    assert divergence is not None
    assert divergence.klass == "stream:interp/step"
