"""Corpus persistence: save/load/ls/replay/clear roundtrip."""

import pytest

from repro.fuzz import corpus
from repro.fuzz.diff import Divergence
from repro.fuzz.gen import generate
from repro.service.store import FuzzNamespace


@pytest.fixture
def divergence():
    return Divergence(
        seed=3,
        scale=0.25,
        tier_a="interp",
        tier_b="event-fused",
        kind="stream",
        detail="synthetic fixture",
    )


def test_save_load_roundtrips_workload(tmp_path, divergence):
    workload = generate(3, 0.25)
    path = corpus.save_case(workload, divergence, cache_root=tmp_path)
    assert path.is_file() and path.suffix == ".json"

    case = corpus.load_case(path)
    rebuilt = corpus.case_workload(case)
    assert rebuilt.name == workload.name
    assert rebuilt.region == workload.region
    assert rebuilt.memory_image == workload.memory_image
    # Architectural identity (comments and label back-references are
    # display-only and intentionally not serialized).
    fields = lambda p: [  # noqa: E731
        (i.op, i.rd, i.ra, i.rb, i.imm, i.target, i.pc)
        for i in p.instructions
    ]
    assert fields(rebuilt.program) == fields(workload.program)
    assert rebuilt.program.entry_pc == workload.program.entry_pc
    assert rebuilt.program.labels == workload.program.labels
    assert len(rebuilt.slices) == len(workload.slices)


def test_schema_version_is_enforced(tmp_path, divergence):
    path = corpus.save_case(generate(3, 0.25), divergence, cache_root=tmp_path)
    text = path.read_text().replace('"schema": 1', '"schema": 99')
    path.write_text(text)
    with pytest.raises(ValueError, match="schema"):
        corpus.load_case(path)


def test_list_and_clear(tmp_path, divergence):
    assert corpus.list_cases(tmp_path) == []
    corpus.save_case(
        generate(3, 0.25), divergence, original_size=500, cache_root=tmp_path
    )
    (summary,) = corpus.list_cases(tmp_path)
    assert summary["seed"] == 3
    assert summary["klass"] == "stream:interp/event-fused"
    assert summary["original_size"] == 500
    assert summary["size"] <= 500
    fuzz = FuzzNamespace(tmp_path)
    assert fuzz.clear() == 1
    assert corpus.list_cases(tmp_path) == []
    assert fuzz.clear() == 0


def test_replay_runs_the_full_check(tmp_path, divergence):
    """Replaying a case whose 'bug' never existed returns clean — the
    verdict reflects the current tree, not the stored classification."""
    path = corpus.save_case(generate(3, 0.25), divergence, cache_root=tmp_path)
    assert corpus.replay(path) is None
