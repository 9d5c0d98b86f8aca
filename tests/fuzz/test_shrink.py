"""Shrinker soundness: output still diverges, never grows, no-op when clean."""

from repro.fuzz.gen import generate
from repro.fuzz.shrink import shrink, workload_size


def test_shrink_of_clean_workload_is_noop():
    workload = generate(0, 0.25)
    result = shrink(workload, max_checks=10)
    assert result.divergence is None
    assert not result.shrunk
    assert result.workload is workload
    assert result.checks == 1


def test_shrink_keeps_divergence_and_never_grows(broken_store_journal, tmp_path):
    """The injected store-journal bug is shrunk to a smaller repro that
    still diverges."""
    workload = generate(12, 0.25)
    original = workload_size(workload)
    result = shrink(workload, max_checks=60)

    assert result.original_size == original
    assert result.shrunk_size <= result.original_size
    assert result.shrunk_size == workload_size(result.workload)
    assert result.checks <= 60
    # The recorded divergence is what a cold replay of the shrunk
    # workload reproduces. (Re-checking the same in-memory Program is
    # deliberately avoided: its compiled instruction caches are warm,
    # which can shift which tier diverges first.)
    assert result.divergence is not None
    from repro.fuzz import corpus

    path = corpus.save_case(
        result.workload, result.divergence, cache_root=tmp_path
    )
    assert corpus.replay(path) == result.divergence
    # The budget above reliably removes most of the program.
    assert result.shrunk
    # Every accepted candidate is a well-formed workload: the correct
    # path still halts and the region was re-measured.
    assert result.workload.region > 0
