"""Tests for the confidence-gated forking extension."""

from repro.harness.runner import simulate
from repro.uarch.confidence import ForkConfidenceEstimator
from repro.uarch.config import FOUR_WIDE
from repro.uarch.core import Core
from repro.workloads import vpr


def test_estimator_counter_dynamics():
    estimator = ForkConfidenceEstimator(
        max_count=7, threshold=3, initial=4, up=2, down=1, probe_interval=4
    )
    assert estimator.should_fork("s")
    for _ in range(10):
        estimator.update("s", useful=False)
    # Gated, but every 4th request probes through.
    decisions = [estimator.should_fork("s") for _ in range(8)]
    assert decisions.count(True) == 2
    assert estimator.forks_gated == 6
    # Useful outcomes re-open the gate, counting up from the floor of 0
    # (unclamped, the counter would sit at -6 and stay below threshold).
    for _ in range(3):
        estimator.update("s", useful=True)
    assert estimator.should_fork("s")


def test_estimator_saturates():
    """The counter is clamped to [0, max_count], seen through the gate:
    with threshold == max_count, one useless outcome after saturating
    gates, and three useful ones after many useless re-open it."""
    estimator = ForkConfidenceEstimator(
        max_count=5, threshold=5, initial=5, probe_interval=1_000
    )
    estimator.update("s", useful=True)  # stays 5 (unclamped: 7)
    estimator.update("s", useful=False)  # 4 (unclamped: 6)
    assert not estimator.should_fork("s")
    for _ in range(100):
        estimator.update("s", useful=False)  # 0 (unclamped: -94)
    for _ in range(3):
        estimator.update("s", useful=True)  # 5 (unclamped: -88)
    assert estimator.should_fork("s")


def _run(workload, slices, estimator):
    core = Core(
        workload.program,
        FOUR_WIDE,
        slices=slices,
        memory_image=workload.memory_image,
        region=workload.region,
        fork_confidence=estimator,
    )
    return core.run()


def test_useful_slice_is_not_gated():
    workload = vpr.build(scale=0.1)
    estimator = ForkConfidenceEstimator()
    stats = _run(workload, workload.slices, estimator)
    assert stats.forks_gated <= stats.forks_taken * 0.05
    base = simulate(workload)
    assert stats.ipc > base.ipc * 1.1


def test_useless_slice_is_gated_and_overhead_recovered():
    workload = vpr.build(scale=0.1)
    useless = (vpr.unoptimized_slice(workload),)
    plain = _run(workload, useless, None)
    estimator = ForkConfidenceEstimator()
    gated = _run(workload, useless, estimator)
    assert gated.forks_gated > 50
    assert gated.slice_fetched < plain.slice_fetched * 0.6
    assert gated.ipc >= plain.ipc * 0.99
