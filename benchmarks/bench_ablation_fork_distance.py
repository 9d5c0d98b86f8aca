"""Ablation: fork-point hoisting distance (Section 3.2).

"Selecting a fork point often requires carefully balancing two
conflicting desires": more hoisting gives latency tolerance, less gives
accuracy/fewer useless forks. Compares vpr's hoisted driver-loop fork
against the Figure 3 ``node_to_heap`` fork (~40 instructions of lead).
"""

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.workloads import vpr


def _run():
    workload = vpr.build(scale=default_scale())
    base = simulate(workload)
    hoisted = simulate(workload, "slice")
    late = simulate(workload, "slice", slices=(vpr.late_fork_slice(workload),))
    return base, hoisted, late


def bench_ablation_fork_distance(benchmark, publish):
    base, hoisted, late = run_once(benchmark, _run)

    def late_fraction(stats):
        generated = stats.correlator.predictions_generated
        return stats.correlator.late_predictions / generated if generated else 0

    text = "\n".join(
        [
            "Ablation: fork-point distance (vpr)",
            "",
            f"hoisted fork (driver loop): speedup "
            f"{hoisted.ipc / base.ipc - 1:+.1%}, "
            f"late predictions {late_fraction(hoisted):.0%}",
            f"late fork (node_to_heap):   speedup "
            f"{late.ipc / base.ipc - 1:+.1%}, "
            f"late predictions {late_fraction(late):.0%}",
        ]
    )
    publish("ablation_fork_distance", text)

    assert hoisted.ipc > late.ipc
    assert late_fraction(late) > late_fraction(hoisted) + 0.2
    # Even the late fork still helps (early resolution, Section 5.3).
    assert late.ipc > base.ipc
