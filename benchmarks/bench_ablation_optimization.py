"""Ablation: slice optimization (Section 3.2 / 6.3).

Compares vpr with its optimized Figure 5 slice against the raw
un-optimized backward slice (Figure 4's shaded region, with the
compiler's division sequence and the memory-communicated
``heap[ifrom]`` chain). "The speculative optimizations applied to
slices have a two-fold benefit: overhead is reduced ... and timeliness
is improved" — and removing communication through memory is "the most
important" optimization.
"""

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.workloads import vpr


def _run():
    workload = vpr.build(scale=default_scale())
    base = simulate(workload)
    optimized = simulate(workload, "slice")
    unoptimized = simulate(
        workload, "slice", slices=(vpr.unoptimized_slice(workload),)
    )
    return workload, base, optimized, unoptimized


def bench_ablation_optimization(benchmark, publish):
    workload, base, optimized, unoptimized = run_once(benchmark, _run)
    opt_speedup = optimized.ipc / base.ipc - 1
    unopt_speedup = unoptimized.ipc / base.ipc - 1
    text = "\n".join(
        [
            "Ablation: slice optimization (vpr)",
            "",
            f"optimized slice   ({len(workload.slices[0].code)} static): "
            f"speedup {opt_speedup:+.1%}, "
            f"{optimized.correlator.predictions_generated} predictions",
            f"un-optimized slice ({len(vpr.unoptimized_slice(workload).code)}"
            f" static): speedup {unopt_speedup:+.1%}, "
            f"{unoptimized.correlator.predictions_generated} predictions",
        ]
    )
    publish("ablation_optimization", text)

    assert opt_speedup > unopt_speedup + 0.10
    # The un-optimized slice must not be a disaster either way — at
    # worst it burns fetch bandwidth.
    assert unopt_speedup > -0.15
