"""Ablation: the slice iteration bound (Section 3.2, "Slice Termination").

"each slice is assigned a maximum iteration count ... derived from a
profile-based estimate of the upper-bound of the number of iterations"
— and "overhead can often be minimized by ... completely relying on the
maximum iteration count".

Sweeps vpr's bound. Because our vpr slice also carries a
self-terminating exit test (the PGI value *is* the trickle-stop
condition), the bound acts as a safety net rather than the terminator:
truncating it below the typical trickle depth loses coverage of deep
insertions, while raising it to the slot capacity covers the tail at
the cost of the first prediction-slot drops.
"""

import dataclasses

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.workloads import vpr

BOUNDS = (1, 2, 4, 8)


def _run():
    workload = vpr.build(scale=default_scale())
    base = simulate(workload)
    results = {}
    for bound in BOUNDS:
        spec = dataclasses.replace(workload.slices[0], max_iterations=bound)
        results[bound] = simulate(workload, "slice", slices=(spec,))
    return base, results


def bench_ablation_iteration_bound(benchmark, publish):
    base, results = run_once(benchmark, _run)
    lines = ["Ablation: slice iteration bound (vpr; shipped bound = 8)", ""]
    for bound, stats in sorted(results.items()):
        c = stats.correlator
        lines.append(
            f"max_iterations={bound}: speedup "
            f"{stats.ipc / base.ipc - 1:+6.1%}, "
            f"{c.predictions_generated} predictions, "
            f"{c.slot_overflow_drops} slot drops"
        )
    publish("ablation_iteration_bound", "\n".join(lines))

    speedups = {b: r.ipc / base.ipc - 1 for b, r in results.items()}
    # Truncating at 1 iteration loses most of the benefit.
    assert speedups[1] < speedups[4] - 0.05
    # Coverage (and benefit) grows with the bound...
    assert speedups[2] > speedups[1]
    assert speedups[4] > speedups[2]
    assert speedups[8] >= speedups[4] - 0.02
    # ...but the slot pressure of a deep bound becomes visible.
    assert results[8].correlator.slot_overflow_drops > 0
    assert results[4].correlator.slot_overflow_drops == 0
