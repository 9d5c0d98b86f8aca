"""Ablation: dedicated slice-execution resources (Section 6.3).

"Execution overhead could be eliminated by having dedicated resources
to execute the slice at the expense of additional hardware." With
dedicated fetch/FU resources, helper threads stop competing with the
main thread, so slice-assisted IPC can only improve.
"""

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.workloads import registry

BENCHMARKS = ("vpr", "bzip2", "mcf")


def _run():
    results = {}
    for name in BENCHMARKS:
        workload = registry.build(name, scale=default_scale())
        base = simulate(workload)
        shared = simulate(workload, "slice")
        dedicated = simulate(workload, "slice", dedicated=True)
        results[name] = (base, shared, dedicated)
    return results


def bench_ablation_dedicated(benchmark, publish):
    results = run_once(benchmark, _run)
    lines = ["Ablation: dedicated slice resources", ""]
    for name, (base, shared, dedicated) in results.items():
        lines.append(
            f"{name:7s} shared: {shared.ipc / base.ipc - 1:+.1%}   "
            f"dedicated: {dedicated.ipc / base.ipc - 1:+.1%}"
        )
    publish("ablation_dedicated", "\n".join(lines))

    for name, (base, shared, dedicated) in results.items():
        # Removing the opportunity cost helps (Section 6.3). Note this
        # is not universal: a dedicated-fetch slice with a long loop can
        # run away from the main thread and overflow the 8-slot
        # prediction queue (gap exhibits this), which is why the paper
        # bounds slices with profile-derived iteration counts.
        assert dedicated.ipc >= shared.ipc * 0.99, name
        assert dedicated.ipc > base.ipc, name
