"""Ablation: number of SMT thread contexts (Section 6.1).

"Only two programs, twolf and vpr, ignore fork requests on a machine
with 3 idle helper threads, but most programs benefit from having more
than one idle thread." mcf runs a background prefetch slice plus a
periodic prediction slice, so it is sensitive to the context count.
"""

import dataclasses

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.uarch.config import FOUR_WIDE
from repro.workloads import mcf


def _run():
    workload = mcf.build(scale=default_scale())
    base = simulate(workload)
    results = {}
    for contexts in (2, 4, 8):
        config = dataclasses.replace(FOUR_WIDE, thread_contexts=contexts)
        results[contexts] = simulate(workload, "slice", config)
    return base, results


def bench_ablation_contexts(benchmark, publish):
    base, results = run_once(benchmark, _run)
    lines = ["Ablation: SMT thread contexts (mcf)", ""]
    for contexts, stats in sorted(results.items()):
        lines.append(
            f"{contexts} contexts: speedup {stats.ipc / base.ipc - 1:+.1%}, "
            f"forks ignored {stats.forks_ignored}"
        )
    publish("ablation_contexts", "\n".join(lines))

    # With a single idle context, fork requests are ignored.
    assert results[2].forks_ignored > results[4].forks_ignored
    # More contexts help a two-slice workload.
    assert results[4].ipc >= results[2].ipc
    assert results[8].forks_ignored <= results[4].forks_ignored
