"""Extension: confidence-gated forking (Section 6.3).

"Overhead can be reduced by not executing slices for problem
instructions that will not miss/mispredict. ... Obvious future work is
gating the fork using confidence."

Three scenarios:

* **vpr, good slice** — consistently useful: confidence must stay high
  and gate nothing.
* **vpr, un-optimized slice** — consistently useless (it dies on the
  memory-communicated chain): gating must suppress it and recover the
  overhead it was costing.
* **crafty** — marginal (most instances' predictions are never
  consumed): gating trades a small benefit for a large overhead
  reduction.
"""

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.uarch.confidence import ForkConfidenceEstimator
from repro.uarch.config import FOUR_WIDE
from repro.uarch.core import Core
from repro.workloads import registry, vpr


def _run_one(workload, slices, gated):
    estimator = ForkConfidenceEstimator() if gated else None
    core = Core(
        workload.program,
        FOUR_WIDE,
        slices=slices,
        memory_image=workload.memory_image,
        region=workload.region,
        fork_confidence=estimator,
    )
    return core.run(), estimator


def _run():
    scale = default_scale()
    rows = {}
    vpr_wl = registry.build("vpr", scale)
    crafty_wl = registry.build("crafty", scale)
    cases = {
        "vpr (good slice)": (vpr_wl, vpr_wl.slices),
        "vpr (un-optimized slice)": (
            vpr_wl,
            (vpr.unoptimized_slice(vpr_wl),),
        ),
        "crafty": (crafty_wl, crafty_wl.slices),
    }
    for name, (workload, slices) in cases.items():
        base = simulate(workload)
        plain, _ = _run_one(workload, slices, gated=False)
        gated, estimator = _run_one(workload, slices, gated=True)
        rows[name] = (base, plain, gated)
    return rows


def bench_extension_fork_confidence(benchmark, publish):
    rows = run_once(benchmark, _run)
    lines = ["Extension: confidence-gated forking (Section 6.3)", ""]
    for name, (base, plain, gated) in rows.items():
        lines.append(
            f"{name:<26s} ungated {plain.ipc / base.ipc - 1:+6.1%} "
            f"({plain.slice_fetched:>6d} slice insts)   "
            f"gated {gated.ipc / base.ipc - 1:+6.1%} "
            f"({gated.slice_fetched:>6d} slice insts, "
            f"{gated.forks_gated} forks suppressed)"
        )
    publish("extension_fork_confidence", "\n".join(lines))

    base, plain, gated = rows["vpr (good slice)"]
    # A useful slice must not be gated away.
    assert gated.forks_gated < plain.forks_taken * 0.05
    assert gated.ipc > plain.ipc * 0.98

    base, plain, gated = rows["vpr (un-optimized slice)"]
    # A useless slice is suppressed, recovering its overhead.
    assert gated.forks_gated > 100
    assert gated.slice_fetched < plain.slice_fetched * 0.5
    assert gated.ipc >= plain.ipc

    base, plain, gated = rows["crafty"]
    # Marginal case: big fetch-overhead reduction without a collapse.
    assert gated.slice_fetched < plain.slice_fetched * 0.5
    assert gated.ipc > base.ipc * 0.99
