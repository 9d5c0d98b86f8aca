"""Sensitivity sweeps: how the slice benefit scales with the machine.

Quantifies three of the paper's qualitative claims:

* §6.3: "Programs and processors with low base IPCs (relative to peak
  IPC) are more likely to benefit from slices because the opportunity
  cost of slice execution is lower" — swept here via memory latency
  (mcf: higher latency, lower base IPC, larger prefetch win).
* Figure 1's caveat that the window bounds achievable ILP — swept via
  window size.
* Figure 10's provisioning of 8 prediction slots per branch — swept
  via slot count (loop slices starve below the loop's typical depth).

Runs sampled by default: each sweep point is estimated from 10
detailed windows over the workload's ~2x10^6-instruction halt-aware
plan (`repro.harness.experiments.sampled_plan`). All points of a
sweep share one warmed snapshot chain — the swept parameters shape
only the detailed core, not warm state — so the whole sweep pays one
chain build and the rendered tables carry mean±CI columns.
"""

from conftest import run_once

from repro.harness.experiments import sampled_plan
from repro.harness.sweep import (
    render_sweep,
    sweep_memory_latency,
    sweep_prediction_slots,
    sweep_window_size,
)
from repro.workloads.registry import WorkloadRef


def _sampling(plan):
    return {
        "fast_forward": plan["fast_forward"],
        "sample": plan["sample"],
        "sample_regions": plan["sample_regions"],
        "sample_period": plan["sample_period"],
    }


def _run():
    mcf_plan = sampled_plan("mcf")
    vpr_plan = sampled_plan("vpr")
    mcf = WorkloadRef("mcf", mcf_plan["scale"])
    vpr = WorkloadRef("vpr", vpr_plan["scale"])
    return {
        "memory": sweep_memory_latency(
            mcf, (50, 100, 200), **_sampling(mcf_plan)
        ),
        "window": sweep_window_size(
            vpr, (32, 128, 256), **_sampling(vpr_plan)
        ),
        "slots": sweep_prediction_slots(vpr, (2, 8), **_sampling(vpr_plan)),
    }


def bench_sweep_sensitivity(benchmark, publish):
    sweeps = run_once(benchmark, _run)
    text = "\n\n".join(
        [
            render_sweep(
                "Sweep: memory latency (mcf)", "latency", sweeps["memory"]
            ),
            render_sweep(
                "Sweep: window size (vpr)", "entries", sweeps["window"]
            ),
            render_sweep(
                "Sweep: prediction slots/branch (vpr)", "slots",
                sweeps["slots"],
            ),
        ]
    )
    publish("sweep_sensitivity", text)

    # Every point is a full-complement multi-region estimate.
    for points in sweeps.values():
        for p in points:
            assert p.base.sample_regions == 10

    memory = sweeps["memory"]
    # Longer memory latency -> lower base IPC -> bigger slice win.
    assert memory[-1].base.ipc < memory[0].base.ipc
    assert memory[-1].speedup > memory[0].speedup

    window = sweeps["window"]
    # Larger windows raise the baseline by tolerating latency natively.
    assert window[-1].base.ipc > window[0].base.ipc

    slots = sweeps["slots"]
    # Starved correlator (2 slots) must not beat the provisioned one.
    assert slots[-1].speedup >= slots[0].speedup - 0.02
