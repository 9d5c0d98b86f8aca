"""Ablation: prediction kills (Section 5.1).

"If any unused predictions are left in the queue, the predictions will
become mis-aligned, severely impacting prediction accuracy." This bench
strips the kill annotations from vpr's slice and measures the damage to
override accuracy and speedup.
"""

import dataclasses

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.workloads import vpr


def _run():
    workload = vpr.build(scale=default_scale())
    base = simulate(workload)
    with_kills = simulate(workload, "slice")
    no_kill_slice = dataclasses.replace(workload.slices[0], kills=())
    without_kills = simulate(workload, "slice", slices=(no_kill_slice,))
    return base, with_kills, without_kills


def _accuracy(stats):
    c = stats.correlator
    judged = c.correct_overrides + c.incorrect_overrides
    return c.correct_overrides / judged if judged else 1.0


def bench_ablation_kills(benchmark, publish):
    base, with_kills, without_kills = run_once(benchmark, _run)
    text = "\n".join(
        [
            "Ablation: correlator kills (vpr)",
            "",
            f"with kills:    speedup {with_kills.ipc / base.ipc - 1:+.1%}, "
            f"{with_kills.correlator.overrides} overrides at "
            f"{_accuracy(with_kills):.1%} accuracy",
            f"without kills: speedup {without_kills.ipc / base.ipc - 1:+.1%}, "
            f"{without_kills.correlator.overrides} overrides, "
            f"{without_kills.correlator.slot_overflow_drops} dropped "
            f"predictions (the queue clogs with dead entries)",
        ]
    )
    publish("ablation_kills", text)

    assert _accuracy(with_kills) > 0.97
    assert with_kills.correlator.overrides > 100
    # Without kills, predictions are never deallocated: the 8-slot
    # branch queue clogs immediately and the mechanism starves (our
    # correlator poisons over-full instances rather than letting them
    # mis-align, so starvation is the observable failure; either way,
    # Section 5.1's point stands: no kills, no benefit).
    assert without_kills.correlator.overrides < 50
    assert without_kills.correlator.slot_overflow_drops > 100
    assert with_kills.ipc > without_kills.ipc + 0.2
