"""mcf: prefetching pointer chains with helper threads (Section 6.1).

mcf's chains defeat the stream prefetcher (no stride) and its per-node
branch defeats YAGS (data-dependent sign test). This example shows the
division of labor between the two slices the workload ships:

* the *periodic* prediction slice — forked per chain, computes the sign
  test (its predictions are mostly late: "the work performed at each
  node is insufficient to cover the latency of the sequential memory
  accesses");
* the *background* prefetch slice — walks the next chain end to end
  ("often there is one long-running, background slice").

Run:  python examples/pointer_chasing_prefetch.py
"""

from repro.harness.runner import simulate
from repro.workloads import mcf


def main() -> None:
    workload = mcf.build(scale=0.4)
    pred_slice, background_slice = workload.slices

    base = simulate(workload)
    pred_only = simulate(workload, "slice", slices=(pred_slice,))
    background_only = simulate(workload, "slice", slices=(background_slice,))
    both = simulate(workload, "slice")

    print(f"{'configuration':<28s}{'IPC':>6s}{'speedup':>9s}"
          f"{'load misses':>13s}{'mispredicts':>13s}")
    print("-" * 69)
    for name, stats in (
        ("baseline", base),
        ("prediction slice only", pred_only),
        ("background prefetch only", background_only),
        ("both slices", both),
    ):
        print(
            f"{name:<28s}{stats.ipc:>6.2f}"
            f"{stats.ipc / base.ipc - 1:>9.1%}"
            f"{stats.load_misses:>13d}"
            f"{stats.branch_mispredictions:>13d}"
        )

    c = both.correlator
    consumed = c.overrides + c.late_predictions
    late = c.late_predictions / consumed if consumed else 0
    print(f"\nlate predictions: {late:.0%} of consumed — the chain's serial")
    print("misses keep the prediction slice barely ahead of the main")
    print("thread, so mcf's benefit comes from prefetching (paper: ~80%).")


if __name__ == "__main__":
    main()
