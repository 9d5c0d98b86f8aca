"""Quickstart: run a workload with and without speculative slices.

Builds the paper's running example (the vpr heap-insertion kernel of
Figure 2), runs the Table 1 baseline machine, then the same machine
with the Figure 5 slice executing in an idle SMT context, and prints
the headline numbers of Section 6.

The three runs go through the same request matrix as the paper
experiments, so they run in parallel and a second invocation reads
them from the run cache (``.repro_cache/`` or ``$REPRO_CACHE_DIR``).

Run:  python examples/quickstart.py
"""

from repro.harness.parallel import RunRequest, run_matrix
from repro.workloads import registry


def main() -> None:
    workload = registry.build("vpr", scale=0.25)
    print(f"workload: {workload.name} — {workload.description}")
    print(f"program: {len(workload.program)} static instructions, "
          f"{len(workload.slices)} slice(s)\n")

    base, assisted, limit = run_matrix(
        [RunRequest("vpr", 0.25, mode=m) for m in ("base", "slice", "limit")]
    )

    print(f"baseline:        IPC {base.ipc:5.2f}   "
          f"{base.branch_mispredictions} mispredictions, "
          f"{base.load_misses} load misses")
    print(f"with slices:     IPC {assisted.ipc:5.2f}   "
          f"{assisted.branch_mispredictions} mispredictions, "
          f"{assisted.load_misses} load misses   "
          f"(speedup {assisted.ipc / base.ipc - 1:+.1%})")
    print(f"limit study:     IPC {limit.ipc:5.2f}   "
          f"(speedup {limit.ipc / base.ipc - 1:+.1%})\n")

    c = assisted.correlator
    judged = c.correct_overrides + c.incorrect_overrides
    accuracy = c.correct_overrides / judged if judged else 0.0
    print(f"slice activity:  {assisted.forks_taken} forks "
          f"({assisted.forks_squashed} squashed, "
          f"{assisted.forks_ignored} ignored)")
    print(f"predictions:     {c.predictions_generated} generated, "
          f"{c.overrides} used at fetch ({accuracy:.1%} correct), "
          f"{c.late_predictions} late")
    print(f"prefetching:     "
          f"{assisted.hierarchy.get('slice_prefetches', 0)} slice-initiated "
          f"line fetches")


if __name__ == "__main__":
    main()
