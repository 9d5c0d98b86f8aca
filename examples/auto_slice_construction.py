"""Automatic slice construction (Section 3.3).

Runs the automated pipeline — trace, backward slice, memory-dependence
profile, optimization, emission — on the vpr kernel and compares the
result against the paper-style hand slice.

Run:  python examples/auto_slice_construction.py
"""

from repro.harness.runner import simulate
from repro.isa import disassemble
from repro.slices.auto import construct_slice
from repro.workloads import vpr


def main() -> None:
    workload = vpr.build(scale=0.2)
    branch_pc = next(iter(workload.problem_branch_pcs))
    fork_pc = workload.slices[0].fork_pc

    auto = construct_slice(workload, branch_pc, fork_pc, name="vpr_auto")

    print("Backward slice (un-optimized, over the trace):")
    info = auto.static_info
    print(f"  {info.static_size} static instructions over "
          f"{info.instances} dynamic instances; mean dynamic size "
          f"{info.mean_dynamic_size:.1f}, dataflow height "
          f"{info.mean_dataflow_height:.1f}")

    print("\nProfile-driven optimizations applied:")
    for pass_name, count in auto.report.removed.items():
        print(f"  {pass_name}: removed {count} instruction(s)")
    for load_pc, value_reg in auto.bypassed_loads.items():
        print(f"  register-allocated load {load_pc:#x} -> r{value_reg}")

    profile = sorted(auto.iteration_profile)
    print(f"\nIteration profile: mean "
          f"{sum(profile) / len(profile):.1f}, p95 "
          f"{profile[int(len(profile) * 0.95)]} "
          f"-> max_iterations = {auto.spec.max_iterations}")

    print(f"\nConstructed slice ({auto.spec.static_size} static, "
          f"live-ins {auto.spec.live_in_regs}):")
    print(disassemble(auto.spec.code))

    base = simulate(workload)
    hand = simulate(workload, "slice")
    auto_run = simulate(workload, "slice", slices=(auto.spec,))
    print(f"\nbaseline IPC {base.ipc:.2f}")
    print(f"hand slice (Figure 5 style): {hand.ipc / base.ipc - 1:+.1%}")
    print(f"automatically constructed:   {auto_run.ipc / base.ipc - 1:+.1%}")


if __name__ == "__main__":
    main()
