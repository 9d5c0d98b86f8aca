"""The paper's running example, end to end (Figures 2-5).

Prints the add_to_heap kernel with its problem instructions marked
(Figure 2/4), the raw un-optimized backward slice (Figure 4's shaded
region), and the optimized slice (Figure 5) with its annotations —
then measures what each buys.

Run:  python examples/heap_insertion_slice.py
"""

from repro.harness.runner import simulate
from repro.isa import disassemble
from repro.workloads import vpr


def main() -> None:
    workload = vpr.build(scale=0.2)
    program = workload.program

    print("=" * 70)
    print("Figure 2/4: the add_to_heap kernel (problem instructions *marked)")
    print("=" * 70)
    kernel_pcs = range(
        program.pc_of("node_to_heap"), program.pc_of("heap_return") + 20, 4
    )
    marked = workload.problem_branch_pcs | workload.problem_load_pcs
    lines = disassemble(program, mark_pcs=marked).splitlines()
    start = next(
        i for i, line in enumerate(lines) if "node_to_heap" in line
    )
    print("\n".join(lines[start : start + 45]))

    unopt = vpr.unoptimized_slice(workload)
    print("\n" + "=" * 70)
    print(f"Un-optimized slice ({unopt.static_size} static instructions)")
    print("=" * 70)
    print(disassemble(unopt.code))

    spec = workload.slices[0]
    print("\n" + "=" * 70)
    print(f"Figure 5: the optimized slice ({spec.static_size} static)")
    print("=" * 70)
    print(disassemble(spec.code))
    print("\n## Annotations")
    print(f"fork:  pc {spec.fork_pc:#x} (driver loop, hoisted)")
    print(f"live-in: r{spec.live_in_regs[0]} (cost-array pointer)")
    print(f"max loop iterations: {spec.max_iterations}")
    print(f"kills: {[(k.kind.value, hex(k.kill_pc)) for k in spec.kills]}")

    print("\n" + "=" * 70)
    print("Measured impact")
    print("=" * 70)
    base = simulate(workload)
    optimized = simulate(workload, "slice")
    unoptimized = simulate(workload, "slice", slices=(unopt,))
    print(f"baseline IPC:            {base.ipc:.2f}")
    print(f"with optimized slice:    {optimized.ipc:.2f} "
          f"({optimized.ipc / base.ipc - 1:+.1%})")
    print(f"with un-optimized slice: {unoptimized.ipc:.2f} "
          f"({unoptimized.ipc / base.ipc - 1:+.1%})")
    print("\nThe un-optimized slice communicates through memory the main")
    print("thread has not written yet (heap[ifrom]), so it terminates on")
    print("the null sentinel and covers almost nothing — the paper's")
    print("'register allocation' optimization is what makes the slice work.")


if __name__ == "__main__":
    main()
