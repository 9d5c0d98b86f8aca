"""The prediction correlator, step by step (Figures 8 and 9).

Recreates the paper's Figure 9 walkthrough exactly: a conditionally-
executed problem branch (block D) inside a loop, loop-iteration kills
at block F (the back-edge target) and a slice kill at block G (the
loop exit), along the fetch path A B C F B C D F B G.

Run:  python examples/correlator_walkthrough.py
"""

from repro.isa import Assembler
from repro.slices.correlator import PredictionCorrelator
from repro.slices.spec import KillKind, KillSpec, PGISpec, SliceSpec

BRANCH_PC = 0x2000  # block D: the problem branch
LOOP_KILL = 0x2100  # block F: loop back-edge target
SLICE_KILL = 0x2200  # block G: loop exit


def build_slice():
    asm = Assembler(base_pc=0x9000)
    asm.label("entry")
    pgis = [asm.cmplt(f"r{i + 1}", "r10", imm=0) for i in range(3)]
    asm.halt()
    code = asm.build()
    return SliceSpec(
        name="fig8",
        fork_pc=0x1000,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(10,),
        pgis=tuple(
            PGISpec(p.pc, BRANCH_PC, conditional=True) for p in pgis
        ),
        kills=(
            KillSpec(LOOP_KILL, KillKind.LOOP),
            KillSpec(SLICE_KILL, KillKind.SLICE),
        ),
    )


def show(correlator, event):
    slots = correlator.queue_for(BRANCH_PC)
    rendered = []
    for i, slot in enumerate(slots, start=1):
        state = slot.state.value
        direction = {True: "T", False: "NT", None: "?"}[slot.direction]
        mark = " killed" if slot.killed else ""
        rendered.append(f"P{i}[{state} {direction}{mark}]")
    print(f"{event:<44s} queue: {'  '.join(rendered) or '-empty-'}")


def main() -> None:
    spec = build_slice()
    correlator = PredictionCorrelator()
    correlator.register_slice(spec)
    correlator.on_fork(spec, instance_id=0)

    print("Figure 9(b): path A B C F B C D F B G\n")

    # "Slice guesses loop will be executed 3 times, generates 3
    # predictions" — here T, NT, T.
    slots = []
    for pgi, direction in zip(spec.pgis, (True, False, True)):
        slot = correlator.on_pgi_fetched(spec, pgi, 0)
        correlator.on_pgi_executed(slot, direction)
        slots.append(slot)
    show(correlator, "slice generates 3 predictions")

    vn = 100
    # Iteration 1 (A B C F): block D not fetched; F kills prediction 1.
    correlator.on_kill_fetched(LOOP_KILL, vn)
    show(correlator, "block F fetched (iter 1, D skipped)")

    # Iteration 2 (B C D F): D fetched -> matches prediction 2.
    match = correlator.on_branch_fetched(BRANCH_PC, vn + 1)
    assert match.slot is slots[1] and match.direction is False
    show(correlator, "block D fetched: uses P2 (NT) — correct!")
    correlator.on_kill_fetched(LOOP_KILL, vn + 2)
    show(correlator, "block F fetched (iter 2)")

    # Loop exits (B G): remaining predictions killed.
    correlator.on_kill_fetched(SLICE_KILL, vn + 3)
    show(correlator, "block G fetched (loop exit)")

    # Mis-speculation recovery (Section 5.2): squash the loop exit.
    correlator.on_squash(min_squashed_vn=vn + 3)
    show(correlator, "loop exit squashed: kill restored")
    correlator.on_kill_fetched(SLICE_KILL, vn + 4)
    show(correlator, "loop exit refetched")

    correlator.on_retire(vn + 4)
    show(correlator, "kills retired: slots deallocated")

    print(f"\nstats: {correlator.stats}")


if __name__ == "__main__":
    main()
