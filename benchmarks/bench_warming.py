"""Warming microbenchmark: fused functional-warming throughput.

Every sampled figure spends the bulk of its wall clock in the
functional-warming loop (:func:`repro.harness.fastforward._warm_loop`)
carrying the gaps between detailed windows, so that loop's rate bounds
how deep a sampled experiment can afford to go. This bench measures it
in isolation on the regime where it is slowest — the far-memory
pointer chase (mcf at a footprint that dwarfs L2, ~1 in 10
instructions taking the full warm miss path: L1/L2 fills, stream-table
training, victim-buffer traffic).

The rate merges into ``BENCH_throughput.json`` under ``warming`` with
a CI floor, next to the interpreter tier it replaced in the warm loop.
``speedup_vs_pr6`` records the measured gain over the previous PR's
per-block warming loop (interleaved same-host measurement at the time
this bench landed — the flat-array hierarchy, O(1) stream matching,
and trace-compiled warm tier together; see DESIGN.md).
"""

from bench_simulator_throughput import _merge_results

from repro.harness.bench import (
    WARMING_INSTS,
    WARMING_SCALE,
    WARMING_WORKLOAD,
    measure_warming_rate,
)

#: Floor for the warming tier (warmed instructions / wall second) on
#: the far-memory pointer chase. Measures ~0.9-1.5M locally (high
#: run-to-run variance on shared hosts); a floor around a third of the
#: low end still catches any regression back toward the ~0.6M/s
#: per-block warming loop this PR replaced.
WARMING_FLOOR = 350_000

#: The previous PR's warming rate on this regime, measured interleaved
#: with the new loop on the same host when this bench landed. Kept for
#: the honest speedup bookkeeping in BENCH_throughput.json; not a
#: floor (it is not re-measured in CI).
PR6_WARMING_RATE = 635_000


def bench_warming_throughput(publish):
    # Measurement shared with `repro bench warming` / `--all`
    # (repro.harness.bench.measure_warming_rate): per round, a fresh
    # live warming run primed past trace compilation, then 2M warmed
    # instructions against the wall clock; best of 3 rounds.
    best_rate, insts = measure_warming_rate(rounds=3)

    publish(
        "warming_throughput",
        "Functional-warming throughput "
        f"(base {WARMING_WORKLOAD}, scale {WARMING_SCALE:g}, "
        "far-memory pointer chase)\n\n"
        f"{insts:,} instructions warmed per round; "
        f"~{best_rate:,.0f} warmed instructions/second through the "
        "fused warm tier (trace-compiled bodies + flat-array "
        "hierarchy + O(1) stream matching); "
        f"{best_rate / PR6_WARMING_RATE:.2f}x the per-block warming "
        "loop it replaced",
    )
    _merge_results(
        "warming",
        {
            "workload": WARMING_WORKLOAD,
            "scale": WARMING_SCALE,
            "mode": "warming",
            "insts_per_round": insts,
            "instructions_per_second": round(best_rate),
            "pr6_instructions_per_second": PR6_WARMING_RATE,
            "speedup_vs_pr6": round(best_rate / PR6_WARMING_RATE, 2),
            "best_of_rounds": 3,
            "floor_instructions_per_second": WARMING_FLOOR,
        },
    )
    assert insts == WARMING_INSTS
    assert best_rate > WARMING_FLOOR
