"""Interpreter microbenchmark: raw functional ``execute()`` throughput.

The simulator's floor is the speed of the functional executor itself —
every fetched instruction (right path or wrong) runs through its
per-instruction compiled closure (:func:`repro.arch.interpreter.execute`).
This bench measures that tier in isolation, with no out-of-order
machinery around it, so per-cycle scheduling costs can be separated
from raw execution costs when a throughput regression shows up.

The workload is vpr's real instruction stream (entry block onward),
executed architecturally: the same code the detailed core executes at
fetch. Results merge into ``BENCH_throughput.json`` under
``interpreter`` next to the whole-simulator regimes.
"""

from bench_simulator_throughput import _merge_results

from repro.harness.bench import measure_interpreter_rate

#: Floor for the per-instruction tier (executions / wall second). The
#: closure tier measures ~1.5M exec/s locally; a third of that still
#: catches anything that reintroduces per-execution decode.
INTERPRETER_FLOOR = 500_000


def bench_interpreter_throughput(publish):
    # Measurement shared with `repro bench --all`
    # (repro.harness.bench.measure_interpreter_rate): warm the closures
    # once, then best-of-3 timed rounds of 200k functional executions.
    best_rate, executed = measure_interpreter_rate(rounds=3)

    publish(
        "interpreter_throughput",
        "Functional interpreter throughput (vpr instruction stream)\n\n"
        f"{executed:,} instructions executed per round; "
        f"~{best_rate:,.0f} executions/second through the "
        "per-instruction closure tier",
    )
    _merge_results(
        "interpreter",
        {
            "workload": "vpr",
            "executions_per_second": round(best_rate),
            "executed_per_round": executed,
            "best_of_rounds": 3,
            "floor_executions_per_second": INTERPRETER_FLOOR,
        },
    )
    assert executed > 50_000
    assert best_rate > INTERPRETER_FLOOR
