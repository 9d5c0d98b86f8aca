"""Ablation: are problem branches predictor-insensitive? (Section 1)

The paper's premise: problem branches "cannot be accurately anticipated
using existing mechanisms" — no history-based predictor helps, because
the outcomes depend on loaded data. This bench swaps the machine's
direction predictor (bimodal, gshare, tournament, YAGS) on vpr and
gzip and checks that (a) the problem branches stay badly predicted
under every predictor, and (b) slices beat even the best predictor.
"""

from conftest import run_once

from repro.harness.experiments import default_scale
from repro.harness.runner import simulate
from repro.uarch.branch import (
    BimodalPredictor,
    GsharePredictor,
    TournamentPredictor,
    YagsPredictor,
)
from repro.uarch.config import FOUR_WIDE
from repro.uarch.core import Core
from repro.workloads import registry

PREDICTORS = {
    "bimodal": BimodalPredictor,
    "gshare": GsharePredictor,
    "tournament": TournamentPredictor,
    "yags": YagsPredictor,
}


def _run():
    scale = default_scale()
    results = {}
    for name in ("vpr", "gzip"):
        workload = registry.build(name, scale)
        problem = workload.problem_branch_pcs
        rows = {}
        for pname, factory in PREDICTORS.items():
            stats = Core(
                workload.program,
                FOUR_WIDE,
                memory_image=workload.memory_image,
                region=workload.region,
                direction_predictor=factory(),
            ).run()
            execs = sum(stats.branch_pcs[pc].executions for pc in problem)
            events = sum(stats.branch_pcs[pc].events for pc in problem)
            rows[pname] = (stats, events / execs if execs else 0.0)
        assisted = simulate(workload, "slice")
        results[name] = (rows, assisted)
    return results


def bench_ablation_predictors(benchmark, publish):
    results = run_once(benchmark, _run)
    lines = ["Ablation: problem branches vs direction predictors", ""]
    for name, (rows, assisted) in results.items():
        lines.append(f"{name}:")
        for pname, (stats, rate) in rows.items():
            lines.append(
                f"  {pname:<11s} IPC {stats.ipc:5.2f}   "
                f"problem-branch mispredict rate {rate:5.1%}"
            )
        lines.append(
            f"  {'slices':<11s} IPC {assisted.ipc:5.2f}   "
            f"(YAGS + slice overrides)"
        )
        lines.append("")
    publish("ablation_predictors", "\n".join(lines))

    for name, (rows, assisted) in results.items():
        # Every history-based predictor leaves the problem branches
        # frequently mispredicted (>= 15% of executions).
        for pname, (_stats, rate) in rows.items():
            assert rate > 0.15, f"{name}/{pname}: {rate:.1%}"
        # Slices beat the best conventional predictor.
        best_ipc = max(stats.ipc for stats, _ in rows.values())
        assert assisted.ipc > best_ipc


def bench_predictor_unit_quality(benchmark, publish):
    """Micro-check of the predictor zoo on synthetic patterns."""
    import random

    def train(predictor, pc, outcomes):
        correct = 0
        for taken in outcomes:
            history = predictor.history
            correct += predictor.predict(pc) == taken
            predictor.shift_history(taken)
            predictor.update(pc, taken, history)
        return correct / len(outcomes)

    def _run():
        rng = random.Random(77)
        patterns = {
            "biased": [True] * 2000,
            "loop(T3N)": ([True] * 3 + [False]) * 500,
            "period-2": [True, False] * 1000,
            "random": [rng.random() < 0.5 for _ in range(2000)],
        }
        table = {}
        for pname, factory in PREDICTORS.items():
            table[pname] = {
                pat: train(factory(), 0x4000, outcomes)
                for pat, outcomes in patterns.items()
            }
        return table

    table = run_once(benchmark, _run)
    header = f"{'predictor':<12s}" + "".join(
        f"{pat:>12s}" for pat in next(iter(table.values()))
    )
    lines = ["Predictor accuracy on synthetic patterns", "", header,
             "-" * len(header)]
    for pname, row in table.items():
        lines.append(
            f"{pname:<12s}" + "".join(f"{acc:>12.1%}" for acc in row.values())
        )
    publish("predictor_quality", "\n".join(lines))

    for pname, row in table.items():
        assert row["biased"] > 0.95, pname
        assert 0.4 < row["random"] < 0.6, pname  # nobody predicts noise
    # History-based predictors learn patterns bimodal cannot.
    assert table["yags"]["period-2"] > 0.9
    assert table["tournament"]["period-2"] > 0.9
    assert table["bimodal"]["period-2"] < 0.7
