"""Deterministic regression goldens.

Everything in the library is bit-reproducible (workload data comes from
a fixed LCG; the simulator has no randomness), so functional counters
are asserted *exactly* and timing is asserted within a band. If a
change shifts a functional golden, the workload's program or data
changed — update the golden deliberately. If timing drifts outside the
band, a model change altered first-order behavior — decide whether
that was intended before touching the numbers.

Goldens were captured at scale 0.1 on the 4-wide machine.
"""

import pytest

from repro.harness.runner import simulate
from repro.workloads import registry

SCALE = 0.1

#: name -> (committed, branches, loads) — exact functional facts.
FUNCTIONAL = {
    "bzip2": (11685, 2546, 1663),
    "crafty": (6453, 1332, 520),
    "eon": (16790, 621, 3840),
    "gap": (3912, 912, 1089),
    "gcc": (6220, 1457, 2056),
    "gzip": (17580, 832, 3344),
    "mcf": (5546, 1164, 1734),
    "parser": (9772, 675, 650),
    "perl": (8513, 480, 2160),
    "twolf": (12435, 440, 2750),
    "vortex": (5284, 240, 1200),
    "vpr": (27430, 1353, 5580),
}

#: name -> (base_cycles, slice_cycles, base_misp, slice_misp) — timing
#: facts, allowed to drift +-15% (model refinements move constants).
TIMING = {
    "bzip2": (20006, 12689, 977, 778),
    "crafty": (9411, 9409, 390, 381),
    "eon": (7672, 7080, 98, 96),
    "gap": (8681, 5483, 294, 247),
    "gcc": (19870, 19837, 424, 424),
    "gzip": (16382, 14272, 277, 133),
    "mcf": (11437, 9338, 311, 307),
    "parser": (9563, 9563, 40, 40),
    "perl": (7199, 6364, 126, 125),
    "twolf": (11192, 10650, 124, 72),
    "vortex": (3642, 3545, 1, 1),
    "vpr": (14090, 9770, 230, 37),
}

TIMING_TOLERANCE = 0.15


@pytest.fixture(scope="module", params=sorted(FUNCTIONAL))
def measured(request):
    workload = registry.build(request.param, SCALE)
    return (
        request.param,
        simulate(workload),
        simulate(workload, "slice"),
    )


def test_functional_goldens_exact(measured):
    name, base, _assisted = measured
    committed, branches, loads = FUNCTIONAL[name]
    assert base.committed == committed, name
    assert base.branches_committed == branches, name
    assert base.loads_committed == loads, name


def test_timing_goldens_within_band(measured):
    name, base, assisted = measured
    base_cycles, slice_cycles, base_misp, slice_misp = TIMING[name]

    def close(measured_value, golden, label):
        if golden < 50:  # tiny counts: allow small absolute slack
            assert abs(measured_value - golden) <= 10, (name, label)
            return
        ratio = measured_value / golden
        assert 1 - TIMING_TOLERANCE <= ratio <= 1 + TIMING_TOLERANCE, (
            name,
            label,
            measured_value,
            golden,
        )

    close(base.cycles, base_cycles, "base cycles")
    close(assisted.cycles, slice_cycles, "slice cycles")
    close(base.branch_mispredictions, base_misp, "base mispredictions")
    close(assisted.branch_mispredictions, slice_misp, "slice mispredictions")


def test_slice_runs_commit_identically(measured):
    name, base, assisted = measured
    assert assisted.committed == base.committed, name
    assert assisted.branches_committed == base.branches_committed, name
