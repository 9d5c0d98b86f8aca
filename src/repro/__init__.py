"""repro — reproduction of "Execution-based Prediction Using Speculative
Slices" (Zilles & Sohi, ISCA 2001).

The package is layered bottom-up:

* :mod:`repro.isa` — a small Alpha-flavored RISC ISA and assembler.
* :mod:`repro.arch` — functional architecture (journaled state, executor).
* :mod:`repro.uarch` — the timing microarchitecture: caches, prefetcher,
  branch predictors, and the out-of-order SMT core of Table 1.
* :mod:`repro.slices` — the paper's contribution: speculative slices,
  the slice/PGI front-end tables, and the prediction correlator.
* :mod:`repro.workloads` — SPEC2000int-analog synthetic kernels.
* :mod:`repro.analysis` — problem-instruction profiling/classification
  and run characterization (Tables 2-4).
* :mod:`repro.harness` — experiment drivers that regenerate every table
  and figure in the paper's evaluation.
"""

__version__ = "1.0.0"

# Convenience top-level API: the pieces a downstream user starts from.
from repro.harness.runner import simulate  # noqa: E402
from repro.uarch.config import EIGHT_WIDE, FOUR_WIDE  # noqa: E402
from repro.uarch.core import Core  # noqa: E402

__all__ = [
    "Core",
    "EIGHT_WIDE",
    "FOUR_WIDE",
    "simulate",
]
