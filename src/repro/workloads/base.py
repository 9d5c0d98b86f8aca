"""Workload framework.

Each SPEC2000int benchmark the paper evaluates is represented by a
synthetic kernel distilled to the pathology the paper documents for it
(see each workload module's docstring). A built :class:`Workload`
bundles the program, its initial memory image, the measured region
length, the hand-constructed speculative slices (when the paper built
slices for that benchmark, Table 3), and ground-truth problem
instructions for tests and the Figure 1 overlays.

All workloads accept a ``scale`` factor: 1.0 is the benchmark-sized
configuration used by the paper-reproduction benches; tests use small
scales. Working sets at scale 1.0 are sized against the Table 1 caches
the same way the paper's inputs were (e.g. vpr's heap "does not fit in
the L1 cache").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.memory import to_signed
from repro.isa.program import Program
from repro.slices.spec import SLICE_CODE_BASE, SliceSpec


@dataclass
class Workload:
    """A runnable benchmark instance."""

    name: str
    program: Program
    memory_image: dict[int, int]
    #: Main-thread instructions to commit in the measured region.
    region: int
    description: str = ""
    slices: tuple[SliceSpec, ...] = ()
    #: Ground-truth problem instructions (hand annotations, used by
    #: tests and as the Figure 1 per-instruction perfect sets when the
    #: profiler is not run first).
    problem_branch_pcs: frozenset[int] = frozenset()
    problem_load_pcs: frozenset[int] = frozenset()
    #: Paper-documented qualitative expectation, used in EXPERIMENTS.md
    #: ("large speedup", "no speedup: high base IPC", ...).
    expectation: str = ""
    #: Build scale recorded by the registry, so a built workload can be
    #: turned back into a declarative ``RunRequest``.
    scale: float = 1.0

    def __post_init__(self) -> None:
        for spec in self.slices:
            for inst in spec.code.instructions:
                if inst.is_store:
                    raise ValueError(
                        f"slice {spec.name!r} contains a store at "
                        f"{inst.pc:#x}; slices must not affect "
                        f"architected state"
                    )
        # Normalize the image once at build time (8-byte-aligned keys,
        # signed values — :class:`repro.arch.memory.Memory`'s internal
        # form) so every run of this workload can copy the dict instead
        # of re-normalizing it. At benchmark scales the image has
        # millions of words and re-normalization dominates otherwise
        # (~5.8s vs ~0.15s per fast-forward of scale-181 mcf).
        self.memory_image = {
            addr & ~7: to_signed(value)
            for addr, value in self.memory_image.items()
        }


class Lcg:
    """Deterministic 64-bit LCG for workload data generation.

    Kept dependency-free and stable across Python versions so memory
    images (and therefore results) are reproducible.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK

    def next(self) -> int:
        self._state = (
            self._state * self.MULTIPLIER + self.INCREMENT
        ) & self.MASK
        return self._state >> 16

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        return self.next() % bound

    def bit(self) -> int:
        return (self.next() >> 5) & 1


__all__ = ["Lcg", "SLICE_CODE_BASE", "Workload"]
