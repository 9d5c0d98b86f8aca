"""Per-static-instruction perfect overlays (Section 2.3, Figure 1).

The paper augments its simulator "to give the appearance of a perfect
branch predictor and perfect cache on a per static instruction basis".
A :class:`PerfectSpec` names the static PCs to idealize:

* a branch at a perfect PC is always fetched down its correct path
  (no misprediction, no squash);
* a load at a perfect PC always completes with the L1 hit latency (the
  line is still installed, modeling a magically-zero-latency fill).

:data:`ALL_PERFECT` idealizes every branch and every load — the "all
perfect" bars of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PerfectSpec:
    """Which static instructions are treated as perfect."""

    branch_pcs: frozenset[int] = field(default_factory=frozenset)
    load_pcs: frozenset[int] = field(default_factory=frozenset)
    all_branches: bool = False
    all_loads: bool = False

    def branch_is_perfect(self, pc: int) -> bool:
        return self.all_branches or pc in self.branch_pcs

    def load_is_perfect(self, pc: int) -> bool:
        return self.all_loads or pc in self.load_pcs


#: No idealization: the baseline machine.
NO_PERFECT = PerfectSpec()

#: Every branch predicted perfectly and every load an L1 hit (Figure 1
#: "all perfect").
ALL_PERFECT = PerfectSpec(all_branches=True, all_loads=True)


def problem_perfect(branch_pcs, load_pcs) -> PerfectSpec:
    """Idealize exactly the given problem instructions (Figure 1,
    "prob. inst. perfect")."""
    return PerfectSpec(
        branch_pcs=frozenset(branch_pcs), load_pcs=frozenset(load_pcs)
    )
