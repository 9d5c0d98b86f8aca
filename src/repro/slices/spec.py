"""Speculative slice specification (Section 3 of the paper).

A :class:`SliceSpec` bundles everything the slice-execution hardware
needs, mirroring the annotations of the paper's Figure 5:

* the slice code itself (stored "as normal instructions in the
  instruction cache", so it lives in the same PC space as the program),
* the fork point — an existing main-thread PC whose fetch triggers the
  fork (the binary-compatible scheme of Section 4.2),
* the live-in registers copied from the main thread at fork,
* the maximum loop iteration count that bounds "runaway" slices,
* the prediction generating instructions (PGIs) and the problem
  branches they feed, and
* the kill points used by the prediction correlator (Section 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Base PC where slice code is placed, far above main-program PCs
#: (slices live in the same instruction cache, Section 4.2, but must
#: not collide with main-thread fetch addresses).
SLICE_CODE_BASE = 0x80000

_BRANCH_TESTS = {
    Opcode.BEQ: lambda v: v == 0,
    Opcode.BNE: lambda v: v != 0,
    Opcode.BLT: lambda v: v < 0,
    Opcode.BGE: lambda v: v >= 0,
    Opcode.BLE: lambda v: v <= 0,
    Opcode.BGT: lambda v: v > 0,
}


@dataclass(frozen=True)
class SliceHardwareConfig:
    """Slice-execution hardware extensions (Sections 4-5, Figures 6 & 10).

    The paper's slice table + PGI table take under 512B and the
    prediction correlator about 1KB; these entry counts match those
    budgets.
    """

    slice_table_entries: int = 16
    pgi_table_entries: int = 64
    branch_queue_entries: int = 64
    predictions_per_branch: int = 8
    #: Per-activation instruction fuse: a helper thread that fetches
    #: this many instructions in one activation is killed and counted
    #: (``RunStats.slices_killed_fuse``) rather than allowed to run
    #: away — the hardware backstop behind the paper's §3.2 software
    #: bounds (loop iteration caps, null-pointer termination). Sized
    #: well above any legitimate slice (the largest shipped slice
    #: fetches ~1K instructions per activation); ``None`` disables it.
    max_slice_insts: int | None = 4096


class KillKind(enum.Enum):
    """The two kinds of prediction kills (Section 5.1, Figure 9)."""

    LOOP = "loop"  # kills the prediction for one loop iteration
    SLICE = "slice"  # kills all remaining predictions of the slice


class PGIKind(enum.Enum):
    """What a prediction generating instruction predicts.

    ``DIRECTION`` is the paper's mechanism. ``VALUE`` is the extension
    its conclusion proposes ("this technique ... can potentially be
    used to correlate other types of predictions (e.g., value
    predictions)"): the PGI's computed value is used as a value
    prediction for a problem *load*, letting the load's consumers
    execute before the memory access completes; the load verifies the
    prediction when it resolves, squashing like a mispredicted branch
    on a mismatch.
    """

    DIRECTION = "direction"
    VALUE = "value"
    #: The PGI computes the *target address* of an indirect problem
    #: branch (the Roth et al. virtual-call direction the paper's §7
    #: frames as the complement of its kill-based correlation): the
    #: front end uses it in place of the cascading predictor's target.
    TARGET = "target"


@dataclass(frozen=True)
class PGISpec:
    """One prediction generating instruction.

    ``slice_pc`` locates the PGI inside the slice code; ``branch_pc``
    names the problem branch in the main thread that should consume the
    computed outcome. The PGI's result value is interpreted as a
    direction: nonzero means taken (``invert`` flips this, letting a
    slice reuse an existing comparison with opposite polarity).
    """

    slice_pc: int
    #: The problem instruction in the main thread this PGI predicts: a
    #: conditional branch for DIRECTION PGIs, a load for VALUE PGIs.
    branch_pc: int
    kind: PGIKind = PGIKind.DIRECTION
    invert: bool = False
    #: The problem branch is conditionally executed (Figure 8): not
    #: every generated prediction will be consumed, and the correlator's
    #: kill mechanism (Section 5.1) is what keeps the rest aligned.
    conditional: bool = False
    #: How the PGI's value maps to a direction. By default the value is
    #: treated as a boolean (nonzero = taken, flipped by ``invert``).
    #: Automatically-constructed slices instead reuse the problem
    #: branch's own condition opcode (e.g. ``Opcode.BLT``): the PGI
    #: value is then the branch's tested register value.
    branch_cond: "Opcode | None" = None

    def direction_of(self, value: int) -> bool:
        if self.branch_cond is not None:
            taken = _BRANCH_TESTS[self.branch_cond](value)
        else:
            taken = value != 0
        return not taken if self.invert else taken


@dataclass(frozen=True)
class KillSpec:
    """A kill point: an existing main-thread instruction used as a kill.

    ``skip_first`` implements the back-edge-target rule: when the best
    loop-iteration kill block is the target of the loop back-edge, "the
    first instance of the block should not kill any predictions"
    (Section 5.1).
    """

    kill_pc: int
    kind: KillKind
    skip_first: bool = False
    #: Scope of ``skip_first``: "instance" (the paper's back-edge-target
    #: rule: each forked instance ignores its first fetch of this kill)
    #: or "global" (the first fetch overall is ignored — the alignment
    #: offset for pipelined one-ahead slices, where kill events and
    #: instances pair FIFO with a constant offset of one).
    skip_scope: str = "instance"


@dataclass(frozen=True)
class SliceSpec:
    """A complete speculative slice, ready to load into the slice table."""

    name: str
    fork_pc: int
    code: Program
    entry_pc: int
    live_in_regs: tuple[int, ...]
    pgis: tuple[PGISpec, ...] = ()
    kills: tuple[KillSpec, ...] = ()
    #: Iteration cap; ``None`` for straight-line slices.
    max_iterations: int | None = None
    #: PC of the slice's loop back-edge branch (iterations are counted
    #: when it executes taken).
    loop_back_pc: int | None = None
    #: Slice load PCs that prefetch problem loads; maps each slice load
    #: to the main-thread problem load PC it covers (for Table 3/4
    #: accounting).
    prefetch_for: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.loop_back_pc is None:
            raise ValueError(
                f"slice {self.name!r}: max_iterations requires loop_back_pc"
            )
        for pgi in self.pgis:
            if self.code.at(pgi.slice_pc) is None:
                raise ValueError(
                    f"slice {self.name!r}: PGI pc {pgi.slice_pc:#x} not in slice code"
                )
        if self.code.at(self.entry_pc) is None:
            raise ValueError(f"slice {self.name!r}: entry pc not in slice code")

    @property
    def static_size(self) -> int:
        """Static instruction count (Table 3's "static size")."""
        return len(self.code)

    @property
    def covered_branch_pcs(self) -> frozenset[int]:
        return frozenset(pgi.branch_pc for pgi in self.pgis)

    @property
    def covered_load_pcs(self) -> frozenset[int]:
        return frozenset(self.prefetch_for.values())
