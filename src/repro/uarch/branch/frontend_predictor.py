"""Composite front-end branch predictor (Table 1).

Combines, as in the paper's front end:

* a YAGS direction predictor for conditional branches,
* a cascading indirect predictor for register-target jumps/calls,
* a 64-entry return address stack for returns,
* a perfect BTB for direct branches (targets available at decode).

Histories (YAGS global history, indirect path history, RAS top) are
updated *speculatively* at prediction time; each prediction carries the
pre-branch snapshot so the core can restore on a squash and replay the
actual outcome.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.uarch.branch.cascading import CascadingIndirectPredictor
from repro.uarch.branch.ras import ReturnAddressStack
from repro.uarch.branch.yags import YagsPredictor
from repro.uarch.config import BranchPredictorConfig


@dataclass(slots=True)
class BranchPrediction:
    """A front-end prediction plus the history snapshot behind it."""

    taken: bool
    target: int
    ghr_before: int
    path_before: int
    ras_before: int
    #: True when a slice-generated prediction overrode the predictor
    #: (set by the core; used for accuracy accounting, Section 6.1).
    from_correlator: bool = False


class FrontEndPredictor:
    """The composite predictor the fetch stage consults."""

    def __init__(
        self,
        config: BranchPredictorConfig | None = None,
        direction_predictor=None,
    ):
        config = config or BranchPredictorConfig()
        self.direction = direction_predictor or YagsPredictor()
        self.indirect = CascadingIndirectPredictor()
        self.ras = ReturnAddressStack(config.ras_entries)

    # ------------------------------------------------------------------

    def predict(self, inst: Instruction) -> BranchPrediction:
        """Predict *inst* and speculatively update histories."""
        snapshot = BranchPrediction(
            taken=True,
            target=inst.pc + INSTRUCTION_BYTES,
            ghr_before=self.direction.history,
            path_before=self.indirect.path_history,
            ras_before=self.ras.checkpoint(),
        )
        op = inst.op
        if inst.is_conditional:
            taken = self.direction.predict(inst.pc)
            self.direction.shift_history(taken)
            snapshot.taken = taken
            snapshot.target = inst.target if taken else inst.pc + INSTRUCTION_BYTES
        elif op is Opcode.BR:
            snapshot.target = inst.target
        elif op is Opcode.CALL:
            self.ras.push(inst.pc + INSTRUCTION_BYTES)
            snapshot.target = inst.target
        elif op is Opcode.RET:
            snapshot.target = self.ras.predict_and_pop()
        elif op in (Opcode.JR, Opcode.CALLR):
            predicted = self.indirect.predict(inst.pc)
            if predicted is None:
                # No target known: fall through (will mispredict).
                predicted = inst.pc + INSTRUCTION_BYTES
            self.indirect.shift_history(predicted)
            snapshot.target = predicted
            if op is Opcode.CALLR:
                self.ras.push(inst.pc + INSTRUCTION_BYTES)
        else:
            raise ValueError(f"not a branch: {inst.op}")
        return snapshot

    def override_direction(
        self, prediction: BranchPrediction, inst: Instruction, taken: bool
    ) -> None:
        """Replace a conditional prediction's direction (correlator override).

        Re-applies the speculative history shift with the new direction.
        """
        self.direction.history = prediction.ghr_before
        self.direction.shift_history(taken)
        prediction.taken = taken
        prediction.target = (
            inst.target if taken else inst.pc + INSTRUCTION_BYTES
        )
        prediction.from_correlator = True

    def override_target(
        self, prediction: BranchPrediction, target: int
    ) -> None:
        """Replace an indirect prediction's target (slice override).

        Re-applies the speculative path-history shift with the new
        target (extension: TARGET-kind PGIs).
        """
        self.indirect.path_history = prediction.path_before
        self.indirect.shift_history(target)
        prediction.target = target
        prediction.from_correlator = True

    # ------------------------------------------------------------------

    def restore(self, prediction: BranchPrediction) -> None:
        """Restore all histories to their pre-branch snapshot (squash)."""
        self.direction.history = prediction.ghr_before
        self.indirect.path_history = prediction.path_before
        self.ras.restore(prediction.ras_before)

    def replay_actual(self, inst: Instruction, taken: bool, target: int) -> None:
        """After a restore, re-apply the *actual* outcome's history effects."""
        if inst.is_conditional:
            self.direction.shift_history(taken)
        elif inst.op in (Opcode.JR, Opcode.CALLR):
            self.indirect.shift_history(target)
            if inst.op is Opcode.CALLR:
                self.ras.push(inst.pc + INSTRUCTION_BYTES)
        elif inst.op is Opcode.CALL:
            self.ras.push(inst.pc + INSTRUCTION_BYTES)
        elif inst.op is Opcode.RET:
            self.ras.predict_and_pop()

    def train(
        self,
        inst: Instruction,
        taken: bool,
        target: int,
        prediction: BranchPrediction,
    ) -> None:
        """Non-speculative table update at branch resolution."""
        if inst.is_conditional:
            self.direction.update(inst.pc, taken, prediction.ghr_before)
        elif inst.op in (Opcode.JR, Opcode.CALLR):
            self.indirect.update(inst.pc, target, prediction.path_before)

    # ------------------------------------------------------------------
    # Functional-warming images (sampled simulation)
    # ------------------------------------------------------------------

    def warm_image(self) -> tuple:
        """Deep, picklable copy of the predictor state (direction
        tables + history, indirect tables + path history, RAS) for a
        warmed-state snapshot. The component predictors are plain
        lists/ints, so ``deepcopy`` both detaches the image from the
        live predictor and keeps it pickle-stable."""
        return copy.deepcopy((self.direction, self.indirect, self.ras))

    def load_warm_image(self, image: tuple) -> None:
        """Install a :meth:`warm_image`. Each component is copied so
        several cores restored from one in-memory snapshot (a shared
        sweep prefix) never alias predictor state."""
        self.direction, self.indirect, self.ras = map(_detached, image)


def _detached(component):
    """A copy of predictor *component* that shares no mutable state.

    The YAGS, cascading-indirect and RAS components of a warmed image
    keep their state in ints and flat lists of ints, ``None`` and
    immutable tuples, so slicing the lists copies exactly what
    ``deepcopy`` would, at a fraction of the cost.
    """
    clone = object.__new__(type(component))
    clone.__dict__.update(
        (name, value[:] if type(value) is list else value)
        for name, value in vars(component).items()
    )
    return clone
