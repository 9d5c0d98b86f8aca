"""Return address stack (64 entries, Table 1).

A circular stack with top-of-stack checkpointing: on a squash the core
restores the TOS pointer captured at prediction time (entries
overwritten by wrong-path calls are not recovered — the standard,
slightly lossy hardware mechanism).
"""

from __future__ import annotations


class ReturnAddressStack:
    """Circular return-address stack predictor."""

    def __init__(self, entries: int = 64):
        self._stack = [0] * entries
        self._entries = entries
        self._top = 0  # index of the next free slot

    def push(self, return_pc: int) -> None:
        self._stack[self._top % self._entries] = return_pc
        self._top += 1

    def predict_and_pop(self) -> int:
        """Predict a return target by popping the stack."""
        if self._top == 0:
            return 0
        self._top -= 1
        return self._stack[self._top % self._entries]

    def checkpoint(self) -> int:
        """Capture the TOS pointer for squash recovery."""
        return self._top

    def restore(self, checkpoint: int) -> None:
        self._top = checkpoint
