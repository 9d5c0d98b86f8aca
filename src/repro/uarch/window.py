"""Instruction-window entries for the out-of-order core.

Each fetched dynamic instruction gets a :class:`WindowEntry`. Entries
carry the functional outcome (computed at fetch, possibly down a wrong
path), the branch prediction behind the fetch, dependence links for
dataflow scheduling, and slice/correlator hooks.

The functional outcome is stored as scalar slots (``rvalue`` /
``raddr`` / ``rstore`` / ``rtaken`` / ``rnext_pc`` / ``rfault``) rather
than a nested :class:`~repro.arch.interpreter.ExecResult`: fetch copies
the observables out of the closure's result, so the issue, completion
and commit paths read each one with a single slot load and the
``ExecResult`` dies at fetch. The :attr:`result` property
materializes an ``ExecResult`` view on demand for debugging and cold
consumers (the trace-driven slice builder).
"""

from __future__ import annotations

from repro.arch.exceptions import Fault
from repro.arch.interpreter import ExecResult
from repro.arch.state import Checkpoint
from repro.isa.instruction import Instruction
from repro.uarch.branch.frontend_predictor import BranchPrediction


class WindowEntry:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "inst",
        "thread_id",
        "vn",
        "fetch_cycle",
        # Per-instruction observables (the ExecResult fields, unpacked).
        "rvalue",
        "raddr",
        "rstore",
        "rtaken",
        "rnext_pc",
        "rfault",
        "prediction",
        "checkpoint",
        "mispredicted",
        "effective_taken",
        "early_resolved",
        "completed",
        "squashed",
        "committed",
        "pending_deps",
        "waiters",
        "prev_writer",
        "pgi_slot",
        "match_slot",
        "counts_as_miss",
        "value_predicted",
        "value_correct",
    )

    def __init__(
        self,
        inst: Instruction,
        thread_id: int,
        vn: int,
        fetch_cycle: int,
        rvalue: int | None = None,
        raddr: int | None = None,
        rstore: int | None = None,
        rtaken: bool | None = None,
        rnext_pc: int = 0,
        rfault: Fault = Fault.NONE,
    ):
        self.inst = inst
        self.thread_id = thread_id
        self.vn = vn
        self.fetch_cycle = fetch_cycle
        self.rvalue = rvalue
        self.raddr = raddr
        self.rstore = rstore
        self.rtaken = rtaken
        self.rnext_pc = rnext_pc
        self.rfault = rfault
        self.prediction: BranchPrediction | None = None
        self.checkpoint: Checkpoint | None = None
        #: Fetch steered down a path inconsistent with the actual outcome.
        self.mispredicted = False
        #: Direction fetch is currently following for this branch (may be
        #: flipped by a late-prediction early resolution, Section 5.3).
        self.effective_taken: bool | None = None
        #: An early resolution already redirected fetch for this branch.
        self.early_resolved = False
        self.completed = False
        self.squashed = False
        self.committed = False
        self.pending_deps = 0
        self.waiters: list[WindowEntry] = []
        #: (reg, previous writer) pairs for rename-map rollback on squash.
        self.prev_writer: tuple[int, WindowEntry | None] | None = None
        self.pgi_slot = None  # PredictionSlot for slice-thread PGIs
        self.match_slot = None  # consumed PredictionSlot for main branches
        self.counts_as_miss = False
        #: Value-prediction extension: a slice-supplied value prediction
        #: was bound to this load at fetch, and whether it was right.
        self.value_predicted = False
        self.value_correct = False

    @property
    def result(self) -> ExecResult:
        """ExecResult view of the observable slots (debug / cold paths)."""
        return ExecResult(
            value=self.rvalue,
            addr=self.raddr,
            store_value=self.rstore,
            taken=self.rtaken,
            next_pc=self.rnext_pc,
            fault=self.rfault,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            flag
            for flag, on in (
                ("C", self.completed),
                ("S", self.squashed),
                ("M", self.mispredicted),
            )
            if on
        )
        return f"<W vn={self.vn} t{self.thread_id} pc={self.inst.pc:#x} {flags}>"
