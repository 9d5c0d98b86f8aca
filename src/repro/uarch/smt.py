"""SMT thread contexts and the ICOUNT fetch policy (Section 4.1).

The machine has ``thread_contexts`` hardware contexts: context 0 runs
the main program; the others are idle until the slice table forks a
helper thread into one. Helper threads share fetch bandwidth, window
slots, functional units, and the L1 D-cache with the main thread; fetch
slots are handed out ICOUNT-style, biased toward the main thread.
"""

from __future__ import annotations

import enum
from collections import deque

from repro.arch.memory import Memory
from repro.arch.state import ThreadState
from repro.isa.program import Program
from repro.slices.spec import SliceSpec
from repro.uarch.window import WindowEntry


class ThreadKind(enum.Enum):
    MAIN = "main"
    SLICE = "slice"


class ThreadContext:
    """One hardware thread context."""

    __slots__ = (
        "thread_id",
        "_kind",
        "is_main",
        "program",
        "prog_by_pc",
        "state",
        "active",
        "fetch_stalled",
        "rob",
        "in_flight",
        "last_writer",
        "spec",
        "instance_id",
        "fork_vn",
        "iterations",
        "livein_ready_cycle",
        "fetched",
        "retired",
        "slice_misses",
    )

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self._kind = ThreadKind.SLICE
        #: Cached ``kind is ThreadKind.MAIN`` — read on every fetch,
        #: dispatch, and commit of the hot loop; kept in sync by the
        #: ``kind`` setter.
        self.is_main = False
        self.program: Program | None = None
        #: Cached ``program._by_pc`` mapping for fetch-path lookups.
        self.prog_by_pc: dict[int, object] | None = None
        self.state: ThreadState | None = None
        self.active = False
        #: Fetch blocked (wrong path ran off the program / slice done);
        #: already-fetched instructions continue to drain.
        self.fetch_stalled = False
        self.rob: deque[WindowEntry] = deque()
        self.in_flight = 0
        self.last_writer: dict[int, WindowEntry] = {}
        # Slice-thread fields.
        self.spec: SliceSpec | None = None
        self.instance_id: int = -1
        self.fork_vn: int = -1
        self.iterations = 0
        self.livein_ready_cycle = 0
        self.fetched = 0
        self.retired = 0
        #: L1-missing loads this helper thread performed (confidence
        #: gating treats them as evidence of useful prefetching).
        self.slice_misses = 0

    # ------------------------------------------------------------------

    @property
    def kind(self) -> ThreadKind:
        return self._kind

    @kind.setter
    def kind(self, value: ThreadKind) -> None:
        self._kind = value
        self.is_main = value is ThreadKind.MAIN

    def activate_main(self, program: Program, memory: Memory) -> None:
        self.kind = ThreadKind.MAIN
        self.program = program
        self.prog_by_pc = program._by_pc
        self.state = ThreadState(memory, program.entry_pc, journaling=True)
        self.active = True

    def activate_slice(
        self,
        spec: SliceSpec,
        memory: Memory,
        live_in_values: dict[int, int],
        instance_id: int,
        fork_vn: int,
        livein_ready_cycle: int,
    ) -> None:
        """Fork a slice into this context (Section 4.3 register copy)."""
        self.kind = ThreadKind.SLICE
        self.program = spec.code
        self.prog_by_pc = spec.code._by_pc
        # Helper threads perform no stores, so they need no journaling.
        self.state = ThreadState(memory, spec.entry_pc, journaling=False)
        self.state.regs.load_values(live_in_values)
        self.spec = spec
        self.instance_id = instance_id
        self.fork_vn = fork_vn
        self.iterations = 0
        self.livein_ready_cycle = livein_ready_cycle
        self.slice_misses = 0
        self.active = True
        self.fetch_stalled = False
        self.rob.clear()
        self.in_flight = 0
        self.last_writer.clear()
        self.fetched = 0
        self.retired = 0

    def release(self) -> None:
        """Return the context to the idle pool."""
        self.active = False
        self.fetch_stalled = False
        self.spec = None
        self.instance_id = -1
        self.fork_vn = -1
        self.rob.clear()
        self.in_flight = 0
        self.last_writer.clear()

    @property
    def can_fetch(self) -> bool:
        return self.active and not self.fetch_stalled

    def fuse_blown(self, max_slice_insts: int | None) -> bool:
        """Containment check: has this helper-thread activation used up
        its per-activation instruction fuse?

        Checked before every helper fetch; a blown fuse means the slice
        is a runaway (infinite loop, unbounded recurrence) and must be
        killed before it can monopolize fetch bandwidth and window
        slots. Main-thread contexts never blow the fuse.
        """
        return (
            max_slice_insts is not None
            and not self.is_main
            and self.fetched >= max_slice_insts
        )


def any_fetchable(threads: list[ThreadContext]) -> bool:
    """True while any context can fetch this cycle.

    The event-driven core may not skip cycles while this holds: a
    fetchable thread performs work every cycle, so fetch stalls (and
    their release by a squash) are the per-thread wake-up condition
    aggregated into :meth:`Core._skip_target`'s skip decision.
    """
    for thread in threads:
        if thread.active and not thread.fetch_stalled:
            return True
    return False


def icount_order(
    threads: list[ThreadContext], main_bias: float
) -> list[ThreadContext]:
    """Order fetchable threads by biased in-flight count (ICOUNT).

    The main thread's count is divided by *main_bias* so it wins ties
    and keeps priority until it is well ahead of the helpers.
    """
    fetchable = [t for t in threads if t.active and not t.fetch_stalled]
    if len(fetchable) <= 1:
        return fetchable

    def key(thread: ThreadContext) -> float:
        if thread.is_main:
            return thread.in_flight / main_bias
        return float(thread.in_flight)

    return sorted(fetchable, key=key)
