"""Prediction correlator (Section 5, Figures 7, 9, 10).

Binds slice-generated branch predictions to the intended dynamic
instances of problem branches in the main thread. The correlator is
manipulated at fetch, so every action must be undoable when the main
thread squashes (Section 5.2), and predictions that arrive after their
branch was fetched must be handled gracefully (Section 5.3).

Structure (Figure 10): a *branch queue* with one entry per problem
branch PC, each holding up to 8 prediction slots. Slot states:

* ``EMPTY`` — allocated when the PGI was *fetched* by the slice thread
  (allocation at fetch makes it easy to order the slot before its kill).
* ``FULL`` — the PGI executed; the computed direction is available.
* ``LATE`` — an ``EMPTY`` slot was matched by its branch: the
  traditional prediction used is remembered, and when the PGI finally
  executes a mismatch can trigger early resolution.

Rather than consuming predictions on use, the correlator *kills* them
when the main thread's path shows they can no longer be used: loop
iteration kills retire one iteration's prediction, slice kills retire
all of a slice instance's predictions (Section 5.1, Figure 9). Killed
slots are only deallocated once the killing instruction retires; if the
killer is squashed the kill bit is cleared (Section 5.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.slices.spec import KillKind, PGISpec, SliceHardwareConfig, SliceSpec


class SlotState(enum.Enum):
    EMPTY = "empty"
    FULL = "full"
    LATE = "late"


@dataclass(slots=True, eq=False)
class PredictionSlot:
    """One prediction's state (the per-prediction fields of Figure 10)."""

    branch_pc: int
    instance_id: int
    slice_name: str
    state: SlotState = SlotState.EMPTY
    direction: bool | None = None
    #: For VALUE-kind PGIs: the predicted load value.
    predicted_value: int | None = None
    value_arrived: bool = False
    consumer_vn: int | None = None
    used_direction: bool | None = None
    killed: bool = False
    killer_vn: int | None = None
    dead: bool = False  # deallocated (fork squash or killer retired)

    @property
    def live(self) -> bool:
        return not self.dead and not self.killed


@dataclass
class _BranchEntry:
    """One branch-queue entry: a FIFO of prediction slots."""

    branch_pc: int
    slots: list[PredictionSlot] = field(default_factory=list)

    def head(self) -> PredictionSlot | None:
        """Oldest live slot (killed slots are skipped, not removed)."""
        for slot in self.slots:
            if slot.live:
                return slot
        return None

    def compact(self) -> None:
        self.slots = [slot for slot in self.slots if not slot.dead]


@dataclass
class _Instance:
    """Book-keeping for one forked slice instance."""

    instance_id: int
    spec: SliceSpec
    slots: list[PredictionSlot] = field(default_factory=list)
    #: Kill PCs whose first fetch must be ignored (back-edge-target rule).
    skip_pending: set[int] = field(default_factory=set)
    finished: bool = False  # slice-killed: no longer a loop-kill target
    #: VN of the instruction whose kill finished this instance.
    finish_vn: int | None = None
    #: An allocation overflowed: later allocations must also be refused,
    #: or the queue would have holes and predictions would mis-align.
    poisoned: bool = False
    #: Loop kills that found no live slot (the helper thread is running
    #: behind the main thread): each pending killer VN kills the next
    #: slot allocated for that branch, so a late-arriving prediction for
    #: an already-passed iteration is born dead instead of mis-binding.
    kill_debt: dict[int, list[int]] = field(default_factory=dict)

    def live_slots(self) -> list[PredictionSlot]:
        return [slot for slot in self.slots if slot.live]


@dataclass(slots=True)
class MatchResult:
    """Outcome of a branch-fetch CAM match.

    ``direction`` is the override to use, or ``None`` when the slot was
    still EMPTY (the core must use the traditional predictor and then
    call :meth:`PredictionCorrelator.bind_late`).
    """

    slot: PredictionSlot
    direction: bool | None


@dataclass(slots=True)
class ValueMatchResult:
    """Outcome of a load-fetch CAM match (value-prediction extension)."""

    slot: PredictionSlot
    value: int | None  # None when the PGI has not executed yet


@dataclass
class CorrelatorStats:
    """Counters reported in Table 4 and Section 6.1."""

    predictions_generated: int = 0
    overrides: int = 0
    correct_overrides: int = 0
    incorrect_overrides: int = 0
    empty_matches: int = 0
    late_predictions: int = 0
    late_mismatches: int = 0
    kills_applied: int = 0
    kills_restored: int = 0
    # Value-prediction extension (the paper's conclusion).
    value_predictions_generated: int = 0
    value_overrides: int = 0
    correct_value_overrides: int = 0
    incorrect_value_overrides: int = 0
    value_predictions_late: int = 0
    slot_overflow_drops: int = 0
    #: PGI allocations refused because the instance was already
    #: slice-killed (the helper thread ran behind the main thread).
    blocked_after_finish: int = 0


class PredictionCorrelator:
    """The branch-queue prediction correlator."""

    def __init__(self, config: SliceHardwareConfig | None = None):
        self._config = config or SliceHardwareConfig()
        self._entries: dict[int, _BranchEntry] = {}
        # kill pc -> list of (slice name, KillKind, skip_first, scope)
        self._kill_map: dict[int, list[tuple[str, KillKind, bool, str]]] = {}
        #: Kill PCs whose first fetch overall is ignored (global-scope
        #: skip_first), plus the consumption events for squash recovery.
        self._global_skip_pending: set[int] = set()
        self._global_skip_events: list[tuple[int, int]] = []  # (vn, pc)
        self._instances: dict[int, _Instance] = {}
        self._skip_events: list[tuple[int, int, int]] = []  # (vn, instance, pc)
        self._finish_events: list[tuple[int, int]] = []  # (vn, instance)
        #: Slots with the kill bit set, awaiting killer retirement —
        #: lets :meth:`on_retire` skip the full branch-queue scan on the
        #: (common) cycles where nothing was killed. A squash that
        #: clears the kill bit leaves the slot here; it is lazily
        #: dropped at the next scan.
        self._killed_pending: list[PredictionSlot] = []
        #: Set on any transition that could make an instance
        #: collectable (a slot died / an instance finished); cleared
        #: when :meth:`_gc_instances` runs.
        self._gc_dirty = False
        #: Optional callback ``(slice_name, instance_id, consumed_any)``
        #: invoked when an instance is garbage-collected — i.e. when its
        #: usefulness is finally known (used by confidence gating).
        self.instance_retired_listener = None
        self.stats = CorrelatorStats()

    # ------------------------------------------------------------------
    # Static configuration
    # ------------------------------------------------------------------

    def register_slice(self, spec: SliceSpec) -> None:
        """Create branch-queue entries and kill CAM entries for *spec*."""
        for pgi in spec.pgis:
            if pgi.branch_pc not in self._entries:
                if len(self._entries) >= self._config.branch_queue_entries:
                    raise ValueError(
                        f"branch queue full "
                        f"({self._config.branch_queue_entries} entries)"
                    )
                self._entries[pgi.branch_pc] = _BranchEntry(pgi.branch_pc)
        for kill in spec.kills:
            self._kill_map.setdefault(kill.kill_pc, []).append(
                (spec.name, kill.kind, kill.skip_first, kill.skip_scope)
            )
            if kill.skip_first and kill.skip_scope == "global":
                self._global_skip_pending.add(kill.kill_pc)

    # ------------------------------------------------------------------
    # Slice lifecycle
    # ------------------------------------------------------------------

    def on_fork(self, spec: SliceSpec, instance_id: int) -> None:
        self._instances[instance_id] = _Instance(
            instance_id=instance_id,
            spec=spec,
            skip_pending={k.kill_pc for k in spec.kills if k.skip_first},
        )

    def on_fork_squashed(self, instance_id: int) -> None:
        """The fork point was on a wrong path: discard everything."""
        instance = self._instances.pop(instance_id, None)
        if instance is None:
            return
        for slot in instance.slots:
            slot.dead = True
        for pc in {slot.branch_pc for slot in instance.slots}:
            self._entries[pc].compact()
        self._skip_events = [
            event for event in self._skip_events if event[1] != instance_id
        ]
        self._finish_events = [
            event for event in self._finish_events if event[1] != instance_id
        ]

    def on_pgi_fetched(
        self, spec: SliceSpec, pgi: PGISpec, instance_id: int
    ) -> PredictionSlot | None:
        """Allocate an EMPTY slot when the slice thread fetches a PGI.

        Returns ``None`` (and counts a drop) if the branch's 8 slots are
        all in use — the hardware bound of Figure 10.
        """
        instance = self._instances.get(instance_id)
        entry = self._entries.get(pgi.branch_pc)
        if instance is None or entry is None:
            return None
        if instance.poisoned:
            self.stats.slot_overflow_drops += 1
            return None
        if len(entry.slots) >= self._config.predictions_per_branch:
            # Dropping this prediction but accepting later ones would
            # punch a hole in the FIFO and mis-align every subsequent
            # match, so the instance stops generating entirely (its
            # prefetches are unaffected).
            instance.poisoned = True
            self.stats.slot_overflow_drops += 1
            return None
        slot = PredictionSlot(
            branch_pc=pgi.branch_pc,
            instance_id=instance_id,
            slice_name=spec.name,
        )
        if instance.finished:
            # The main thread already slice-killed this instance (the
            # helper thread is running behind): the prediction enters
            # the queue born dead, charged to the finishing kill, so it
            # can neither escape the kill nor punch an ordering hole —
            # and it is restored intact if the kill is squashed.
            slot.killed = True
            slot.killer_vn = instance.finish_vn
            self._killed_pending.append(slot)
            self.stats.blocked_after_finish += 1
        else:
            debts = instance.kill_debt.get(pgi.branch_pc)
            if debts:
                slot.killed = True
                slot.killer_vn = debts.pop(0)
                self._killed_pending.append(slot)
        entry.slots.append(slot)
        instance.slots.append(slot)
        return slot

    def on_pgi_executed(self, slot: PredictionSlot, direction: bool) -> bool:
        """Record the PGI's computed direction.

        Returns True when this is a *late mismatch*: the slot was already
        consumed in the EMPTY state with a traditional prediction that
        disagrees — the core may redirect fetch early (Section 5.3).
        """
        if slot.dead:
            return False
        self.stats.predictions_generated += 1
        slot.direction = direction
        slot.value_arrived = True
        if slot.state is SlotState.EMPTY:
            slot.state = SlotState.FULL
            return False
        if slot.state is SlotState.LATE and slot.used_direction != direction:
            self.stats.late_mismatches += 1
            return True
        return False

    def on_value_pgi_executed(self, slot: PredictionSlot, value: int) -> None:
        """Record a VALUE PGI's computed load value (extension)."""
        if slot.dead:
            return
        self.stats.value_predictions_generated += 1
        slot.predicted_value = value
        slot.value_arrived = True
        if slot.state is SlotState.EMPTY:
            slot.state = SlotState.FULL

    # ------------------------------------------------------------------
    # Main-thread fetch events
    # ------------------------------------------------------------------

    def on_branch_fetched(self, pc: int, vn: int) -> MatchResult | None:
        """CAM match a fetched branch against the branch queue.

        A FULL head overrides the traditional predictor. An EMPTY head
        yields ``direction=None``; the core uses the traditional
        predictor and must call :meth:`bind_late`. A LATE head (already
        bound to an earlier un-killed consumer) yields no match.
        """
        entry = self._entries.get(pc)
        if entry is None:
            return None
        slot = entry.head()
        if slot is None:
            return None
        if slot.state is SlotState.FULL:
            self.stats.overrides += 1
            slot.consumer_vn = vn
            return MatchResult(slot, slot.direction)
        if slot.state is SlotState.EMPTY:
            self.stats.empty_matches += 1
            return MatchResult(slot, None)
        return None

    def bind_late(
        self, slot: PredictionSlot, vn: int, used_direction: bool
    ) -> None:
        """Bind an EMPTY slot to the branch that consumed it (-> LATE)."""
        slot.state = SlotState.LATE
        slot.consumer_vn = vn
        slot.used_direction = used_direction
        self.stats.late_predictions += 1

    def on_load_fetched(self, pc: int, vn: int) -> ValueMatchResult | None:
        """CAM match a fetched problem load against the value queue.

        A FULL head supplies a value prediction the load's consumers
        can use before the access completes. An EMPTY head (the helper
        thread is behind) yields no usable prediction — there is no
        late-binding path for values, only a statistic.
        """
        entry = self._entries.get(pc)
        if entry is None:
            return None
        slot = entry.head()
        if slot is None:
            return None
        if slot.state is SlotState.FULL and slot.predicted_value is not None:
            self.stats.value_overrides += 1
            slot.consumer_vn = vn
            return ValueMatchResult(slot, slot.predicted_value)
        if slot.state is SlotState.EMPTY:
            self.stats.value_predictions_late += 1
        return None

    # Indirect-target predictions share the value queue: a TARGET PGI's
    # computed address is matched at the indirect branch's fetch.
    on_target_fetched = on_load_fetched

    def record_value_outcome(self, slot: PredictionSlot, correct: bool) -> None:
        """Accuracy accounting for a consumed value prediction."""
        if correct:
            self.stats.correct_value_overrides += 1
        else:
            self.stats.incorrect_value_overrides += 1

    def on_kill_fetched(self, pc: int, vn: int) -> int:
        """Apply kills for a fetched kill-point PC; returns kills applied.

        Each fetch of a kill block acts on the oldest live instance of
        the slice that registered the kill: a LOOP kill retires that
        instance's oldest live prediction in each covered branch entry;
        a SLICE kill retires all of the instance's predictions.
        """
        actions = self._kill_map.get(pc)
        if not actions:
            return 0
        applied = 0
        for slice_name, kind, skip_first, skip_scope in actions:
            if (
                skip_first
                and skip_scope == "global"
                and pc in self._global_skip_pending
            ):
                self._global_skip_pending.discard(pc)
                self._global_skip_events.append((vn, pc))
                continue
            instance = self._oldest_live_instance(slice_name)
            if instance is None:
                continue
            if (
                skip_first
                and skip_scope == "instance"
                and pc in instance.skip_pending
            ):
                instance.skip_pending.discard(pc)
                self._skip_events.append((vn, instance.instance_id, pc))
                continue
            if kind is KillKind.LOOP:
                applied += self._kill_one_iteration(instance, vn)
            else:
                applied += self._kill_instance(instance, vn)
        self.stats.kills_applied += applied
        return applied

    # ------------------------------------------------------------------
    # Mis-speculation recovery and retirement
    # ------------------------------------------------------------------

    def on_squash(self, min_squashed_vn: int) -> None:
        """Undo all correlator actions by squashed instructions.

        Any kill, late-binding, or skip consumption performed by an
        instruction with VN >= *min_squashed_vn* is reverted.
        """
        for entry in self._entries.values():
            for slot in entry.slots:
                if slot.dead:
                    continue
                if (
                    slot.killed
                    and slot.killer_vn is not None
                    and slot.killer_vn >= min_squashed_vn
                ):
                    slot.killed = False
                    slot.killer_vn = None
                    self.stats.kills_restored += 1
                if (
                    slot.consumer_vn is not None
                    and slot.consumer_vn >= min_squashed_vn
                ):
                    if slot.state is SlotState.LATE:
                        slot.state = (
                            SlotState.FULL if slot.value_arrived else SlotState.EMPTY
                        )
                        slot.used_direction = None
                    slot.consumer_vn = None
        kept_events = []
        for vn, instance_id, pc in self._skip_events:
            if vn >= min_squashed_vn:
                instance = self._instances.get(instance_id)
                if instance is not None:
                    instance.skip_pending.add(pc)
            else:
                kept_events.append((vn, instance_id, pc))
        self._skip_events = kept_events
        for instance in self._instances.values():
            for debts in instance.kill_debt.values():
                debts[:] = [v for v in debts if v < min_squashed_vn]
        kept_globals = []
        for vn, pc in self._global_skip_events:
            if vn >= min_squashed_vn:
                self._global_skip_pending.add(pc)
            else:
                kept_globals.append((vn, pc))
        self._global_skip_events = kept_globals
        kept_finishes = []
        for vn, instance_id in self._finish_events:
            if vn >= min_squashed_vn:
                instance = self._instances.get(instance_id)
                if instance is not None:
                    instance.finished = False
                    instance.finish_vn = None
            else:
                kept_finishes.append((vn, instance_id))
        self._finish_events = kept_finishes

    def on_retire(self, vn: int) -> None:
        """Commit watermark: deallocate slots whose killer has retired."""
        pending = self._killed_pending
        if pending:
            dirty_pcs = set()
            keep = []
            for slot in pending:
                if slot.dead or not slot.killed:
                    continue  # already deallocated / kill was squashed
                if slot.killer_vn is not None and slot.killer_vn <= vn:
                    slot.dead = True
                    dirty_pcs.add(slot.branch_pc)
                else:
                    keep.append(slot)
            self._killed_pending = keep
            if dirty_pcs:
                for pc in dirty_pcs:
                    self._entries[pc].compact()
                self._gc_dirty = True
        if self._skip_events:
            self._skip_events = [e for e in self._skip_events if e[0] > vn]
        if self._global_skip_events:
            self._global_skip_events = [
                e for e in self._global_skip_events if e[0] > vn
            ]
        if self._finish_events:
            self._finish_events = [e for e in self._finish_events if e[0] > vn]
        if self._gc_dirty:
            self._gc_dirty = False
            self._gc_instances()

    def record_override_outcome(self, slot: PredictionSlot, correct: bool) -> None:
        """Accuracy accounting for a consumed FULL prediction."""
        if correct:
            self.stats.correct_overrides += 1
        else:
            self.stats.incorrect_overrides += 1

    # ------------------------------------------------------------------

    def _oldest_live_instance(self, slice_name: str) -> _Instance | None:
        candidates = [
            inst
            for inst in self._instances.values()
            if inst.spec.name == slice_name and not inst.finished
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda inst: inst.instance_id)

    def _kill_one_iteration(self, instance: _Instance, vn: int) -> int:
        """LOOP kill: oldest live slot of *instance* per covered branch.

        If a branch entry holds no live slot of this instance yet (the
        slice is behind), the kill is recorded as a debt against the
        next allocation instead of vanishing.
        """
        killed = 0
        for branch_pc in instance.spec.covered_branch_pcs:
            entry = self._entries.get(branch_pc)
            if entry is None:
                continue
            for slot in entry.slots:
                if slot.live and slot.instance_id == instance.instance_id:
                    slot.killed = True
                    slot.killer_vn = vn
                    self._killed_pending.append(slot)
                    killed += 1
                    break
            else:
                instance.kill_debt.setdefault(branch_pc, []).append(vn)
        if (
            not instance.finished
            and not instance.live_slots()
            and self._slice_done_generating(instance)
        ):
            instance.finished = True
            instance.finish_vn = vn
            self._finish_events.append((vn, instance.instance_id))
            self._gc_dirty = True
        return killed

    def _kill_instance(self, instance: _Instance, vn: int) -> int:
        """SLICE kill: all live predictions of *instance*."""
        killed = 0
        for slot in instance.live_slots():
            slot.killed = True
            slot.killer_vn = vn
            self._killed_pending.append(slot)
            killed += 1
        if not instance.finished:
            instance.finished = True
            instance.finish_vn = vn
            self._finish_events.append((vn, instance.instance_id))
            self._gc_dirty = True
        return killed

    def _slice_done_generating(self, instance: _Instance) -> bool:
        """Heuristic: a loop-killed-dry instance with a known iteration
        bound will not produce more predictions once all are killed."""
        spec = instance.spec
        if spec.max_iterations is None:
            return bool(instance.slots)
        return len(instance.slots) >= spec.max_iterations * max(len(spec.pgis), 1)

    def _gc_instances(self) -> None:
        done = [
            instance_id
            for instance_id, instance in self._instances.items()
            if instance.finished and not any(not s.dead for s in instance.slots)
        ]
        for instance_id in done:
            instance = self._instances.pop(instance_id)
            if self.instance_retired_listener is not None:
                consumed = any(
                    slot.consumer_vn is not None for slot in instance.slots
                )
                self.instance_retired_listener(
                    instance.spec.name, instance_id, consumed
                )

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples)
    # ------------------------------------------------------------------

    def queue_for(self, branch_pc: int) -> list[PredictionSlot]:
        entry = self._entries.get(branch_pc)
        return list(entry.slots) if entry else []
