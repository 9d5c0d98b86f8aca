"""Front-end slice hardware: the slice table and PGI table (Figure 6).

The slice table CAMs fork PCs against the fetched PC range each cycle;
on a match an idle thread context is allocated to run the slice (forks
are ignored when no context is idle, Section 4.2). The PGI table maps
slice instruction PCs to the problem branches their results predict.
Together the structures hold well under 512B of state in the paper; the
models here enforce the same entry counts.
"""

from __future__ import annotations

from repro.slices.spec import PGISpec, SliceSpec


def is_statically_bounded(spec: SliceSpec) -> bool:
    """Static containment check: can this slice provably terminate?

    A slice is statically bounded when every backward control transfer
    in its code is covered by the spec's iteration cap
    (``max_iterations`` on ``loop_back_pc``). Unbounded slices are
    still legal — linked-list walks terminate dynamically on a null
    dereference (§3.2) — but they run purely on the dynamic
    containment fuse (``slice_hw.max_slice_insts``), so the slice
    table flags them at load time for reporting and strict-mode
    diagnostics.
    """
    for inst in spec.code.instructions:
        if not inst.is_branch or inst.target is None:
            continue
        if inst.target > inst.pc:
            continue  # forward edge: cannot loop by itself
        if inst.pc == spec.loop_back_pc and spec.max_iterations is not None:
            continue  # the declared, capped loop back-edge
        return False
    return True


class SliceTableFullError(Exception):
    """Raised when loading more slices than the table has entries."""


class SliceTable:
    """The fork-PC CAM plus per-slice metadata (Figure 6a).

    One entry per slice: fork PC, slice start PC, live-in registers, and
    the maximum loop count. Entries are loaded up front (the paper notes
    they cannot be demand loaded).
    """

    def __init__(self, entries: int = 16):
        self.capacity = entries
        self._by_fork_pc: dict[int, list[SliceSpec]] = {}
        self._in_order: list[SliceSpec] = []
        self._count = 0
        #: Names of loaded slices that rely solely on the dynamic
        #: instruction fuse for termination (see
        #: :func:`is_statically_bounded`).
        self.unbounded_slices: set[str] = set()

    def load(self, spec: SliceSpec) -> None:
        """Install one slice; raises if the table is full."""
        if self._count >= self.capacity:
            raise SliceTableFullError(
                f"slice table full ({self.capacity} entries)"
            )
        self._by_fork_pc.setdefault(spec.fork_pc, []).append(spec)
        self._in_order.append(spec)
        self._count += 1
        if not is_statically_bounded(spec):
            self.unbounded_slices.add(spec.name)

    def at_index(self, index: int) -> SliceSpec | None:
        """Entry lookup for explicit ``fork`` instructions (Section 4.2)."""
        if 0 <= index < len(self._in_order):
            return self._in_order[index]
        return None

    def __len__(self) -> int:
        return self._count


class PGITableFullError(Exception):
    """Raised when slices carry more PGIs than the table has entries."""


class PGITable:
    """PGI identification table (Figure 6b).

    One entry per prediction generating instruction; looked up when a
    slice thread fetches an instruction, so the computed value can be
    routed to the prediction correlator at execute.
    """

    def __init__(self, entries: int = 64):
        self.capacity = entries
        self._by_key: dict[tuple[str, int], PGISpec] = {}

    def load(self, spec: SliceSpec) -> None:
        """Install all PGIs of *spec*; raises if capacity is exceeded."""
        if len(self._by_key) + len(spec.pgis) > self.capacity:
            raise PGITableFullError(f"PGI table full ({self.capacity} entries)")
        for pgi in spec.pgis:
            self._by_key[(spec.name, pgi.slice_pc)] = pgi

    def lookup(self, slice_name: str, slice_pc: int) -> PGISpec | None:
        """Return the PGI entry for a slice instruction, if any."""
        return self._by_key.get((slice_name, slice_pc))

    def __len__(self) -> int:
        return len(self._by_key)
