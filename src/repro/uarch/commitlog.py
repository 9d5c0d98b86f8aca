"""Commit-stream tap: observe every main-thread commit, in order.

The differential fuzzer (:mod:`repro.fuzz`) cross-checks execution
tiers *architecturally*: two configurations agree iff they commit the
same dynamic instruction sequence with the same observable effects.
``RunStats`` aggregates are too coarse for that (two compensating
errors cancel in a counter), so this module taps
:meth:`Core._commit_main` — the single point every architecturally
committed main-thread instruction passes through, on every tier
(stepping or event-driven, snapshot-restored or cold) — and records one tuple per commit.

The tap wraps the bound method on one Core instance: it costs nothing
when not attached, needs no Core constructor change, and sees commits
during the warmup discard window too (the stats reset at the warmup
boundary does not touch it), which is exactly what sampled-window
comparison needs.

The per-commit record mirrors the interpreter's
:class:`~repro.arch.interpreter.ExecResult` observables, so a detailed
core's commit stream is directly comparable to a pure functional run
(:func:`repro.fuzz.diff.run_reference`)::

    (pc, next_pc, value, addr, store_value)
"""

from __future__ import annotations

#: One record per committed main-thread instruction.
CommitRecord = tuple[int, int, int | None, int | None, int | None]


def attach_commit_tap(core, sink: list | None = None) -> list:
    """Wrap *core*'s main-thread commit hook; return the record sink.

    Must be called after construction and before :meth:`Core.run`.
    Every committed main-thread instruction appends one
    :data:`CommitRecord` to *sink* (a fresh list when ``None``), in
    commit order. Helper-thread (slice) retirement never passes through
    ``_commit_main``, so slices — which must not perturb architected
    state — are invisible here by construction.
    """
    if sink is None:
        sink = []
    inner = core._commit_main
    append = sink.append

    def tapped(entry):
        inst = entry.inst
        append(
            (inst.pc, entry.rnext_pc, entry.rvalue, entry.raddr, entry.rstore)
        )
        inner(entry)

    core._commit_main = tapped
    return sink


def first_mismatch(a, b) -> int | None:
    """Index of the first disagreeing record, or ``None`` when equal.

    A length difference with an equal common prefix reports the first
    index past the shorter stream.
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    if len(a) != len(b):
        return n
    return None
