"""Confidence-gated slice forking (Section 6.3).

"Overhead can be reduced by not executing slices for problem
instructions that will not miss/mispredict. ... Obvious future work is
gating the fork using confidence [Jacobsen et al.]."

A :class:`ForkConfidenceEstimator` keeps one saturating counter per
slice, trained on whether recent instances were *useful* — they
supplied a consumed branch prediction, or their loads actually missed
(i.e. prefetched something the cache did not already have). Forks are
allowed while confidence is at or above threshold; while gated, every
``probe_interval``-th request is allowed through so the estimator can
re-learn a slice that becomes useful again.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class _SliceConfidence:
    counter: int
    gated_requests: int = 0


@dataclass
class ForkConfidenceEstimator:
    """Per-slice saturating usefulness counters."""

    max_count: int = 15
    threshold: int = 4
    initial: int = 8
    up: int = 2
    down: int = 1
    probe_interval: int = 16
    _slices: dict[str, _SliceConfidence] = field(default_factory=dict)
    forks_gated: int = 0
    probes: int = 0

    def _state(self, slice_name: str) -> _SliceConfidence:
        state = self._slices.get(slice_name)
        if state is None:
            state = self._slices[slice_name] = _SliceConfidence(self.initial)
        return state

    def should_fork(self, slice_name: str) -> bool:
        """Gate a fork request (called by the core's fork logic)."""
        state = self._state(slice_name)
        if state.counter >= self.threshold:
            return True
        state.gated_requests += 1
        if state.gated_requests >= self.probe_interval:
            state.gated_requests = 0
            self.probes += 1
            return True
        self.forks_gated += 1
        return False

    def update(self, slice_name: str, useful: bool) -> None:
        """Train on an instance outcome."""
        state = self._state(slice_name)
        if useful:
            state.counter = min(state.counter + self.up, self.max_count)
        else:
            state.counter = max(state.counter - self.down, 0)
