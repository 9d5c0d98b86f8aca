"""Span recorder for the end-to-end benchmark, measured from outside.

:func:`install` wraps the public functions of each layer of ``repro``
(workload build, ``Core.run``, fast-forward, the stores, the matrix
runner, the Figure 11 experiment and the service queue) so that every
call records one span: name, start, end, pid, parent span and, where
the call concerns one request, the request fingerprint as a shared id.
Nothing under ``src/`` changes; the wrappers replace module and class
attributes at run time.

Timestamps come from :func:`time.perf_counter`, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across processes. Spans
are buffered in memory per process and appended to
``<out>/spans/<pid>.jsonl`` whenever that process's span stack empties.
Install before any pool is forked: pool workers are forked, inherit the
wrappers, and ``os.register_at_fork`` clears the buffer and stack they
inherit, so no parent span is ever written twice.

Run as a script, ``python trace.py worker --out DIR`` installs the
wrappers and then runs ``repro worker`` with its defaults.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SPANS_SUBDIR = "spans"

#: The store classes timed, by namespace name.
STORE_NAMESPACES = ("runs", "windows", "snapshots")


class Tracer:
    """Per-process span buffer and stack."""

    def __init__(self, out_dir: str | os.PathLike):
        self.dir = Path(out_dir) / SPANS_SUBDIR
        self.dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        atexit.register(self.flush)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.buffer: list[dict] = []
        self.stack: list[dict] = []
        self.next_id = 0

    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "pid": self.pid,
            "id": self.next_id,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "start": time.perf_counter(),
        }
        self.next_id += 1
        self.stack.append(span)
        return span

    def end(self, span: dict, attrs=None) -> None:
        """Close *span*; *attrs* (a callable) runs after the end time
        is taken, so computing attributes costs the span nothing."""
        span["end"] = time.perf_counter()
        if attrs is not None:
            span.update(attrs())
        self.stack.pop()
        self.buffer.append(span)
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        lines = "".join(json.dumps(span) + "\n" for span in self.buffer)
        self.buffer = []
        with open(self.dir / f"{self.pid}.jsonl", "a") as fh:
            fh.write(lines)

    # ------------------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """*fn* recording one *name* span per call; ``attrs(args,
        kwargs, result)`` adds attributes to spans of calls that
        returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, lambda: {"error": type(exc).__name__})
                raise
            self.end(
                span,
                None if attrs is None else lambda: attrs(args, kwargs, result),
            )
            return result

        return wrapper

    def wrap_chain(self, fn):
        """``iter_chain`` with one span per ``next()``: the time spent
        producing each chain member, with whether it was a store hit or
        built, and how many instructions the build warmed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            members = fn(*args, **kwargs)
            executed = 0
            while True:
                span = self.begin("fastforward.chain")
                try:
                    snapshot, hit = next(members)
                except StopIteration:
                    self.end(span, lambda: {"empty": True})
                    return
                except BaseException as exc:
                    self.end(span, lambda: {"error": type(exc).__name__})
                    raise
                built = snapshot is not None and not hit
                warmed = snapshot.executed - executed if built else 0
                self.end(
                    span, lambda: {"hit": hit, "built": built, "insts": warmed}
                )
                if snapshot is not None:
                    executed = snapshot.executed
                yield snapshot, hit

        return wrapper


def install(out_dir: str | os.PathLike) -> Tracer:
    """Wrap every timed layer function; returns the process tracer."""
    from repro.harness import experiments, fastforward, parallel
    from repro.harness.cache import RunCache, WindowCache, fingerprint
    from repro.service import worker
    from repro.service.queue import JobQueue
    from repro.uarch.core import Core
    from repro.workloads import registry

    tracer = Tracer(out_dir)
    wrap = tracer.wrap

    registry.build = wrap("workloads.build", registry.build)
    Core.run = wrap(
        "uarch.run",
        Core.run,
        lambda a, k, stats: {"insts": stats.committed, "cycles": stats.cycles},
    )

    fastforward.prebuild_snapshots = wrap(
        "fastforward.prebuild", fastforward.prebuild_snapshots
    )
    fastforward.iter_chain = tracer.wrap_chain(fastforward.iter_chain)

    def ff_insts(args, kwargs, snapshot):
        resume = kwargs.get("resume_from")
        return {"insts": snapshot.executed - (resume.executed if resume else 0)}

    fastforward.fast_forward = wrap(
        "fastforward.ff", fastforward.fast_forward, ff_insts
    )
    fastforward.ensure_snapshot = wrap(
        "fastforward.ensure", fastforward.ensure_snapshot
    )

    def hit(args, kwargs, result):
        return {"hit": result is not None}

    stores = {
        "runs": (RunCache, ("get", "get_by_key"), "put"),
        "windows": (WindowCache, ("get",), "put"),
        "snapshots": (fastforward.SnapshotStore, ("get",), "put"),
    }
    for namespace, (cls, getters, putter) in stores.items():
        for getter in getters:
            setattr(
                cls,
                getter,
                wrap(f"store.{namespace}.get", getattr(cls, getter), hit),
            )
        setattr(
            cls, putter, wrap(f"store.{namespace}.put", getattr(cls, putter))
        )

    matrix = wrap("parallel.matrix", parallel.run_matrix)
    parallel.run_matrix = experiments.run_matrix = worker.run_matrix = matrix
    parallel.execute_request = wrap(
        "parallel.unit",
        parallel.execute_request,
        lambda a, k, stats: {"key": fingerprint(a[0])},
    )
    experiments.experiment_figure11 = wrap(
        "experiments.figure11", experiments.experiment_figure11
    )

    JobQueue.claim = wrap(
        "service.claim",
        JobQueue.claim,
        lambda a, k, job: {"key": job.key if job is not None else None},
    )
    JobQueue.complete = wrap(
        "service.complete", JobQueue.complete, lambda a, k, ok: {"key": a[1]}
    )
    worker.Worker.run_once = wrap(
        "service.job", worker.Worker.run_once, lambda a, k, ran: {"ran": ran}
    )
    return tracer


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(out_dir: str | os.PathLike) -> list[dict]:
    """Every span written under *out_dir*, each tagged with the pid of
    the file it came from (``file_pid``)."""
    spans = []
    for path in sorted((Path(out_dir) / SPANS_SUBDIR).glob("*.jsonl")):
        file_pid = int(path.stem)
        for line in path.read_text().splitlines():
            span = json.loads(line)
            span["file_pid"] = file_pid
            spans.append(span)
    return spans


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _children(spans: list[dict]) -> dict[tuple[int, int], list[dict]]:
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    return children


def self_time(span: dict, children) -> float:
    """Span duration minus the part its child spans cover."""
    inner = sum(_duration(c) for c in children.get((span["pid"], span["id"]), ()))
    return _duration(span) - inner


def check_invariants(spans: list[dict], jobs: int, main_pid: int) -> list[str]:
    """Problems that would make the per-layer numbers untrustworthy
    (empty when the trace is sound):

    * a span written by another process than the one that recorded it,
      or written twice — what a fork that kept the parent's buffer does;
    * parent-side spans of one ``experiment_figure11`` call appearing
      other than exactly once;
    * pool units adding up to more time than ``jobs`` workers have
      inside the matrix wall;
    * layer spans inside the units covering less than 90% of the unit
      time (time the trace cannot attribute).
    """
    problems = []
    seen = set()
    for span in spans:
        ident = (span["pid"], span["id"])
        if span["pid"] != span["file_pid"]:
            problems.append(f"span {span['name']} of pid {span['pid']} "
                            f"written by pid {span['file_pid']}")
        if ident in seen:
            problems.append(f"span {span['name']} {ident} written twice")
        seen.add(ident)
    figures = [s for s in spans if s["name"] == "experiments.figure11"]
    if figures and (len(figures) != 1 or figures[0]["pid"] != main_pid):
        problems.append(f"{len(figures)} experiment_figure11 spans, want 1")
    matrices = [
        s for s in spans
        if s["name"] == "parallel.matrix" and s["pid"] == main_pid
    ]
    if figures and len(matrices) != 1:
        problems.append(f"{len(matrices)} parent-side run_matrix spans, want 1")
    matrix_s = sum(_duration(s) for s in matrices)
    units = [s for s in spans if s["name"] == "parallel.unit"]
    unit_s = sum(_duration(s) for s in units)
    if matrices and unit_s > jobs * matrix_s:
        problems.append(
            f"units sum to {unit_s:.3f}s > {jobs} x matrix {matrix_s:.3f}s"
        )
    children = _children(spans)
    covered = sum(_duration(s) - self_time(s, children) for s in units)
    if units and covered < 0.9 * unit_s:
        problems.append(
            f"layer spans cover {covered:.3f}s of {unit_s:.3f}s unit time"
        )
    return problems


def span_cost(out_dir: str | os.PathLike, spans: int = 6000,
              per_root: int = 6) -> float:
    """Host seconds one span costs the traced program, measured in this
    process: wrapped no-op calls, *per_root* spans under each root span,
    written out whenever the root closes, as a pool unit's spans are."""
    tracer = Tracer(out_dir)
    leaf = tracer.wrap("leaf", lambda: None, lambda a, k, r: {"hit": True})

    def body():
        for _ in range(per_root - 1):
            leaf()

    root = tracer.wrap("root", body)
    roots = spans // per_root
    start = time.perf_counter()
    for _ in range(roots):
        root()
    return (time.perf_counter() - start) / (roots * per_root)


def overhead(spans: list[dict], cost: float) -> float:
    """Estimated share of the traced host time spent recording spans:
    span count x per-span *cost* over the summed duration of the root
    spans of every process. A wall-clock difference between a traced
    and an untraced run would be swamped by host noise."""
    host = sum(_duration(s) for s in spans if s["parent"] is None)
    return len(spans) * cost / host if host else 0.0


def percentile(values, q: float) -> float:
    """The *q*-quantile of *values* (0.0 when empty)."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans: list[dict], jobs: int, main_pid: int) -> dict:
    """Per-layer counts and host seconds (summed over processes) from
    one traced phase. Layers a workload does not reach read 0."""
    by_name = defaultdict(list)
    for span in spans:
        if "error" not in span or span["name"] == "parallel.unit":
            by_name[span["name"]].append(span)
    children = _children(spans)

    def total(name):
        return sum(_duration(s) for s in by_name[name])

    m = {}
    m["workloads.build.calls"] = len(by_name["workloads.build"])
    m["workloads.build.s"] = total("workloads.build")

    runs = by_name["uarch.run"]
    m["uarch.run.calls"] = len(runs)
    m["uarch.run.s"] = total("uarch.run")
    m["uarch.run.insts"] = sum(s["insts"] for s in runs)
    m["uarch.run.cycles"] = sum(s["cycles"] for s in runs)
    m["uarch.run.insts_per_s"] = (
        m["uarch.run.insts"] / m["uarch.run.s"] if m["uarch.run.s"] else 0.0
    )

    m["fastforward.prebuild.s"] = sum(
        _duration(s) for s in by_name["fastforward.prebuild"]
        if s["pid"] == main_pid
    )
    chain = [s for s in by_name["fastforward.chain"] if not s.get("empty")]
    m["fastforward.chain.s"] = sum(_duration(s) for s in chain)
    built = [s for s in chain if s["built"]] + by_name["fastforward.ff"]
    m["fastforward.chain.built"] = sum(1 for s in chain if s["built"])
    m["fastforward.chain.hits"] = sum(1 for s in chain if s["hit"])
    warm_s = sum(self_time(s, children) for s in built)
    m["fastforward.warm.insts_per_s"] = (
        sum(s["insts"] for s in built) / warm_s if warm_s else 0.0
    )

    for namespace in STORE_NAMESPACES:
        gets = by_name[f"store.{namespace}.get"]
        puts = by_name[f"store.{namespace}.put"]
        prefix = f"store.{namespace}"
        m[f"{prefix}.get.calls"] = len(gets)
        m[f"{prefix}.get.s"] = sum(_duration(s) for s in gets)
        m[f"{prefix}.put.calls"] = len(puts)
        m[f"{prefix}.put.s"] = sum(_duration(s) for s in puts)
        m[f"{prefix}.hit_ratio"] = (
            sum(1 for s in gets if s["hit"]) / len(gets) if gets else 0.0
        )

    # The matrix wall is the outermost run_matrix of each process:
    # prebuild and pool time nest inside it.
    outer = [s for s in by_name["parallel.matrix"] if s["pid"] == main_pid]
    matrix_s = sum(_duration(s) for s in outer)
    units = by_name["parallel.unit"]
    unit_s = sum(_duration(s) for s in units)
    pool_s = matrix_s - m["fastforward.prebuild.s"]
    m["parallel.matrix.s"] = matrix_s
    m["parallel.units"] = len(units)
    m["parallel.unit.s"] = unit_s
    m["parallel.busy_ratio"] = unit_s / (jobs * pool_s) if pool_s > 0 else 0.0
    m["parallel.gap_s"] = pool_s - unit_s / jobs if outer else 0.0
    m["parallel.failed"] = sum(1 for s in units if "error" in s)

    post = 0.0
    for figure in by_name["experiments.figure11"]:
        inner = children.get((figure["pid"], figure["id"]), ())
        post += _duration(figure) - sum(
            _duration(c) for c in inner if c["name"] == "parallel.matrix"
        )
    m["experiments.post.s"] = post
    return m


def service_metrics(spans: list[dict], misses: list[dict]) -> dict:
    """Worker-side service numbers joined to the client's record of
    each plain miss (its key, submit time and the time it saw the
    result) through the request fingerprint."""
    claims = {}
    completes = {}
    idle = 0
    for span in spans:
        if span["name"] == "service.claim" and "error" not in span:
            if span["key"] is None:
                idle += 1
            else:
                claims.setdefault(span["key"], span["end"])
        elif span["name"] == "service.complete" and "error" not in span:
            completes.setdefault(span["key"], span["end"])
    jobs = [
        _duration(s) for s in spans
        if s["name"] == "service.job" and s.get("ran")
    ]
    plain = [m for m in misses if not m["multi"]]
    claim_wait = [
        claims[m["key"]] - m["submit"] for m in plain if m["key"] in claims
    ]
    detect = [
        m["seen"] - completes[m["key"]] for m in plain if m["key"] in completes
    ]
    return {
        "service.claim_wait.s_p50": percentile(claim_wait, 0.5),
        "service.job.s_p50": percentile(jobs, 0.5),
        "service.detect.s_p50": percentile(detect, 0.5),
        "service.idle_claims": idle,
    }


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="trace.py")
    parser.add_argument("role", choices=["worker"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    install(args.out)
    from repro.service.worker import work

    work()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
