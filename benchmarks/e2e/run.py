"""End-to-end benchmark of record: Figure 11 regeneration (sampled and
full detail, cold and warm) and ``repro serve`` submit-to-result
latency, with an outside-in per-layer trace.

Run one workload (the last stdout line is the JSON result; without
``--workload`` each runs in turn)::

    python3 benchmarks/e2e/run.py --workload fig11_detail --seed 0 \\
        --seconds 35 --trace 0 [--out DIR]

A/B two source trees with this tree's benchmark code::

    python3 benchmarks/e2e/run.py compare --src A/src --src B/src --pairs 10

Every timed call runs in a fresh process with a fresh ``REPRO_CACHE_DIR``
under ``.e2e_work/`` and every other ``REPRO_*`` variable removed. See
README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from bisect import bisect_left, bisect_right
from pathlib import Path

import trace
import workloads
from workloads import JOBS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_ROOT = ROOT / ".e2e_work"

#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
#: Share of ``--seconds`` a Figure 11 run gives to cold regenerations;
#: warm ones take the rest.
COLD_SHARE = 0.75
#: Warm regenerations a run makes even when its cold ones used up
#: ``--seconds`` (``fig11_sampled`` on a slow host), so the warm median
#: never rests on a handful of samples.
MIN_WARM_REPS = 10
MAX_WARM_REPS = 100
#: Throwaway server start-ups measured around the one that is used,
#: half before it and half after.
SERVE_EXTRA_SETUPS = 8
#: The serve run re-submits stored results in blocks spread over the
#: misses, so warm samples span the run.
WARM_SWEEPS_PER_BLOCK = 20
#: Seconds of ``--seconds`` a serve run keeps, after its last miss,
#: for the closing re-submission and the server start-ups after it.
SERVE_TAIL_S = 3.0
#: Client poll interval: fine enough to resolve the service's own
#: completion time rather than the default 250 ms client grid.
CLIENT_POLL_S = 0.02
#: ``repro worker``'s default idle poll interval. Kept here rather than
#: imported, so the benchmark still runs on a tree whose worker no
#: longer polls.
WORKER_POLL_S = 0.5
SWEEP_DEADLINE_S = 60.0
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
#: The ``speed.py`` loop's CPU time on the baseline machine when that
#: machine runs at full speed (its 5th percentile there was 1.06 ms and
#: its minimum 0.96 ms). CPU-bound timings are reported as seconds at
#: this probe speed.
REFERENCE_PROBE_S = 1.0e-3


def log(message: str) -> None:
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Processes: spawn in their own session, sample RSS, stop every member
# ----------------------------------------------------------------------


def _proc_table() -> dict[int, tuple[str, int]]:
    """``pid -> (state, process group)`` for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        table[int(entry)] = (fields[0], int(fields[2]))
    return table


def _group_members(pgids) -> list[int]:
    return [
        pid
        for pid, (state, pgid) in _proc_table().items()
        if pgid in pgids and state != "Z"
    ]


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of process *pid*, read from
    ``/proc/<pid>/task/*/schedstat``. On a VM with steal-time accounting
    it leaves out the time the host ran someone else."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (OSError, IndexError, ValueError):
            pass
    return total / 1e9


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak RSS summed over every process of some process groups,
    sampled every 100 ms. Pool workers are counted even after they
    are orphaned, since they keep their group."""

    def __init__(self):
        self.pgids: set[int] = set()
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def add(self, pgid: int) -> None:
        self.pgids.add(pgid)
        if not self._thread.is_alive():
            self._thread.start()

    def _loop(self) -> None:
        while True:
            total = sum(_rss_bytes(pid) for pid in _group_members(self.pgids))
            self.peak = max(self.peak, total)
            if self._stop.wait(0.1):
                return

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        return self.peak / 2**20


def spawn(cmd, env, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [str(part) for part in cmd],
        env=env,
        cwd=ROOT,
        start_new_session=True,
        **kwargs,
    )


def stop(proc: subprocess.Popen) -> None:
    """Stop *proc*'s whole process group and wait until every member
    has ended."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + 10
    while members := _group_members({proc.pid}):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {members} did not end")
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


def child_env(src: Path, cache_dir: Path, work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH_DIR)])
    env["TMPDIR"] = str(work)
    return env


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class HostSpeed:
    """The run's ``speed.py`` probe, running from before the first timed
    call until after the last."""

    def __init__(self, work: Path):
        self.path = work / "speed.txt"
        self.proc = spawn([sys.executable, BENCH_DIR / "speed.py", self.path],
                          dict(os.environ), stdout=subprocess.DEVNULL)
        self.times: list[float] = []
        self.values: list[float] = []

    def close(self) -> None:
        stop(self.proc)
        # The last line may have been cut short by the kill.
        for line in self.path.read_text().split("\n")[:-1]:
            start, seconds = line.split()
            self.times.append(float(start))
            self.values.append(float(seconds))
        if not self.values:
            raise RuntimeError("the host-speed probe recorded nothing")

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over
        ``[start, end]``: the median of the probes taken inside it, or
        of the probes around it when fewer than two are."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), hi + 1
        return statistics.median(self.values[lo:hi]) / REFERENCE_PROBE_S


class Outcome:
    """Samples, per-layer values and check results of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        #: CPU-bound timings as ``(start, end, seconds)``, scaled by the
        #: host's speed over each interval once the run is over.
        self.intervals: dict[str, list[tuple[float, float, float]]] = {}
        self.raw: dict[str, list[float]] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict[str, object] = {}

    def add(self, metric: str, value: float) -> None:
        """A sample reported as measured."""
        self.samples.setdefault(metric, []).append(value)

    def add_time(self, metric: str, start: float, end: float,
                 seconds: float | None = None) -> None:
        """A CPU-bound timing over ``[start, end]``, reported in seconds
        at the reference host speed: the wall time, or the CPU
        *seconds* spent in it when given."""
        if seconds is None:
            seconds = end - start
        self.intervals.setdefault(metric, []).append((start, end, seconds))

    def scale(self, speed: HostSpeed) -> None:
        for metric, intervals in self.intervals.items():
            self.raw[metric] = [seconds for _, _, seconds in intervals]
            self.samples[metric] = [
                seconds / speed.slowdown(start, end)
                for start, end, seconds in intervals
            ]

    def attempt(self, problems: list[str]) -> bool:
        """Count one attempted operation, failed if it has *problems*."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                log(f"check failed: {problem}")
        return not problems


def spread(values: list[float]) -> dict:
    """Sample count, median and quartiles of *values*."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Figure 11 workloads
# ----------------------------------------------------------------------


class Fig11Run:
    """Cold regenerations on empty stores and warm ones on their
    stores, each in a fresh process; with tracing, one more cold
    regeneration with every layer wrapped."""

    def __init__(self, name, args, work, src, deadline, golden):
        self.name = name
        self.kwargs = workloads.FIG11_SIZES[name][args.size]
        self.args = args
        self.work = work
        self.src = src
        self.deadline = deadline
        self.golden = golden[args.size]
        self.outputs: dict | None = None
        self.outcome = Outcome()
        self.reps = 0

    def _rep(self, cache: Path, trace_dir: Path | None = None):
        """One regeneration; returns ``(spawn, record, peak MB, pid)``."""
        cmd = [sys.executable, BENCH_DIR / "workloads.py", "fig11",
               "--kwargs", json.dumps(self.kwargs)]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        sampler = RssSampler()
        spawned = time.perf_counter()
        proc = spawn(cmd, child_env(self.src, cache, self.work),
                     stdout=subprocess.PIPE, text=True)
        sampler.add(proc.pid)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            stop(proc)
            peak = sampler.stop()
        lines = out.strip().splitlines()
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        return spawned, record, peak, proc.pid

    def _check(self, record) -> list[str]:
        if record is None:
            return [f"{self.name}: regeneration failed"]
        outputs = {k: record[k] for k in ("digest", "text_sha256")}
        problems = []
        expected = self.golden or self.outputs
        if expected is not None:
            for key, value in outputs.items():
                if expected[key] != value:
                    problems.append(
                        f"{self.name}: {key} {value[:12]} != {expected[key][:12]}"
                    )
        self.outputs = self.outputs or outputs
        want = [workloads.SAMPLED_REGIONS] if self.kwargs.get("sampled") else [0]
        if record["regions"] != want or record["arms"] != 36:
            problems.append(
                f"{self.name}: {record['arms']} arms with sample_regions "
                f"{record['regions']}, want 36 with {want}"
            )
        return problems

    def cold(self, trace_dir: Path | None = None):
        cache = self.work / f"cold{self.reps}"
        self.reps += 1
        spawned, record, peak, pid = self._rep(cache, trace_dir)
        # A regeneration with wrong outputs still has valid timings;
        # only one that produced nothing has none.
        self.outcome.attempt(self._check(record))
        if record is not None and trace_dir is None:
            self.outcome.add_time("setup_s", spawned, record["ready"])
            self.outcome.add_time("cold_s", record["ready"], record["end"])
            self.outcome.add("peak_rss_mb", peak)
        return cache, record, pid

    def warm(self, cache: Path) -> None:
        spawned, record, _peak, _pid = self._rep(cache)
        self.outcome.attempt(self._check(record))
        if record is not None:
            self.outcome.add_time("setup_s", spawned, record["ready"])
            self.outcome.add_time("warm_s", record["ready"], record["end"])

    def run(self) -> Outcome:
        """Cycles of one cold regeneration followed by warm ones on its
        store, for a quarter of the cycle, so that cold, warm and
        set-up samples all spread over the whole run. A cold
        regeneration is never cut short, so a slow host can stretch the
        run past ``--seconds`` by at most one cycle's cold part."""
        tracing = bool(self.args.trace)
        end = time.monotonic() + self.args.seconds
        longest = 0.0
        warm = 0
        while True:
            began = time.monotonic()
            cache, _, _ = self.cold()
            took = time.monotonic() - began
            longest = max(longest, took)
            warm_until = min(
                end, time.monotonic() + took * (1 / COLD_SHARE - 1)
            )
            while warm < MAX_WARM_REPS and (
                time.monotonic() < warm_until or warm == 0
            ):
                self.warm(cache)
                warm += 1
                if tracing:
                    break
            if tracing or time.monotonic() + longest / COLD_SHARE > end:
                break
            shutil.rmtree(cache, ignore_errors=True)
        # Time too short for another cycle still measures warm work.
        while not tracing and warm < MAX_WARM_REPS and (
            warm < MIN_WARM_REPS or time.monotonic() < end
        ):
            self.warm(cache)
            warm += 1
        if tracing:
            self.traced()
        self.outcome.checks = dict(self.outputs or {})
        return self.outcome

    def traced(self) -> None:
        trace_dir = self.work / "trace"
        cache, record, pid = self.cold(trace_dir)
        if record is None:
            return
        spans = trace.load_spans(trace_dir)
        self.outcome.attempt(trace.check_invariants(spans, JOBS, pid))
        layers = trace.layer_metrics(spans, JOBS, pid)
        layers.update(idle_service_metrics())
        layers["store.bytes"] = dir_bytes(cache)
        layers["trace.overhead"] = trace.overhead(
            spans, trace.span_cost(self.work / "span_cost")
        )
        self.outcome.layers = layers


def idle_service_metrics() -> dict:
    """The service layer's metrics on a workload that does not reach
    it (the control: all 0)."""
    names = [m["name"] for m in load_spec()["per_layer"]]
    return {name: 0 for name in names if name.startswith("service.")}


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(f"{url}/healthz", timeout=1) as response:
            return json.loads(response.read()).get("ok") is True
    except OSError:
        return False


class ServeRun:
    """``repro serve`` plus one ``repro worker``, both with their
    defaults, driven by one closed-loop client over one connection at
    a time: seeded single-request sweeps that miss the store, with a
    block of re-submissions that hit it after the first ten of them and
    every five after that, then one re-submission of every miss at
    once. Each miss must match its golden digest."""

    def __init__(self, args, work, src, deadline, golden):
        self.args = args
        self.work = work
        self.src = src
        self.deadline = deadline
        self.golden = golden
        self.requests = workloads.serve_requests(args.seed, args.size)
        size = workloads.SERVE_SIZES[args.size]
        self.warm_size = size["warm"]
        self.block_every = size["block"]
        self.hits_per_block = size["hits"]
        self.outcome = Outcome()
        self.procs: list[subprocess.Popen] = []
        self.instances = 0

    def _start_server(self, cache: Path):
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        logfile = open(self.work / "serve.log", "a")
        spawned = time.perf_counter()
        with logfile:
            proc = spawn(
                [sys.executable, "-m", "repro", "serve", "--port", port],
                child_env(self.src, cache, self.work),
                stdout=subprocess.DEVNULL,
                stderr=logfile,
            )
        self.procs.append(proc)
        limit = time.monotonic() + 30
        while not _healthy(url):
            if proc.poll() is not None or time.monotonic() > limit:
                raise RuntimeError(f"repro serve did not start (see {logfile.name})")
            time.sleep(0.01)
        self.outcome.add_time("setup_s", spawned, time.perf_counter())
        return proc, url

    def _start_worker(self, cache: Path, trace_dir: Path | None):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "worker"]
        else:
            cmd = [sys.executable, BENCH_DIR / "trace.py", "worker",
                   "--out", trace_dir]
        with open(self.work / "serve.log", "a") as logfile:
            proc = spawn(cmd, child_env(self.src, cache, self.work),
                         stdout=subprocess.DEVNULL, stderr=logfile)
        self.procs.append(proc)
        return proc

    def _sweep(self, client, requests, expect_hit: bool):
        """One sweep, polled to completion; returns ``(submit time,
        time results were seen, polls, decoded results by key,
        enqueued, problems)``."""
        from repro.errors import ServiceError
        from repro.service.codec import decode_stats

        submitted = time.perf_counter()
        deadline = min(
            submitted + SWEEP_DEADLINE_S,
            submitted + self.deadline - time.monotonic(),
        )
        polls = 0
        try:
            response = client.submit_sweep(requests)
            enqueued = response["enqueued"]
            keys = set(response["keys"])
            results = dict(response["results"])
            failed = dict(response["failed"])
            while not expect_hit and len(results) + len(failed) < len(keys):
                if time.perf_counter() > deadline:
                    failed["deadline"] = "unfinished at the sweep deadline"
                    break
                time.sleep(client.poll)
                response = client.poll_sweep(response["sweep"])
                polls += 1
                results.update(response["results"])
                failed.update(response["failed"])
            decoded = {
                key: decode_stats(payload) for key, payload in results.items()
            }
        except ServiceError as exc:
            return submitted, time.perf_counter(), polls, {}, 0, [str(exc)]
        seen = time.perf_counter()
        problems = [f"serve: key {key[:12]} failed: {err}"
                    for key, err in failed.items()]
        if keys - set(results) and not failed:
            problems.append(
                f"serve: {len(keys - set(results))} key(s) not served inline"
            )
        return submitted, seen, polls, decoded, enqueued, problems

    def instance(self, trace_dir: Path | None, requests, until=None):
        """One fresh service on an empty store through every phase,
        sending the misses in *requests* until the monotonic time
        *until* (all of them when None), but at least ``warm_size``;
        returns the client's per-miss records and phase numbers."""
        from repro.service.client import ServiceClient
        from repro.uarch.stats import stats_digest

        cache = self.work / f"serve{self.instances}"
        self.instances += 1
        sampler = RssSampler()
        server, url = self._start_server(cache)
        self.server_pid = server.pid
        sampler.add(server.pid)
        worker = self._start_worker(cache, trace_dir)
        sampler.add(worker.pid)
        client = ServiceClient(url, poll=CLIENT_POLL_S)
        outcome = self.outcome
        rng = random.Random(self.args.seed)
        misses, served, digests, hit_ms, warm = [], [], {}, [], []
        sent = 0
        for request in requests:
            # At least one block's worth of misses, so that every run
            # has warm samples.
            if (sent >= self.warm_size and until is not None
                    and time.monotonic() > until):
                break
            sent += 1
            label = workloads.request_label(request)
            submitted, seen, polls, results, enqueued, problems = self._sweep(
                client, [request], expect_hit=False
            )
            if not problems and not enqueued:
                problems.append(f"serve: {label} did not miss")
            if len(results) == 1:
                (key, stats), = results.items()
                digests[key] = (label, stats_digest(stats))
                golden = self.golden.get(label)
                if golden is not None and golden != digests[key][1]:
                    problems.append(f"serve: {label} digest "
                                    f"{digests[key][1][:12]} != golden "
                                    f"{golden[:12]}")
            if outcome.attempt(problems):
                served.append(request)
                misses.append({
                    "key": key, "submit": submitted, "seen": seen,
                    "latency": seen - submitted, "polls": polls,
                    "multi": request.sample_regions >= 2,
                })
            if (sent % self.block_every == 0
                    and len(served) >= self.warm_size):
                self._warm_block(client, served, digests, rng, hit_ms, warm)
                if sent < len(requests):
                    # An idle worker polls every WORKER_POLL_S from its
                    # last completion; submit the next miss on that
                    # phase, as right after any other miss.
                    since = time.perf_counter() - seen
                    time.sleep(-since % WORKER_POLL_S)
        if sent % self.block_every and len(served) >= self.warm_size:
            self._warm_block(client, served, digests, rng, hit_ms, warm)
        # The whole sweep re-submitted once more: all of it served
        # from the store, nothing enqueued.
        before = client.status()["server"]["enqueued"]
        if served:
            _, _, _, results, _, problems = self._sweep(
                client, served, expect_hit=True
            )
            final = client.status()["server"]
            if final["enqueued"] != before:
                problems.append("serve: the warm re-submission enqueued jobs")
            outcome.attempt(problems + self._compare(results, digests))
        final = client.status()["server"]
        for proc in (worker, server):
            stop(proc)
        peak = sampler.stop()
        return {
            "sent": sent, "misses": misses, "hit_ms": hit_ms,
            "warm": warm, "peak": peak, "status": final,
            "digests": digests, "worker_pid": worker.pid, "cache": cache,
        }

    def _warm_block(self, client, served, digests, rng, hit_ms,
                    warm) -> None:
        """Re-submissions that must all hit the store: sweeps of the
        first ``warm_size`` served requests, alternating with
        single-request sweeps of seeded served ones. Each sweep of the
        first ``warm_size`` adds ``(submit, seen, CPU seconds)`` to
        *warm*: the CPU time the client and the server spent on it."""
        before = client.status()["server"]["enqueued"]
        hits = self.hits_per_block
        size = self.warm_size
        for sweep in range(WARM_SWEEPS_PER_BLOCK):
            share = hits * (sweep + 1) // WARM_SWEEPS_PER_BLOCK
            share -= hits * sweep // WARM_SWEEPS_PER_BLOCK
            for _ in range(share):
                request = rng.choice(served)
                submitted, seen, _, results, _, problems = self._sweep(
                    client, [request], expect_hit=True
                )
                self.outcome.attempt(problems + self._compare(results, digests))
                if results:
                    hit_ms.append((seen - submitted) * 1e3)
            cpu = time.thread_time() + cpu_seconds(self.server_pid)
            submitted, seen, _, results, _, problems = self._sweep(
                client, served[:size], expect_hit=True
            )
            cpu = time.thread_time() + cpu_seconds(self.server_pid) - cpu
            self.outcome.attempt(problems + self._compare(results, digests))
            if results:
                warm.append((submitted, seen, cpu))
        after = client.status()["server"]["enqueued"]
        self.outcome.attempt(
            [f"serve: {after - before} job(s) enqueued by re-submissions"]
            if after != before else []
        )

    @staticmethod
    def _compare(results, digests) -> list[str]:
        from repro.uarch.stats import stats_digest

        return [
            f"serve: {digests[key][0]} served a different result"
            for key, stats in results.items()
            if key in digests and stats_digest(stats) != digests[key][1]
        ]

    def _extra_setups(self, count: int) -> None:
        for _ in range(count):
            server, _url = self._start_server(self.work / "setup")
            stop(server)
            shutil.rmtree(self.work / "setup")

    def run(self) -> Outcome:
        """Start-ups before and after one measured service, so their
        samples span the run. Misses stop when too little of
        ``--seconds`` is left for the rest."""
        until = time.monotonic() + self.args.seconds - SERVE_TAIL_S
        try:
            self._extra_setups(SERVE_EXTRA_SETUPS // 2)
            plain = self.instance(None, self.requests, until)
            self._extra_setups(SERVE_EXTRA_SETUPS - SERVE_EXTRA_SETUPS // 2)
            self.outcome.checks["digests"] = dict(plain["digests"].values())
            latencies = [m["latency"] for m in plain["misses"]]
            if not latencies:
                return self.outcome
            # A miss mostly waits out the worker's idle poll, which host
            # speed does not change: misses are reported as measured.
            for latency in latencies:
                self.outcome.add("cold_s", latency)
            # A warm re-submission is reported as the CPU time it cost
            # the client and the server: its wall time also holds their
            # wake-ups and the host's steal, which come and go in spells
            # the host-speed probe does not see.
            for submitted, seen, cpu in plain["warm"]:
                self.outcome.add_time("warm_s", submitted, seen, cpu)
            self.outcome.add("peak_rss_mb", plain["peak"])
            if self.args.trace:
                self.traced(plain)
        finally:
            for proc in self.procs:
                stop(proc)
        return self.outcome

    def traced(self, plain) -> None:
        trace_dir = self.work / "trace"
        traced = self.instance(trace_dir, self.requests[:plain["sent"]])
        misses = traced["misses"]
        if not misses:
            return
        spans = trace.load_spans(trace_dir)
        pid = traced["worker_pid"]
        self.outcome.attempt(trace.check_invariants(spans, 1, pid) + (
            [] if traced["digests"] == plain["digests"]
            else ["serve: the traced service returned different results"]
        ))
        layers = trace.layer_metrics(spans, 1, pid)
        layers.update(trace.service_metrics(spans, misses))
        hit_ms = traced["hit_ms"]
        status = traced["status"]
        layers.update({
            "service.hit.ms_p50": trace.percentile(hit_ms, 0.5),
            "service.hit.ms_p95": trace.percentile(hit_ms, 0.95),
            "service.miss.s_p75": trace.percentile(
                [m["latency"] for m in plain["misses"]], 0.75
            ),
            "service.warm.s_p50": trace.percentile(
                [seen - submitted for submitted, seen, _ in plain["warm"]], 0.5
            ),
            "service.polls_per_miss": statistics.mean(
                m["polls"] for m in misses
            ),
            "service.enqueued": status["enqueued"],
            "service.served_from_cache": status["served_from_cache"],
            "service.window_jobs": status["window_jobs"],
            "service.assembled": status["assembled"],
            "store.bytes": dir_bytes(traced["cache"]),
            "trace.overhead": trace.overhead(
                spans, trace.span_cost(self.work / "span_cost")
            ),
        })
        self.outcome.layers = layers


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def git_rev(tree: Path) -> str:
    """The commit a source tree is checked out at, read from ``.git``
    without running git ("unknown" outside a repository)."""
    git = tree / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(src: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(src.parent),
    }


def run_once(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {names}")
        return 2
    golden = json.loads(GOLDEN_PATH.read_text())[args.workload]
    src = Path(args.src).resolve()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        speed = HostSpeed(work)
        try:
            if args.workload == "serve":
                runner = ServeRun(args, work, src, deadline, golden)
            else:
                runner = Fig11Run(args.workload, args, work, src, deadline,
                                  golden)
            outcome = runner.run()
        finally:
            speed.close()
        outcome.scale(speed)
        outcome.checks["host_slowdown"] = spread(
            [v / REFERENCE_PROBE_S for v in speed.values]
        )
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            if (work / "trace").exists():
                shutil.copytree(work / "trace", out / "trace", dirs_exist_ok=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return report(args, spec, outcome, src)


def report(args, spec, outcome: Outcome, src: Path) -> int:
    spreads = {
        name: spread(values) for name, values in outcome.samples.items()
    }
    if args.trace:
        wanted, values = spec["per_layer"], outcome.layers
    else:
        wanted = spec["end_to_end"]
        values = {name: s["median"] for name, s in spreads.items()}
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        log(f"no value for {', '.join(missing)}: {outcome.failed} of "
            f"{outcome.attempted} operations failed")
        return 1
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    host = host_info(src)
    for name, metric in metrics.items():
        line = f"{name:<32} {metric['value']:>14.6g} {metric['unit']}"
        if name in spreads:
            s = spreads[name]
            line += (f"   n={s['n']} median={s['median']:.6g} "
                     f"IQR={s['iqr']:.3g} [{s['q1']:.6g}, {s['q3']:.6g}]")
        print(line)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "host": host, "spread": spreads, "samples": outcome.samples,
        "raw_spread": {
            name: spread(values) for name, values in outcome.raw.items()
        },
        "raw_samples": outcome.raw, "checks": outcome.checks,
        "problems": outcome.problems, "layers": outcome.layers,
    }
    print("host " + json.dumps(host))
    if args.out:
        (Path(args.out) / "result.json").write_text(
            json.dumps({**record, "metrics": metrics}, indent=1) + "\n"
        )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 1 if outcome.failed else 0


# ----------------------------------------------------------------------
# A/B comparison
# ----------------------------------------------------------------------


def _run_side(src: str, workload: str, seed: int, seconds: int) -> dict:
    """One run on source tree *src*; a run that printed no result counts
    as one failed operation with no metrics."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", "0", "--src", src]
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result from {src} on {workload} seed {seed} "
            f"(exit {proc.returncode})")
        return {"attempted": 1, "failed": 1, "metrics": {}}


def verdict(pairs: list[tuple[float, float]], better: str, bound: float,
            failed_a: int, failed_b: int) -> dict:
    """Judge change *b* against parent *a* over paired runs ``(a, b)``:
    a gain needs at least 9 of 10 pair wins and a median difference
    larger than the parent's IQR; a regression is a median worse by more
    than *bound*; a parent spread wider than *bound* leaves the metric
    unresolved unless every run of the change beats every run of the
    parent."""
    if not pairs:
        return {"a": None, "b": None, "wins": 0, "pairs": 0,
                "verdict": "unresolved"}
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]

    def beats(x, y):
        return x < y if better == "lower" else x > y

    sa, sb = spread(a), spread(b)
    ma, mb = sa["median"], sb["median"]
    wins = sum(1 for x, y in pairs if beats(y, x))
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if (wins >= 0.9 * len(pairs) and beats(mb, ma)
            and abs(mb - ma) > sa["iqr"] and failed_b <= failed_a):
        call = "gain"
    elif sa["iqr"] / ma > bound and not all(beats(y, x) for y in b for x in a):
        call = "unresolved"
    elif worse > bound:
        call = "regression"
    else:
        call = "within bound"
    return {"a": sa, "b": sb, "wins": wins, "pairs": len(pairs),
            "verdict": call}


def compare(args) -> int:
    """Every workload, *args.pairs* pairs each on seeds 0, 1, …, at the
    benchmark's ``run_seconds``; pairs alternate which side runs first."""
    spec = load_spec()
    rows = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = ([], [])
        for seed in range(args.pairs):
            for side in ((0, 1) if seed % 2 == 0 else (1, 0)):
                runs[side].append(_run_side(args.src[side], workload, seed,
                                            spec["run_seconds"]))
        failed = [sum(r["failed"] for r in side) for side in runs]
        row = {}
        for m in spec["end_to_end"]:
            pairs = [
                (a["metrics"][m["name"]]["value"],
                 b["metrics"][m["name"]]["value"])
                for a, b in zip(*runs)
                if m["name"] in a["metrics"] and m["name"] in b["metrics"]
            ]
            row[m["name"]] = verdict(pairs, m["better"], m["bound"], *failed)
        rows[workload] = {"failed": failed, "metrics": row}
    print(f"A = {args.src[0]}\nB = {args.src[1]}")
    for workload, row in rows.items():
        cells = [
            f"{name} {v['a']['median']:.4g}->{v['b']['median']:.4g} "
            f"(IQR A {v['a']['iqr']:.2g}, wins {v['wins']}/{v['pairs']}) "
            f"{v['verdict']}"
            if v["pairs"] else f"{name} unresolved (no complete pair)"
            for name, v in row["metrics"].items()
        ]
        print(f"{workload}: failed {row['failed'][0]}/{row['failed'][1]}; "
              + "; ".join(cells))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


# ----------------------------------------------------------------------


def parse_args(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--src", action="append", required=True,
                            help="source tree (the src/ directory); twice")
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--out", help="write the comparison as JSON")
        args = parser.parse_args(argv[1:])
        if len(args.src) != 2:
            parser.error("give --src exactly twice")
        args.src = [str(Path(src).resolve()) for src in args.src]
        args.command = "compare"
        return args
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload",
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for result.json and spans")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to measure (default: this one)")
    parser.add_argument("--size", choices=("standard", "smoke"),
                        default="standard", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.command = "run"
    return args


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro source tree under {ROOT / 'src'}")
        return 2
    args = parse_args(argv)
    if args.command == "compare":
        return compare(args)
    sys.path.insert(0, str(Path(args.src).resolve()))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is not None:
        return run_once(args)
    out = args.out
    status = 0
    for workload in load_spec()["workloads"]:
        args.workload = workload["name"]
        args.out = str(Path(out) / args.workload) if out else None
        print(f"== {args.workload}", flush=True)
        status = max(status, run_once(args))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
