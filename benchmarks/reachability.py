"""List the functions in ``src`` that no entry point of the project calls.

Every entry point runs in its own child interpreter under a
``sys.setprofile`` hook (``threading.setprofile`` for its threads;
forked pool workers inherit the hook and report on exit) that records
each Python function it calls. The entry points, by group:

* ``artifacts`` — every paper artifact command at ``--scale 0.05`` (the
  sampled ones at ``--horizon 25000``) and ``--jobs 1``, a warm
  re-render, and the ``cache``, ``snapshot`` and ``bench`` commands;
* ``benches`` — ``pytest benchmarks/bench_*.py`` at ``REPRO_SCALE=0.05``,
  run from a temporary copy so the archived ``benchmarks/results/``
  stay untouched. ``bench_sampled_multi_differential`` is left out:
  it is a 10^7-instruction full-detail mcf run (9 minutes untraced)
  through the same multi-region path the other sampled benches take.
  The throughput floors fail under the hook, after the code they
  measure has run;
* ``serve`` — ``repro serve`` plus ``repro worker``, fed by artifact
  commands run with ``--service``, then ``repro worker --drain``;
* ``examples`` — every script under ``examples/``;
* ``fuzz`` — the pinned batch (``tests/fuzz/seeds.txt``) at
  ``--jobs 1``, ``fuzz ls`` and a replay of the stored corpus case.

The report lists every function and method defined at module or class
level under ``src/repro`` that none of the selected groups reached::

    PYTHONPATH=src python3 benchmarks/reachability.py [--group NAME ...]

All groups take about 22 minutes on a 2-vCPU VM. Pytest does not collect this file (``python_files`` is
``test_*``/``bench_*``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

SCALE = ["--scale", "0.05"]
SAMPLED = ["--sampled", "--horizon", "25000"]
JOBS = ["--jobs", "1"]


# ----------------------------------------------------------------------
# Child side: run one entry point under the profile hook
# ----------------------------------------------------------------------


def _traced(out: str, target: list[str]) -> int:
    """Run *target* (``-m module args...`` or ``script args...``) and
    write the ``(filename, first line)`` of every called function under
    ``src/repro`` to ``<out>.<pid>``; forked children write their own."""
    import multiprocessing.util
    import runpy
    import signal
    import threading

    seen = set()
    prefix = str(PACKAGE)

    def hook(frame, event, arg, add=seen.add):
        if event == "call":
            add(frame.f_code)

    def dump():
        called = sorted({
            (code.co_filename, code.co_firstlineno)
            for code in list(seen)
            if code.co_filename.startswith(prefix)
        })
        with open(f"{out}.{os.getpid()}", "w") as handle:
            json.dump(called, handle)

    def on_term(signum, frame):
        dump()
        os._exit(0)

    os.register_at_fork(after_in_child=lambda: multiprocessing.util.Finalize(
        None, dump, exitpriority=0
    ))
    signal.signal(signal.SIGTERM, on_term)
    if target[0] == "-m":
        sys.argv = target[1:]
        sys.path[0] = os.getcwd()
    else:
        sys.argv = target
        sys.path[0] = str(pathlib.Path(target[0]).resolve().parent)
    code = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if target[0] == "-m":
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        dump()
    return code


# ----------------------------------------------------------------------
# Parent side: the entry points
# ----------------------------------------------------------------------


class Runner:
    """Starts traced children in one scratch directory and cache."""

    def __init__(self, scratch: pathlib.Path):
        self.scratch = scratch
        self.traces = scratch / "traces"
        self.logs = scratch / "logs"
        self.traces.mkdir()
        self.logs.mkdir()
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")])
        )
        self.count = 0

    def start(self, target, cwd=None, env=()):
        """Start one traced child; return it and the file its output
        goes to."""
        self.count += 1
        env = dict(self.env, REPRO_CACHE_DIR=str(self.scratch / "cache"),
                   **dict(env))
        out = self.traces / f"t{self.count}"
        log = self.logs / f"t{self.count}.log"
        cmd = [sys.executable, __file__, "--trace", str(out), "--", *target]
        print("+", " ".join(target), file=sys.stderr, flush=True)
        with open(log, "w") as handle:
            proc = subprocess.Popen(
                cmd, cwd=cwd or self.scratch, env=env,
                stdout=handle, stderr=subprocess.STDOUT,
            )
        return proc, log

    def run(self, target, **kwargs) -> None:
        proc, log = self.start(target, **kwargs)
        code = proc.wait()
        if code != 0:
            tail = log.read_text().splitlines()[-15:]
            print(f"  exit {code}:", *tail, sep="\n    ", file=sys.stderr,
                  flush=True)

    def reached(self) -> set[tuple[str, int]]:
        found = set()
        for path in self.traces.iterdir():
            found.update(tuple(pair) for pair in json.loads(path.read_text()))
        return found


def repro(*argv):
    return ["-m", "repro", *argv]


def run_artifacts(runner: Runner) -> None:
    runner.run(repro("table1"))
    for name in ("mix", "table2", "table3", "table4", "figure1", "figure11"):
        runner.run(repro(name, *SCALE, *JOBS))
    runner.run(repro("figure11", *SCALE, *JOBS))  # warm re-render
    for name in ("figure11", "table4"):
        runner.run(repro(name, *SAMPLED, *JOBS))
    runner.run(repro("cache", "stats"))
    runner.run(repro("snapshot", "ls"))
    runner.run(repro("snapshot", "clear"))
    runner.run(repro("cache", "clear", "--fuzz-only"))
    runner.run(repro("cache", "clear"))
    runner.run(repro("bench", "balanced", *JOBS))
    runner.run(repro("bench", "--all", *JOBS))


def run_benches(runner: Runner) -> None:
    copy = runner.scratch / "benches"
    copy.mkdir()
    for path in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(path, copy)
    runner.run(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "python_files=bench_*.py", "-o", "python_functions=bench_*",
         "--benchmark-disable", "--deselect",
         "bench_sampled.py::bench_sampled_multi_differential", "."],
        cwd=copy, env={"REPRO_SCALE": "0.05"},
    )


def run_serve(runner: Runner) -> None:
    serve, log = runner.start(repro("serve", "--port", "0"))
    procs = [serve]
    try:
        url = _announced_url(log, serve)
        procs.append(runner.start(repro("worker"))[0])
        service = ["--service", url]
        runner.run(repro("table2", *SCALE, *service))
        runner.run(repro("table4", *SAMPLED, *service))
        runner.run(repro("table2", *SCALE, *service))  # served from the store
        with urllib.request.urlopen(url + "/api/status", timeout=30) as reply:
            reply.read()
        runner.run(repro("worker", "--drain"))
    finally:
        for proc in reversed(procs):
            proc.terminate()
        for proc in procs:
            proc.wait(30)


def _announced_url(log: pathlib.Path, proc) -> str:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        match = re.search(r"listening on (http://\S+)", log.read_text())
        if match:
            return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    raise RuntimeError(f"repro serve never announced: {log.read_text()}")


def run_examples(runner: Runner) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        runner.run([str(script)])


def run_fuzz(runner: Runner) -> None:
    seeds = str(ROOT / "tests" / "fuzz" / "seeds.txt")
    runner.run(repro("fuzz", "--seeds-file", seeds, *JOBS))
    runner.run(repro("fuzz", "ls"))
    for case in sorted((ROOT / "tests" / "fuzz" / "corpus").glob("*.json")):
        runner.run(repro("fuzz", "--replay", str(case)))


RUNNERS = {
    "artifacts": run_artifacts,
    "benches": run_benches,
    "serve": run_serve,
    "examples": run_examples,
    "fuzz": run_fuzz,
}


# ----------------------------------------------------------------------
# Definitions and the report
# ----------------------------------------------------------------------


def definitions() -> list[tuple[str, int, str]]:
    """``(filename, first line, qualname)`` of every function and
    method defined at module or class level under ``src/repro``; the
    first line is the first decorator's, as in ``co_firstlineno``."""
    found = []

    def visit(body, filename, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [node.lineno] + [d.lineno for d in node.decorator_list]
                )
                found.append((filename, first, prefix + node.name))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, filename, f"{prefix}{node.name}.")

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, str(path), "")
    return found


def report(defined, reached, groups) -> str:
    unreached = [d for d in defined if (d[0], d[1]) not in reached]
    lines = [
        f"groups: {', '.join(groups)}",
        f"reached {len(defined) - len(unreached)} of {len(defined)} "
        f"functions and methods defined at module or class level in "
        f"src/repro; {len(unreached)} unreached:",
    ]
    current = None
    for filename, line, qualname in unreached:
        rel = os.path.relpath(filename, ROOT)
        if rel != current:
            lines.append(rel)
            current = rel
        lines.append(f"  {line:5d}  {qualname}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--trace"]:
        return _traced(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--group", action="append", choices=list(RUNNERS),
        help="entry-point group to run (repeatable; default: all)",
    )
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)
    groups = args.group or list(RUNNERS)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        runner = Runner(pathlib.Path(scratch))
        for group in groups:
            RUNNERS[group](runner)
        reached = runner.reached()
    text = report(definitions(), reached, groups)
    print(text)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
