"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro table2              # Table 2 at the default scale
    python -m repro figure11 --scale 1.0 --jobs 4
    python -m repro table4 --out results.txt --no-cache
    python -m repro all --scale 0.2
    python -m repro cache clear         # drop run cache + snapshots
    python -m repro cache clear --snapshots-only
    python -m repro snapshot ls         # list warmed-state snapshots
    python -m repro bench balanced --profile   # simulator self-benchmark
    python -m repro bench --all         # every regime, one summary
    python -m repro figure11 --fast-forward 20000 --sample 4000  # sampled
    python -m repro table4 --sample 10000 --sample-regions 10  # multi-region
    python -m repro figure11 --sampled  # long-horizon halt-aware plans
    python -m repro fuzz --seeds 50     # differential workload fuzzer
    python -m repro fuzz --seeds 200 --shrink --jobs 4  # store minimal repros
    python -m repro fuzz ls             # list stored minimal repros
    python -m repro fuzz --replay .repro_cache/fuzz/0x6.repro.json
    python -m repro cache stats         # per-namespace entries/bytes/hit rate
    python -m repro serve --port 8737   # experiment service front end
    python -m repro worker --drain      # drain the service job queue
    python -m repro figure11 --service http://host:8737  # thin-client run

Simulations fan out over ``--jobs`` worker processes (default:
``REPRO_JOBS`` env or the CPU count) and are memoized in the
content-addressed run cache under ``.repro_cache/`` (see
``repro/harness/cache.py``); ``--no-cache`` forces fresh runs.

Long sweeps survive partial failure: ``--timeout`` bounds each
request's wall clock, ``--retries`` re-runs crashed/hung/flaky
requests with backoff, and ``--on-error skip`` finishes the matrix
around a request that exhausted its retries (the run then exits with
code 3 and lists the holes). A simulated-machine deadlock exits with
code 2 and the core's next-event diagnostic instead of a traceback.
Each of these knob flags sets a ``REPRO_*`` variable of the same
meaning; :mod:`repro.settings` declares them all.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro import settings
from repro.errors import DeadlockError
from repro.harness import experiments
from repro.harness.cache import RunCache
from repro.harness.parallel import (
    RunRequest,
    reset_skipped_log,
    skipped_outcomes,
)

#: Every regime ``repro bench`` accepts, in help order: the Core
#: regimes of :data:`repro.harness.bench.REGIMES`, then the two
#: functional tiers measured on their own. The help text and the
#: dispatcher both read this tuple (the bench module is imported only
#: when a bench runs).
BENCH_REGIMES = (
    "balanced", "memory_bound", "slice_heavy", "sampled", "sampled_multi",
    "sampled_parallel", "interpreter", "warming",
)

EXPERIMENTS = {
    "table1": experiments.experiment_table1,
    "mix": experiments.experiment_workload_mix,
    "table2": experiments.experiment_table2,
    "table3": experiments.experiment_table3,
    "table4": experiments.experiment_table4,
    "figure1": experiments.experiment_figure1,
    "figure11": experiments.experiment_figure11,
}

#: Experiments that run simulations (and therefore accept jobs/cache).
_MATRIX_EXPERIMENTS = frozenset({"table2", "table4", "figure1", "figure11"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'Execution-based Prediction "
            "Using Speculative Slices' (Zilles & Sohi, ISCA 2001)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            *EXPERIMENTS, "all", "cache", "snapshot", "bench", "fuzz",
            "serve", "worker",
        ],
        help=(
            "which table/figure to regenerate, 'cache'/'snapshot' "
            "maintenance, 'bench' for the simulator self-benchmark, "
            "'fuzz' for the differential workload fuzzer, or "
            "'serve'/'worker' for the experiment service"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help=(
            "cache action: 'clear' / 'stats' (with 'cache'); snapshot "
            "action: 'ls' (default) / 'clear' (with 'snapshot'); bench "
            "regime: " + " / ".join(f"'{name}'" for name in BENCH_REGIMES)
            + " (with 'bench', default 'balanced'); fuzz action: 'ls' "
            "lists stored minimal repros"
        ),
    )
    for setting in settings.SETTINGS:
        if setting.flag is None:
            continue
        parser.add_argument(
            setting.flag, dest=setting.name, type=setting.parse,
            default=None, metavar=setting.metavar,
            choices=setting.choices, help=setting.help,
        )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the on-disk run cache (always simulate afresh)",
    )
    parser.add_argument(
        "--sampled",
        action="store_true",
        help=(
            "figure11/table4: run each workload at its long-horizon "
            "scale (~2M instructions by default) under a halt-aware "
            "multi-region plan with 95%% confidence intervals — the "
            "figure benches' default configuration"
        ),
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --sampled: per-workload instruction horizon the plan "
            "covers (default 2,000,000)"
        ),
    )
    parser.add_argument(
        "--snapshots-only",
        action="store_true",
        help=(
            "with 'cache clear': clear only the warmed-state snapshots "
            "(and the corrupt/ quarantine), keeping cached run results"
        ),
    )
    parser.add_argument(
        "--fuzz-only",
        action="store_true",
        help=(
            "with 'cache clear': clear only the stored fuzz repros "
            "under .repro_cache/fuzz/, keeping runs and snapshots"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with the 'fuzz' command: check N sequential seeds starting "
            "at --seed-start (default 50)"
        ),
    )
    parser.add_argument(
        "--seed-start",
        type=int,
        default=0,
        metavar="S",
        help="with the 'fuzz' command: first seed of the batch (default 0)",
    )
    parser.add_argument(
        "--seeds-file",
        default=None,
        metavar="PATH",
        help=(
            "with the 'fuzz' command: read the seed batch from PATH "
            "(one integer per line, 0x-prefixed hex accepted, '#' "
            "comments) instead of --seeds/--seed-start"
        ),
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help=(
            "with the 'fuzz' command: shrink every diverging seed to a "
            "minimal repro and store it in the corpus under "
            ".repro_cache/fuzz/"
        ),
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="CASE",
        help=(
            "with the 'fuzz' command: re-run the stored minimal repro "
            "at CASE (a .repro.json path) through the full tier "
            "cross-check instead of fuzzing; exits 1 if it still "
            "diverges, 0 if it replays clean"
        ),
    )
    parser.add_argument(
        "--all",
        action="store_true",
        dest="bench_all",
        help=(
            "with the 'bench' command: run every regime and write one "
            "consolidated summary to benchmarks/results/BENCH_all.json"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "with the 'bench' command: run the regime under cProfile and "
            "write the top-25 cumulative entries to "
            "benchmarks/results/profile_<regime>.txt"
        ),
    )
    parser.add_argument(
        "--host",
        default=None,
        metavar="ADDR",
        help="with 'serve': bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="with 'serve': TCP port (default 8737; 0 = ephemeral)",
    )
    parser.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with 'worker': seconds a claimed job's lease lasts "
            "between heartbeats (default 30); a worker that dies "
            "mid-lease has its job re-granted after this long"
        ),
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="with 'worker': exit after resolving N jobs",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help=(
            "with 'worker': exit when the queue is empty instead of "
            "polling for more work"
        ),
    )
    parser.add_argument(
        "--out",
        type=argparse.FileType("w"),
        default=None,
        help="also write the rendered output to this file",
    )
    return parser


#: Experiments with a long-horizon sampled mode (``--sampled``).
_SAMPLED_EXPERIMENTS = frozenset({"table4", "figure11"})


def run_experiment(
    name: str,
    scale: float | None,
    jobs: int | None = None,
    cache: RunCache | None = None,
    sampled: bool = False,
    horizon: int | None = None,
) -> str:
    func = EXPERIMENTS[name]
    if name == "table1":
        _data, text = func()
    elif name in _SAMPLED_EXPERIMENTS and sampled:
        _data, text = func(
            scale=scale, jobs=jobs, cache=cache, sampled=True, horizon=horizon
        )
    elif name in _MATRIX_EXPERIMENTS:
        _data, text = func(scale=scale, jobs=jobs, cache=cache)
    else:
        _data, text = func(scale=scale)
    return text


def run_bench(
    regime_name: str | None, profile: bool = False, run_all: bool = False
) -> int:
    """Run one simulator self-benchmark regime; optionally profile it.

    The profile report lands in ``benchmarks/results/profile_<regime>.txt``
    (top-25 entries by cumulative time) so it can be diffed across
    commits next to ``BENCH_throughput.json``. ``--all`` runs every
    regime and writes one consolidated summary to
    ``benchmarks/results/BENCH_all.json``.
    """
    from repro.harness.bench import (
        INTERPRETER_DESCRIPTION,
        REGIMES,
        best_rate,
        measure_interpreter_rate,
        measure_warming_rate,
        profile_regime,
        profile_warming,
        render_all_regimes,
        run_all_regimes,
    )

    if run_all:
        results = run_all_regimes(rounds=3)
        print(render_all_regimes(results))
        out_dir = pathlib.Path("benchmarks") / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "BENCH_all.json"
        import json

        out_path.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nconsolidated results: {out_path}")
        return 0
    name = regime_name or "balanced"
    if name not in BENCH_REGIMES:
        known = ", ".join(BENCH_REGIMES)
        print(f"unknown bench regime {name!r}; known: {known}", file=sys.stderr)
        return 2
    if name == "interpreter":
        if profile:
            print("bench interpreter has no --profile report", file=sys.stderr)
            return 2
        rate, executed = measure_interpreter_rate(rounds=3)
        print(
            f"interpreter: {INTERPRETER_DESCRIPTION}\n"
            f"~{rate:,.0f} executed instructions/second "
            f"({executed:,} per round, best of 3 runs)"
        )
        return 0
    if name == "warming":
        # Not a Core regime: measures the functional-warming loop
        # itself (repro.harness.fastforward._warm_loop) on the
        # far-memory pointer chase — the rate that bounds every
        # sampled figure's chain build.
        if profile:
            _rate, report = profile_warming()
            out_dir = pathlib.Path("benchmarks") / "results"
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / "profile_warming.txt"
            out_path.write_text(report)
            print("\n".join(report.splitlines()[:12]))
            print(f"\nfull profile: {out_path}")
            return 0
        rate, insts = measure_warming_rate(rounds=3)
        print(
            "warming: functional-warming loop, far-memory pointer chase\n"
            f"~{rate:,.0f} warmed instructions/second "
            f"({insts:,} per round, best of 3 runs)"
        )
        return 0
    regime = REGIMES[name]
    if profile:
        stats, report = profile_regime(regime)
        out_dir = pathlib.Path("benchmarks") / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"profile_{name}.txt"
        out_path.write_text(report)
        # The report's head is the useful part at the terminal; the
        # full top-25 listing is in the file.
        print("\n".join(report.splitlines()[:12]))
        print(f"\nfull profile: {out_path}")
        return 0
    rate, stats = best_rate(regime, rounds=3)
    span = regime.fast_forwarded(stats)
    sampled = f", {span} fast-forwarded" if span else ""
    print(
        f"{name}: {regime.description}\n"
        f"~{rate:,.0f} simulated instructions/second "
        f"({stats.committed} committed{sampled}, best of 3 runs)"
    )
    return 0


def run_snapshot_action(action: str | None) -> int:
    """``repro snapshot ls`` (default) / ``repro snapshot clear``."""
    from repro.harness.fastforward import SnapshotStore, list_snapshots

    store = SnapshotStore()
    if action in (None, "ls"):
        entries = list_snapshots(store)
        quarantined = store.quarantined_count()
        if not entries:
            print(f"no snapshots under {store.root}")
            if quarantined:
                print(f"{quarantined} quarantined blob(s) in {store.corrupt_dir}")
            return 0
        known_keys = {entry["key"] for entry in entries}
        print(
            f"{'key':16s} {'workload':12s} {'scale':>6s} "
            f"{'ff_insts':>9s} {'executed':>9s} "
            f"{'chain':16s} {'built':8s} {'resumed@':>9s} {'bytes':>10s}"
        )
        chained = 0
        for entry in entries:
            parent = entry["parent"]
            if parent is None:
                chain = "-"
            else:
                chained += 1
                # A parent outside the store means the chain was built
                # here but its earlier members were cleared since.
                tag = "" if parent in known_keys else "?"
                chain = f"<-{parent[:12]}{tag}"
            # Build provenance (digest-masked, display-only): which
            # prebuild discipline produced the member and the stored
            # depth its building pass resumed from ("-" = entry point).
            built = entry.get("built_by") or "-"
            resumed = entry.get("resumed_from_depth")
            resumed_at = "-" if resumed is None else f"{resumed:,d}"
            print(
                f"{entry['key'][:16]:16s} {entry['workload']:12s} "
                f"{entry['scale']:>6g} {entry['ff_insts']:>9d} "
                f"{entry['executed']:>9d} "
                f"{chain:16s} {built:8s} {resumed_at:>9s} "
                f"{entry['bytes']:>10,d}"
            )
        print(
            f"{len(entries)} snapshot(s) ({chained} chained, "
            f"{store.total_bytes():,d} bytes total) under {store.root}"
        )
        if quarantined:
            print(f"{quarantined} quarantined blob(s) in {store.corrupt_dir}")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} snapshot(s)")
        return 0
    print(
        f"unknown snapshot action {action!r}; try: repro snapshot ls|clear",
        file=sys.stderr,
    )
    return 2


def run_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz`` — differential seed batch, corpus ls, or replay.

    Exit codes mirror the experiment driver: 0 all seeds agree across
    every tier, 1 at least one divergence was found (minimal repros
    land in the corpus when ``--shrink`` is given), 3 some seeds could
    not be fully checked (crash/timeout with retries exhausted).
    """
    from repro.fuzz import corpus as fuzz_corpus

    if args.action == "ls":
        from repro.service.store import FuzzNamespace

        fuzz = FuzzNamespace()
        cases = fuzz_corpus.list_cases(fuzz.cache_root)
        if not cases:
            print(f"no fuzz repros under {fuzz.root}")
        else:
            print(
                f"{'seed':>12s} {'scale':>6s} {'size':>5s} {'orig':>5s} "
                f"{'region':>8s}  divergence"
            )
            for case in cases:
                print(
                    f"{case['seed']:>#12x} {case['scale']:>6g} "
                    f"{case['size']:>5d} {case['original_size']:>5d} "
                    f"{case['region']:>8d}  {case['klass']}"
                )
            print(f"{len(cases)} stored repro(s) under {fuzz.root}")
        quarantined = fuzz.quarantined_count()
        if quarantined:
            print(f"{quarantined} quarantined case(s) in {fuzz.corrupt_dir}")
        return 0
    if args.action is not None:
        print(
            f"unknown fuzz action {args.action!r}; try: "
            "repro fuzz [--seeds N] | repro fuzz ls",
            file=sys.stderr,
        )
        return 2

    # Fuzzing defaults to full scale: generated programs are already
    # small, and the tier cross-check wants real region lengths.
    scale = args.scale if args.scale is not None else 1.0

    if args.replay is not None:
        divergence = fuzz_corpus.replay(args.replay)
        if divergence is None:
            print(f"{args.replay}: replays clean against the current tree")
            return 0
        print(f"{args.replay}: still diverges")
        print(f"  {divergence}")
        return 1

    if args.seeds_file is not None:
        lines = pathlib.Path(args.seeds_file).read_text().splitlines()
        seeds = [
            int(text, 0)
            for text in (line.split("#", 1)[0].strip() for line in lines)
            if text
        ]
    else:
        count = args.seeds if args.seeds is not None else 50
        seeds = list(range(args.seed_start, args.seed_start + count))

    from repro.fuzz.batch import run_fuzz_batch

    start = time.time()
    report = run_fuzz_batch(
        seeds,
        scale=scale,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
    )
    elapsed = time.time() - start
    print(
        f"fuzz: {len(report.checked)} seed(s) at scale {scale:g} in "
        f"{elapsed:.1f}s: {len(report.divergences)} divergence(s), "
        f"{len(report.skipped)} skipped"
    )
    for divergence in report.divergences:
        print(f"  {divergence}")
    for seed, error in report.skipped:
        print(
            f"  seed {seed:#x}: check did not complete: {error}",
            file=sys.stderr,
        )

    if args.shrink and report.divergences:
        from repro.fuzz.gen import generate
        from repro.fuzz.shrink import shrink

        for divergence in report.divergences:
            result = shrink(generate(divergence.seed, divergence.scale))
            if result.divergence is None:
                # Worker-observed divergence that vanished in-process
                # (e.g. environment-dependent); nothing to store.
                print(
                    f"  seed {divergence.seed:#x}: divergence did not "
                    "reproduce during shrinking; not stored",
                    file=sys.stderr,
                )
                continue
            path = fuzz_corpus.save_case(
                result.workload,
                result.divergence,
                original_size=result.original_size,
            )
            print(
                f"  seed {divergence.seed:#x}: shrunk "
                f"{result.original_size} -> {result.shrunk_size} "
                f"({result.checks} checks), stored {path}"
            )

    if report.divergences:
        return 1
    if report.skipped:
        return 3
    return 0


def run_cache_action(args: argparse.Namespace) -> int:
    """``repro cache clear`` / ``repro cache stats`` over the unified
    :class:`~repro.service.store.ContentStore` (runs, snapshots, fuzz
    corpus, and the service job queue share one root)."""
    from repro.service.store import ContentStore

    store = ContentStore()
    if args.action == "stats":
        stats = store.stats()
        print(
            f"{'namespace':10s} {'entries':>8s} {'bytes':>12s} "
            f"{'quarantined':>11s} {'hits':>8s} {'misses':>8s} "
            f"{'corrupt':>7s} {'hit rate':>8s}"
        )
        for name, entry in stats.items():
            rate = entry["hit_rate"]
            print(
                f"{name:10s} {entry['entries']:>8d} {entry['bytes']:>12,d} "
                f"{entry['quarantined']:>11d} {entry['hits']:>8d} "
                f"{entry['misses']:>8d} {entry['corruptions']:>7d} "
                f"{'-' if rate is None else f'{rate:7.1%}':>8s}"
            )
        print(f"cache root: {store.root}")
        queue_db = store.root / "queue" / "jobs.db"
        if queue_db.exists():
            from repro.service.queue import JobQueue

            queue = JobQueue(store.root)
            qstats = queue.stats()
            queue.close()
            jobs = ", ".join(
                f"{count} {status}"
                for status, count in qstats["jobs"].items()
                if count
            )
            print(f"queue: {jobs or 'empty'}")
            if qstats["counters"]:
                lifetime = ", ".join(
                    f"{count} {name}"
                    for name, count in sorted(qstats["counters"].items())
                )
                print(f"queue lifetime: {lifetime}")
        return 0
    if args.action != "clear":
        print(
            f"unknown cache action {args.action!r}; "
            "try: repro cache clear|stats",
            file=sys.stderr,
        )
        return 2
    if args.fuzz_only:
        removed = store.clear(only="fuzz")
        print(f"removed {removed['fuzz']} fuzz repro(s)")
        return 0
    if args.snapshots_only:
        removed = store.clear(only="snapshots")
        print(f"removed {removed['snapshots']} snapshot(s)")
        return 0
    removed = store.clear()
    parts = [
        f"{removed['runs']} cached run(s)",
        f"{removed['snapshots']} snapshot(s)",
        f"{removed['fuzz']} fuzz repro(s)",
    ]
    if "queue" in removed:
        parts.append(f"{removed['queue']} queued job(s)")
    print("removed " + ", ".join(parts))
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — run the experiment service front end."""
    from repro.service.server import DEFAULT_HOST, DEFAULT_PORT, serve

    host = args.host or DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    serve(host=host, port=port)
    return 0


def run_worker(args: argparse.Namespace) -> int:
    """``repro worker`` — drain the experiment service job queue."""
    from repro.service.queue import DEFAULT_LEASE_SECONDS
    from repro.service.worker import work

    lease = args.lease if args.lease is not None else DEFAULT_LEASE_SECONDS
    resolved = work(
        lease=lease,
        jobs=args.jobs or 1,
        timeout=args.timeout,
        retries=args.retries,
        max_jobs=args.max_jobs,
        drain=args.drain,
    )
    print(f"worker resolved {resolved} job(s)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for setting in settings.SETTINGS:
            # A knob flag the user set travels to the code that reads
            # it (experiments, sweeps, pool and service workers) as its
            # REPRO_* variable: no call site threads a knob explicitly.
            value = getattr(args, setting.name, None)
            if value is not None:
                os.environ[setting.env] = str(value)
            # Parse every knob once, here, so a malformed value exits
            # with one line naming it, not a traceback from a run.
            settings.get(setting.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.experiment == "serve":
        return run_serve(args)
    if args.experiment == "worker":
        return run_worker(args)
    if args.experiment == "bench":
        return run_bench(
            args.action, profile=args.profile, run_all=args.bench_all
        )
    if args.experiment == "snapshot":
        return run_snapshot_action(args.action)
    if args.experiment == "fuzz":
        return run_fuzz(args)
    if args.experiment == "cache":
        return run_cache_action(args)
    if args.action is not None:
        print(
            f"unexpected argument {args.action!r} after {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    if args.experiment != "all":
        # `all` runs the sampled experiments sampled and the rest as
        # usual; a single experiment must not silently drop the flags.
        if args.sampled and args.experiment not in _SAMPLED_EXPERIMENTS:
            print(
                f"--sampled applies only to {sorted(_SAMPLED_EXPERIMENTS)}, "
                f"not {args.experiment!r}",
                file=sys.stderr,
            )
            return 2
        if args.horizon is not None and not args.sampled:
            print("--horizon needs --sampled", file=sys.stderr)
            return 2
    try:
        # Every request downstream takes its sampling fields from the
        # REPRO_* variables: refuse a bad combination once, here,
        # instead of as a traceback from deep inside an experiment.
        RunRequest(workload="-", scale=1.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.service.store import ContentStore

    # A ContentStore as the run cache: run_matrix flushes the
    # persistent hit/miss counters behind `repro cache stats`.
    cache = ContentStore(enabled=not args.no_cache)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    reset_skipped_log()
    blocks = []
    for name in names:
        start = time.time()
        try:
            text = run_experiment(
                name,
                args.scale,
                jobs=args.jobs,
                cache=cache,
                sampled=args.sampled,
                horizon=args.horizon,
            )
        except DeadlockError as exc:
            # A simulated-machine deadlock is a diagnosis, not a crash:
            # report the machine state, no traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.time() - start
        blocks.append(text)
        print(text)
        print(f"\n[{name}: {elapsed:.1f}s]\n", file=sys.stderr)
    if args.out is not None:
        args.out.write("\n\n".join(blocks) + "\n")
        args.out.close()
    skipped = skipped_outcomes()
    if skipped:
        # --on-error skip let the matrices finish, but the output has
        # holes: say where, and fail the invocation.
        print(
            f"warning: {len(skipped)} request(s) skipped after exhausting "
            "retries; results above are partial:",
            file=sys.stderr,
        )
        for outcome in skipped:
            request = outcome.request
            print(
                f"  {request.workload}/{request.mode} "
                f"(scale {request.scale}, {request.config}): "
                f"{outcome.attempts} attempt(s), last error: {outcome.error}",
                file=sys.stderr,
            )
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
