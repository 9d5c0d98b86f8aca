"""What each end-to-end workload runs, at which size, and how its
outputs are checked.

``fig11_sampled`` and ``fig11_detail`` regenerate Figure 11 through
``experiment_figure11``; this file is also the script each of their
timed processes runs (``python workloads.py fig11 ...``), so a cold or
warm regeneration is measured in a fresh interpreter, as a
``repro figure11`` user gets it. ``serve`` drives ``repro serve`` plus
one ``repro worker`` with seeded single-request sweeps; its request mix
is built here.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

#: Worker processes for every matrix, pinned so results do not depend
#: on the machine's CPU count (the baseline machine has 2 CPUs).
JOBS = 2

#: Regions per sampled arm (``experiments.SAMPLED_REGIONS``).
SAMPLED_REGIONS = 10

#: ``experiment_figure11`` keyword arguments per workload and size.
#: Every sampled arm keeps all 10 windows at these horizons (at 20k the
#: halt-drop rule removes some); the code path is the one the 2x10^6
#: default takes.
FIG11_SIZES = {
    "fig11_sampled": {
        "standard": {"sampled": True, "horizon": 30_000},
        "smoke": {"sampled": True, "horizon": 25_000},
    },
    "fig11_detail": {
        "standard": {"scale": 0.1},
        "smoke": {"scale": 0.05},
    },
}

#: Serve workload sizes: the store misses that may be sent, and once
#: ``warm`` of them are served, after every ``block`` misses, a block
#: of re-submissions of stored results: sweeps of the first ``warm``
#: served requests, and ``hits`` single-request sweeps.
SERVE_SIZES = {
    "standard": {"plain": 36, "multi": 4, "warm": 10, "block": 5,
                 "hits": 60},
    "smoke": {"plain": 5, "multi": 1, "warm": 2, "block": 2, "hits": 7},
}

PLAIN_SCALES = (0.04, 0.05, 0.06)
MULTI_WORKLOADS = ("mcf", "vpr", "gzip", "bzip2")
MULTI_SAMPLING = {
    "scale": 0.2,
    "sample": 300,
    "sample_regions": 8,
    "sample_period": 1000,
}
MODES = ("base", "slice", "limit")


def combined_digest(labelled_digests) -> str:
    """One SHA-256 over ``(label, stats_digest)`` pairs, order-free."""
    lines = sorted(f"{label}:{digest}" for label, digest in labelled_digests)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def figure11_outputs(results, text: str) -> dict:
    """The checked outputs of one Figure 11 regeneration."""
    from repro.uarch.stats import stats_digest

    arms = [
        (f"{r.workload.name}/{mode}", stats)
        for r in results
        for mode, stats in zip(MODES, (r.base, r.assisted, r.limit))
    ]
    return {
        "digest": combined_digest(
            (label, stats_digest(stats)) for label, stats in arms
        ),
        "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "arms": len(arms),
        "regions": sorted({stats.sample_regions for _, stats in arms}),
    }


def fig11_child(argv: list[str]) -> int:
    """One timed Figure 11 regeneration in this process; prints its
    timestamps and checked outputs as one JSON line."""
    import argparse

    parser = argparse.ArgumentParser(prog="workloads.py fig11")
    parser.add_argument("--kwargs", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    if args.trace_dir:
        import trace

        trace.install(args.trace_dir)
    from repro.harness.experiments import experiment_figure11
    from repro.service.store import ContentStore

    # The store a `repro figure11` run uses (REPRO_CACHE_DIR).
    cache = ContentStore().runs
    ready = time.perf_counter()
    results, text = experiment_figure11(
        jobs=JOBS, cache=cache, **json.loads(args.kwargs)
    )
    end = time.perf_counter()
    record = {"ready": ready, "end": end, **figure11_outputs(results, text)}
    print(json.dumps(record), flush=True)
    return 0


def request_label(request) -> str:
    return (
        f"{request.workload}/{request.mode}@{request.scale}"
        f"/r{request.sample_regions}"
    )


def serve_requests(seed: int, size: str = "standard"):
    """The seeded store-miss requests of one ``serve`` run, in send
    order: single-window requests over every program and mode at a
    seeded scale, plus multi-region requests the service splits into
    one job per window.

    The list is made of blocks, each with one multi-region request and
    the same number of requests at every scale. A run that stops
    sending early, on a slow host, still sends the same mix."""
    from repro.harness.parallel import RunRequest
    from repro.workloads import registry

    sizes = SERVE_SIZES[size]
    rng = random.Random(seed)
    arms = [(name, mode) for name in registry.all_names() for mode in MODES]
    rng.shuffle(arms)
    multi = [
        RunRequest(name, mode="base", **MULTI_SAMPLING)
        for name in MULTI_WORKLOADS
    ]
    rng.shuffle(multi)
    per_block = sizes["plain"] // sizes["multi"]
    requests = []
    for b in range(sizes["multi"]):
        scales = [PLAIN_SCALES[i % len(PLAIN_SCALES)] for i in range(per_block)]
        rng.shuffle(scales)
        block = [
            RunRequest(name, scale, mode=mode)
            for (name, mode), scale in zip(
                arms[b * per_block:(b + 1) * per_block], scales
            )
        ]
        block.append(multi[b])
        rng.shuffle(block)
        requests += block
    return requests


if __name__ == "__main__":
    if sys.argv[1:2] != ["fig11"]:
        sys.exit("usage: workloads.py fig11 --kwargs JSON [--trace-dir DIR]")
    sys.exit(fig11_child(sys.argv[2:]))
