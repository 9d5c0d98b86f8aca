"""A request's result must not depend on what its process ran before.

:func:`~repro.harness.parallel.execute_request` keeps the last built
workload, and its Program keeps its compiled instruction closures
across Cores and snapshot restores. Both are reuse of deterministic
work only: a window request run in a process that has already run
other modes and workloads returns exactly what a fresh pool worker
returns, every field included, and the reused workload comes out
unchanged.
"""

import dataclasses
import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.harness import parallel
from repro.harness.fastforward import ensure_snapshot
from repro.harness.parallel import RunRequest, execute_request, window_schedule
from repro.workloads import registry


def _image_digest(image: dict) -> str:
    return hashlib.sha256(repr(sorted(image.items())).encode()).hexdigest()


def test_window_result_is_independent_of_process_history(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(parallel, "_last_workload", None)
    parent = RunRequest(
        workload="mcf", scale=0.2, mode="base",
        sample=300, sample_regions=4, sample_period=1_000,
    )
    window = window_schedule(parent)[2]
    # Store the snapshot first, so every run reads it back
    # (``snapshot_hit`` is one of the compared fields).
    ensure_snapshot(
        registry.build("mcf", scale=0.2),
        window.resolve_config(),
        window.fast_forward,
    )

    builds = []
    build = registry.build

    def counting_build(name, scale):
        builds.append((name, scale))
        return build(name, scale=scale)

    monkeypatch.setattr(registry, "build", counting_build)
    first = execute_request(window)
    workload = parallel._last_workload[1]
    image = _image_digest(workload.memory_image)
    # Same workload, another depth and another mode: four snapshot
    # restores into one build, which runs the closures compiled so far.
    execute_request(window_schedule(parent)[1])
    execute_request(dataclasses.replace(window, mode="slice"))
    second = execute_request(window)
    assert parallel._last_workload[1] is workload  # reused, not rebuilt
    assert builds == [("mcf", 0.2)]
    execute_request(RunRequest(workload="gzip", scale=0.05, mode="limit"))
    execute_request(dataclasses.replace(window, mode="limit"))
    third = execute_request(window)
    # Only a change of (name, scale) rebuilds.
    assert builds == [("mcf", 0.2), ("gzip", 0.05), ("mcf", 0.2)]

    assert first.snapshot_hit
    expected = dataclasses.asdict(first)
    assert dataclasses.asdict(second) == expected
    assert dataclasses.asdict(third) == expected
    assert _image_digest(workload.memory_image) == image
    assert _image_digest(parallel._last_workload[1].memory_image) == image

    # A fresh interpreter: nothing built or compiled beforehand.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        pooled = pool.submit(execute_request, window).result()
    assert dataclasses.asdict(pooled) == expected


def test_shared_workload_keeps_only_the_last_build():
    execute_request(RunRequest(workload="vpr", scale=0.05))
    vpr = parallel._last_workload
    assert vpr[0] == ("vpr", 0.05)
    assert parallel.shared_workload("vpr", 0.05) is vpr[1]
    gzip = parallel.shared_workload("gzip", 0.05)
    assert parallel._last_workload == (("gzip", 0.05), gzip)
    assert parallel.shared_workload("vpr", 0.05) is not vpr[1]
