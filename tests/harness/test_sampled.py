"""Differential tests for sampled simulation
(:mod:`repro.harness.fastforward`).

The sampling layer must be *safe by default* (fast-forward = 0 is
bit-identical to a full detailed run), *architecturally exact* (a
functional prefix reaches the same machine state a detailed prefix
does), and *accurate* (a warmed snapshot's measured region agrees with
full detail on IPC). Each property is checked differentially against
the unsampled simulator rather than against golden values.
"""

import dataclasses
import math

import pytest

from repro.harness import cli, parallel
from repro.harness.cache import RunCache
from repro.harness.fastforward import (
    DETAIL_WARMUP_CAP,
    SamplePlan,
    Snapshot,
    SnapshotStore,
    detail_warmup,
    ensure_snapshot,
    fast_forward,
    iter_chain,
    list_snapshots,
    snapshot_digest,
    snapshot_fingerprint,
)
from repro.harness.parallel import RunRequest, execute_request, run_matrix
from repro.harness.runner import MODES, simulate
from repro.harness.sweep import sweep_memory_latency
from repro.uarch.config import FOUR_WIDE
from repro.uarch.core import Core
from repro.uarch.perfect import problem_perfect
from repro.uarch.stats import (
    RunStats,
    aggregate_stats,
    mean_ci95,
    t95,
)
from repro.workloads import registry


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Point every store (run cache + snapshots) at a temp root."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


# ----------------------------------------------------------------------
# Safety: fast_forward=0 / sample=0 changes nothing
# ----------------------------------------------------------------------


def _ff_zero_arms(workload):
    """``(mode, request fields, simulate() keywords)`` for every mode;
    the perfect arm idealizes the workload's annotated problem set."""
    branches = tuple(workload.problem_branch_pcs)
    loads = tuple(workload.problem_load_pcs)
    perfect = problem_perfect(branches, loads)
    return [
        ("base", {}, {}),
        ("slice", {}, {}),
        ("limit", {}, {}),
        (
            "perfect",
            dict(perfect_branch_pcs=branches, perfect_load_pcs=loads),
            dict(perfect=perfect),
        ),
    ]


@pytest.mark.parametrize("workload_name", sorted(registry.WORKLOAD_BUILDERS))
def test_ff_zero_bit_identical(workload_name):
    """An unsampled RunRequest reproduces a direct simulate() call
    exactly — every stat, every mode, every workload."""
    # One workload for all modes: a shared Program's cached
    # instruction closures must not move the counters.
    workload = registry.build(workload_name, scale=0.05)
    arms = _ff_zero_arms(workload)
    assert tuple(mode for mode, _fields, _kwargs in arms) == MODES
    for mode, fields, kwargs in arms:
        request = RunRequest(
            workload=workload_name, scale=0.05, mode=mode,
            fast_forward=0, sample=0, **fields,
        )
        assert execute_request(request) == simulate(
            workload, mode, FOUR_WIDE, **kwargs
        )


def test_request_rejects_negative_sampling():
    with pytest.raises(ValueError):
        RunRequest(workload="vpr", scale=0.05, fast_forward=-1)
    with pytest.raises(ValueError):
        RunRequest(workload="vpr", scale=0.05, sample=-5)


def test_sampling_fields_join_the_cache_fingerprint():
    from repro.harness.cache import fingerprint

    plain = RunRequest(workload="vpr", scale=0.05)
    sampled = RunRequest(workload="vpr", scale=0.05, fast_forward=1000)
    regioned = RunRequest(workload="vpr", scale=0.05, sample=500)
    keys = {fingerprint(r) for r in (plain, sampled, regioned)}
    assert len(keys) == 3


def test_detail_warmup_math():
    assert detail_warmup(0) == 0
    assert detail_warmup(-3) == 0
    assert detail_warmup(4_000) == 400
    # The discard window caps: a huge region does not warm forever.
    assert detail_warmup(1_000_000) == DETAIL_WARMUP_CAP


def _request(**fields):
    """A vpr request with every sampling field explicit (no env)."""
    fields = {
        "fast_forward": 0, "sample": 0, "sample_regions": 0,
        "sample_period": 0, **fields,
    }
    return RunRequest(workload="vpr", scale=0.05, **fields)


#: ``(sampling fields, workload region, expected schedule)``.
SCHEDULES = [
    # Full detail: one cold window over the workload's own region.
    ({}, None, SamplePlan((0,), 0, None)),
    # A single window sits at its fast-forward depth.
    ({"fast_forward": 2_000}, None, SamplePlan((2_000,), 0, None)),
    ({"sample": 4_000}, None, SamplePlan((0,), 400, 4_000)),
    (
        {"fast_forward": 2_000, "sample": 4_000},
        None,
        SamplePlan((2_000,), 400, 4_000),
    ),
    # The discard window caps: a huge region does not warm forever.
    (
        {"sample": 1_000_000},
        None,
        SamplePlan((0,), DETAIL_WARMUP_CAP, 1_000_000),
    ),
    # Default spread: the windows share the workload's region.
    (
        {"sample": 1_000, "sample_regions": 4},
        100_000,
        SamplePlan((0, 25_000, 50_000, 75_000), 100, 1_000),
    ),
    # An explicit period overrides the spread (and the region).
    (
        {
            "fast_forward": 10_000, "sample": 1_000,
            "sample_regions": 3, "sample_period": 20_000,
        },
        None,
        SamplePlan((10_000, 30_000, 50_000), 100, 1_000),
    ),
    # The period clamps to the window so regions never overlap,
    # whether explicit or spread over too short a region.
    (
        {"sample": 5_000, "sample_regions": 2, "sample_period": 1},
        None,
        SamplePlan((0, 5_500), 500, 5_000),
    ),
    (
        {"sample": 5_000, "sample_regions": 2},
        6_000,
        SamplePlan((0, 5_500), 500, 5_000),
    ),
]


def test_schedule_math():
    for fields, region, plan in SCHEDULES:
        assert _request(**fields).schedule(region) == plan, fields


def test_derived_schedule_reads_the_shared_workload():
    request = _request(sample=500, sample_regions=4)
    region = registry.build("vpr", scale=0.05).region
    assert request.schedule() == request.schedule(region)


# ----------------------------------------------------------------------
# Architectural exactness of the functional tier
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload_name", sorted(registry.WORKLOAD_BUILDERS))
def test_warmed_fast_forward_matches_interpreter(workload_name):
    """Warming is observation-only: warmed fast-forward leaves exactly
    the raw interpreter's PC, registers, and memory after N
    instructions, and carries all three warm images."""
    from repro.arch.interpreter import execute
    from repro.arch.memory import Memory
    from repro.arch.state import ThreadState

    workload = registry.build(workload_name, scale=0.1)
    n = 3_000
    snap = fast_forward(workload, FOUR_WIDE, n)

    memory = Memory(workload.memory_image, journaling=False)
    state = ThreadState(memory, entry_pc=workload.program.entry_pc)
    executed = 0
    for _ in range(n):
        inst = workload.program.at(state.pc)
        if inst is None or state.halted:
            break
        execute(inst, state)
        executed += 1

    assert snap.executed == executed
    assert snap.pc == state.pc
    assert snap.regs == state.regs.values()
    assert snap.memory_words == memory.snapshot()
    assert snap.warming
    assert snap.hierarchy_image is not None
    assert snap.predictor_image is not None
    assert snap.prefetcher_image is not None


def test_restore_then_run_matches_straight_through():
    """Functional prefix + detailed suffix lands on the same final
    architectural state (and total work) as detailed start-to-HALT."""
    workload = registry.build("mcf", scale=0.2)
    straight = Core(
        workload.program, FOUR_WIDE, memory_image=workload.memory_image
    )
    straight_stats = straight.run()

    snap = fast_forward(workload, FOUR_WIDE, 3_000)
    resumed = Core(workload.program, FOUR_WIDE, snapshot=snap)
    resumed_stats = resumed.run()

    assert snap.executed + resumed_stats.committed == straight_stats.committed
    assert resumed._main.state.pc == straight._main.state.pc
    assert resumed._main.state.regs.values() == straight._main.state.regs.values()
    assert resumed.memory.snapshot() == straight.memory.snapshot()


@pytest.mark.parametrize("mode", ["base", "slice"])
def test_restore_into_warm_program_matches_fresh_program(mode, monkeypatch):
    """A process builds a workload once and keeps its Program, compiled
    instruction closures included, across a snapshot restore; reusing
    it changes nothing: the restored run equals a restore into a
    freshly built Program in every field, meta included."""
    builds = []
    build = registry.build

    def counting_build(name, scale):
        builds.append((name, scale))
        return build(name, scale=scale)

    monkeypatch.setattr(registry, "build", counting_build)
    monkeypatch.setattr(parallel, "_last_workload", None)
    store = SnapshotStore(enabled=False)
    full = RunRequest(
        workload="gzip", scale=0.05, mode=mode, fast_forward=0, sample=0
    )
    execute_request(full, snapshots=store)
    warm = parallel._last_workload[1]
    closures = {
        inst.pc: inst._exec
        for inst in warm.program.instructions
        if inst._exec is not None
    }
    assert closures

    sampled = dataclasses.replace(full, fast_forward=500, sample=1_000)
    reused = execute_request(sampled, snapshots=store)
    assert builds == [("gzip", 0.05)]
    assert parallel._last_workload[1] is warm
    # The restored run ran the cold run's closures, not new ones.
    assert all(
        warm.program.at(pc)._exec is fn for pc, fn in closures.items()
    )

    monkeypatch.setattr(parallel, "_last_workload", None)
    restored = execute_request(sampled, snapshots=store)
    assert builds == [("gzip", 0.05)] * 2
    assert parallel._last_workload[1] is not warm
    assert dataclasses.asdict(reused) == dataclasses.asdict(restored)


def test_region_smaller_than_warmup_still_warms():
    """Regression: ``region`` counts post-warmup commits, so a region
    smaller than the warmup must not truncate the warmup (the detailed
    core used to stop at ``region`` *total* commits)."""
    workload = registry.build("gzip", scale=0.05)
    warmup, region = 2_000, 300
    sampled = Core(
        workload.program, FOUR_WIDE,
        memory_image=workload.memory_image,
        warmup=warmup, region=region,
    )
    stats = sampled.run()
    reference = Core(
        workload.program, FOUR_WIDE,
        memory_image=workload.memory_image,
        region=warmup + region,
    )
    reference.run()
    assert stats.committed == region
    # Both stopped after warmup+region total commits -> same point.
    assert sampled._main.state.pc == reference._main.state.pc


# ----------------------------------------------------------------------
# Snapshot content-addressing, determinism, and integrity
# ----------------------------------------------------------------------


def test_snapshot_build_is_deterministic():
    for name, scale, depth in (("gzip", 0.05, 1_000), ("mcf", 0.2, 5_000)):
        workload = registry.build(name, scale=scale)
        a = fast_forward(workload, FOUR_WIDE, depth)
        b = fast_forward(registry.build(name, scale=scale), FOUR_WIDE, depth)
        assert snapshot_digest(a) == snapshot_digest(b), name


def test_fingerprint_keys_on_warming_inputs_only():
    base = snapshot_fingerprint("mcf", 0.5, 1_000, FOUR_WIDE)
    assert snapshot_fingerprint("mcf", 0.5, 2_000, FOUR_WIDE) != base
    assert snapshot_fingerprint("mcf", 0.2, 1_000, FOUR_WIDE) != base
    # Source-tree changes invalidate (content-addressing).
    assert snapshot_fingerprint("mcf", 0.5, 1_000, FOUR_WIDE, source_hash="x") != base
    # Timing-only parameters share the snapshot...
    timing = dataclasses.replace(
        FOUR_WIDE, memory_latency=999, window_entries=16
    )
    assert snapshot_fingerprint("mcf", 0.5, 1_000, timing) == base
    # ...but warmed-structure geometry does not.
    geometry = dataclasses.replace(
        FOUR_WIDE, l1d=dataclasses.replace(FOUR_WIDE.l1d, associativity=4)
    )
    assert snapshot_fingerprint("mcf", 0.5, 1_000, geometry) != base


def test_store_roundtrip_hit_and_quarantine(cache_env):
    workload = registry.build("gzip", scale=0.05)
    store = SnapshotStore(cache_env)
    snap, hit = ensure_snapshot(workload, FOUR_WIDE, 500, store=store)
    assert not hit
    again, hit = ensure_snapshot(workload, FOUR_WIDE, 500, store=store)
    assert hit
    assert snapshot_digest(again) == snapshot_digest(snap)
    assert isinstance(again, Snapshot)

    # Flip payload bytes: the checksum catches it BEFORE unpickling,
    # the entry is quarantined, and the build recovers.
    [path] = store.entry_paths()
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    rebuilt, hit = ensure_snapshot(workload, FOUR_WIDE, 500, store=store)
    assert not hit  # corrupt -> miss -> rebuilt
    assert store.corruptions == 1
    assert (cache_env / "corrupt" / path.name).exists()
    assert snapshot_digest(rebuilt) == snapshot_digest(snap)


def test_snapshot_suffixes_keep_stores_disjoint(cache_env):
    """Run cache and snapshot store share the root + quarantine but
    never clear each other's entries."""
    workload = registry.build("gzip", scale=0.05)
    cache = RunCache(cache_env)
    run_matrix(
        [RunRequest(workload="gzip", scale=0.05, mode="base")],
        jobs=1, cache=cache,
    )
    store = SnapshotStore(cache_env)
    ensure_snapshot(workload, FOUR_WIDE, 500, store=store)
    assert store.clear() == 1
    assert len(list(cache.entry_paths())) == 1  # run survived
    ensure_snapshot(workload, FOUR_WIDE, 500, store=store)
    assert cache.clear() == 1
    assert len(list_snapshots(store)) == 1  # snapshot survived


# ----------------------------------------------------------------------
# Harness integration: requests, sweeps, accuracy
# ----------------------------------------------------------------------


def test_sampled_request_sets_meta_and_hits_store(cache_env):
    request = RunRequest(
        workload="gzip", scale=0.05, mode="base",
        fast_forward=1_000, sample=500,
    )
    cold = execute_request(request)
    warm = execute_request(request)
    assert cold.ff_insts == warm.ff_insts == 1_000
    assert not cold.snapshot_hit and warm.snapshot_hit
    assert cold.committed == warm.committed == 500
    # Meta aside, the sampled runs are identical.
    cold.snapshot_hit = warm.snapshot_hit
    assert cold == warm


def test_sweep_shares_one_snapshot(cache_env):
    """A memory-latency sweep pays the architectural prefix once: the
    warm-config key dedups every point onto a single .snap file."""
    workload = registry.build("mcf", scale=0.2)
    points = sweep_memory_latency(
        workload, latencies=(100, 400), jobs=1,
        cache=RunCache(enabled=False),
        fast_forward=2_000, sample=500,
    )
    store = SnapshotStore(cache_env)
    assert len(list_snapshots(store)) == 1
    for point in points:
        assert point.base.ff_insts == 2_000
        assert point.base.snapshot_hit  # prebuilt before the matrix
        assert point.base.committed == 500
    # The sweep still sees timing: far memory must not be free.
    assert points[1].base.cycles > points[0].base.cycles


def test_sampled_ipc_tracks_full_detail(cache_env):
    """The acceptance bound, non-timing flavor: a warmed sampled run's
    region IPC stays within 2% of full detail over the same region."""
    workload = registry.build("mcf", scale=0.2)
    ff, sample = 5_000, 1_000
    warmup = detail_warmup(sample)
    snap, _ = ensure_snapshot(workload, FOUR_WIDE, ff)
    sampled = simulate(
        workload, snapshot=snap, warmup=warmup, region=sample
    )
    full = simulate(workload, warmup=ff + warmup, region=sample)
    assert sampled.committed == full.committed == sample
    assert abs(sampled.ipc - full.ipc) / full.ipc < 0.02


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_parser_accepts_sampling_flags():
    args = cli.build_parser().parse_args(
        ["table3", "--fast-forward", "5000", "--sample", "1000"]
    )
    assert args.fast_forward == 5000
    assert args.sample == 1000


def test_cli_snapshot_ls_and_clear(cache_env, capsys):
    workload = registry.build("gzip", scale=0.05)
    ensure_snapshot(workload, FOUR_WIDE, 500)
    assert cli.main(["snapshot", "ls"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out and "1 snapshot(s)" in out
    assert cli.main(["snapshot", "clear"]) == 0
    assert "removed 1 snapshot(s)" in capsys.readouterr().out
    assert cli.main(["snapshot", "ls"]) == 0
    assert "no snapshots" in capsys.readouterr().out


def test_cli_cache_clear_covers_snapshots(cache_env, capsys):
    workload = registry.build("gzip", scale=0.05)
    cache = RunCache(cache_env)
    run_matrix(
        [RunRequest(workload="gzip", scale=0.05, mode="base")],
        jobs=1, cache=cache,
    )
    ensure_snapshot(workload, FOUR_WIDE, 500)
    assert cli.main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "1 cached run(s)" in out and "1 snapshot(s)" in out
    assert len(list(RunCache(cache_env).entry_paths())) == 0
    assert len(list_snapshots(SnapshotStore(cache_env))) == 0


def test_cli_cache_clear_snapshots_only(cache_env, capsys):
    workload = registry.build("gzip", scale=0.05)
    cache = RunCache(cache_env)
    run_matrix(
        [RunRequest(workload="gzip", scale=0.05, mode="base")],
        jobs=1, cache=cache,
    )
    ensure_snapshot(workload, FOUR_WIDE, 500)
    assert cli.main(["cache", "clear", "--snapshots-only"]) == 0
    assert "removed 1 snapshot(s)" in capsys.readouterr().out
    assert len(list(RunCache(cache_env).entry_paths())) == 1  # runs kept


# ----------------------------------------------------------------------
# Confidence-interval math (multi-region sampling)
# ----------------------------------------------------------------------


def test_t95_table():
    assert t95(1) == pytest.approx(12.706)
    assert t95(4) == pytest.approx(2.776)
    assert t95(30) == pytest.approx(2.042)
    assert t95(200) == pytest.approx(1.960)  # beyond the table: normal
    with pytest.raises(ValueError):
        t95(0)


def test_mean_ci95_known_variance():
    # mean 3, sample variance 2.5, df 4 -> half-width t.sqrt(var/n)
    mean, half = mean_ci95([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == pytest.approx(3.0)
    assert half == pytest.approx(2.776 * math.sqrt(2.5 / 5))


def test_ci_narrows_with_more_regions():
    """Same per-sample scatter, more samples: the interval tightens."""

    def half(n):
        return mean_ci95([1.0, 2.0] * (n // 2))[1]

    assert half(4) > half(8) > half(16) > 0.0


def test_single_sample_is_point_estimate():
    assert mean_ci95([1.7]) == (1.7, 0.0)
    assert mean_ci95([]) == (0.0, 0.0)
    stats = RunStats(committed=10, cycles=20, region_ipcs=(0.5,))
    assert stats.ipc_mean == 0.5
    assert stats.ipc_ci95 == 0.0


def test_ipc_mean_falls_back_to_pooled_ipc():
    stats = RunStats(committed=10, cycles=20)
    assert stats.ipc_mean == stats.ipc == 0.5
    assert stats.ipc_ci95 == 0.0


def test_aggregate_stats_merges_everything():
    a = RunStats(
        config_name="4-wide", workload_name="x", committed=100, cycles=200,
        load_misses=3, hierarchy={"l1_hits": 1}, cycle_breakdown={"busy": 5},
    )
    a.count_branch(0x40, True)
    a.count_mem(0x44, False)
    a.correlator.predictions_generated = 2
    b = RunStats(
        config_name="4-wide", workload_name="x", committed=300, cycles=300,
        load_misses=4, hierarchy={"l1_hits": 2, "l2_hits": 7},
        cycle_breakdown={"busy": 1}, hit_cycle_limit=True,
    )
    b.count_branch(0x40, False)
    b.count_branch(0x48, True)
    b.correlator.predictions_generated = 5

    total = aggregate_stats([a, b])
    assert (total.committed, total.cycles, total.load_misses) == (400, 500, 7)
    assert total.hierarchy == {"l1_hits": 3, "l2_hits": 7}
    assert total.cycle_breakdown == {"busy": 6}
    assert total.hit_cycle_limit  # one truncated window taints the run
    assert total.branch_pcs[0x40].executions == 2
    assert total.branch_pcs[0x40].events == 1
    assert total.branch_pcs[0x48].events == 1
    assert total.mem_pcs[0x44].executions == 1
    assert total.correlator.predictions_generated == 7
    assert total.region_ipcs == (0.5, 1.0)
    assert total.sample_regions == 2
    assert total.ipc == pytest.approx(0.8)       # pooled
    assert total.ipc_mean == pytest.approx(0.75)  # region mean
    with pytest.raises(ValueError):
        aggregate_stats([])


# ----------------------------------------------------------------------
# Snapshot chains: incremental == straight-through
# ----------------------------------------------------------------------


def test_resume_split_equals_straight_warmup():
    """Satellite fix: warming trained through a snapshot resume is
    byte-identical to one uninterrupted pass — prefetcher and branch
    predictor included (the digest covers every warm image)."""
    workload = registry.build("vpr", scale=0.1)
    straight = fast_forward(workload, FOUR_WIDE, 30_000)
    first = fast_forward(workload, FOUR_WIDE, 13_337)  # mid-run split
    split = fast_forward(workload, FOUR_WIDE, 30_000, resume_from=first)
    assert snapshot_digest(split) == snapshot_digest(straight)


def test_warm_tiers_state_identical(monkeypatch):
    """The fused (codegen) warming tier and the per-instruction tier
    leave identical state: same digest over architectural state and
    all warm images."""
    from repro.harness import fastforward as ff

    workload = registry.build("mcf", scale=0.2)
    fused = fast_forward(workload, FOUR_WIDE, 8_000)

    def stepped_loop(program, state, budget, warm_access, predictor,
                     _hierarchy):
        return ff._warm_steps(program, state, budget, warm_access, predictor)

    monkeypatch.setattr(ff, "_warm_loop", stepped_loop)
    stepped = fast_forward(workload, FOUR_WIDE, 8_000)
    assert snapshot_digest(stepped) == snapshot_digest(fused)


def test_chain_members_match_straight_builds(cache_env):
    """Each chain member (built by resuming from its predecessor) is
    digest-identical to a from-scratch build of the same depth, so
    chained and unchained sweeps share store keys AND content."""
    workload = registry.build("mcf", scale=0.1)
    depths = [1_000, 2_500, 4_999]  # awkward splits vs block boundaries
    members, hits = zip(*iter_chain(workload, FOUR_WIDE, depths))
    assert not any(hits)
    assert [m.parent for m in members][1:] != [None, None]  # provenance kept
    for depth, member in zip(depths, members):
        straight = fast_forward(workload, FOUR_WIDE, depth)
        assert snapshot_digest(member) == snapshot_digest(straight)
    # Second walk: every member restored from the store.
    _members, hits = zip(*iter_chain(workload, FOUR_WIDE, depths))
    assert all(hits)


def test_chain_digest_deterministic_across_stores(tmp_path):
    """Two independent chain builds in fresh stores produce the same
    member digests, depth by depth, and the deepest (resumed) member
    matches a straight-through build of its depth."""
    cases = (
        ("gzip", 0.05, (500, 1_000)),
        ("mcf", 0.2, (2_000, 5_000, 8_000)),
    )
    for name, scale, depths in cases:
        digests = []
        for sub in ("a", "b"):
            members, hits = zip(*iter_chain(
                registry.build(name, scale=scale), FOUR_WIDE, depths,
                store=SnapshotStore(tmp_path / name / sub),
            ))
            assert not any(hits)  # fresh store: every member built
            digests.append([snapshot_digest(m) for m in members])
        assert digests[0] == digests[1], name
        straight = fast_forward(
            registry.build(name, scale=scale), FOUR_WIDE, depths[-1]
        )
        assert snapshot_digest(members[-1]) == snapshot_digest(straight)


# ----------------------------------------------------------------------
# Multi-region requests
# ----------------------------------------------------------------------


def test_multi_region_request_validation():
    with pytest.raises(ValueError):
        RunRequest(workload="vpr", scale=0.05, sample_regions=2)  # no sample
    with pytest.raises(ValueError):
        RunRequest(workload="vpr", scale=0.05, sample=100, sample_regions=-1)
    with pytest.raises(ValueError):
        RunRequest(workload="vpr", scale=0.05, sample=100, sample_period=-1)


def test_lone_sample_period_is_refused():
    """A period without multi-region sampling would run the same single
    window under another key, so an identical run would miss the
    cache: the request refuses it instead."""
    with pytest.raises(ValueError, match="sample_period"):
        RunRequest(workload="vpr", scale=0.05, sample_period=1_000)
    with pytest.raises(ValueError, match="sample_period"):
        RunRequest(
            workload="vpr", scale=0.05, sample=500,
            sample_regions=1, sample_period=1_000,
        )


def test_multi_region_joins_fingerprint():
    from repro.harness.cache import fingerprint

    a = RunRequest(workload="vpr", scale=0.05, sample=500)
    b = RunRequest(workload="vpr", scale=0.05, sample=500, sample_regions=4)
    c = RunRequest(
        workload="vpr", scale=0.05, sample=500,
        sample_regions=4, sample_period=10_000,
    )
    assert len({fingerprint(r) for r in (a, b, c)}) == 3


def test_request_env_defaults_multi(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE", "400")
    monkeypatch.setenv("REPRO_SAMPLE_REGIONS", "5")
    monkeypatch.setenv("REPRO_SAMPLE_PERIOD", "9000")
    request = RunRequest(workload="vpr", scale=0.05)
    assert request.sample == 400
    assert request.sample_regions == 5
    assert request.sample_period == 9_000


def test_multi_region_request_aggregates(cache_env):
    # Explicit period: gzip halts well before its ``region`` ceiling,
    # so evenly spaced windows over the ceiling would overshoot.
    request = RunRequest(
        workload="gzip", scale=0.1, mode="base",
        sample=500, sample_regions=3, sample_period=5_000,
    )
    stats = execute_request(request)
    assert stats.sample_regions == 3
    assert len(stats.region_ipcs) == 3
    assert stats.committed == 3 * 500
    assert stats.ipc_ci95 > 0.0
    again = execute_request(request)
    assert again.region_ipcs == stats.region_ipcs  # deterministic
    assert again.snapshot_hits == 2  # the depth-0 window needs no snapshot
    assert again.snapshot_hit  # every window that needed one, hit


def test_multi_region_drops_windows_past_halt(cache_env):
    """``workload.region`` is a ceiling, not a promise: windows planned
    past the actual halt are dropped instead of measured as empty."""
    workload = registry.build("mcf", scale=0.2)
    request = RunRequest(
        workload="mcf", scale=0.2, mode="base", sample=500,
        sample_regions=4, sample_period=workload.region,
    )
    stats = execute_request(request)
    assert 1 <= stats.sample_regions < 4
    assert len(stats.region_ipcs) == stats.sample_regions


def test_multi_region_ipc_tracks_full_detail(cache_env):
    """Small-scale version of the acceptance differential: the sampled
    estimator agrees with full detail within its own 95% interval (or
    a 15% guard band when the interval happens to be very tight)."""
    sampled = execute_request(RunRequest(
        workload="mcf", scale=0.5, mode="base", sample=1_000,
        sample_regions=5, sample_period=5_000,
    ))
    full = execute_request(RunRequest(workload="mcf", scale=0.5, mode="base"))
    assert sampled.sample_regions >= 2
    tolerance = max(sampled.ipc_ci95, 0.15 * full.ipc)
    assert abs(sampled.ipc_mean - full.ipc) <= tolerance


def test_sweep_shares_one_chain(cache_env):
    """The tentpole reuse property: a memory-latency sweep builds the
    snapshot chain once (prebuilt in the parent) and every point of
    both arms restores from it."""
    workload = registry.build("mcf", scale=0.2)
    points = sweep_memory_latency(
        workload, latencies=(100, 400), jobs=1,
        cache=RunCache(enabled=False),
        sample=500, sample_regions=3, sample_period=4_000,
    )
    entries = list_snapshots(SnapshotStore(cache_env))
    # One chain: regions-1 members with depth > 0 (window 0 is cold),
    # shared by all four runs (2 latencies x base/slice).
    assert len(entries) == 2
    assert sum(1 for e in entries if e["parent"]) == 1
    for point in points:
        for stats in (point.base, point.assisted):
            assert stats.sample_regions == 3
            assert stats.snapshot_hits == 2  # prebuilt before the matrix
        assert point.speedup_ci95 >= 0.0


def test_matrix_report_sampling_counters(cache_env):
    request = RunRequest(
        workload="gzip", scale=0.1, mode="base",
        sample=500, sample_regions=3, sample_period=5_000,
    )
    report = run_matrix(
        [request], jobs=1, cache=RunCache(enabled=False), return_report=True
    )
    stats = report.stats_list()[0]
    assert [o.stats.sample_regions for o in report.outcomes] == [3]
    assert stats.ff_insts > 0
    assert report.snapshot_hits == 2  # chain prebuilt in the parent


def test_bench_sampled_multi_regime(cache_env):
    from repro.harness.bench import REGIMES, run_regime

    regime = dataclasses.replace(
        REGIMES["sampled_multi"],
        scale=0.5, sample=300, sample_regions=3, sample_period=2_000,
    )
    stats, elapsed = run_regime(regime)
    assert stats.sample_regions == 3
    assert elapsed > 0.0
    # Covered span: chain depth + warm windows + measured regions.
    assert regime.covered_insts(stats) > stats.committed


# ----------------------------------------------------------------------
# Multi-region CLI surface
# ----------------------------------------------------------------------


def test_parser_accepts_multi_region_flags():
    args = cli.build_parser().parse_args(
        ["table4", "--sample", "1000",
         "--sample-regions", "10", "--sample-period", "50000"]
    )
    assert args.sample_regions == 10
    assert args.sample_period == 50_000


@pytest.mark.parametrize(
    "flags", [["--sample-period", "1000"],
              ["--sample-period", "1000", "--sample-regions", "1"]],
)
def test_cli_refuses_lone_sample_period(monkeypatch, capsys, tmp_path, flags):
    for key in ("REPRO_SAMPLE", "REPRO_SAMPLE_REGIONS", "REPRO_SAMPLE_PERIOD"):
        monkeypatch.setenv(key, "stale")  # registers teardown restore
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.main(["table2", "--scale", "0.05", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample_period")
    assert err.count("\n") == 1  # one line, no traceback


def test_cli_snapshot_ls_shows_chain(cache_env, capsys):
    workload = registry.build("gzip", scale=0.05)
    list(iter_chain(workload, FOUR_WIDE, [500, 1_000]))
    assert cli.main(["snapshot", "ls"]) == 0
    out = capsys.readouterr().out
    assert "chain" in out
    assert "<-" in out  # the deeper member names its parent
    assert "2 snapshot(s) (1 chained" in out
    assert "bytes total" in out
    assert "serial" in out  # build provenance column


def test_cli_bench_warming_regime(monkeypatch, capsys):
    """`repro bench warming` wires through measure_warming_rate (the
    measurement itself runs at full scale only in CI's floors step)."""
    from repro.harness import bench

    monkeypatch.setattr(
        bench, "measure_warming_rate",
        lambda rounds=3: (1_234_567.0, bench.WARMING_INSTS),
    )
    assert cli.main(["bench", "warming"]) == 0
    out = capsys.readouterr().out
    assert "1,234,567 warmed instructions/second" in out


# ----------------------------------------------------------------------
# Flat-array warm hierarchy vs. legacy reference model
# ----------------------------------------------------------------------


class _LegacyWarmModel:
    """Compact reference model of the functional-warming state machine
    in the *legacy* representation the packed flat arrays replaced:
    cache sets as lists of ``(line, dirty)`` tuples (MRU last), the
    prefetch/victim buffer as an insertion-ordered dict, and a
    linearly-scanned stream table with first-match-in-table-order
    tie-break and FIFO eviction.

    Transcribed from the documented warm semantics — demand access,
    stream training, and untimed prefetch fill (an L2 prefetch hit does
    *not* touch LRU) — independently of the packed containers, so any
    transition the flat arrays or the fused closure get wrong shows up
    as an image mismatch here.
    """

    def __init__(self, config):
        l1, l2, pf = config.l1d, config.l2, config.prefetch
        self._l1_shift = l1.line_bytes.bit_length() - 1
        self._l1_mask = l1.num_sets - 1
        self._l1_assoc = l1.associativity
        self._l1 = [[] for _ in range(l1.num_sets)]
        self._l2_delta = (l2.line_bytes.bit_length() - 1) - self._l1_shift
        self._l2_mask = l2.num_sets - 1
        self._l2_assoc = l2.associativity
        self._l2 = [[] for _ in range(l2.num_sets)]
        self._buffer = {}  # line -> from_prefetch, insertion ordered
        self._buf_entries = pf.buffer_entries
        self._streams = []  # [last_line, stride, confirmed] rows
        self._table_entries = pf.stream_table_entries
        self._depth = pf.stream_depth
        self._sequential = pf.sequential_next_line

    def warm_access(self, addr, is_store):
        line = addr >> self._l1_shift
        bucket = self._l1[line & self._l1_mask]
        for i, (resident, dirty) in enumerate(bucket):
            if resident == line:
                del bucket[i]
                bucket.append((line, dirty or bool(is_store)))
                return
        if self._buffer.pop(line, None) is not None:
            # Buffer hit: promote into the L1, then train the streams.
            self._fill_l1(bucket, line, is_store)
            self._train(line)
            return
        # Full miss: train first (launches touch the same L2 sets),
        # then the L2 lookup/fill and the L1 demand fill.
        self._train(line)
        l2_line = line >> self._l2_delta
        l2b = self._l2[l2_line & self._l2_mask]
        for i, entry in enumerate(l2b):
            if entry[0] == l2_line:
                if i + 1 != len(l2b):
                    del l2b[i]
                    l2b.append(entry)
                break
        else:
            if len(l2b) >= self._l2_assoc:
                del l2b[0]
            l2b.append((l2_line, False))
        self._fill_l1(bucket, line, is_store)

    def _fill_l1(self, bucket, line, is_store):
        if len(bucket) >= self._l1_assoc:
            victim, _dirty = bucket.pop(0)
            buffer = self._buffer
            if victim in buffer:
                del buffer[victim]
            elif len(buffer) >= self._buf_entries:
                del buffer[next(iter(buffer))]
            buffer[victim] = False  # refreshed provenance and-s to False
        bucket.append((line, bool(is_store)))

    def _train(self, line):
        for stream in self._streams:
            last, stride, confirmed = stream
            if confirmed:
                matched = line == last + stride
            else:
                matched = line == last + 1 or line == last - 1
            if matched:
                if not confirmed:
                    stream[1] = line - last
                    stream[2] = True
                stream[0] = line
                self._launch(line, stream[1], self._depth)
                return
        if len(self._streams) >= self._table_entries:
            self._streams.pop(0)
        self._streams.append([line, 0, False])
        if self._sequential:
            self._launch(line, 1, 1)

    def _launch(self, line, stride, depth):
        for step in range(1, depth + 1):
            target = line + stride * step
            if target < 0:
                break
            if target in self._buffer:
                continue
            if any(
                resident == target
                for resident, _dirty in self._l1[target & self._l1_mask]
            ):
                continue
            l2_line = target >> self._l2_delta
            l2b = self._l2[l2_line & self._l2_mask]
            if all(entry[0] != l2_line for entry in l2b):
                if len(l2b) >= self._l2_assoc:
                    del l2b[0]
                l2b.append((l2_line, False))
            if len(self._buffer) >= self._buf_entries:
                del self._buffer[next(iter(self._buffer))]
            self._buffer[target] = True

    def warm_image(self):
        return {
            "l1": [list(bucket) for bucket in self._l1],
            "l2": [list(bucket) for bucket in self._l2],
            "buffer": dict(self._buffer),
        }

    def stream_image(self):
        return [(last, stride, confirmed)
                for last, stride, confirmed in self._streams]


def _demand_trace(workload, depth):
    """The (addr, is_store) demand stream of the first *depth* warmed
    instructions, captured by running the per-instruction warming tier
    with a record-only access function (demand addresses depend only
    on architectural execution, never on cache state)."""
    from repro.harness import fastforward as ff

    run = ff._LiveRun(workload, FOUR_WIDE)
    trace = []

    def record(addr, is_store):
        trace.append((addr, bool(is_store)))

    ff._warm_steps(run.program, run.state, depth, record, run.predictor)
    return trace


@pytest.mark.parametrize("workload_name", sorted(registry.WORKLOAD_BUILDERS))
def test_flat_warm_state_matches_legacy_reference(workload_name):
    """Tentpole differential: on every workload's own demand stream,
    the production warm path (packed flat arrays + fused closure +
    trace-compiled bodies, via fast_forward) leaves exactly the state
    the legacy tuple-and-scan model defines — identical warm_image()
    payloads, and an identical snapshot digest once the reference
    images are substituted into the snapshot."""
    depth = 2_500
    workload = registry.build(workload_name, scale=0.1)
    snapshot = fast_forward(workload, FOUR_WIDE, depth)
    trace = _demand_trace(workload, depth)

    legacy = _LegacyWarmModel(FOUR_WIDE)
    for addr, is_store in trace:
        legacy.warm_access(addr, is_store)

    assert legacy.warm_image() == snapshot.hierarchy_image
    assert legacy.stream_image() == snapshot.prefetcher_image
    twin = dataclasses.replace(
        snapshot,
        hierarchy_image=legacy.warm_image(),
        prefetcher_image=legacy.stream_image(),
    )
    assert snapshot_digest(twin) == snapshot_digest(snapshot)


# ----------------------------------------------------------------------
# Parallel chain prebuild
# ----------------------------------------------------------------------


def test_parallel_prebuild_matches_serial_digests(tmp_path):
    """Prebuilding chains with a worker pool lands byte-identical
    snapshots — same store keys, same digests — as the serial walk;
    only the digest-masked built_by provenance stamp differs."""
    from repro.harness.fastforward import prebuild_snapshots

    cases = [
        ((0.1, 0.05), dict(fast_forward=1_000, sample=300,
                           sample_regions=2, sample_period=2_500)),
        ((0.2, 0.1), dict(fast_forward=2_000, sample=500,
                          sample_regions=3, sample_period=4_000)),
    ]

    def build(requests, jobs, root):
        store = SnapshotStore(root)
        built = prebuild_snapshots(requests, store=store, jobs=jobs)
        entries = {}
        for key, snap, _path in store.items():
            entries[key] = (snapshot_digest(snap), snap.built_by)
        return built, entries

    for case, (scales, plan) in enumerate(cases):
        requests = [
            RunRequest(workload=name, scale=scale, **plan)
            for name, scale in zip(("mcf", "gzip"), scales)
        ]
        serial_built, serial = build(requests, 1, tmp_path / f"s{case}")
        parallel_built, parallel = build(requests, 2, tmp_path / f"p{case}")
        assert serial_built == parallel_built > 0
        assert set(serial) == set(parallel)
        for key, (digest, _by) in serial.items():
            assert parallel[key][0] == digest
        assert {by for _digest, by in serial.values()} == {"serial"}
        assert {by for _digest, by in parallel.values()} == {"parallel"}


def _count_builds(monkeypatch) -> list:
    """Record every ``registry.build`` this process makes from here on
    (forked pool workers count into their own copy, not this one)."""
    from repro.harness import parallel

    builds = []
    build = registry.build

    def counting(name, *args, **kwargs):
        builds.append(name)
        return build(name, *args, **kwargs)

    monkeypatch.setattr(registry, "build", counting)
    monkeypatch.setattr(parallel, "_last_workload", None)
    return builds


def test_closed_form_schedules_build_nothing_in_the_parent(
    tmp_path, monkeypatch
):
    """A sampled figure's plans have explicit periods, so scheduling
    them (chain prebuild and window explosion) needs no workload: the
    parent builds nothing, and the pool workers build the chains."""
    from repro.harness.experiments import sampled_plan
    from repro.harness.fastforward import prebuild_snapshots
    from repro.harness.parallel import window_schedule

    builds = _count_builds(monkeypatch)
    requests = [
        RunRequest(name, mode=mode, **sampled_plan(name, 5_000))
        for name in registry.all_names()
        for mode in ("base", "slice", "limit")
    ]
    store = SnapshotStore(tmp_path)
    assert prebuild_snapshots(requests, store=store, jobs=2) > 0
    for request in requests:
        window_schedule(request)
    assert builds == []


def test_derived_period_sweep_builds_its_workload_once(cache_env, monkeypatch):
    """A derived period needs the workload's region length: a
    window-parallel sweep's eight requests read it from one shared
    build in the parent."""
    from repro.workloads.registry import WorkloadRef

    builds = _count_builds(monkeypatch)
    points = sweep_memory_latency(
        WorkloadRef("mcf", 0.2), latencies=(50, 100, 200, 400), jobs=2,
        cache=RunCache(enabled=False), sample=300, sample_regions=4,
    )
    assert all(p.base.sample_regions >= 2 for p in points)
    assert len(builds) <= 1
