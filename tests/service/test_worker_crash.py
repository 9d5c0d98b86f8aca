"""Queue crash safety: a worker process killed mid-lease (via the PR 3
FaultPlan, ``os._exit`` while the job is leased) must not lose the job
— the lease expires, another worker re-claims it, and the job
completes exactly once with a result bit-identical to an undisturbed
in-process run."""

import multiprocessing
import pickle
import time

from repro.harness.cache import RunCache, fingerprint
from repro.harness.faults import CRASH_EXIT_CODE, FaultKind, FaultPlan
from repro.harness.parallel import RunRequest, run_matrix
from repro.service.queue import JobQueue
from repro.service.store import ContentStore
from repro.service.worker import Worker

VPR = RunRequest(workload="vpr", scale=0.05)


def _run_crashing_worker(root: str) -> None:
    """Child-process entry: claim the job, then die holding the lease
    (FaultPlan CRASH at attempt 0 is ``os._exit``, not an exception)."""
    plan = FaultPlan.targeting({(VPR, 0): FaultKind.CRASH})
    worker = Worker(
        store=ContentStore(root),
        lease=1.0,
        fault_plan=plan,
    )
    worker.run(max_jobs=1)


def test_killed_worker_job_is_releashed_and_completes_once(tmp_path):
    root = tmp_path / "cache"
    queue = JobQueue(root)
    key, _ = queue.submit(VPR)

    process = multiprocessing.Process(
        target=_run_crashing_worker, args=(str(root),)
    )
    process.start()
    process.join(60)
    assert process.exitcode == CRASH_EXIT_CODE

    # The corpse still owns the lease: the job is neither lost nor done.
    job = queue.job(key)
    assert job.status == "leased"
    assert job.attempts == 1

    # Before the lease deadline the job is invisible to other workers.
    if job.lease_deadline - time.time() > 0.05:
        assert queue.claim("early-bird") is None

    # Once the lease expires, a live worker re-claims and finishes it.
    time.sleep(max(0.0, job.lease_deadline - time.time()) + 0.05)
    store = ContentStore(root)
    survivor = Worker(store=store, queue=queue, lease=10.0)
    assert survivor.run(drain=True) == 1
    assert survivor.completed == 1

    job = queue.job(key)
    assert job.status == "done"
    assert job.attempts == 2  # crash charged one, the re-run another
    assert queue.counters()["lease_expiries"] == 1
    assert queue.counters()["completed"] == 1

    # Exactly once: nothing left for anyone else.
    idle = Worker(store=store, queue=queue)
    assert idle.run(drain=True) == 0

    # And the recovered result is bit-identical to an undisturbed run.
    expected = run_matrix([VPR], jobs=1, cache=RunCache(tmp_path / "ref"))
    recovered = store.runs.get_by_key(fingerprint(VPR))
    assert pickle.dumps(recovered) == pickle.dumps(expected[0])
    queue.close()


def test_zombie_worker_cannot_complete_a_relased_job(tmp_path):
    """Owner-checked completion: a worker that lost its lease cannot
    resolve the job out from under the current owner."""
    queue = JobQueue(tmp_path / "cache")
    key, _ = queue.submit(VPR)
    queue.claim("zombie", lease=0.01)
    time.sleep(0.05)
    release = queue.claim("live", lease=30.0)
    assert release is not None
    assert not queue.complete(key, "zombie")
    assert queue.job(key).status == "leased"
    assert queue.complete(key, "live")
    queue.close()
