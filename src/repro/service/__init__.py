"""Distributed experiment service: client/server halves of the harness.

The ROADMAP's "millions of users" story: hot results are *served*, not
recomputed. This package splits :func:`repro.harness.parallel.run_matrix`
into reusable halves:

* :mod:`repro.service.queue` — a persistent, crash-safe job queue of
  :class:`~repro.harness.parallel.RunRequest`\\ s (SQLite under
  ``.repro_cache/queue/``) with worker lease/claim/heartbeat semantics.
* :mod:`repro.service.store` — :class:`ContentStore`: the run cache
  plus its windows, snapshots and fuzz namespaces on one cache root,
  with stats, clear and persistent hit/miss counters.
* :mod:`repro.service.server` — ``repro serve``: an asyncio HTTP API
  that answers sweep queries from the store in O(1) and enqueues only
  misses.
* :mod:`repro.service.worker` — ``repro worker``: a process (on any
  machine sharing the cache root) that drains the queue under the
  fault-layer retry/timeout discipline and publishes results back
  through the store.
* :mod:`repro.service.client` — the thin HTTP client ``run_matrix``
  becomes when ``REPRO_SERVICE_URL`` is set.

Service-mode and in-process execution are bit-identical (the simulator
is deterministic and both publish through the same content-addressed
store); ``tests/service/test_service.py`` asserts exactly that.
"""

from repro.service.store import ContentStore  # noqa: F401
