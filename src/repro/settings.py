"""The ``REPRO_*`` knobs: one table, one reader.

Each :class:`Setting` row names one knob once: its environment
variable, its ``repro`` CLI flag (``None`` for ``REPRO_CACHE_DIR``),
the parser that reads the variable's text, the default for an unset or
empty variable, and the flag's help text. ``repro`` generates its knob
flags from :data:`SETTINGS` and exports every flag the user set to the
variable, so experiments, sweeps, pool workers and service workers
all see the same values without threading them through each call.

:func:`get` is the only reader of a ``REPRO_*`` variable in the
package. It reads the environment at call time, never at import time:
tests monkeypatch the environment, and pool workers inherit it.
Stdlib only, so any module can import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable


def boolean(text: str) -> bool:
    """A boolean knob: ``""`` and ``"0"`` are off, anything else on."""
    return text not in ("", "0")


def url(text: str) -> str | None:
    """A service endpoint, stripped of whitespace and trailing ``/``
    (``None`` when nothing is left)."""
    return text.strip().rstrip("/") or None


#: ``on_error`` policies for requests that exhaust their retries.
ON_ERROR_POLICIES = ("raise", "skip")


@dataclass(frozen=True)
class Setting:
    """One knob. ``name`` is also the CLI flag's ``argparse`` dest."""

    name: str
    env: str
    flag: str | None
    parse: Callable[[str], object]
    default: object
    help: str | None = None
    metavar: str | None = None
    choices: tuple[str, ...] | None = None


SETTINGS: tuple[Setting, ...] = (
    Setting(
        "scale", "REPRO_SCALE", "--scale", float, 0.35,
        "workload scale (default: REPRO_SCALE env or 0.35; 1.0 = full)",
    ),
    Setting(
        # ``None``: :func:`repro.harness.parallel.resolve_jobs` falls
        # back to the CPU count.
        "jobs", "REPRO_JOBS", "--jobs", int, None,
        "worker processes (default: REPRO_JOBS env or CPU count)",
    ),
    Setting(
        "timeout", "REPRO_TIMEOUT", "--timeout", float, None,
        "per-request wall-clock budget; a simulation over budget is "
        "terminated and retried (default: REPRO_TIMEOUT env or none)",
        metavar="SECONDS",
    ),
    Setting(
        "retries", "REPRO_RETRIES", "--retries", int, 0,
        "extra attempts per request after a crash/timeout/transient "
        "failure (default: REPRO_RETRIES env or 0)",
        metavar="N",
    ),
    Setting(
        "on_error", "REPRO_ON_ERROR", "--on-error", str, "raise",
        "what to do when a request exhausts its retries: 'raise' "
        "aborts the experiment (default), 'skip' records the failure, "
        "finishes the matrix, and exits with code 3",
        choices=ON_ERROR_POLICIES,
    ),
    Setting(
        "no_skip", "REPRO_NO_SKIP", "--no-skip", boolean, False,
        "disable event-driven cycle skipping in the core loop "
        "(step every cycle; slower, for differential testing)",
    ),
    Setting(
        "fast_forward", "REPRO_FAST_FORWARD", "--fast-forward", int, 0,
        "sampled simulation: execute the first N instructions of "
        "every run on the functional fast-forward tier (with "
        "functional cache/predictor warming) and restore the "
        "detailed core from the warmed snapshot (cached under "
        ".repro_cache/snapshots/)",
        metavar="N",
    ),
    Setting(
        "sample", "REPRO_SAMPLE", "--sample", int, 0,
        "sampled simulation: measure N committed instructions "
        "(after a detailed-warming discard window of min(N/10, "
        "2000)) instead of the workload's full region",
        metavar="N",
    ),
    Setting(
        "sample_regions", "REPRO_SAMPLE_REGIONS", "--sample-regions",
        int, 0,
        "multi-region sampling: run N periodic detailed windows of "
        "--sample instructions each, fast-forwarding between them "
        "along a shared snapshot chain, and report the mean with a "
        "95%% confidence interval (0/1 = single window)",
        metavar="N",
    ),
    Setting(
        "sample_period", "REPRO_SAMPLE_PERIOD", "--sample-period", int, 0,
        "instructions between multi-region window starts; needs "
        "--sample-regions >= 2 (default: spread the windows "
        "uniformly over the workload's region)",
        metavar="N",
    ),
    Setting(
        "service", "REPRO_SERVICE_URL", "--service", url, None,
        "run experiment matrices through a remote experiment "
        "service ('repro serve') instead of the in-process pool; "
        "cache hits still resolve locally (default: "
        "REPRO_SERVICE_URL env or in-process)",
        metavar="URL",
    ),
    Setting("cache_dir", "REPRO_CACHE_DIR", None, str, ".repro_cache"),
)

_BY_NAME = {setting.name: setting for setting in SETTINGS}


def get(name: str):
    """The value of knob *name*: its variable parsed, or the default
    when the variable is unset or empty. A malformed value raises
    :class:`ValueError` naming the variable and its text."""
    setting = _BY_NAME[name]
    text = os.environ.get(setting.env, "")
    if not text:
        return setting.default
    try:
        value = setting.parse(text)
    except ValueError as exc:
        raise ValueError(f"{setting.env}={text!r}: {exc}") from None
    if setting.choices is not None and value not in setting.choices:
        raise ValueError(
            f"{setting.env}={text!r}: expected one of {setting.choices}"
        )
    return value
