"""Workload registry: the twelve SPEC2000int analogs, in paper order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.workloads import (
    bzip2,
    crafty,
    eon,
    gap,
    gcc,
    gzip,
    mcf,
    parser_wl,
    perl,
    twolf,
    vortex,
    vpr,
)
from repro.workloads.base import Workload

#: name -> builder, ordered as in the paper's tables.
WORKLOAD_BUILDERS: dict[str, Callable[..., Workload]] = {
    "bzip2": bzip2.build,
    "crafty": crafty.build,
    "eon": eon.build,
    "gap": gap.build,
    "gcc": gcc.build,
    "gzip": gzip.build,
    "mcf": mcf.build,
    "parser": parser_wl.build,
    "perl": perl.build,
    "twolf": twolf.build,
    "vortex": vortex.build,
    "vpr": vpr.build,
}

#: Benchmarks for which the paper constructed slices (Table 3 set plus
#: the Table 4 perl entry).
SLICE_BENCHMARKS = (
    "bzip2",
    "crafty",
    "eon",
    "gap",
    "gcc",
    "gzip",
    "mcf",
    "perl",
    "twolf",
    "vortex",
    "vpr",
)


@dataclass(frozen=True)
class WorkloadRef:
    """A workload named, not built: the ``name`` and ``scale`` a
    :class:`Workload` would carry, for code that only needs to say
    which workload it means (result records, sweep requests)."""

    name: str
    scale: float


def build(name: str, scale: float = 1.0) -> Workload:
    """Build workload *name* at the given *scale*.

    Besides the twelve registered benchmarks, seed-named generated
    workloads (``fuzz-0x2a``) dispatch to
    :mod:`repro.workloads.synthetic` — they carry their whole identity
    in the name, so they are rebuildable anywhere a request travels
    without being registry entries.
    """
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        from repro.workloads import synthetic

        if synthetic.is_synthetic(name):
            return synthetic.build(name, scale=scale)
        known = ", ".join(WORKLOAD_BUILDERS)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    workload = builder(scale=scale)
    workload.scale = scale
    return workload


def all_names() -> tuple[str, ...]:
    return tuple(WORKLOAD_BUILDERS)
