"""Minimal-repro corpus: persistence + replay for divergent seeds.

Cases live under ``<cache root>/fuzz/`` (the ``fuzz`` namespace of
:class:`~repro.service.store.ContentStore`, which lists, quarantines
and clears them) as one
self-contained JSON *replay file* per seed: the full shrunk program
(instructions, labels, data image, slices), the recorded divergence
classification, and the shrink provenance. JSON rather than pickle so a
repro is diffable, reviewable, and committable into ``tests/`` as a
regression fixture — promoted cases in ``tests/fuzz/corpus/`` replay
through exactly this module.

Replaying rebuilds the workload from the file and re-runs the full
differential check, so a case's verdict always reflects the *current*
tree: a fixed bug replays clean, a regression resurfaces it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.fuzz.diff import Divergence, check_workload
from repro.harness.blobstore import resolve_cache_root
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.slices.spec import SliceSpec
from repro.workloads.base import Workload

#: Bump when the case schema changes; loaders reject other versions.
SCHEMA_VERSION = 1

#: Subdirectory of the cache root holding the corpus.
CORPUS_SUBDIR = "fuzz"

CASE_SUFFIX = ".repro.json"

#: Top-level fields every replay file carries.
_CASE_FIELDS = frozenset(
    ("seed", "scale", "name", "region", "divergence", "size",
     "original_size", "program", "slices")
)


def corpus_root(cache_root: str | os.PathLike | None = None) -> Path:
    """Corpus directory (not created until a case is saved)."""
    return resolve_cache_root(cache_root) / CORPUS_SUBDIR


def _encode_program(program: Program) -> dict:
    return {
        "base_pc": program.base_pc,
        "entry_pc": program.entry_pc,
        "instructions": [
            [
                inst.op.name,
                inst.rd,
                inst.ra,
                inst.rb,
                inst.imm,
                inst.target,
                inst.pc,
            ]
            for inst in program.instructions
        ],
        "labels": dict(program.labels),
        "data_symbols": dict(program.data_symbols),
        "data": [[addr, value] for addr, value in sorted(program.data.items())],
    }


def _decode_program(payload: dict) -> Program:
    return Program(
        instructions=[
            Instruction(
                op=Opcode[op],
                rd=rd,
                ra=ra,
                rb=rb,
                imm=imm,
                target=target,
                pc=pc,
            )
            for op, rd, ra, rb, imm, target, pc in payload["instructions"]
        ],
        base_pc=payload["base_pc"],
        data={addr: value for addr, value in payload["data"]},
        labels=dict(payload["labels"]),
        data_symbols=dict(payload["data_symbols"]),
        entry_pc=payload["entry_pc"],
    )


def _encode_slice(spec: SliceSpec) -> dict:
    return {
        "name": spec.name,
        "fork_pc": spec.fork_pc,
        "entry_pc": spec.entry_pc,
        "live_in_regs": list(spec.live_in_regs),
        "prefetch_for": [
            [slice_pc, main_pc]
            for slice_pc, main_pc in sorted(spec.prefetch_for.items())
        ],
        "code": _encode_program(spec.code),
    }


def _decode_slice(payload: dict) -> SliceSpec:
    return SliceSpec(
        name=payload["name"],
        fork_pc=payload["fork_pc"],
        code=_decode_program(payload["code"]),
        entry_pc=payload["entry_pc"],
        live_in_regs=tuple(payload["live_in_regs"]),
        prefetch_for={
            slice_pc: main_pc
            for slice_pc, main_pc in payload["prefetch_for"]
        },
    )


def save_case(
    workload: Workload,
    divergence: Divergence,
    original_size: int | None = None,
    cache_root: str | os.PathLike | None = None,
) -> Path:
    """Persist one (possibly shrunk) repro; returns the replay file."""
    from repro.fuzz.shrink import workload_size

    root = corpus_root(cache_root)
    root.mkdir(parents=True, exist_ok=True)
    size = workload_size(workload)
    case = {
        "schema": SCHEMA_VERSION,
        "seed": divergence.seed,
        "scale": divergence.scale,
        "name": workload.name,
        "region": workload.region,
        "divergence": {
            "tier_a": divergence.tier_a,
            "tier_b": divergence.tier_b,
            "kind": divergence.kind,
            "detail": divergence.detail,
        },
        "size": size,
        "original_size": original_size if original_size is not None else size,
        "program": _encode_program(workload.program),
        "slices": [_encode_slice(spec) for spec in workload.slices],
    }
    path = root / f"{divergence.seed:#x}{CASE_SUFFIX}"
    path.write_text(json.dumps(case, indent=1, sort_keys=True) + "\n")
    return path


def check_case(case: dict) -> dict:
    """Schema-check one decoded replay file."""
    schema = case.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"corpus schema {schema!r}, expected {SCHEMA_VERSION}"
        )
    missing = _CASE_FIELDS - case.keys()
    if missing:
        raise ValueError(f"corpus case lacks {sorted(missing)}")
    return case


def load_case(path: str | os.PathLike) -> dict:
    """Load and schema-check one replay file."""
    return check_case(json.loads(Path(path).read_text()))


def case_workload(case: dict) -> Workload:
    """Rebuild the runnable workload recorded in *case*."""
    return Workload(
        name=case["name"],
        program=_decode_program(case["program"]),
        memory_image={
            addr: value for addr, value in case["program"]["data"]
        },
        region=case["region"],
        description=f"fuzz corpus repro (seed {case['seed']:#x})",
        slices=tuple(_decode_slice(s) for s in case["slices"]),
        scale=case["scale"],
    )


def replay(path: str | os.PathLike) -> Divergence | None:
    """Re-run the differential check for a stored case against the
    current tree. ``None`` means the recorded bug no longer reproduces."""
    case = load_case(path)
    return check_workload(case_workload(case), seed=case["seed"])


def list_cases(cache_root: str | os.PathLike | None = None) -> list[dict]:
    """Summaries for ``repro fuzz ls``, one dict per stored case that
    loads; a corrupt case is quarantined by the fuzz namespace."""
    from repro.service.store import FuzzNamespace

    summaries = []
    for _key, case, _path in FuzzNamespace(cache_root).items():
        d = case["divergence"]
        summaries.append(
            {
                "seed": case["seed"],
                "scale": case["scale"],
                "klass": f"{d['kind']}:{d['tier_a']}/{d['tier_b']}",
                "size": case["size"],
                "original_size": case["original_size"],
                "region": case["region"],
            }
        )
    return summaries
