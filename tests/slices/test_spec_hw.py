"""Tests for SliceSpec validation and the slice/PGI tables (Figure 6)."""

import pytest

from repro.isa import Assembler
from repro.slices.hw import (
    PGITable,
    PGITableFullError,
    SliceTable,
    SliceTableFullError,
)
from repro.slices.spec import KillKind, KillSpec, PGISpec, SliceSpec


def make_slice(name="s", fork_pc=0x1000, base_pc=0x9000, n_pgis=1, loop=False):
    asm = Assembler(base_pc=base_pc)
    asm.label("entry")
    pgi_insts = []
    for i in range(n_pgis):
        pgi_insts.append(asm.cmplt(f"r{i + 1}", "r10", imm=5))
    if loop:
        asm.label("back")
        asm.bgt("r1", "entry")
    asm.halt()
    code = asm.build()
    return SliceSpec(
        name=name,
        fork_pc=fork_pc,
        code=code,
        entry_pc=code.pc_of("entry"),
        live_in_regs=(10,),
        pgis=tuple(
            PGISpec(slice_pc=inst.pc, branch_pc=0x2000 + 4 * i)
            for i, inst in enumerate(pgi_insts)
        ),
        kills=(KillSpec(kill_pc=0x3000, kind=KillKind.LOOP),),
        max_iterations=4 if loop else None,
        loop_back_pc=code.pc_of("back") if loop else None,
    )


def test_spec_reports_sizes_and_coverage():
    spec = make_slice(n_pgis=2)
    assert spec.static_size == len(spec.code)
    assert spec.covered_branch_pcs == {0x2000, 0x2004}


def test_spec_requires_loop_back_pc_with_max_iterations():
    asm = Assembler(base_pc=0x9000)
    asm.halt()
    code = asm.build()
    with pytest.raises(ValueError, match="loop_back_pc"):
        SliceSpec(
            name="bad",
            fork_pc=0x1000,
            code=code,
            entry_pc=0x9000,
            live_in_regs=(),
            max_iterations=3,
        )


def test_spec_validates_pgi_pcs():
    asm = Assembler(base_pc=0x9000)
    asm.halt()
    code = asm.build()
    with pytest.raises(ValueError, match="PGI"):
        SliceSpec(
            name="bad",
            fork_pc=0x1000,
            code=code,
            entry_pc=0x9000,
            live_in_regs=(),
            pgis=(PGISpec(slice_pc=0x100, branch_pc=0x2000),),
        )


def test_pgi_direction_and_invert():
    pgi = PGISpec(slice_pc=0, branch_pc=0)
    assert pgi.direction_of(1) is True
    assert pgi.direction_of(0) is False
    inverted = PGISpec(slice_pc=0, branch_pc=0, invert=True)
    assert inverted.direction_of(1) is False


def test_slice_table_match():
    table = SliceTable(entries=4)
    spec = make_slice()
    table.load(spec)
    # The fork-PC CAM the core consults at fetch.
    assert table._by_fork_pc.get(spec.fork_pc) == [spec]
    assert table._by_fork_pc.get(0xBEEF) is None
    assert len(table) == 1


def test_slice_table_capacity_enforced():
    table = SliceTable(entries=1)
    table.load(make_slice("a", base_pc=0x9000))
    with pytest.raises(SliceTableFullError):
        table.load(make_slice("b", fork_pc=0x1100, base_pc=0xA000))


def test_two_slices_can_share_a_fork_pc():
    table = SliceTable(entries=4)
    a = make_slice("a", base_pc=0x9000)
    b = make_slice("b", base_pc=0xA000)
    table.load(a)
    table.load(b)
    assert table._by_fork_pc[a.fork_pc] == [a, b]


def test_pgi_table_lookup():
    table = PGITable(entries=8)
    spec = make_slice(n_pgis=2)
    table.load(spec)
    pgi = spec.pgis[1]
    assert table.lookup(spec.name, pgi.slice_pc) is pgi
    assert table.lookup(spec.name, 0xDEAD) is None
    assert table.lookup("other", pgi.slice_pc) is None
    assert len(table) == 2


def test_pgi_table_capacity_enforced():
    table = PGITable(entries=1)
    with pytest.raises(PGITableFullError):
        table.load(make_slice(n_pgis=2))
