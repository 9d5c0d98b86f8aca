"""Fuzz-suite fixtures."""

import pytest

from repro.arch.memory import Memory, to_signed


def _store_without_journal(self, addr, value):
    """``Memory.store`` minus its journal append."""
    self._words[addr & ~7] = to_signed(value)


@pytest.fixture
def broken_store_journal(monkeypatch):
    """The injected-bug fixture: stores stop journaling the word they
    overwrite, so wrong-path stores survive rollback and leak into
    architectural state. The functional oracle runs with journaling off
    and is unaffected; every detailed tier inherits the bug. The classic
    "tier that is fast and wrong" — exactly what the fuzzer exists for."""
    monkeypatch.setattr(Memory, "store", _store_without_journal)
