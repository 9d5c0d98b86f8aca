"""Tests for the ``REPRO_*`` knob table."""

import pathlib
import re

import repro
from repro import settings


def test_empty_variable_is_unset(monkeypatch):
    for setting in settings.SETTINGS:
        monkeypatch.setenv(setting.env, "")
        assert settings.get(setting.name) == setting.default


def test_service_url_is_normalized(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_URL", "  http://host:8737//  ")
    assert settings.get("service") == "http://host:8737"
    monkeypatch.setenv("REPRO_SERVICE_URL", "   ")
    assert settings.get("service") is None


def test_only_the_table_reads_repro_variables():
    """No module but ``repro/settings.py`` reads a REPRO_* variable."""
    root = pathlib.Path(repro.__file__).parent
    read = re.compile(r"(environ|getenv)\b[^\n]*[\"']REPRO_")
    readers = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path != root / "settings.py" and read.search(path.read_text())
    ]
    assert readers == []
