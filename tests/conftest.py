"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def _restore_repro_env():
    """``repro.harness.cli.main`` exports every knob flag it is given to
    its ``REPRO_*`` variable; undo that after each test so one test's
    flags never become the next test's defaults."""
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(saved)
