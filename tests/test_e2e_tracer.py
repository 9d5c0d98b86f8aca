"""The end-to-end benchmark's tracer (``benchmarks/e2e/trace.py``)
wraps functions and classes of ``src`` by name. Installing it here
makes a ``src`` deletion that the tracer still names fail this suite,
not only the benchmark's own smoke run. The tracer is only read."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "e2e" / "trace.py"

#: Loads the tracer under its own module name (``trace`` would shadow
#: the standard library's) and installs every wrapper.
INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("e2e_trace", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.install(sys.argv[2])
"""


def test_benchmark_tracer_installs_against_src(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(TRACER), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
