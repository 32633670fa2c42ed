"""The benchmark's tracer wraps exacthom functions by name from outside
(perfbench/tracing.py); a rename in the package must fail here, not only in
the benchmark's own smoke test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("abelian", "cli", "grouphom", "koszul", "linalg", "powers", "presets", "verify")

# Runs in a child process: install() rebinds module globals for good.
SCRIPT = f"""
import importlib, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
for name in {MODULES!r}:
    importlib.import_module("exacthom." + name)
import tracing
tracing.Tracer().install()
"""


def test_tracer_installs_on_every_wrapped_function():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
