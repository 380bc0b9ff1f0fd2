"""The benchmark's set-up probe as a test: ``perfbench/setup_probe.py``
calls ``harness`` functions by name in a fresh interpreter, so renaming or
folding one of them breaks the benchmark while every in-process test still
passes. Reads ``perfbench/`` and changes nothing there."""

import subprocess
import sys
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


@pytest.mark.parametrize("workload", ["search_toy6", "oracle_toy3"])
def test_setup_probe_prints_its_seconds(workload):
    done = subprocess.run([sys.executable, str(PROBE), workload, "0"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seconds = float(done.stdout.splitlines()[-1])
    assert seconds > 0
