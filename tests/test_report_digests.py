"""The benchmark's report digests as a test: seed-runs of both workloads must
write exactly the bytes recorded in ``perfbench/reference.json``.

Reads ``perfbench/`` and changes nothing there. Skips where the reference
was recorded on a machine that computes different bits.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nfa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


env = _load("env")
workloads = _load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("seed", [0, 170])
@pytest.mark.parametrize("workload", ["search_toy6", "oracle_toy3"])
def test_seed_run_reports_match_reference(tmp_path, monkeypatch, workload, seed):
    if env.fingerprint() != REFERENCE["fingerprint"]:
        pytest.skip("reference.json was recorded where numpy/BLAS/CPU differ")
    monkeypatch.delenv("NFA_OUTPUT_ROOT", raising=False)
    digest, _, problems = workloads.seed_run(nfa, workloads.WORKLOADS[workload], seed, tmp_path)
    assert problems == []
    assert digest == REFERENCE["digests"][workload][str(seed)]
