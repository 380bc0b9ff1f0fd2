"""The benchmark's traced mode as a test: a miniature traced seed-run of each
workload must give every per-layer metric that ``BENCHMARK.json`` declares.

``perfbench/run.py:layer_metrics`` divides by the seed-run's backward passes
and by its ``NfaCell.forward`` calls, and the tracer wraps its targets by
name, so a change that removes the last graph backward, the last graph cell
forward or a traced name breaks ``python3 perfbench/run.py --trace 1``. This
test catches that in tier-1. It reads ``perfbench/`` and changes nothing there.
"""

import copy
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import nfa

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_run():
    """``perfbench/run.py`` as a module; it imports its siblings by bare name,
    so they are importable only while it loads."""
    siblings = ("env", "tracer", "workloads")
    before = {name: sys.modules.get(name) for name in siblings}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, old in before.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    return module


run = _load_run()
tracer = run.tr
DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# the tracing overheads are the ratio of an untraced and a traced run's
# timings, which run_traced adds; every other per-layer metric is layer_metrics'
LAYER = [name for name in DECLARED if not name.startswith("trace.")]


def miniature(workload):
    """``workload`` with less data and fewer epochs, and the same cascade,
    adapters, penalty and oracle: at least two architecture steps, so the
    step latencies have a 90th percentile."""
    config = copy.deepcopy(workload.config)
    config["data"] = {"n_source": 128, "n_target": 128}
    config["pretrain"]["epochs"] = 1
    config["search"].update(stage1_epochs=1, stage2_epochs=1)
    return replace(workload, config=config)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_seed_run_gives_every_declared_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NFA_OUTPUT_ROOT", raising=False)
    layer = tracer.Tracer(nfa, layers=True)
    outcome = run.attempt(nfa, miniature(run.WORKLOADS[name]), 0, layer, 0, tmp_path)
    assert outcome.ok and outcome.digest is not None
    metrics = run.layer_metrics(layer, {0: tracer.LayerStats(layer, 0)})
    assert [n for n in LAYER if n not in metrics] == []
    assert metrics["autodiff.backward.calls"][0] > 0
    assert metrics["cell.NfaCell.forward.calls"][0] > 0
