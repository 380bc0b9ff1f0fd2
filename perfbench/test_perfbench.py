"""The benchmark's own checks: tracing must not perturb what it measures,
the digest gate must fail a changed report, and the metric names printed
must be the ones ``BENCHMARK.json`` declares.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace

import pytest

import env
import run
import tracer as tr
from workloads import WORKLOADS, _config, seed_run

nfa = env.load_nfa()

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())

# The real workloads in miniature: same code paths, a fraction of a second each.
TINY = {
    name: replace(w, config=_config(w.config["cascade"]["preset"],
                                    w.config["penalty"]["enabled"], n_source=128,
                                    n_target=128, pretrain_epochs=2, stage1_epochs=2,
                                    stage2_epochs=1))
    for name, w in WORKLOADS.items()
}


@pytest.fixture(autouse=True)
def no_output_root(monkeypatch):
    monkeypatch.delenv("NFA_OUTPUT_ROOT", raising=False)


def _namespaces():
    """Every namespace a tracer may patch: the nfa modules and their classes."""
    spaces = [m for name, m in sys.modules.items() if name == "nfa" or name.startswith("nfa.")]
    spaces += [v for m in list(spaces) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("nfa.")]
    return spaces


def _traced(workload, seed, out_dir):
    layer = tr.Tracer(nfa, layers=True)
    layer.install(0)
    try:
        digest, _, problems = seed_run(nfa, workload, seed, out_dir)
    finally:
        layer.restore()
    assert problems == []
    return digest, layer


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_reports_and_attributes_unchanged(name, tmp_path):
    before = [(space, dict(vars(space))) for space in _namespaces()]
    plain, _, problems = seed_run(nfa, TINY[name], 3, tmp_path / "plain")
    assert problems == []
    traced, layer = _traced(TINY[name], 3, tmp_path / "traced")
    assert traced == plain
    assert layer.tensors[0] > 0 and layer.runs[0]
    for space, attrs in before:
        now = vars(space)
        assert now.keys() == attrs.keys(), space
        assert all(now[k] is v for k, v in attrs.items()), space


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_counts_repeat_exactly(name, tmp_path):
    counts = []
    for attempt in range(2):
        _, layer = _traced(TINY[name], 5, tmp_path / str(attempt))
        metrics = run.layer_metrics(layer, {0: tr.LayerStats(layer, 0)})
        counts.append({k: v for k, (v, unit, _) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.tensors"] > 0
    assert counts[0]["cell.path_evals_per_forward"] > 1


def _gate(digests):
    """A gate over the miniature workloads, whose seeds have no reference."""
    gate = run.Gate("tiny", env.fingerprint())
    gate.digests = digests
    return gate


def test_digest_gate_fails_changed_reports(tmp_path):
    digest, _, _ = seed_run(nfa, TINY["oracle_toy3"], 0, tmp_path / "a")
    gate = _gate({"0": digest, "1": "0" * 64})
    _, attempted, failed, _ = run.run_plain(nfa, TINY["oracle_toy3"], 0, 0.0, gate, tmp_path)
    assert (attempted, failed) == (run.MIN_SEED_RUNS, 1)
    assert gate.unreferenced == attempted - 2


def test_printed_metrics_are_the_declared_ones(tmp_path):
    plain, _, failed, _ = run.run_plain(nfa, TINY["search_toy6"], 0, 0.0, _gate({}), tmp_path)
    traced, _, failed_traced, _ = run.run_traced(nfa, TINY["search_toy6"], 0, 0.0, _gate({}),
                                                 tmp_path)
    assert failed == failed_traced == 0
    assert list(plain) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced) == [m["name"] for m in BENCHMARK["per_layer"]]
    for kind, metrics in (("end_to_end", plain), ("per_layer", traced)):
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {name: unit for name, (_, unit, _) in metrics.items()} == units
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in BENCHMARK["workloads"])
