"""The benchmark's workloads and one seed-run of each.

A seed-run is what a user does for one seed: ``harness.run_experiment`` on
the workload's config, then the budget-matched oracle check of the searched
scheme. Where the scheme space fits under the oracle cap (toy3, 27 schemes)
that check is the full ``harness.enumerate_oracle`` ranking, as in acceptance
criterion 5; on toy6 (729 schemes) it is ``harness.train_fixed_scheme`` on the
searched scheme alone, the same retraining the oracle does per scheme.
Both kinds of workload therefore run every phase the end-to-end metrics time.

Each seed-run ends with a digest of everything it reported, which the
benchmark compares against the reference digests in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

# Written into every report's config hash: it must never depend on where a
# run writes, so the run directory goes to ``run_experiment(out_dir=...)``.
OUTPUT_DIR = "runs"

REPORT_FILES = (
    "architecture.json",
    "metrics.csv",
    "checkpoints/stage1.bin",
    "checkpoints/stage1.json",
    "checkpoints/stage2.bin",
    "checkpoints/stage2.json",
)


def _config(preset, penalty_enabled, n_source=1024, n_target=512, pretrain_epochs=30,
            stage1_epochs=8, stage2_epochs=4):
    """The acceptance-suite experiment config, with the knobs the workloads vary."""
    return {
        "cascade": {"preset": preset},
        "adapters": ["BA"],
        "mode": "NFA",
        "penalty": {"pfr_policy": "half_finetune", "coefficient": 1.0,
                    "enabled": penalty_enabled},
        "search": {"stage1_epochs": stage1_epochs, "stage2_epochs": stage2_epochs,
                   "lr_network": 0.01, "lr_arch": 0.05, "batch_size": 32, "seed": 0},
        "pretrain": {"epochs": pretrain_epochs, "lr": 0.01, "batch_size": 32},
        "data": {"n_source": n_source, "n_target": n_target},
        "output_dir": OUTPUT_DIR,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    full_oracle: bool  # enumerate every scheme, else retrain the searched one
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search_toy6", _config("toy6", True), False,
            "overhead-bound 16-wide search: stage 1 runs every path of every cell, "
            "so per-node engine cost and single-path stepping show here",
        ),
        Workload(
            "oracle_toy3", _config("toy3", False), True,
            "criterion-5 seed: toy3 search plus all 27 fixed schemes on one frozen "
            "backbone, so oracle reuse shows and search changes barely move oracle_s",
        ),
    )
}


def _digest_files(h, out_dir):
    for name in REPORT_FILES:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())


def _check_reports(nfa, result, out_dir):
    """Cheap invariants that hold for any seed: the reports on disk say what
    the run returned. They back the digest gate for seeds it does not cover."""
    harness = nfa.harness
    problems = []
    if harness.import_architecture(out_dir / "architecture.json") != result.decision:
        problems.append("architecture.json does not round-trip to the returned decision")
    saved = harness.load_checkpoint(out_dir / "checkpoints" / "stage2")
    live = harness.snapshot_tensors(result.search.cells)
    if saved.keys() != live.keys() or any(
            not (saved[k] == live[k]).all() for k in live):
        problems.append("stage-2 checkpoint differs from the final tensors")
    return problems


def seed_run(nfa, workload, seed, out_dir):
    """Run one seed of ``workload`` writing reports under ``out_dir``.

    Returns ``(digest, timings, problems)``: the sha256 of the reports,
    the wall time of the two public calls, and failed invariants.
    """
    harness = nfa.harness
    out_dir = Path(out_dir)
    cfg = nfa.config.config_from_dict(workload.config)

    t0 = time.perf_counter()
    result = harness.run_experiment(cfg, seed=seed, out_dir=out_dir)
    t1 = time.perf_counter()
    scheme = tuple(c.choice for c in result.decision.cells)

    h = hashlib.sha256()
    _digest_files(h, out_dir)
    problems = _check_reports(nfa, result, out_dir)

    t2 = time.perf_counter()
    if workload.full_oracle:
        entries = harness.enumerate_oracle(cfg, seed=seed)
        t3 = time.perf_counter()
        ranked = [(e.scheme, repr(e.val_loss)) for e in entries]
        h.update(repr(ranked).encode())
        h.update(repr(harness.oracle_rank(entries, scheme)).encode())
        if len(entries) != len(harness.scheme_space(result.search.cells)):
            problems.append(f"oracle ranked {len(entries)} schemes")
    else:
        search = result.search
        fresh = nfa.cell.build_cells(search.model, mode=cfg.mode,
                                     adapter_kinds=cfg.adapters, seed=seed)
        loss = harness.train_fixed_scheme(
            search.model, fresh, scheme, search.train_data, search.val_data,
            lr=cfg.search.lr_network, epochs=cfg.search.stage2_epochs,
            batch_size=cfg.search.batch_size, seed=seed,
        )
        t3 = time.perf_counter()
        h.update(repr(loss).encode())
    return h.hexdigest(), {"run_s": t1 - t0, "oracle_s": t3 - t2}, problems
