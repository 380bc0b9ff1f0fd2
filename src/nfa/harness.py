"""Experiment orchestration: data, pretraining, search, the brute-force
enumeration oracle, parameter accounting, and on-disk reports.

Outputs per run: ``architecture.json`` (the discretized decision plus exact
parameter accounting), ``metrics.csv`` (one row per search epoch), and flat
binary checkpoints with JSON manifests at each stage boundary.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet
from .cascade import STAGES, _nll, build_cascade, pretrain_upstream
from .cell import Plan, arch_group, build_cells, cell_paths, network_group
from .config import ExperimentConfig, config_hash
from .data import SynthDataConfig, generate_synthetic
from .search import AdaptiveSearch, split_dataset

OUTPUT_ROOT_ENV = "NFA_OUTPUT_ROOT"
DEFAULT_ORACLE_CAP = 243
STACK_SCHEMES = 14  # the most schemes trained together: bounds the stacked arrays' memory


@dataclass(frozen=True)
class CellDecision:
    index: int
    module: str
    choice: str
    alpha: tuple
    path_params: dict


@dataclass(frozen=True)
class ArchitectureDecision:
    cells: tuple
    totals: dict
    config_hash: str
    seed: int


@dataclass
class RunResult:
    decision: ArchitectureDecision
    out_dir: Path
    architecture_path: Path
    metrics_path: Path
    checkpoint_paths: list
    final_val_loss: float
    search: AdaptiveSearch


@dataclass(frozen=True)
class OracleEntry:
    scheme: tuple
    val_loss: float


# -- accounting ------------------------------------------------------------


def account_params(model, cells, choices):
    """Exact integer totals for a discretized decision.

    total: pretrained weights + every search-time trainable + alpha logits.
    train: the search-time trainables (network group + alpha).
    selected: trainables of the chosen paths only — the deployment cost.
    """
    if len(choices) != len(cells):
        raise ValueError(f"{len(choices)} choices for {len(cells)} cells")
    alpha_count = arch_group(cells).count
    network = network_group(cells).count
    selected = sum(c.trainable_count(choice) for c, choice in zip(cells, choices))
    totals = {
        "total_params": model.pretrained_count() + network + alpha_count,
        "train_params": network + alpha_count,
        "selected_params": selected,
    }
    assert totals["selected_params"] <= totals["train_params"]
    return totals


def make_decision(model, cells, choices, cfg_hash, seed):
    cell_decisions = tuple(
        CellDecision(
            index=c.index,
            module=c.module.name,
            choice=choice,
            alpha=tuple(float(v) for v in c.alpha.value),
            path_params={p: c.trainable_count(p) for p in c.paths},
        )
        for c, choice in zip(cells, choices)
    )
    return ArchitectureDecision(
        cells=cell_decisions,
        totals=account_params(model, cells, choices),
        config_hash=cfg_hash,
        seed=int(seed),
    )


def export_architecture(decision: ArchitectureDecision, path):
    doc = {
        "cells": [
            {
                "index": c.index,
                "module": c.module,
                "choice": c.choice,
                "alpha": list(c.alpha),
                "P": dict(c.path_params),
            }
            for c in decision.cells
        ],
        "totals": decision.totals,
        "config_hash": decision.config_hash,
        "seed": decision.seed,
    }
    try:
        return _write_atomic(path, _json_bytes(doc))
    except OSError as e:
        raise OSError(f"failed to write architecture report to {path}: {e}") from e


def import_architecture(path) -> ArchitectureDecision:
    try:
        doc = json.loads(Path(path).read_text())
        cells = tuple(
            CellDecision(
                index=int(c["index"]),
                module=c["module"],
                choice=c["choice"],
                alpha=tuple(float(v) for v in c["alpha"]),
                path_params={k: int(v) for k, v in c["P"].items()},
            )
            for c in sorted(doc["cells"], key=lambda c: c["index"])
        )
        if not all(isinstance(v, str) for c in cells for v in (c.module, c.choice)):
            raise TypeError("a cell's module and choice must be strings")
        return ArchitectureDecision(
            cells=cells,
            totals={k: int(v) for k, v in doc["totals"].items()},
            config_hash=doc["config_hash"],
            seed=int(doc["seed"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"{path} is not an architecture report: {e!r}") from e


def diff_decisions(a: ArchitectureDecision, b: ArchitectureDecision):
    """Per-cell choice differences between two runs, plus totals side by side."""
    if len(a.cells) != len(b.cells):
        raise ValueError("decisions cover different numbers of cells")
    rows = []
    for ca, cb in zip(a.cells, b.cells):
        rows.append({
            "index": ca.index,
            "module": ca.module,
            "a": ca.choice,
            "b": cb.choice,
            "same": ca.choice == cb.choice,
        })
    return rows


# -- on-disk writes ------------------------------------------------------------


def _write_atomic(path, data: bytes):
    """Replace ``path`` with ``data`` via a temp file in its directory: a failed
    write leaves the previous file intact and no temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _json_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def save_checkpoint(named_values, prefix):
    """Flat binary of float64 tensors plus a JSON manifest; bit-exact reload."""
    prefix = Path(prefix)
    manifest = {"dtype": "float64", "tensors": []}
    chunks = []
    offset = 0
    for name, value in named_values.items():
        arr = np.ascontiguousarray(value, dtype=np.float64)
        chunks.append(arr.tobytes())
        manifest["tensors"].append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    return (_write_atomic(prefix.with_suffix(".bin"), b"".join(chunks)),
            _write_atomic(prefix.with_suffix(".json"), _json_bytes(manifest)))


def _is_shape(value):
    return isinstance(value, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in value)


def _manifest_tensors(manifest_path):
    """The tensor entries of a checkpoint manifest; raises ``ValueError``
    naming the manifest when it is not one."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{manifest_path}: not a JSON manifest ({e})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("dtype") != "float64":
        raise ValueError(f"{manifest_path}: dtype {manifest.get('dtype')!r} is not float64")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise ValueError(f"{manifest_path}: manifest has no 'tensors' list")
    for entry in tensors:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_shape(entry.get("shape")) and isinstance(entry.get("offset"), int)):
            raise ValueError(f"{manifest_path}: malformed tensor entry {entry!r}")
    return tensors


def load_checkpoint(prefix):
    """Read a checkpoint back; raises ``ValueError`` naming the file when the
    manifest is malformed or the manifest and the binary disagree."""
    prefix = Path(prefix)
    manifest_path, bin_path = prefix.with_suffix(".json"), prefix.with_suffix(".bin")
    tensors = _manifest_tensors(manifest_path)
    raw = bin_path.read_bytes()
    starts = [0, *itertools.accumulate(8 * math.prod(e["shape"]) for e in tensors)]
    if starts[-1] != len(raw):
        raise ValueError(f"{bin_path} holds {len(raw)} bytes; {manifest_path} describes {starts[-1]}")
    out = {}
    for entry, start in zip(tensors, starts):
        if entry["offset"] != start:
            raise ValueError(f"{manifest_path}: tensor {entry['name']!r} is at offset "
                             f"{entry['offset']}, not {start} after the tensors before it")
        arr = np.frombuffer(raw, np.float64, math.prod(entry["shape"]), start)
        out[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return out


def snapshot_tensors(cells):
    """All search-time state worth checkpointing: network group plus alpha."""
    groups = (network_group(cells), arch_group(cells))
    return {name: t.value for group in groups for name, t in group.items()}


# -- experiment assembly -----------------------------------------------------


def source_data_config(cfg: ExperimentConfig) -> SynthDataConfig:
    return SynthDataConfig(
        n_samples=cfg.n_source,
        dim=cfg.data.dim,
        n_labels=cfg.data.n_labels,
        n_intermediate=cfg.data.n_intermediate,
        noise_std=cfg.noise_std_source,
        domain="source",
        shift_delta=cfg.data.shift_delta,
    )


_PRETRAINED = {}  # the last pretraining's complete input -> its frozen model


def pretrained_cascade(cfg: ExperimentConfig, seed):
    """The cascade for (cfg, seed), pretrained on its source data. The frozen
    model of the last pretraining is served again while its input is
    unchanged: the pretraining function, the cascade spec, the source data
    config, the pretrain config and the seed. The source dataset is
    generated only when the model is not served again."""
    seed = int(seed)
    source_cfg = source_data_config(cfg)
    key = (pretrain_upstream, cfg.cascade, source_cfg, cfg.pretrain, seed)
    if key not in _PRETRAINED:
        model = build_cascade(cfg.cascade, seed)
        pretrain_upstream(model, generate_synthetic(source_cfg, seed), epochs=cfg.pretrain.epochs,
                          lr=cfg.pretrain.lr, batch_size=cfg.pretrain.batch_size, seed=seed)
        _PRETRAINED.clear()
        _PRETRAINED[key] = model
    return _PRETRAINED[key]


def build_experiment(cfg: ExperimentConfig, seed):
    """Deterministically build everything the search and the oracle share:
    the pretrained cascade, fresh cells and the target split; returns
    ``(model, cells, train, val)``."""
    seed = int(seed)
    model = pretrained_cascade(cfg, seed)
    train, val = split_dataset(generate_synthetic(cfg.data, seed), cfg.search.split_ratio, seed)
    cells = build_cells(model, mode=cfg.mode, adapter_kinds=cfg.adapters, seed=seed)
    return model, cells, train, val


def resolve_out_dir(cfg: ExperimentConfig, out_dir=None, seed=None):
    base = Path(out_dir) if out_dir else Path(cfg.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        base = Path(root) / base
    if seed is not None and out_dir is None:
        base = base / f"seed{seed}"
    return base


def _fmt(v):
    return repr(float(v))


def write_metrics(history, path):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["epoch", "stage", "train_loss", "val_loss", "penalty", "selected_params"])
    for rec in history:
        w.writerow([rec.epoch, rec.stage, _fmt(rec.train_loss), _fmt(rec.val_loss),
                    _fmt(rec.penalty), rec.selected_params])
    return _write_atomic(path, buf.getvalue().encode())


def run_experiment(cfg: ExperimentConfig, seed=None, out_dir=None, step_callback=None) -> RunResult:
    """Pretrain -> split -> stage 1 -> stage 2 -> discretize -> account -> export,
    after deleting an earlier run's files from the run directory."""
    seed = int(seed) if seed is not None else cfg.search.seed
    search_cfg = replace(cfg.search, seed=seed)
    out = resolve_out_dir(cfg, out_dir, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("FAILED", "architecture.json", "metrics.csv", "checkpoints/stage1.bin",
                 "checkpoints/stage1.json", "checkpoints/stage2.bin", "checkpoints/stage2.json"):
        (out / name).unlink(missing_ok=True)
    stage = "setup"
    try:
        model, cells, train, val = build_experiment(cfg, seed)
        search = AdaptiveSearch(model, cells, train, val, cfg.penalty, search_cfg)
        checkpoints = []
        stage = "stage1"
        search.run_stage1(step_callback=step_callback)
        checkpoints += save_checkpoint(snapshot_tensors(cells), out / "checkpoints" / "stage1")
        if search_cfg.stage2_epochs > 0:
            stage = "stage2"
            search.run_stage2(step_callback=step_callback)
            checkpoints += save_checkpoint(snapshot_tensors(cells), out / "checkpoints" / "stage2")
        stage = "report"
        decision = make_decision(model, cells, search.discretization(), config_hash(cfg), seed)
        arch_path = export_architecture(decision, out / "architecture.json")
        metrics_path = write_metrics(search.state.history, out / "metrics.csv")
        final_val_loss = (search.state.history[-1].val_loss  # stage 2 evaluated the final scheme
                          if search_cfg.stage2_epochs > 0 else search.evaluate(val)[0])
    except Exception as e:
        flag = out / "FAILED"
        flag.write_text(f"stage={stage}\nerror={type(e).__name__}: {e}\n")
        raise RuntimeError(f"experiment aborted during {stage}: {e}") from e
    return RunResult(
        decision=decision,
        out_dir=out,
        architecture_path=arch_path,
        metrics_path=metrics_path,
        checkpoint_paths=checkpoints,
        final_val_loss=final_val_loss,
        search=search,
    )


# -- brute-force oracle ------------------------------------------------------


def scheme_space(cells):
    """All discrete per-cell path assignments."""
    return list(itertools.product(*[tuple(c.paths) for c in cells]))


def _stack(cells, schemes):
    """Per cell, ``schemes`` grouped by path: ``(path, positions, params)``
    with the path's parameters stacked over the group (see ``cell.Plan``);
    and every trained parameter in one set. One scheme runs alone: per cell
    ``(path, None, params)``, ``params`` a copy of what the path trains, so
    every array stays 2-D."""
    for scheme in schemes:
        if len(scheme) != len(cells):
            raise ValueError(f"scheme {scheme!r} names {len(scheme)} paths for {len(cells)} cells")
        for cell, choice in zip(cells, scheme):
            cell.params_for_choice(choice)  # raises for a path the cell does not have
    stacks, params = [], ParameterSet()
    for cell, column in zip(cells, zip(*schemes)):
        if len(schemes) == 1:
            groups = [(column[0], None, cell.params_for_choice(column[0]).clone())]
        else:
            groups = []
            for path in cell.paths:
                positions = np.flatnonzero([choice == path for choice in column])
                if positions.size:
                    groups.append((path, positions, cell.stacked_params(path, positions.size)))
        for path, _, own in groups:
            params.merge(own, prefix=f"cell{cell.index}.{path}.")
        stacks.append(groups)
    return stacks, params


def train_fixed_schemes(model, cells, schemes, train, val, lr, epochs, batch_size, seed):
    """Train each of ``schemes`` (one path name per cell) as stage 2 trains a
    scheme, and return each one's final validation task loss, in order. A
    scheme trains only the parameters it selects, from the cells' values
    (the cells are left unchanged), on the batches that
    ``SeedSequence([seed, 0x04AC])`` shuffles; an all-frozen scheme trains
    nothing.

    Up to ``STACK_SCHEMES`` schemes train together without a graph, by
    :meth:`cell.Plan.step`: every array has a leading scheme axis, and each
    scheme's slice gets the bytes that training it alone on the graph gives.
    A chunk of one scheme (every :func:`train_fixed_scheme`, or a last chunk
    of one) runs alone, as stage 2 runs its scheme: every array is 2-D.
    Validation runs one scheme at a time in 2-D (:meth:`cell.Plan.alone`),
    which bounds its memory by one scheme's pass."""
    schemes = [tuple(s) for s in schemes]
    losses = []
    for start in range(0, len(schemes), STACK_SCHEMES):
        chunk = schemes[start:start + STACK_SCHEMES]
        stacks, params = _stack(cells, chunk)
        plan = Plan(model, cells, ad.Adam(params, lr=lr), stacks)
        if len(params):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x04AC]))
            for _ in range(epochs):
                for batch in train.batches(batch_size, rng):
                    plan.step(plan.groups, batch)
                plan.opt.check_moments()
        for k in range(len(chunk)):
            logits, _ = plan.forward(plan.groups if len(chunk) == 1 else plan.alone(k), val.x)
            losses.append(float(_nll(logits, val.labels)[0]))
    return losses


def train_fixed_scheme(model, cells, scheme, train, val, lr, epochs, batch_size, seed):
    """Train only the parameters the scheme selects; return the final val task
    loss (:func:`train_fixed_schemes` of one scheme)."""
    return train_fixed_schemes(model, cells, [scheme], train, val, lr, epochs, batch_size, seed)[0]


def enumerate_oracle(cfg: ExperimentConfig, seed=None, cap=DEFAULT_ORACLE_CAP):
    """Budget-matched exhaustive baseline: train every discrete scheme with the
    stage-2 epoch budget and rank by validation task loss (ascending). A
    scheme space larger than ``cap`` is refused before anything is built."""
    if cap <= 0:
        raise ValueError(f"oracle cap must be positive, got {cap}")
    seed = int(seed) if seed is not None else cfg.search.seed
    size = len(cell_paths(cfg.mode, cfg.adapters)) ** (len(STAGES) * cfg.cascade.modules_per_stage)
    if size > cap:
        raise ValueError(
            f"scheme space has {size} entries (> cap {cap}); shrink the cascade "
            "or the adapter candidate list"
        )
    model, cells, train, val = build_experiment(cfg, seed)
    space = scheme_space(cells)
    losses = train_fixed_schemes(
        model, cells, space, train, val, lr=cfg.search.lr_network,
        epochs=cfg.search.stage2_epochs, batch_size=cfg.search.batch_size, seed=seed,
    )
    return sorted((OracleEntry(scheme=s, val_loss=v) for s, v in zip(space, losses)),
                  key=lambda e: (e.val_loss, e.scheme))


def oracle_rank(entries, scheme):
    """1-based rank of ``scheme`` in an oracle ranking."""
    for i, e in enumerate(entries):
        if e.scheme == tuple(scheme):
            return i + 1
    raise ValueError(f"scheme {scheme!r} not present in the oracle ranking")
