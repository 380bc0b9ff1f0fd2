"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected everywhere — a typo in a research config should
fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .cascade import (ADAPTER_KINDS, CascadeSpec, LayerSpec, ModuleSpec, StageSpec, default_spec,
                      small_spec)
from .data import SynthDataConfig
from .objective import PenaltyConfig
from .search import SearchConfig

_PRESETS = {
    "toy6": lambda d: default_spec(dim=d.get("dim", 16), n_labels=d.get("n_labels", 8)),
    "toy3": lambda d: small_spec(dim=d.get("dim", 16), n_labels=d.get("n_labels", 8)),
}


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


def _check_keys(section, d, allowed):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)} (allowed: {sorted(allowed)})")


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 30
    lr: float = 0.01
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("pretrain epochs must be nonnegative")
        if self.lr <= 0 or self.batch_size <= 0:
            raise ConfigError("pretrain lr and batch_size must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    cascade: CascadeSpec
    adapters: tuple
    mode: str
    penalty: PenaltyConfig
    search: SearchConfig
    pretrain: PretrainConfig
    data: SynthDataConfig
    n_source: int
    noise_std_source: float
    output_dir: str
    raw: dict  # canonical dict form, hashed for provenance

    def __post_init__(self):
        if self.mode not in ("NFA", "NA"):
            raise ConfigError(f"mode must be 'NFA' or 'NA', got {self.mode!r}")
        if not self.adapters:
            raise ConfigError("at least one adapter candidate is required")


def _cascade_from_dict(d):
    _check_keys("cascade", d, {"preset", "dim", "n_labels", "stages"})
    if "preset" in d:
        if "stages" in d:
            raise ConfigError("cascade: give either 'preset' or 'stages', not both")
        if d["preset"] not in _PRESETS:
            raise ConfigError(f"unknown cascade preset {d['preset']!r}")
        return _PRESETS[d["preset"]](d)
    if "stages" not in d or "n_labels" not in d:
        raise ConfigError("cascade: explicit specs need 'stages' and 'n_labels'")
    stages = []
    for s in d["stages"]:
        _check_keys("cascade.stages[]", s, {"name", "modules", "output_softmax"})
        modules = []
        for m in s["modules"]:
            _check_keys("cascade.stages[].modules[]", m, {"name", "layers"})
            layers = tuple(LayerSpec(*layer) for layer in m["layers"])
            modules.append(ModuleSpec(m["name"], layers))
        stages.append(StageSpec(s["name"], tuple(modules), s.get("output_softmax", False)))
    return CascadeSpec(tuple(stages), int(d["n_labels"]))


def _penalty_from_dict(d):
    _check_keys("penalty", d, {"pfr_policy", "pfr_constant", "coefficient", "enabled"})
    return PenaltyConfig(**d)


def _search_from_dict(d):
    allowed = {"split_ratio", "lr_network", "lr_arch", "stage1_epochs", "stage2_epochs",
               "tau_start", "tau_end", "batch_size", "seed"}
    _check_keys("search", d, allowed)
    return SearchConfig(**d)


def _data_from_dict(d):
    allowed = {"n_source", "n_target", "dim", "n_labels", "n_intermediate",
               "noise_std_source", "noise_std_target", "shift_delta"}
    _check_keys("data", d, allowed)
    target = SynthDataConfig(
        n_samples=d.get("n_target", 512),
        dim=d.get("dim", 16),
        n_labels=d.get("n_labels", 8),
        n_intermediate=d.get("n_intermediate", 16),
        noise_std=d.get("noise_std_target", 0.25),
        domain="target",
        shift_delta=d.get("shift_delta", 1.0),
    )
    return target, int(d.get("n_source", 1024)), float(d.get("noise_std_source", 0.25))


def config_from_dict(d) -> ExperimentConfig:
    allowed = {"cascade", "adapters", "mode", "penalty", "search", "pretrain", "data", "output_dir"}
    _check_keys("config", dict(d), allowed)
    cascade = _cascade_from_dict(d.get("cascade", {"preset": "toy6"}))
    target_cfg, n_source, noise_src = _data_from_dict(d.get("data", {}))
    if target_cfg.dim != cascade.in_dim or target_cfg.n_labels != cascade.n_labels:
        raise ConfigError(
            f"data dims ({target_cfg.dim}, L={target_cfg.n_labels}) do not match "
            f"cascade ({cascade.in_dim}, L={cascade.n_labels})"
        )
    adapters = d.get("adapters", ["BA"])
    if (not isinstance(adapters, list)
            or not all(isinstance(a, str) and a in ADAPTER_KINDS for a in adapters)
            or len(set(adapters)) != len(adapters)):
        raise ConfigError(f"adapters must be a list of distinct kinds from {sorted(ADAPTER_KINDS)}, "
                          f"got {adapters!r}")
    pt = d.get("pretrain", {})
    _check_keys("pretrain", pt, {"epochs", "lr", "batch_size"})
    cfg = ExperimentConfig(
        cascade=cascade,
        adapters=tuple(adapters),
        mode=d.get("mode", "NFA"),
        penalty=_penalty_from_dict(d.get("penalty", {})),
        search=_search_from_dict(d.get("search", {})),
        pretrain=PretrainConfig(**pt),
        data=target_cfg,
        n_source=n_source,
        noise_std_source=noise_src,
        output_dir=d.get("output_dir", "runs"),
        raw=_canonical(d),
    )
    return cfg


def _canonical(d):
    return json.loads(json.dumps(d, sort_keys=True))


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    with open(p) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    return config_from_dict(d)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.raw, sort_keys=True).encode()).hexdigest()[:16]
