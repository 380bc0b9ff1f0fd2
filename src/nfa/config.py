"""Experiment configuration: JSON in, validated dataclasses out.

Unknown keys are rejected everywhere — a typo in a research config should
fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .cascade import ADAPTER_KINDS, CascadeSpec
from .data import SynthDataConfig
from .objective import PenaltyConfig
from .search import SearchConfig, train_size

_PRESETS = {"toy6": 2, "toy3": 1}  # preset -> modules per stage


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


_KIND_NAMES = {"int": "an integer", "float": "a finite number", "bool": "true or false",
               "str": "a string"}


def _is_kind(value, kind):
    """JSON typing of one scalar field: ints are not bools, floats take ints
    but not bools, bools and strings take only themselves."""
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, {"bool": bool, "str": str}[kind])


def _section(name, d, kinds):
    """Check that ``d`` is a dict whose keys all appear in ``kinds`` (field ->
    'int', 'float', 'bool', 'str', or None for a nested value that its own
    parser checks) and whose scalar values have those kinds."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a JSON object, got {d!r}")
    unknown = set(d) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)} (allowed: {sorted(kinds)})")
    for key, value in d.items():
        kind = kinds[key]
        if kind is not None and not _is_kind(value, kind):
            raise ConfigError(f"{name}.{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return d


def _field_kinds(cls):
    """Field name -> kind for a config dataclass, read off its annotations."""
    return {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}


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
        if self.mode == "NA" and len(self.adapters) != 1:
            raise ConfigError(f"mode 'NA' searches skip vs one adapter; adapters must name exactly "
                              f"one kind, got {list(self.adapters)}")


def _cascade_from_dict(d):
    _section("cascade", d, {"preset": "str", "dim": "int", "n_labels": "int"})
    preset = d.get("preset", "toy6")
    if preset not in _PRESETS:
        raise ConfigError(f"unknown cascade preset {preset!r}")
    sizes = {k: d[k] for k in ("dim", "n_labels") if k in d}
    return CascadeSpec(modules_per_stage=_PRESETS[preset], **sizes)


def _data_from_dict(d, cascade: CascadeSpec):
    """The target data config; its dimensions come from the cascade, and the
    intermediate labels are what pretraining classifies stage 1's output into."""
    _section("data", d, {"n_source": "int", "n_target": "int", "noise_std_source": "float",
                         "noise_std_target": "float", "shift_delta": "float"})
    target = SynthDataConfig(
        n_samples=d.get("n_target", 512),
        dim=cascade.dim,
        n_labels=cascade.n_labels,
        n_intermediate=cascade.dim,  # stage 1's output width
        noise_std=d.get("noise_std_target", 0.25),
        domain="target",
        shift_delta=d.get("shift_delta", 1.0),
    )
    n_source, noise_src = d.get("n_source", 1024), d.get("noise_std_source", 0.25)
    if n_source <= 0 or noise_src < 0:
        raise ConfigError("data.n_source must be positive and data.noise_std_source nonnegative")
    return target, n_source, float(noise_src)


def config_from_dict(d) -> ExperimentConfig:
    """Parse and validate a config dict; any malformed content, including a
    range check inside a config dataclass, raises :class:`ConfigError`."""
    try:
        return _config_from_dict(d)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _config_from_dict(d):
    _section("config", d, {"cascade": None, "adapters": None, "mode": "str", "penalty": None,
                           "search": None, "pretrain": None, "data": None, "output_dir": "str"})
    cascade = _cascade_from_dict(d.get("cascade", {}))
    target_cfg, n_source, noise_src = _data_from_dict(d.get("data", {}), cascade)
    adapters = d.get("adapters", ["BA"])
    if (not isinstance(adapters, list)
            or not all(isinstance(a, str) and a in ADAPTER_KINDS for a in adapters)
            or len(set(adapters)) != len(adapters)):
        raise ConfigError(f"adapters must be a list of distinct kinds from {sorted(ADAPTER_KINDS)}, "
                          f"got {adapters!r}")
    sections = {name: _section(name, d.get(name, {}), _field_kinds(cls))
                for name, cls in (("penalty", PenaltyConfig), ("search", SearchConfig),
                                  ("pretrain", PretrainConfig))}
    search = SearchConfig(**sections["search"])
    n = target_cfg.n_samples
    try:
        n_train = train_size(n, search.split_ratio)
    except OverflowError:
        raise ConfigError(f"data.n_target={n} is too large to split") from None
    if not 1 <= n_train <= n - 1:
        raise ConfigError(
            f"data.n_target={n} split at search.split_ratio={search.split_ratio} leaves "
            f"{n_train} train and {n - n_train} validation rows; both parts must be nonempty"
        )
    return ExperimentConfig(
        cascade=cascade,
        adapters=tuple(adapters),
        mode=d.get("mode", "NFA"),
        penalty=PenaltyConfig(**sections["penalty"]),
        search=search,
        pretrain=PretrainConfig(**sections["pretrain"]),
        data=target_cfg,
        n_source=n_source,
        noise_std_source=noise_src,
        output_dir=d.get("output_dir", "runs"),
        raw=_canonical(d),
    )


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
