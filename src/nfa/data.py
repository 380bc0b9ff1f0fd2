"""Synthetic source/target datasets for the toy cascade.

Each sample is a noisy view of one of ``n_intermediate`` fixed prototype
vectors. The prototype index is the intermediate label (what the middle stage
recognizes); the final label coarsens it. The target domain shifts the input
mean and permutes the final labels, so frozen source-pretrained stages are
genuinely mismatched and adaptation has something to do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Prototypes and the target-domain relabeling are functions of the problem
# dimensions only, shared across datasets and seeds.
_PROTO_SEED = 0x9407

DOMAINS = ("source", "target")


@dataclass(frozen=True)
class SynthDataConfig:
    n_samples: int
    dim: int = 16
    n_labels: int = 8
    n_intermediate: int = 16
    noise_std: float = 0.25
    domain: str = "source"
    shift_delta: float = 1.0

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.dim <= 0 or self.n_labels <= 0 or self.n_intermediate <= 0:
            raise ValueError("dims and label counts must be positive")
        if self.n_intermediate % self.n_labels != 0:
            raise ValueError("n_intermediate must be a multiple of n_labels")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if self.noise_std < 0 or self.shift_delta < 0:
            raise ValueError("noise_std and shift_delta must be nonnegative")


@dataclass
class Dataset:
    """Arrays of inputs, clean signals, intermediate labels, final labels, and
    stable per-sample ids (for train/validation hygiene tracking)."""

    x: np.ndarray
    clean: np.ndarray
    inter_labels: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    domain: str

    def __len__(self):
        return self.x.shape[0]

    def subset(self, indices):
        return self._rows(np.asarray(indices))

    def _rows(self, idx):
        return Dataset(
            x=self.x[idx],
            clean=self.clean[idx],
            inter_labels=self.inter_labels[idx],
            labels=self.labels[idx],
            ids=self.ids[idx],
            domain=self.domain,
        )

    def batches(self, batch_size, rng):
        """One shuffled pass (see :func:`batch_order`): the rows gathered once
        in its order, and each minibatch a slice of them."""
        order, spans = batch_order(len(self), batch_size, rng)
        rows = self.subset(order)
        return [rows._rows(span) for span in spans]


def batch_order(n, batch_size, rng):
    """One shuffled pass over ``n`` rows: a single ``rng.permutation(n)`` and
    the slice of it that each minibatch takes, ``batch_size`` rows each (the
    last may be short)."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return rng.permutation(n), [slice(i, i + batch_size) for i in range(0, n, batch_size)]


def prototypes(dim, n_intermediate):
    rng = np.random.default_rng(np.random.SeedSequence([_PROTO_SEED, dim, n_intermediate]))
    return rng.normal(0.0, 1.0, size=(n_intermediate, dim))


def target_label_permutation(n_labels):
    # cyclic shift: a fixed-point-free relabeling for any n_labels > 1
    return np.roll(np.arange(n_labels), 1)


def generate_synthetic(cfg: SynthDataConfig, seed: int) -> Dataset:
    """Deterministic dataset for (cfg, seed). Source and target share the same
    base draws for a given seed; the target domain differs by the fixed mean
    shift and the label relabeling (plus its own noise scale)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    protos = prototypes(cfg.dim, cfg.n_intermediate)
    z = rng.integers(0, cfg.n_intermediate, size=cfg.n_samples)
    clean = protos[z]
    x = clean + cfg.noise_std * rng.normal(size=(cfg.n_samples, cfg.dim))
    per_label = cfg.n_intermediate // cfg.n_labels
    y = z // per_label
    if cfg.domain == "target":
        x = x + cfg.shift_delta
        y = target_label_permutation(cfg.n_labels)[y]
    ids = np.arange(cfg.n_samples, dtype=np.int64)
    if cfg.domain == "target":
        ids = ids + 1_000_000_000  # keep source/target id spaces disjoint
    return Dataset(x=x, clean=clean, inter_labels=z, labels=y, ids=ids, domain=cfg.domain)
