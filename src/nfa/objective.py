"""Search objective: final-task cross-entropy plus the trainable-parameter
penalty that steers the architecture toward cheap tuning schemes.

Per cell the penalty is the architecture-weighted mean of per-path trainable
parameter counts, normalized by the sum of those counts so each cell's term
stays in [0, 1] regardless of module size. The frozen path trains nothing,
so its count inside the penalty is a policy choice: zero, a constant, or half
the module's fine-tune count (the default, which lands between the adapter
and fine-tune counts and scales with the module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .cascade import checked_labels
from .cell import FROZEN

PFR_POLICIES = ("zero", "constant", "half_finetune")


@dataclass(frozen=True)
class PenaltyConfig:
    pfr_policy: str = "half_finetune"
    pfr_constant: int = 0
    coefficient: float = 1.0
    enabled: bool = True

    def __post_init__(self):
        if self.pfr_policy not in PFR_POLICIES:
            raise ValueError(f"pfr_policy must be one of {PFR_POLICIES}, got {self.pfr_policy!r}")
        if self.pfr_constant < 0:
            raise ValueError("pfr_constant must be nonnegative")
        if self.coefficient < 0:
            raise ValueError("penalty coefficient must be nonnegative")

    def frozen_count(self, finetune_count):
        if self.pfr_policy == "zero":
            return 0
        if self.pfr_policy == "constant":
            return int(self.pfr_constant)
        return int(finetune_count) // 2


def penalty_counts(cell, cfg: PenaltyConfig):
    """Per-path parameter counts as they enter the penalty for one cell.

    Fine-tune and adapter paths use their true trainable counts; the frozen
    path uses the configured fictitious count. In NA mode (no fine-tune path)
    the policy still keys off the wrapped module's size.
    """
    counts = [cfg.frozen_count(cell.module.param_count) if path == FROZEN
              else cell.trainable_count(path) for path in cell.paths]
    return np.asarray(counts, dtype=np.float64)


def _normalized_counts(cells, cfg):
    """Per cell, its penalty counts and 1 / their sum."""
    for cell in cells:
        counts = penalty_counts(cell, cfg)
        denom = counts.sum()
        if denom == 0:
            raise ValueError(f"cell {cell.index}: all penalty counts are zero")
        yield counts, 1.0 / denom


def penalty(cells, weights_per_cell, cfg: PenaltyConfig):
    """Sum over cells of (weights . counts) / sum(counts), differentiable in
    the architecture weights. Each adapter path contributes its own term and
    its count joins the denominator."""
    if len(weights_per_cell) != len(cells):
        raise ValueError(f"{len(weights_per_cell)} weight vectors for {len(cells)} cells")
    total = None
    for w, (counts, inv) in zip(weights_per_cell, _normalized_counts(cells, cfg)):
        term = ad.scale(ad.tensor_sum(ad.mul(w.weights, ad.constant(counts))), inv)
        total = term if total is None else ad.add(total, term)
    return total


def scheme_penalty(cells, scheme, cfg: PenaltyConfig):
    """The penalty of deploying ``scheme`` (one path name per cell), as a
    float: per cell, the count of its path times 1 / the sum of its counts,
    added in cell order. This is :func:`penalty` of the scheme's one-hot
    weights bit for bit, since a one-hot vector times the counts sums to
    that count exactly."""
    if len(scheme) != len(cells):
        raise ValueError(f"{len(scheme)} weight vectors for {len(cells)} cells")
    total = None
    for cell, choice, (counts, inv) in zip(cells, scheme, _normalized_counts(cells, cfg)):
        term = counts[cell.paths.index(choice)] * inv
        total = term if total is None else total + term
    return float(total)


def task_loss(logits, labels):
    """Mean cross-entropy of the final-stage logits over the batch."""
    if logits.value.ndim != 2:
        raise ad.ShapeError(f"task_loss expects (batch, L) logits, got {logits.shape}")
    return ad.nll(ad.softmax_lastdim(logits), checked_labels(labels, logits.shape))


def total_loss(task, pen, cfg: PenaltyConfig):
    if not cfg.enabled or cfg.coefficient == 0.0:
        return task
    return ad.add(task, ad.scale(pen, cfg.coefficient))
