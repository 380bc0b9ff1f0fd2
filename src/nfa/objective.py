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


def penalty_table(cells, cfg: PenaltyConfig):
    """``(counts, inv)``: every cell's :func:`penalty_counts` as the rows of
    one array, and 1 / each row's sum. The cells have equally many paths."""
    counts = np.array([penalty_counts(cell, cfg) for cell in cells])
    sums = counts.sum(axis=-1)
    for cell, total in zip(cells, sums):
        if total == 0:
            raise ValueError(f"cell {cell.index}: all penalty counts are zero")
    return counts, 1.0 / sums


def penalty(cells, weights_per_cell, cfg: PenaltyConfig):
    """Sum over cells of (weights . counts) / sum(counts), differentiable in
    the architecture weights. Each adapter path contributes its own term and
    its count joins the denominator."""
    if len(weights_per_cell) != len(cells):
        raise ValueError(f"{len(weights_per_cell)} weight vectors for {len(cells)} cells")
    total = None
    for w, counts, inv in zip(weights_per_cell, *penalty_table(cells, cfg)):
        term = ad.scale(ad.tensor_sum(ad.mul(w.weights, ad.constant(counts))), inv)
        total = term if total is None else ad.add(total, term)
    return total


def hard_penalty(table, picks):
    """:func:`penalty` of one-hot weights that pick path ``picks[i]`` of cell
    ``i``, as a float, from the :func:`penalty_table`: per cell, the picked
    count times its ``inv``, added in cell order. This is the graph penalty
    bit for bit, since a one-hot vector times the counts sums to that count
    exactly; every term lies in [0, 1], so none of the graph's checks can
    fail."""
    counts, inv = table
    total = None
    for i, k in enumerate(picks):
        term = counts[i, k] * inv[i]
        total = term if total is None else total + term
    return float(total)


def hard_penalty_grad(table, g):
    """The gradient of :func:`penalty` with respect to every cell's weights,
    one row per cell, from the penalty's own gradient ``g``: ``g * inv``
    times the counts, as the graph's ``scale``, ``sum`` and ``mul`` compute
    it. The penalty is linear in the weights, so this holds at any weights."""
    counts, inv = table
    return (g * inv)[:, None] * counts


def scheme_penalty(cells, scheme, cfg: PenaltyConfig):
    """The penalty of deploying ``scheme`` (one path name per cell), as a
    float: :func:`hard_penalty` of its paths."""
    if len(scheme) != len(cells):
        raise ValueError(f"{len(scheme)} weight vectors for {len(cells)} cells")
    return hard_penalty(penalty_table(cells, cfg),
                        [cell.paths.index(choice) for cell, choice in zip(cells, scheme)])


def task_loss(logits, labels):
    """Mean cross-entropy of the final-stage logits over the batch."""
    if logits.value.ndim != 2:
        raise ad.ShapeError(f"task_loss expects (batch, L) logits, got {logits.shape}")
    return ad.nll(ad.softmax_lastdim(logits), checked_labels(labels, logits.shape))


def penalty_in_loss(cfg: PenaltyConfig):
    """Whether the penalty enters the total loss."""
    return cfg.enabled and cfg.coefficient != 0.0


def total_loss(task, pen, cfg: PenaltyConfig):
    if not penalty_in_loss(cfg):
        return task
    return ad.add(task, ad.scale(pen, cfg.coefficient))


def total_value(task, pen, cfg: PenaltyConfig):
    """:func:`total_loss` of the floats ``task`` and ``pen``, checked as its
    ``scale`` (a large coefficient can overflow it). The ``add`` cannot
    overflow: ``task`` is a cross-entropy whose checked ``log`` keeps it
    below about 744.5, and adding that to a finite ``scaled`` rounds to at
    most the largest double."""
    if not penalty_in_loss(cfg):
        return task
    scaled = pen * float(cfg.coefficient)
    ad.check_finite(scaled, "scale")
    return task + scaled
