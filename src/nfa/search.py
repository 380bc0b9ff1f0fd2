"""Bilevel alternating search over tuning paths (first-order approximation).

Stage 1 alternates, per iteration, one architecture update on a validation
batch with one network update on a training batch; path weights are sampled
hard (straight-through) from the per-cell Gumbel-softmax at an annealed
temperature. Stage 2 freezes the logits, fixes the discretized architecture,
and trains only the network parameters of the chosen paths' groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import objective
from .cascade import _nll, _nll_backward
from .cell import (Plan, arch_group, cascade_forward, gumbel_probs, gumbel_softmax_grad,
                   network_group, scheme_params)


@dataclass(frozen=True)
class SearchConfig:
    split_ratio: float = 0.5
    lr_network: float = 1e-4
    lr_arch: float = 1e-3
    stage1_epochs: int = 8
    stage2_epochs: int = 4
    tau_start: float = 5.0
    tau_end: float = 0.5
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie in (0, 1)")
        if self.lr_network <= 0 or self.lr_arch <= 0:
            raise ValueError("learning rates must be positive")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ValueError("temperatures must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    train_loss: float
    val_loss: float
    penalty: float
    alphas: list
    discretization: list
    selected_params: int


@dataclass
class SearchState:
    epoch: int = 0
    stage: int = 1
    history: list = field(default_factory=list)
    train_ids_seen: set = field(default_factory=set)
    val_ids_seen: set = field(default_factory=set)


def train_size(n, ratio):
    """|train| of a split of ``n`` rows: round(ratio * n) with halves rounded up."""
    return int(np.floor(ratio * n + 0.5))


def split_dataset(data, ratio, seed):
    """Disjoint, exhaustive, seeded-shuffled split; |train| = ``train_size``."""
    n = len(data)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5711]))
    order = rng.permutation(n)
    n_train = train_size(n, ratio)
    return data.subset(order[:n_train]), data.subset(order[n_train:])


def cascade_loss(model, cells, scheme, data):
    """The graph of the task loss of the cascade on the rows of ``data`` when
    each cell runs its path of ``scheme``."""
    logits = cascade_forward(model, cells, ad.constant(data.x), scheme)
    return objective.task_loss(logits, data.labels)


class AdaptiveSearch:
    """Owns the cells, the two optimizer groups, and the search schedule."""

    def __init__(self, model, cells, train_data, val_data, penalty_cfg, cfg: SearchConfig):
        if len(train_data) == 0 or len(val_data) == 0:
            raise ValueError("search requires nonempty train and validation parts")
        self.model = model
        self.cells = cells
        self.train_data = train_data
        self.val_data = val_data
        self.penalty_cfg = penalty_cfg
        self.cfg = cfg
        self.net_params = network_group(cells)
        self.arch_params = arch_group(cells)
        self.opt_net = ad.Adam(self.net_params, lr=cfg.lr_network)
        self._plan = Plan(model, cells, self.opt_net)
        self.opt_arch = ad.Adam(self.arch_params, lr=cfg.lr_arch)
        ss = np.random.SeedSequence([int(cfg.seed), 0x5EA2]).spawn(3)
        self._gumbel_rng = np.random.default_rng(ss[0])
        self._train_order_rng = np.random.default_rng(ss[1])
        self._val_order_rng = np.random.default_rng(ss[2])
        self.state = SearchState()
        self.tau = cfg.tau_start
        self._penalty_table = objective.penalty_table(cells, penalty_cfg)

    # -- weights ---------------------------------------------------------

    def discretization(self):
        return [c.discretize() for c in self.cells]

    def tau_at(self, epoch):
        """Exponential anneal from tau_start at epoch 0 to tau_end at the
        last stage-1 epoch, ``stage1_epochs - 1``."""
        e1 = self.cfg.stage1_epochs
        if e1 <= 1:
            return self.cfg.tau_end
        frac = epoch / (e1 - 1)
        return self.cfg.tau_start * (self.cfg.tau_end / self.cfg.tau_start) ** frac

    # -- steps -----------------------------------------------------------

    def arch_step(self, val_batch):
        """One architecture update on a validation batch, as one graph node
        over the cells' alphas that ``opt_arch.minimize`` runs.

        Every cell's path is sampled from one Gumbel draw
        (:func:`cell.gumbel_probs`), the cascade runs each cell's pick in
        numpy on the network plan's layers (:meth:`cell.Plan.forward_mixed`),
        as the graph's sum under
        the one-hot straight-through weights, and the penalty and the total
        loss are floats. The node's value is the total loss. Its backward
        gives each alpha the straight-through graph's gradient in closed
        form, in that graph's order: the cross-entropy gradient swept back to
        the weights, the penalty's added to it, then
        :func:`cell.gumbel_softmax_grad`. No network gradient is computed."""
        if len(val_batch) == 0:
            raise ValueError("arch_step needs a nonempty batch")
        tau = self.tau
        probs = gumbel_probs(self.cells, tau, self._gumbel_rng)
        picks = probs.argmax(axis=-1)
        logits, backward = self._plan.forward_mixed(picks, val_batch.x)
        task, p, onehot = _nll(logits, val_batch.labels)
        pen = objective.hard_penalty(self._penalty_table, picks)
        total = objective.total_value(task, pen, self.penalty_cfg)

        def grads(g):
            g_w = backward(_nll_backward(p, onehot, g))
            if objective.penalty_in_loss(self.penalty_cfg):
                g_w = objective.hard_penalty_grad(self._penalty_table,
                                                  g * float(self.penalty_cfg.coefficient)) + g_w
            return tuple(gumbel_softmax_grad(g_w, probs, tau))

        loss = ad.Tensor(total, requires_grad=True, op="arch_step",
                         inputs=tuple(c.alpha for c in self.cells), backward_fn=grads)
        total = self.opt_arch.minimize(loss)
        self.state.val_ids_seen.update(val_batch.ids.tolist())
        return total, float(task), pen

    def net_step(self, train_batch):
        """One network update on a training batch; alpha stays untouched and
        the penalty (a function of alpha alone) is excluded.

        Each cell's path is sampled as in ``arch_step`` (same Gumbel draws,
        no graph), and only the sampled path is forwarded and
        backpropagated, without a graph: the straight-through gradient into
        alpha would be discarded.
        The unsampled paths' parameters take an exact zero gradient, which is
        what the all-path backward gave them."""
        if len(train_batch) == 0:
            raise ValueError("net_step needs a nonempty batch")
        probs = gumbel_probs(self.cells, self.tau, self._gumbel_rng)
        picks = probs.argmax(axis=-1)
        task = self._train([[cell_groups[k]] for cell_groups, k in zip(self._plan.groups, picks)],
                           train_batch)
        self.state.train_ids_seen.update(train_batch.ids.tolist())
        return task

    def _train(self, groups, batch):
        """One :meth:`cell.Plan.step` of ``opt_net``, cell ``i`` running
        ``groups[i]``; returns the loss as a float."""
        return float(self._plan.step(groups, batch))

    def _record_epoch(self, stage, train_loss, val_loss, pen):
        """Append the epoch's record; its means are checked finite first (a
        mean of finite losses can overflow)."""
        ad.check_finite(np.array([train_loss, val_loss, pen]), "mean")
        self.state.history.append(EpochRecord(
            epoch=self.state.epoch,
            stage=stage,
            train_loss=train_loss,
            val_loss=val_loss,
            penalty=pen,
            alphas=[c.alpha.value.tolist() for c in self.cells],
            discretization=self.discretization(),
            selected_params=sum(c.trainable_count(c.discretize()) for c in self.cells),
        ))
        self.state.epoch += 1

    def run_stage1(self, step_callback=None):
        """Alternating bilevel epochs: per iteration one arch step on the next
        validation batch, then one network step on the next training batch."""
        if self.state.stage != 1:
            raise RuntimeError("stage 1 already completed")
        for epoch in range(self.cfg.stage1_epochs):
            self.tau = self.tau_at(epoch)
            train_batches = self.train_data.batches(self.cfg.batch_size, self._train_order_rng)
            val_batches = self.val_data.batches(self.cfg.batch_size, self._val_order_rng)
            train_losses, val_losses, pens = [], [], []
            for it, tb in enumerate(train_batches):
                vb = val_batches[it % len(val_batches)]
                vt, _, pen = self.arch_step(vb)
                if step_callback:
                    step_callback("arch", self)
                tl = self.net_step(tb)
                if step_callback:
                    step_callback("net", self)
                val_losses.append(vt)
                pens.append(pen)
                train_losses.append(tl)
            self.opt_arch.check_moments()
            self.opt_net.check_moments()
            self._record_epoch(1, float(np.mean(train_losses)), float(np.mean(val_losses)),
                               float(np.mean(pens)))
        self.state.stage = 2
        return self.state

    def run_stage2(self, step_callback=None):
        """Train only the network parameters of the fixed discretized scheme;
        alpha is frozen, so the discretization cannot move."""
        if self.state.stage != 2:
            raise RuntimeError("run stage 1 before stage 2")
        scheme = self.discretization()
        # only the chosen paths' parameters train now: restrict the optimizer
        # to exactly that group, carrying the moment estimates and step count
        # over; it moves their values into its own buffer, so it needs a plan
        self.opt_net = self.opt_net.restricted(scheme_params(self.cells, scheme))
        self._plan = Plan(self.model, self.cells, self.opt_net)
        groups = [[cell_groups[c.paths.index(choice)]]
                  for c, cell_groups, choice in zip(self.cells, self._plan.groups, scheme)]
        for _ in range(self.cfg.stage2_epochs):
            train_losses = []
            for tb in self.train_data.batches(self.cfg.batch_size, self._train_order_rng):
                train_losses.append(self._train(groups, tb))
                self.state.train_ids_seen.update(tb.ids.tolist())
                if step_callback:
                    step_callback("net", self)
            self.opt_net.check_moments()
            val_task, pen = self.evaluate(self.val_data)
            self._record_epoch(2, float(np.mean(train_losses)), val_task, pen)
        return self.state

    def evaluate(self, data):
        """Task loss (and penalty) of the current discretized architecture."""
        scheme = self.discretization()
        task = cascade_loss(self.model, self.cells, scheme, data)
        return task.item(), objective.scheme_penalty(self.cells, scheme, self.penalty_cfg)
