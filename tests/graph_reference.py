"""The graph code that the search's graph-free steps replaced, kept as
test-local references: the mixed-path cell forward on the graph, constant
one-hot path weights, and an ``AdaptiveSearch`` whose sampler, architecture
step, network step, stage-2 step and evaluation build the graph as they did
before. Tests require the search's steps to equal these byte for byte.
"""

import numpy as np

from nfa import autodiff as ad
from nfa import objective
from nfa.cell import PathWeights, gumbel_softmax, scheme_params
from nfa.search import AdaptiveSearch


def one_hot_weights(n_paths, index):
    v = np.zeros(n_paths)
    v[index] = 1.0
    return PathWeights(ad.constant(v), hard=True)


def scheme_weights(cells, scheme):
    """Constant one-hot path weights that deploy ``scheme`` (one path per cell)."""
    return [one_hot_weights(c.n_paths, c.paths.index(choice)) for c, choice in zip(cells, scheme)]


def cell_forward(c, x, weights):
    """The graph of cell ``c`` on ``x``: a path name runs that path alone;
    ``PathWeights`` give the weighted sum of every path's output, the frozen
    and adapter paths sharing one backbone forward."""
    if isinstance(weights, str):
        return c.forward(x, weights)
    if weights.values.shape != (c.n_paths,):
        raise ad.ShapeError(
            f"cell {c.index}: got {weights.values.shape[0]} weights for {c.n_paths} paths"
        )
    base = c.module.forward(x)
    out = None
    for k, path in enumerate(c.paths):
        adapter = c._adapter(path)
        if adapter is not None:
            y = adapter.forward(base)
        else:
            y = c.module.forward(x, c.finetune_params) if path == "finetune" else base
        term = ad.mul(ad.index_lastdim(weights.weights, k), y)
        out = term if out is None else ad.add(out, term)
    return out


def cascade_forward(model, cells, x, weights_per_cell):
    """The graph of the cascade, each cell run by :func:`cell_forward`."""
    h = x
    for i, c in enumerate(cells):
        h = cell_forward(c, h, weights_per_cell[i])
        if model.softmax_after[i]:
            h = ad.softmax_lastdim(h)
    return h


def cascade_loss(model, cells, weights_per_cell, data):
    logits = cascade_forward(model, cells, ad.constant(data.x), weights_per_cell)
    return objective.task_loss(logits, data.labels)


class GraphSearch(AdaptiveSearch):
    """The search with every step on the graph: each cell's path is sampled
    by its own Gumbel-softmax graph; the architecture step forwards every
    path of every cell under straight-through weights and backpropagates the
    whole graph; the network and stage-2 steps run ``Adam.minimize`` on the
    scheme's loss graph; the evaluation's penalty is the graph penalty of
    one-hot weights."""

    def sample_weights(self):
        """Straight-through Gumbel-softmax path weights, one per cell."""
        return [gumbel_softmax(c.alpha, self.tau, rng=self._gumbel_rng, hard=True)
                for c in self.cells]

    def arch_step(self, val_batch):
        weights = self.sample_weights()
        task = cascade_loss(self.model, self.cells, weights, val_batch)
        pen = objective.penalty(self.cells, weights, self.penalty_cfg)
        total = self.opt_arch.minimize(objective.total_loss(task, pen, self.penalty_cfg))
        self.state.val_ids_seen.update(int(i) for i in val_batch.ids)
        return total, task.item(), pen.item()

    def net_step(self, train_batch):
        """The network step on the sampled weights' one-hot paths."""
        if len(train_batch) == 0:
            raise ValueError("net_step needs a nonempty batch")
        weights = self.sample_weights()
        picks = [int(np.argmax(w.values)) for w in weights]
        task = self._train([[groups[k]] for groups, k in zip(self._plan.groups, picks)], train_batch)
        self.state.train_ids_seen.update(int(i) for i in train_batch.ids)
        return task

    def idle(self, scheme):
        """The names of ``opt_net``'s parameters that ``scheme`` does not train."""
        live = scheme_params(self.cells, scheme)
        return [name for name in self.opt_net.params if name not in live]

    def _train(self, groups, batch):
        scheme = [cell_groups[0].path for cell_groups in groups]
        return self.opt_net.minimize(cascade_loss(self.model, self.cells, scheme, batch),
                                     idle=self.idle(scheme))

    def evaluate(self, data):
        scheme = self.discretization()
        task = cascade_loss(self.model, self.cells, scheme, data)
        pen = objective.penalty(self.cells, scheme_weights(self.cells, scheme), self.penalty_cfg)
        return task.item(), pen.item()
