"""Searchable cells wrapping cascade modules.

An NFA cell exposes parallel candidate paths over one module: use its frozen
pretrained weights, fine-tune a private copy of them, or run one of the
supplied adapters on top of the frozen forward. Path weights come from a
Gumbel-softmax over per-cell logits; the straight-through variant keeps the
forward hard (one-hot) while gradients flow as if it were soft.

The reduced NA mode drops the fine-tune path entirely: the module backbone
is always frozen and the search only decides skip vs adapter.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .cascade import _nll, _nll_backward, dense_arrays, make_adapter, run_dense, sweep_dense

FROZEN = "frozen"
FINETUNE = "finetune"


def adapter_choice(kind):
    return f"adapter:{kind}"


def cell_paths(mode, adapter_kinds):
    """The path names of a cell in ``mode`` with these adapter kinds."""
    return ([FROZEN, FINETUNE] if mode == "NFA" else [FROZEN]) + [adapter_choice(k) for k in adapter_kinds]


@dataclass
class PathWeights:
    """Simplex weights over a cell's paths; ``hard`` means exactly one-hot."""

    weights: Tensor
    hard: bool

    @property
    def values(self):
        return self.weights.value

    def __post_init__(self):
        v = self.values
        if v.ndim != 1:
            raise ad.ShapeError(f"path weights must be a vector, got shape {v.shape}")
        if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"path weights must lie on the simplex, got {v}")
        if self.hard and np.count_nonzero(v == 1.0) != 1:
            raise ValueError(f"hard path weights must be one-hot, got {v}")


def _check_tau(tau):
    if tau <= 0:
        raise ValueError(f"gumbel_softmax temperature must be positive, got {tau}")


def gumbel_softmax(alpha, tau, rng=None, hard=False, noise=True):
    """Sample differentiable path weights from logits ``alpha``.

    With ``noise`` the logits are perturbed by i.i.d. Gumbel(0,1) draws, so the
    soft weights' argmax follows the categorical softmax(alpha) distribution.
    ``hard`` snaps the forward value to one-hot while the backward pass treats
    the output as the soft weights (straight-through estimator).
    """
    _check_tau(tau)
    logits = alpha
    if noise:
        if rng is None:
            raise ValueError("noise=True requires an rng")
        g = rng.gumbel(size=alpha.shape)
        logits = ad.add(alpha, ad.constant(g))
    soft = ad.softmax_lastdim(ad.scale(logits, 1.0 / tau))
    if not hard:
        return PathWeights(soft, hard=False)
    onehot = np.zeros(soft.shape)
    onehot[int(np.argmax(soft.value))] = 1.0
    st = Tensor(onehot, requires_grad=soft.requires_grad, op="straight_through",
                inputs=(soft,), backward_fn=lambda grad: (grad,))
    return PathWeights(st, hard=True)


def gumbel_probs(cells, tau, rng):
    """Row ``i`` is cell ``i``'s soft weights ``softmax((alpha + G) / tau)``,
    every cell's Gumbel noise ``G`` drawn at once: the same stream as one draw
    per cell in cell order, and row by row the bytes of
    :func:`gumbel_softmax`. The cells have equally many paths.

    Where a row is not finite, the first such row ``i`` raises as the
    per-cell graph sampler would at cell ``i``: ``rng`` is rewound and draws
    the ``i + 1`` cells' noise that sampler takes, and the row's ``alpha + G``
    is checked as ``add``, then its scaled logits as ``scale``. A finite row
    has finite noise, sum and scale, and a finite softmax, so no cell before
    ``i`` would have raised."""
    _check_tau(tau)
    alphas = np.array([c.alpha.value for c in cells])
    state = rng.bit_generator.state
    logits = (alphas + rng.gumbel(size=alphas.shape)) * float(1.0 / tau)
    finite = np.isfinite(logits).all(axis=-1)
    if not finite.all():
        i = int(np.argmin(finite))
        rng.bit_generator.state = state
        noisy = alphas[i] + rng.gumbel(size=(i + 1, alphas.shape[1]))[i]
        ad.check_finite(noisy, "add")
        ad.check_finite(noisy * float(1.0 / tau), "scale")
    return ad.softmax(logits)


def gumbel_softmax_grad(g, probs, tau):
    """The gradient of the logits ``alpha`` from the gradient ``g`` of the
    straight-through weights that :func:`gumbel_softmax` sampled with soft
    weights ``probs``, as its graph computes it: the ``softmax_lastdim``
    backward, then the ``scale`` by ``1 / tau``. Rows are cells."""
    return ad.softmax_backward(g, probs) * float(1.0 / tau)


class NfaCell:
    """One search unit: a module plus its candidate tuning paths and logits."""

    def __init__(self, module, mode="NFA", adapter_kinds=("BA",), index=0, rng=None):
        if mode not in ("NFA", "NA"):
            raise ValueError(f"cell mode must be 'NFA' or 'NA', got {mode!r}")
        if mode == "NA" and len(adapter_kinds) != 1:
            raise ValueError("NA mode searches skip vs one adapter; supply exactly one kind")
        if not adapter_kinds:
            raise ValueError("at least one adapter kind is required")
        if len(set(adapter_kinds)) != len(adapter_kinds):
            raise ValueError(f"duplicate adapter kinds in {list(adapter_kinds)}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.module = module
        self.mode = mode
        self.index = index
        self.finetune_params = module.params.clone() if mode == "NFA" else None
        self.adapters = [make_adapter(k, module.out_dim, rng) for k in adapter_kinds]
        self.paths = cell_paths(mode, adapter_kinds)
        self._adapter_of = dict.fromkeys(self.paths)
        self._adapter_of.update((adapter_choice(a.kind), a) for a in self.adapters)
        # what each path trains, under the names its forward reads
        own = {FROZEN: ParameterSet(), FINETUNE: self.finetune_params}
        self._params_of = {p: own[p] if a is None else a.params for p, a in self._adapter_of.items()}
        self.alpha = Tensor(np.zeros(len(self.paths)), requires_grad=True)

    @property
    def n_paths(self):
        return len(self.paths)

    def _adapter(self, path):
        """The adapter that ``path`` runs (None for frozen and fine-tune);
        raises for any path this cell does not have."""
        if path not in self._adapter_of:
            raise ValueError(f"cell has no path {path!r}; its paths are {self.paths}")
        return self._adapter_of[path]

    def trainable_count(self, path):
        """Trainable parameters of one path (frozen contributes nothing)."""
        return self.params_for_choice(path).count

    def forward(self, x, path):
        """The graph of ``path`` alone on ``x``; the backbone forward runs
        only if ``path`` is not fine-tune."""
        adapter = self._adapter(path)
        if path == FINETUNE:
            return self.module.forward(x, self.finetune_params)
        base = self.module.forward(x)
        return base if adapter is None else adapter.forward(base)

    def discretize(self):
        """Argmax over alpha; ties break toward the fewest trainable params,
        then the lowest path index."""
        a = self.alpha.value
        best = max(a)
        tied = [k for k in range(self.n_paths) if a[k] == best]
        k = min(tied, key=lambda j: (self.trainable_count(self.paths[j]), j))
        return self.paths[k]

    def trainable_params(self):
        """The cell's network-parameter group (fine-tune copy plus adapters);
        alpha is the separate architecture group."""
        return self.merge_params(ParameterSet(), self.paths)

    def params_for_choice(self, choice):
        """Parameters that would train if ``choice`` were deployed, under the
        names its forward reads (the cell's own set, shared by every caller)."""
        self._adapter(choice)  # raises for a path this cell does not have
        return self._params_of[choice]

    def merge_params(self, out, paths, prefix=""):
        """Merge what each of ``paths`` trains into ``out``, named ``prefix``,
        then ``finetune.`` or ``adapter.<kind>.``, then its forward's name."""
        for path in paths:
            adapter = self._adapter(path)
            out.merge(self._params_of[path],
                      prefix + ("finetune." if adapter is None else f"adapter.{adapter.kind}."))
        return out

    def stacked_params(self, path, copies):
        """``copies`` trainable copies of what ``path`` trains, stacked on a
        leading scheme axis: weights ``(S, a, b)``, biases ``(S, 1, b)``."""
        return ParameterSet({
            name: Tensor(np.repeat(t.value.reshape((1,) * (3 - t.value.ndim) + t.shape), copies, 0),
                         requires_grad=True)
            for name, t in self.params_for_choice(path).items()})

    def path_layers(self, path, params):
        """The dense layers ``path`` trains, ``(W, b, activation)`` from
        ``params`` (this cell's own, or :meth:`stacked_params` of them), in
        forward order; none for the frozen path."""
        adapter = self._adapter(path)
        if adapter is not None:
            return adapter.layers(params)
        return self.module.layers(params) if path == FINETUNE else []


# The schemes that run one path of a cell, as a Plan holds them: the cell's
# index, the path, the schemes' positions in a stack of two or more (None for
# one scheme alone, whose arrays are all 2-D), the cell's frozen backbone
# layers, the layers the path trains (none for frozen) and the adapter that
# runs them (None for frozen and fine-tune).
Group = namedtuple("Group", "index path positions backbone layers adapter")


class Plan:
    """What a network training step reads, built once per optimizer ``opt``
    (a new optimizer moves the values into its own buffer, so it needs a new
    plan): the flat gradient buffer ``grad``, laid out as ``opt.views`` lays
    it out, and ``groups``, per cell the ``Group`` of each entry
    ``(path, positions, params)`` of ``stacks`` (``params`` what the path
    trains: the cell's own, a copy of them, or
    :meth:`NfaCell.stacked_params` of them). By default each cell has every
    path alone on its own parameters, in the order of its ``paths``.

    A group's dense layers are :func:`cascade.dense_arrays` of ``grad``'s
    views: ``W`` and ``b`` are views into ``opt``'s values where it trains
    them, and ``dW`` and ``db`` None where it does not. ``free_groups`` are
    the same groups with every ``dW`` and ``db`` None, for sweeps that
    write no network gradient."""

    def __init__(self, model, cells, opt, stacks=None):
        if stacks is None:
            stacks = [[(path, None, c.params_for_choice(path)) for path in c.paths] for c in cells]
        _check_cascade(model, cells, stacks)
        self.softmax_after = model.softmax_after
        self.opt = opt
        self.grad = np.zeros(opt.params.count)
        grad_of = opt.views_by_id(self.grad)
        self.groups = []
        for c, stack in zip(cells, stacks):
            backbone = dense_arrays(c.module.layers(), grad_of)
            self.groups.append([Group(c.index, path, positions, backbone,
                                      dense_arrays(c.path_layers(path, params), grad_of),
                                      c._adapter(path))
                                for path, positions, params in stack])
        self.free_groups = [[group._replace(layers=[layer[:3] + (None, None) for layer in group.layers])
                             for group in groups] for groups in self.groups]

    def step(self, groups, batch):
        """One training step of ``opt`` on ``batch``, cell ``i`` running
        ``groups[i]`` (see :func:`run_cell`): :meth:`forward`, the
        closed-form cross-entropy gradient swept back into ``grad``, and one
        ``opt.update``. ``grad`` is zeroed first, so a parameter that no group
        trains takes an exact zero gradient, as the graph's idle parameters
        do; the sweep stops at the first cell where some group trains.
        Returns the loss, one per scheme when stacked."""
        logits, tape = self.forward(groups, batch.x)
        loss, probs, onehot = _nll(logits, batch.labels)
        self.grad.fill(0.0)
        g = _nll_backward(probs, onehot)
        first = next((i for i, gs in enumerate(groups) if any(group.layers for group in gs)),
                     len(groups))
        for i in range(len(groups) - 1, first - 1, -1):
            record, s = tape[i]
            if s is not None:
                g = ad.softmax_backward(g, s)
            g = sweep_cell(groups[i], record, g, i > first)
        self.opt.update(self.grad)
        return loss

    def forward(self, groups, x):
        """The cascade on the array ``x`` without a graph, cell ``i`` running
        ``groups[i]``: the logits, ``(S, n, L)`` for a stack, and the tape
        that :meth:`step` sweeps."""
        return self._run(x, lambda i, h: run_cell(groups[i], h, i == 0))

    def forward_mixed(self, picks, x):
        """The cascade on the array ``x`` without a graph when cell ``i`` runs
        its path ``picks[i]``, as under one-hot path weights (see
        :func:`forward_mixed`), on this plan's default groups without
        gradients (``free_groups``). Returns the logits and a function from
        their gradient to the one-hot weights' gradient, one row per cell."""
        h, backs = self._run(x, lambda i, h: forward_mixed(self.free_groups[i], h, picks[i], i == 0))

        def backward(g):
            grads = np.empty((len(backs), len(self.groups[0])))
            for i in range(len(backs) - 1, -1, -1):
                back, s = backs[i]
                if s is not None:
                    g = ad.softmax_backward(g, s)
                grads[i], g = back(g, i > 0)
            return grads

        return h, backward

    def _run(self, x, run):
        """The cascade on the array ``x``, cell ``i`` run by ``run(i, h) ->
        (h, record)``; only the first cell checks its input's shape, since
        the cells are built to chain. Returns the output and, per cell, its
        record and the softmax output after it (None where none follows)."""
        ad.check_finite(x, "leaf")
        h, tape = x, []
        for i, softmax in enumerate(self.softmax_after):
            h, record = run(i, h)
            s = None
            if softmax:
                h = s = ad.softmax(h)
                ad.check_finite(s, "softmax_lastdim")
            tape.append((record, s))
        return h, tape

    def alone(self, k):
        """Per cell, the group of this stacked plan that runs the scheme at
        position ``k``, as that scheme alone (``positions`` None): its
        layers' rows of ``k``, 2-D weights and 1-D biases, without
        gradients."""
        out = []
        for groups in self.groups:
            for group in groups:
                rows = np.flatnonzero(group.positions == k)
                if rows.size:
                    r = rows[0]
                    layers = [(w[r], b[r, 0], act, None, None) for w, b, act, _, _ in group.layers]
                    out.append([group._replace(positions=None, layers=layers)])
        return out


def run_path(group, x, base=None, check=False):
    """The path of ``group`` on the array ``x``: its output and the record
    that :func:`sweep_path` reads. ``base`` is the backbone's
    :func:`run_dense` on ``x`` when already run; otherwise, with ``check``,
    ``x`` is checked against the first layer the path runs. The fine-tune
    path runs no backbone."""
    if group.path == FINETUNE:
        y, tape = run_dense(group.layers, x, check)
        return y, (None, tape)
    y, tape = base if base is not None else run_dense(group.backbone, x, check)
    if group.adapter is None:
        return y, (tape, None)
    out, inner = group.adapter.run(y, group.layers)
    return out, (tape, inner)


def sweep_path(group, record, g, need_x):
    """The backward of :func:`run_path` from its output gradient ``g``: each
    of the path's layers with a gradient view writes its gradients
    (:func:`sweep_dense`); the frozen backbone, which has none, is swept
    only for ``x``'s gradient. Returns ``x``'s gradient, or None unless
    ``need_x``."""
    tape, inner = record
    if group.path == FINETUNE:
        return sweep_dense(group.layers, inner, g, need_x)
    if group.adapter is not None:
        g = group.adapter.sweep(group.layers, inner, g, need_x)
    return sweep_dense(group.backbone, tape, g, True) if need_x else None


def run_cell(groups, x, check=False):
    """A cell on the array ``x`` for schemes stacked on a leading axis:
    ``groups`` are its ``Group``s, one per path that some scheme runs.
    ``x`` is ``(S, n, a)``, or ``(n, a)`` when every scheme has the same
    input; then the backbone runs once for every group that uses it. One
    scheme runs alone, as a single group without positions: then ``x``, the
    output and their gradients have no scheme axis. A stack always holds two
    or more schemes (one of its path groups may hold one); nothing builds a
    stack of one.

    Only a stack ``(S, n, a)``, ``S`` the groups' scheme count, is indexed.
    With ``check``, ``x`` is checked against the first layer each group
    meets, and a shared ``x`` once against the backbone when it runs.

    Returns the output, each group's rows put in place by index, and the
    record that :func:`sweep_cell` reads."""
    if groups[0].positions is None:  # one scheme alone
        return run_path(groups[0], x, None, check)
    shared = x.ndim != 3
    n = sum(len(group.positions) for group in groups)
    if not shared and x.shape[0] != n:
        raise ad.ShapeError(f"cell {groups[0].index}: a stack of {x.shape[0]} inputs for {n} schemes")
    base = (run_dense(groups[0].backbone, x, check)
            if shared and any(group.path != FINETUNE for group in groups) else None)
    out, records = None, []
    for group in groups:
        y, record = run_path(group, x if shared else x[group.positions], base, check and base is None)
        records.append(record)
        if out is None:
            out = np.empty((n,) + y.shape[-2:])
        out[group.positions] = y
    return out, records


def sweep_cell(groups, record, g, need_x):
    """The backward of :func:`run_cell` from its output gradient ``g``:
    each group's :func:`sweep_path` on its rows, or the one group's on all
    of ``g`` for a scheme alone. Returns ``x``'s gradient, or None unless
    ``need_x``."""
    if groups[0].positions is None:
        return sweep_path(groups[0], record, g, need_x)
    width = groups[0].backbone[0][0].shape[0]  # the input's: the backbone's first W is (a, b)
    dx = np.empty(g.shape[:-1] + (width,)) if need_x else None
    for group, rec in zip(groups, record):
        d = sweep_path(group, rec, g[group.positions], need_x)
        if need_x:
            dx[group.positions] = d
    return dx


def forward_mixed(groups, x, k, check=False):
    """Path ``k``'s output on the array ``x``, where ``groups`` are a cell's
    groups of every path alone (a :class:`Plan`'s default), as the graph's
    sum of every path weighted by the one-hot row of ``k``: that sum is path
    ``k``'s output up to the sign of a zero. Every path runs, the frozen and
    adapter paths on one backbone, because the weights' gradient needs every
    path's output. With ``check``, ``x`` is checked against the backbone.

    Returns the output and a function from its gradient ``g`` to ``(the
    weights' gradient, x's gradient or None unless asked)``; only path ``k``
    is swept back, writing the gradients of its layers that have views."""
    base = run_dense(groups[0].backbone, x, check)
    runs = [run_path(group, x, base) for group in groups]

    def backward(g, need_x):
        # as each path's mul and index_lastdim: the weight's gradient is
        # (g * y) summed to a scalar, and the paths' one-hot contributions
        # are added, which turns a -0.0 into +0.0
        grad = np.zeros(len(runs)) + [(g * y).sum(axis=0).sum(axis=0) for y, _ in runs]
        return grad, sweep_path(groups[k], runs[k][1], g, need_x)

    return runs[k][0], backward


def build_cells(model, mode="NFA", adapter_kinds=("BA",), seed=0):
    """One cell per cascade module, with per-cell seeded adapter init."""
    cells = []
    seeds = np.random.SeedSequence([int(seed), 0xCE11]).spawn(len(model.modules))
    for i, module in enumerate(model.modules):
        rng = np.random.default_rng(seeds[i])
        cells.append(NfaCell(module, mode=mode, adapter_kinds=adapter_kinds, index=i, rng=rng))
    return cells


def _check_cascade(model, cells, per_cell):
    if len(cells) != len(model.modules):
        raise ValueError(f"{len(cells)} cells for {len(model.modules)} modules")
    if len(per_cell) != len(cells):
        raise ValueError(f"{len(per_cell)} per-cell entries for {len(cells)} cells")


def cascade_forward(model, cells, x, scheme):
    """The graph of the whole cascade when each cell runs its path of
    ``scheme`` (one path name per cell), honoring stage boundaries."""
    _check_cascade(model, cells, scheme)
    h = x
    for i, cell in enumerate(cells):
        h = cell.forward(h, scheme[i])
        if model.softmax_after[i]:
            h = ad.softmax_lastdim(h)
    return h


def scheme_params(cells, scheme):
    """The parameters that train when ``scheme`` is deployed."""
    out = ParameterSet()
    for c, choice in zip(cells, scheme):
        c.merge_params(out, [choice], f"cell{c.index}.")
    return out


def network_group(cells):
    """Union of all cells' network parameters (trainable during net steps)."""
    out = ParameterSet()
    for cell in cells:
        cell.merge_params(out, cell.paths, f"cell{cell.index}.")
    return out


def arch_group(cells):
    """All architecture logits (trainable during arch steps)."""
    out = ParameterSet()
    for cell in cells:
        out.add(f"cell{cell.index}.alpha", cell.alpha)
    return out
