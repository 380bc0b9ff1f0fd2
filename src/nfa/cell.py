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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .cascade import check_layers, layers_backward, make_adapter, run_layers

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

    def forward_path(self, path, x, params, backbone=None):
        """``path`` on the array ``x`` without a graph, training ``params``
        (this cell's own, or :meth:`stacked_params` of them). ``backbone`` is
        the frozen module's ``(output, tape)`` on ``x`` when already run,
        which checked ``x``; otherwise ``x`` is checked against the first
        layer the path runs (see :func:`_run_checked`).
        Returns the output and its backward ``(g, need_x, params=True)``,
        which stores each parameter's gradient unless ``params`` is false and
        returns ``x``'s gradient (None unless ``need_x``)."""
        if path == FINETUNE:
            layers = self.module.layers(params)
            y, tape = run_layers(layers, x) if backbone is not None else _run_checked(layers, x)
            return y, _tape_backward(tape)
        base, tape = backbone if backbone is not None else _run_checked(self.module.layers(), x)
        adapter = self._adapter(path)
        y, inner = (base, None) if adapter is None else adapter.forward_array(base, params)
        return y, _tape_backward(tape, frozen=True, inner=inner)

    def forward_stacked(self, x, groups):
        """The cell on the array ``x`` without a graph, for schemes stacked on a
        leading axis. ``groups`` lists ``(path, positions, params)``: the
        positions of the schemes that run ``path`` and its
        :meth:`stacked_params` for them. ``x`` is ``(S, n, a)``, or ``(n, a)``
        when every scheme has the same input; then the backbone runs once for
        every path that uses it. One scheme may also run alone, as the single
        group ``(path, None, params)`` on this cell's own parameters: then
        ``x``, the output and their gradients have no scheme axis.

        Only a stack ``(S, n, a)``, ``S`` the plan's scheme count, is
        indexed; any other ``x`` is one shared input, checked once before it
        runs (a stack's rows are checked per group, see :meth:`forward_path`).

        Returns the output, each group's rows put in place by index, and a
        function from its gradient to ``x``'s (None unless asked) that stores
        each parameter's gradient."""
        path, positions, params = groups[0]
        if positions is None:  # one scheme alone
            return self.forward_path(path, x, params)
        shared = x.ndim != 3
        n = sum(len(pos) for _, pos, _ in groups)
        if not shared and x.shape[0] != n:
            raise ad.ShapeError(f"cell {self.index}: a stack of {x.shape[0]} inputs for {n} schemes")
        backbone = (_run_checked(self.module.layers(), x)
                    if shared and any(path != FINETUNE for path, _, _ in groups) else None)
        out, backs = None, []
        for path, positions, params in groups:
            y, back = self.forward_path(path, x if shared else x[positions], params, backbone)
            backs.append((positions, back))
            if out is None:
                out = np.empty((n,) + y.shape[-2:])
            out[positions] = y

        def backward(g, need_x):
            dx = np.empty(g.shape[:-1] + x.shape[-1:]) if need_x else None
            for positions, back in backs:
                d = back(g[positions], need_x)
                if need_x:
                    dx[positions] = d
            return dx

        return out, backward

    def forward_mixed(self, x, k):
        """Path ``k``'s output on the array ``x`` without a graph, as the
        graph's sum of every path weighted by the one-hot row of ``k``: that
        sum is path ``k``'s output up to the sign of a zero. Every path runs,
        the frozen and adapter paths on one backbone, because the weights'
        gradient needs every path's output.

        Returns the output and a function from its gradient ``g`` to
        ``(the weights' gradient, x's gradient or None unless asked)``; only
        path ``k`` is swept back, and no network parameter takes a gradient."""
        backbone = _run_checked(self.module.layers(), x)
        outs, backs = zip(*(self.forward_path(path, x, self._params_of[path], backbone)
                            for path in self.paths))

        def backward(g, need_x):
            # as each path's mul and index_lastdim: the weight's gradient is
            # (g * y) summed to a scalar, and the paths' one-hot contributions
            # are added, which turns a -0.0 into +0.0
            grad = np.zeros(self.n_paths) + [(g * y).sum(axis=0).sum(axis=0) for y in outs]
            return grad, backs[k](g, need_x, params=False) if need_x else None

        return outs[k], backward


def _run_checked(layers, x):
    """:func:`run_layers` on an array ``x`` checked against the first of the
    dense ``layers`` (``ad.dense_check``'s ``ShapeError``): a module's layers
    are built to chain, so no later layer is checked."""
    check_layers(layers[:1], x.shape)
    return run_layers(layers, x)


def _tape_backward(tape, frozen=False, inner=None):
    """The backward of a path: ``inner`` (an adapter's backward) and then the
    module's layers on ``tape``; a frozen backbone is swept only for the
    input gradient."""
    def backward(g, need_x, params=True):
        if inner is not None:
            g = inner(g, need_x, params)
        if not need_x and (frozen or not params):
            return None
        return layers_backward(tape, g, need_x, params)
    return backward


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


def _forward_arrays(model, cells, x, cell_forward):
    """The cascade on the array ``x`` without a graph, cell ``i`` run by
    ``cell_forward(i, cell, h) -> (h, backward)``. Returns the output and,
    per cell, its backward and the softmax output after it (None where no
    softmax follows)."""
    ad.check_finite(x, "leaf")
    h, backs = x, []
    for i, cell in enumerate(cells):
        h, back = cell_forward(i, cell, h)
        s = None
        if model.softmax_after[i]:
            h = s = ad.softmax(h)
            ad.check_finite(s, "softmax_lastdim")
        backs.append((back, s))
    return h, backs


def cascade_forward_stacked(model, cells, plan, x):
    """:func:`cascade_forward` on the array ``x`` without a graph, for schemes
    stacked on a leading axis: ``plan`` holds each cell's groups (see
    :meth:`NfaCell.forward_stacked`; :func:`scheme_plan` runs one scheme on
    the cells' own parameters). Returns the ``(S, n, L)`` logits, ``(n, L)``
    for one scheme alone, and a function that sweeps their gradient back
    into every trained parameter's ``grad``; the sweep stops at the first
    cell where some scheme trains."""
    _check_cascade(model, cells, plan)
    h, backs = _forward_arrays(model, cells, x, lambda i, cell, h: cell.forward_stacked(h, plan[i]))
    first = next((i for i, groups in enumerate(plan) if any(len(p) for _, _, p in groups)), len(plan))

    def backward(g):
        for i in range(len(backs) - 1, first - 1, -1):
            back, s = backs[i]
            if s is not None:
                g = ad.softmax_backward(g, s)
            g = back(g, i > first)

    return h, backward


def cascade_forward_mixed(model, cells, picks, x):
    """The cascade on the array ``x`` without a graph when cell ``i`` runs
    its path ``picks[i]``, as under one-hot path weights (see
    :meth:`NfaCell.forward_mixed`). Returns the logits and a function from
    their gradient to the one-hot weights' gradient, one row per cell; no
    network parameter takes a gradient."""
    _check_cascade(model, cells, picks)
    h, backs = _forward_arrays(model, cells, x,
                               lambda i, cell, h: cell.forward_mixed(h, picks[i]))

    def backward(g):
        grads = np.empty((len(cells), cells[0].n_paths))
        for i in range(len(backs) - 1, -1, -1):
            back, s = backs[i]
            if s is not None:
                g = ad.softmax_backward(g, s)
            grads[i], g = back(g, i > 0)
        return grads

    return h, backward


def scheme_plan(cells, scheme):
    """The plan of :func:`cascade_forward_stacked` that runs ``scheme`` (one
    path name per cell) alone on the cells' own parameters."""
    return [[(choice, None, c.params_for_choice(choice))] for c, choice in zip(cells, scheme)]


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
