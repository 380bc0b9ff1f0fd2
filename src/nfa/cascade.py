"""Toy cascaded multi-task model and adapter blocks.

The cascade mirrors a denoise -> recognize -> label pipeline: three stages of
dense modules connected in series, with the middle stage's softmax output fed
directly to the final stage so gradients flow end to end. Stages 1-2 are
pretrained on source-domain data; the final stage starts from random
initialization and only ever adapts on target data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .data import batch_order


STAGES = ("denoise", "recognize", "label")
RECOGNIZE = STAGES.index("recognize")  # its output is a class posterior: softmax


@dataclass(frozen=True)
class CascadeSpec:
    """The toy cascade: each of the :data:`STAGES` is ``modules_per_stage``
    dense two-layer modules of widths dim -> dim -> dim, except the last
    module, which ends in a linear layer of width ``n_labels``."""

    dim: int = 16
    n_labels: int = 8
    modules_per_stage: int = 2

    def __post_init__(self):
        for name in ("dim", "n_labels", "modules_per_stage"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cascade {name} must be positive, got {getattr(self, name)}")


class NetModule:
    """One searchable unit: a small stack of dense layers of widths ``dims``,
    tanh except for ``final_activation`` on the last, with a frozen pretrained
    snapshot once :meth:`freeze` has been called."""

    def __init__(self, name, dims, rng: np.random.Generator, final_activation="tanh"):
        self.name = name
        self.out_dim = dims[-1]
        self.activations = ["tanh"] * (len(dims) - 2) + [final_activation]
        self.params = ParameterSet()
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            w = rng.normal(0.0, 1.0 / math.sqrt(a), size=(a, b))
            self.params.add(f"L{i}.W", Tensor(w, requires_grad=True))
            self.params.add(f"L{i}.b", Tensor(np.zeros(b), requires_grad=True))
        self._frozen = False

    @property
    def param_count(self):
        return self.params.count

    @property
    def pretrained_params(self):
        if not self._frozen:
            raise RuntimeError(f"module {self.name!r} has not been frozen yet")
        return self.params

    def freeze(self):
        """Snapshot the current weights as the immutable pretrained state: the
        arrays become read-only, so a write into a shared snapshot raises."""
        self.params.freeze()
        self._frozen = True

    def layers(self, params=None):
        """``(W, b, activation)`` of each dense layer, in forward order, from
        ``params`` (this module's own by default)."""
        p = params if params is not None else self.params
        return [(p[f"L{i}.W"], p[f"L{i}.b"], act) for i, act in enumerate(self.activations)]

    def forward(self, x, params=None):
        for w, b, act in self.layers(params):
            x = ad.dense(x, w, b, act)
        return x


class CascadedModel:
    """The stages' modules in series, with a softmax after the recognize stage."""

    def __init__(self, stages):
        self.stages = stages  # one list of modules per entry of STAGES
        self.modules = [m for stage in stages for m in stage]
        # per module: does the softmax after the recognize stage follow it?
        self.softmax_after = [m is stages[RECOGNIZE][-1] for m in self.modules]

    def freeze(self):
        for m in self.modules:
            m.freeze()

    def pretrained_count(self):
        return sum(m.param_count for m in self.modules)


def build_cascade(spec: CascadeSpec, seed: int) -> CascadedModel:
    """Construct all modules, in cascade order, with seeded random initialization."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    d, last = spec.dim, (len(STAGES) - 1, spec.modules_per_stage - 1)

    def module(si, mi):
        name = f"{STAGES[si]}.{mi}"
        if (si, mi) == last:
            return NetModule(name, (d, d, spec.n_labels), rng, final_activation="linear")
        return NetModule(name, (d, d, d), rng)

    return CascadedModel([[module(si, mi) for mi in range(spec.modules_per_stage)]
                          for si in range(len(STAGES))])


def pretrain_upstream(model: CascadedModel, source_data, epochs, lr, batch_size=32, seed=0):
    """Pretrain stage 1 (denoising regression) and stage 2 (intermediate
    classification) on source-domain data; the final stage stays at its random
    init. Freezes all modules afterward, fixing the pretrained snapshots.

    Each stage is checked once, before its first batch: its dense layers
    (``ad.dense_check``), its whole input finite, and its whole target:
    the output's shape and finite (denoise, :func:`checked_target`), or one
    label per input row in the label range (:func:`checked_labels`). Each
    epoch gathers the stage's input and target once in the order of
    :func:`data.batch_order` (the recognize target is the loss seed of
    :func:`_nll_grad`), and the recognize stage runs the trained denoise
    layers over the pass's batches once (:func:`frozen_forward`); a batch is
    a slice of each. A step runs the layers (:func:`dense_arrays`) with
    :func:`run_dense`, and :func:`sweep_dense` writes the gradients into
    one flat buffer for :meth:`Adam.update`. A stage whose input or
    target fails its check raises before any of its weights moves. Every
    check is made under the graph op's name, at the graph's step, and the
    weights equal graph training's bit for bit."""
    if len(source_data) == 0:
        raise ValueError("pretraining requires a nonempty source dataset")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E7A]))
    x, n = source_data.x, len(source_data)

    def run_stage(stage_index, targets, loss_grad):
        params = ParameterSet()
        for m in model.stages[stage_index]:
            params.merge(m.params, prefix=m.name + ".")
        frozen = [layer for stage in model.stages[:stage_index] for m in stage for layer in m.layers()]
        layers = [layer for m in model.stages[stage_index] for layer in m.layers()]
        shape = x[:batch_size].shape
        for w, b, act in frozen + layers:  # the first layer that does not fit raises
            shape = ad.dense_check(shape, w.shape, b.shape, act)
        ad.check_finite(x, "leaf")
        gather = targets((n, shape[1]))
        opt = ad.Adam(params, lr=lr)  # the values become views of its buffer, updated in place
        grad = np.empty(params.count)  # every entry is written by each step's sweep
        grad_of = opt.views_by_id(grad)
        frozen, plan = dense_arrays(frozen, grad_of), dense_arrays(layers, grad_of)
        for _ in range(epochs):
            order, spans = batch_order(n, batch_size, rng)
            hs, ts = x[order], gather(order)
            fault = None
            if frozen:
                hs, fault = frozen_forward(frozen, hs, batch_size)
            stop = len(spans) if fault is None else fault[0]
            for span in spans[:stop]:
                h, tape = run_dense(plan, hs[span])
                sweep_dense(plan, tape, loss_grad(h, ts[span]), False)
                opt.update(grad)
            if fault is not None:  # the graph reaches the bad batch after the steps before it
                ad.check_finite(fault[1][spans[stop]], "dense")
            opt.check_moments()

    def denoise_targets(shape):
        checked_target(source_data.clean, shape)
        return lambda order: source_data.clean[order]

    def recognize_seeds(shape):
        onehot = np.eye(shape[1])[checked_labels(source_data.inter_labels, shape)]
        # the seed of a pass's row is -1/m for the m rows of its batch, so a
        # batch of onehot * seed is _nll_backward's np.full(shape, -1/m) *
        # onehot (the denoise stage's batch_order has accepted batch_size)
        seed = np.full((n, 1), -1.0 / batch_size)
        if n % batch_size:
            seed[n - n % batch_size:] = -1.0 / (n % batch_size)
        return lambda order: onehot[order] * seed

    if epochs > 0:
        run_stage(0, denoise_targets, _mse_grad)
        run_stage(1, recognize_seeds, _nll_grad)
    model.freeze()


def frozen_forward(layers, h, batch_size):
    """The output of dense ``layers`` (:func:`dense_arrays`) on the rows
    ``h`` of a pass, row for row the bytes of each batch of ``batch_size``
    rows alone: the full batches as one stacked product ``(k, batch_size,
    a) @ W``, the short last batch alone, each by ``np.matmul`` into one
    buffer. Each ``z`` is checked by one ``np.vdot``; returns the output
    and None, or ``(i, z)`` for the first batch ``i`` where some layer's
    ``z``, the one returned, is not finite."""
    n, fault = len(h), None
    full = n - n % batch_size
    for w, b, act, _, _ in layers:
        a, width = w.shape
        z = np.empty((n, width))
        if full:  # (0, batch_size, a) overflows numpy's size for a batch_size near 2**63
            np.matmul(h[:full].reshape(-1, batch_size, a), w, out=z[:full].reshape(-1, batch_size, width))
        np.matmul(h[full:], w, out=z[full:])
        z += b
        if not math.isfinite(np.vdot(z, z)):
            bad = ~np.logical_and.reduce(np.isfinite(z), axis=1)
            if bad.any():
                i = int(np.argmax(bad)) // batch_size
                if fault is None or i < fault[0]:
                    fault = i, z
        h = ad.ACTIVATIONS[act][0](z)
    return h, fault


def dense_arrays(layers, grad_of):
    """Dense ``layers`` of tensors ``(W, b, act)`` as the arrays ``(W, b,
    act, dW, db)`` that :func:`run_dense` and :func:`sweep_dense` read: the
    values, and their views in ``grad_of`` (``Adam.views_by_id``) or None
    (``db`` with a row axis for the bias sum)."""
    out = []
    for w, b, act in layers:
        dw, db = grad_of.get(id(w)), grad_of.get(id(b))
        out.append((w.value, b.value, act, dw, db if db is None or db.ndim > 1 else db[None]))
    return out


def run_dense(layers, x, check=False):
    """The output of dense ``layers`` (:func:`dense_arrays`) on the array
    ``x``, and the tape of ``(x, z, y)`` per layer; each layer is
    ``ad.dense_core``, the graph's dense rule and check. With ``check``,
    ``x`` is first checked against the first layer (``ad.dense_check``'s
    ``ShapeError``): the layers are built to chain, so no later layer is."""
    if check:
        w, b, act, _, _ = layers[0]
        ad.dense_check(x.shape, w.shape, b.shape, act)
    tape = []
    for w, b, act, _, _ in layers:
        z, y = ad.dense_core(x, w, b, act)
        tape.append((x, z, y))
        x = y
    return x, tape


def sweep_dense(layers, tape, g, need_x):
    """Sweep a tape of ``(x, z, y)`` per dense layer (:func:`run_dense`'s)
    back from the output gradient ``g``: each layer with a ``dW`` writes its
    gradients into ``dW`` and ``db``. Returns the input gradient, or None
    unless ``need_x``. The arithmetic is ``ad.dense_backward``'s."""
    for k in range(len(layers) - 1, -1, -1):
        w, _, act, dw, db = layers[k]
        x, z, y = tape[k]
        g = ad.ACTIVATIONS[act][1](g, z, y)
        if dw is not None:
            np.add.reduce(g, axis=-2, keepdims=True, out=db)
            np.matmul(x.swapaxes(-1, -2), g, out=dw)
        if not (k or need_x):
            return None
        g = g @ w.swapaxes(-1, -2)
    return g


def _mse_grad(pred, target):
    """The gradient of ``ad.mean((pred - target)**2)`` with respect to a
    finite ``pred`` for a ``target`` checked finite as a leaf, computed and
    checked as the graph of ``add(pred, scale(target, -1))``, ``mul(diff,
    diff)`` and ``tensor_mean``. IEEE subtraction adds the negation; the
    mean's own sum is finite exactly when the three checks pass."""
    diff = pred - target
    sq = diff * diff
    if not math.isfinite(np.add.reduce(sq, axis=None)):
        ad.check_finite(diff, "add")
        ad.check_finite(sq, "mul")
        ad.check_finite(sq.mean(), "mean")
    t = diff * (1.0 / diff.size)
    return t + t  # mul(diff, diff) gets one contribution per input


def checked_target(target, shape):
    """Raise a ``ShapeError`` naming both shapes unless the denoising
    ``target`` has ``shape``, the output's, and the graph's ``leaf`` error
    unless it is finite."""
    if target.shape != shape:
        raise ad.ShapeError(f"denoise target: shape {target.shape} does not match the output's {shape}")
    ad.check_finite(target, "leaf")


def checked_labels(labels, logits_shape):
    """``labels`` as an array, checked to hold one class index in ``[0, L)``
    for each of the ``n`` rows of logits of shape ``(..., n, L)``."""
    labels = np.asarray(labels)
    n, width = logits_shape[-2:]
    if labels.shape != (n,):
        raise ad.ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= width:
        raise ValueError(f"labels must lie in [0, {width}), got range [{labels.min()}, {labels.max()}]")
    return labels


def _checked_log(probs):
    """``np.log(probs)``, checked as the graph's ``log`` op checks it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(probs)
    ad.check_finite(logp, "log")
    return logp


def _nll_probs(logits, labels):
    """``(probs, onehot, logp)`` of ``ad.nll(ad.softmax_lastdim(logits),
    labels)`` for labels that :func:`checked_labels` accepted, computed and
    checked as that graph does. ``logits`` is ``(n, L)`` or stacked
    ``(S, n, L)``, and finite (every caller's logits were checked as the op
    that made them), so their softmax is finite too. A finite ``logp`` leaves
    nothing after it to check: the one-hot picks one entry per row, which
    lies between ``log`` of the least positive double and 0."""
    probs = ad.softmax(logits)
    return probs, np.eye(probs.shape[-1])[labels], _checked_log(probs)


def _nll_grad(logits, seed):
    """:func:`_nll_backward` of :func:`_nll_probs` for ``(n, L)`` logits,
    from the ``seed`` ``np.full((n, L), -1/n) * onehot`` that it would
    build: the softmax of finite logits lies in [0, 1], so its ``log`` is
    taken and checked only when its least entry is not positive."""
    probs = ad.softmax(logits)
    if not np.minimum.reduce(probs, axis=None) > 0.0:
        _checked_log(probs)
    return ad.softmax_backward(seed / probs, probs)


def _nll(logits, labels):
    """``(loss, probs, onehot)`` of :func:`_nll_probs` after
    :func:`checked_labels`, one loss per scheme."""
    probs, onehot, logp = _nll_probs(logits, checked_labels(labels, logits.shape))
    loss = (onehot * logp).sum(axis=-1).mean(axis=-1) * -1.0
    return loss, probs, onehot


def _nll_backward(probs, onehot, g=1.0):
    """The gradient with respect to the logits of :func:`_nll`'s loss from
    its ``probs`` and ``onehot`` and the loss's own gradient ``g``, computed
    as the graph computes it; stacked logits give each scheme the gradient
    of its own loss."""
    g = np.full(probs.shape, (g * -1.0) / probs.shape[-2]) * onehot
    return ad.softmax_backward(g / probs, probs)


class _Adapter:
    """What both adapter kinds share: ``in_dim`` columns in and out, and the
    dense layers ``LAYERS``, each ``(name, activation)`` with the parameters
    ``name.W`` and ``name.b``."""

    def __init__(self, in_dim):
        if in_dim <= 0:
            raise ValueError("adapter in_dim must be positive")
        self.in_dim = in_dim
        self.params = ParameterSet()

    @property
    def param_count(self):
        return self.params.count

    def layers(self, params=None):
        """``(W, b, activation)`` of each of ``LAYERS``, from ``params`` (this
        adapter's own by default)."""
        p = params if params is not None else self.params
        return [(p[f"{name}.W"], p[f"{name}.b"], act) for name, act in self.LAYERS]


class BottleneckAdapter(_Adapter):
    """Down-projection, tanh, up-projection, skip connection. The up projection
    is zero-initialized so the adapter starts as an exact identity."""

    kind = "BA"
    LAYERS = (("down", "tanh"), ("up", "linear"))

    def __init__(self, in_dim, rng: np.random.Generator):
        super().__init__(in_dim)
        self.hidden = max(1, math.ceil(in_dim / 4))
        w_down = rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, self.hidden))
        self.params.add("down.W", Tensor(w_down, requires_grad=True))
        self.params.add("down.b", Tensor(np.zeros(self.hidden), requires_grad=True))
        self.params.add("up.W", Tensor(np.zeros((self.hidden, in_dim)), requires_grad=True))
        self.params.add("up.b", Tensor(np.zeros(in_dim), requires_grad=True))

    def forward(self, x):
        if x.shape[-1] != self.in_dim:
            raise ad.ShapeError(f"BA: input width {x.shape[-1]} != {self.in_dim}")
        down, up = self.layers()
        return ad.add(x, ad.dense(ad.dense(x, *down), *up))

    def run(self, x, layers):
        """:meth:`forward` on the array ``x`` without a graph, with the
        plan's ``layers`` of this adapter (its own, or stacked over schemes):
        :func:`run_dense` and the skip, each array checked finite as the
        graph's ops. Returns the output and the record :meth:`sweep` reads.
        ``x`` is its module's output, of ``in_dim`` columns, and ``layers``
        are this adapter's, so no shape is checked."""
        y, tape = run_dense(layers, x)
        out = x + y
        ad.check_finite(out, "add")
        return out, tape

    def sweep(self, layers, tape, g, need_x):
        """The backward of :meth:`run` from its output gradient ``g``: the
        layers' :func:`sweep_dense`, then the skip's gradient added. Returns
        ``x``'s gradient, or None unless ``need_x``."""
        dx = sweep_dense(layers, tape, g, need_x)
        return g + dx if need_x else None


class GatedAdapter(_Adapter):
    """Elementwise gated mix of the input and an expanded linear transform:
    g(x) * x + (1 - g(x)) * expand(x). Gate bias starts positive so the block
    opens near the identity."""

    kind = "GA"
    LAYERS = (("gate", "sigmoid"), ("expand", "linear"))  # both on the input

    def __init__(self, in_dim, rng: np.random.Generator):
        super().__init__(in_dim)
        self.params.add("gate.W", Tensor(np.zeros((in_dim, in_dim)), requires_grad=True))
        self.params.add("gate.b", Tensor(np.full(in_dim, 3.0), requires_grad=True))
        w_exp = rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, in_dim))
        self.params.add("expand.W", Tensor(w_exp, requires_grad=True))
        self.params.add("expand.b", Tensor(np.zeros(in_dim), requires_grad=True))

    def forward(self, x):
        if x.shape[-1] != self.in_dim:
            raise ad.ShapeError(f"GA: input width {x.shape[-1]} != {self.in_dim}")
        g, expanded = (ad.dense(x, w, b, act) for w, b, act in self.layers())
        one_minus_g = ad.add(ad.constant(np.ones(self.in_dim)), ad.scale(g, -1.0))
        return ad.add(ad.mul(g, x), ad.mul(one_minus_g, expanded))

    def run(self, x, layers):
        """:meth:`forward` on arrays without a graph, as
        :meth:`BottleneckAdapter.run`, with one :func:`run_dense` for each of
        the two layers.

        Only the final ``add`` is checked after the two dense layers: the
        gate is the sigmoid of a finite ``z``, so it lies in [0, 1], and ``x``
        and the expansion are finite, so the graph's ``leaf``, ``scale``,
        ``add`` and two ``mul`` checks before it cannot fail."""
        gate, gate_tape = run_dense(layers[:1], x)
        expanded, expand_tape = run_dense(layers[1:], x)
        one_minus_g = np.ones(self.in_dim) + gate * -1.0
        out = gate * x + one_minus_g * expanded
        ad.check_finite(out, "add")
        return out, (x, gate, expanded, one_minus_g, gate_tape, expand_tape)

    def sweep(self, layers, record, g, need_x):
        """The backward of :meth:`run`, as :meth:`BottleneckAdapter.sweep`;
        each gradient's terms are added in the order the graph's sweep adds
        them."""
        x, gate, expanded, one_minus_g, gate_tape, expand_tape = record
        d_gate = g * x + (g * expanded) * -1.0  # through the mul, then the scale
        dxe = sweep_dense(layers[1:], expand_tape, g * one_minus_g, need_x)
        dxg = sweep_dense(layers[:1], gate_tape, d_gate, need_x)
        return (g * gate + dxe) + dxg if need_x else None  # mul, expand, gate


ADAPTER_KINDS = {"BA": BottleneckAdapter, "GA": GatedAdapter}


def make_adapter(kind, in_dim, rng):
    if kind not in ADAPTER_KINDS:
        raise ValueError(f"unknown adapter kind {kind!r}; choose from {sorted(ADAPTER_KINDS)}")
    return ADAPTER_KINDS[kind](in_dim, rng)
