"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Everything the search needs (dense blocks, adapters, Gumbel-softmax,
cross-entropy, the parameter penalty) is expressible with the small op set
below. Graphs are built eagerly: each op returns a new :class:`Tensor`
holding its value, its parents, and a closure that maps the output gradient
to input gradients.

Elementwise binary ops broadcast only over leading batch dimensions: the
smaller operand's shape must be an exact suffix of the larger one's.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

__all__ = [
    "Tensor",
    "ParameterSet",
    "Adam",
    "ShapeError",
    "NonFiniteError",
    "ACTIVATIONS",
    "check_finite",
    "check_dense",
    "softmax",
    "backward",
    "constant",
    "parameter",
    "add",
    "mul",
    "matmul",
    "tanh",
    "sigmoid",
    "softmax_lastdim",
    "log",
    "tensor_sum",
    "tensor_mean",
    "scale",
    "index_lastdim",
    "dense",
    "dense_check",
    "dense_core",
    "dense_backward",
    "softmax_backward",
    "nll",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's shape rule."""


class NonFiniteError(ArithmeticError):
    """Raised when a tensor holds NaN or infinity."""


_SEQ = itertools.count()  # creation order of tensors: every input is older than its consumer


def check_finite(value, what):
    """Raise :class:`NonFiniteError` naming the op ``what`` unless every
    element of ``value`` is finite."""
    if not np.logical_and.reduce(np.isfinite(value), axis=None):
        raise NonFiniteError(f"non-finite values in tensor produced by op '{what}'")


def check_dense(z):
    """``check_finite(z, "dense")``, run only when the sum of squares of
    ``z`` is not finite (``np.vdot`` warns of no overflow)."""
    if not math.isfinite(np.vdot(z, z)):
        check_finite(z, "dense")


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0 or 1
        return 1.0 / (1.0 + np.exp(-z))


# activation name -> (forward from the pre-activation z,
#                     input gradient from the output gradient g, z and the output y)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda g, z, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda g, z, y: g * y * (1.0 - y)),
    "linear": (lambda z: z, lambda g, z, y: g),
}


def softmax(z):
    """Softmax over the last axis of a numpy array."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Tensor:
    """A node in the computation graph.

    ``grad`` is lazily allocated: only nodes with ``requires_grad`` that are
    graph leaves (parameters) keep gradients after :func:`backward`;
    intermediate gradients live in a scratch map during the sweep. ``seq``
    numbers tensors in creation order.
    """

    __slots__ = ("value", "grad", "requires_grad", "op", "inputs", "_backward_fn", "visits", "seq")

    def __init__(self, value, requires_grad=False, op="leaf", inputs=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        check_finite(self.value, op)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.inputs = tuple(inputs)
        self.grad = None
        self._backward_fn = backward_fn
        self.visits = 0
        self.seq = next(_SEQ)

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value):
    return Tensor(value, requires_grad=False)


def parameter(value):
    return Tensor(value, requires_grad=True)


def _make(kind, value, inputs, backward_fn):
    requires = any(t.requires_grad for t in inputs)
    return Tensor(value, requires, kind, inputs, backward_fn if requires else None)


def _suffix_broadcastable(sa, sb):
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    return big[len(big) - len(small):] == small


def _unbroadcast(g, shape):
    """Reduce a gradient back to ``shape`` after suffix broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _check_binary(kind, sa, sb):
    if not _suffix_broadcastable(sa, sb):
        raise ShapeError(f"{kind}: shape {sa} does not suffix-broadcast with {sb}")


def add(a, b):
    _check_binary("add", a.shape, b.shape)
    return _make(
        "add",
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a, b):
    _check_binary("mul", a.shape, b.shape)
    return _make(
        "mul",
        a.value * b.value,
        (a, b),
        lambda g: (_unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)),
    )


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return _make(
        "matmul",
        a.value @ b.value,
        (a, b),
        lambda g: (g @ b.value.T, a.value.T @ g),
    )


def _activation(act, x):
    forward, grad = ACTIVATIONS[act]
    z = x.value
    y = forward(z)
    return _make(act, y, (x,), lambda g: (grad(g, z, y),))


def tanh(x):
    return _activation("tanh", x)


def sigmoid(x):
    return _activation("sigmoid", x)


def softmax_backward(g, s):
    """The input gradient of a last-axis softmax from its output ``s`` and
    output gradient ``g``."""
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - dot)


def softmax_lastdim(x):
    s = softmax(x.value)
    return _make("softmax_lastdim", s, (x,), lambda g: (softmax_backward(g, s),))


def log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.value)
    return _make("log", out, (x,), lambda g: (g / x.value,))


def tensor_sum(x, axis=None):
    def bwd(g):
        return (np.full(x.shape, g if axis is None else np.expand_dims(g, axis)),)

    return _make("sum", x.value.sum(axis=axis), (x,), bwd)


def tensor_mean(x):
    n = x.value.size
    if n == 0:
        raise ShapeError("mean: cannot reduce an empty tensor")

    def bwd(g):
        return (np.full(x.shape, g / n),)

    return _make("mean", x.value.mean(), (x,), bwd)


def scale(x, c):
    c = float(c)
    return _make("scale", x.value * c, (x,), lambda g: (g * c,))


def index_lastdim(x, k):
    """Select index ``k`` along the last dimension (differentiable gather)."""
    k = int(k)
    if not 0 <= k < x.shape[-1]:
        raise ShapeError(f"index_lastdim: index {k} out of range for shape {x.shape}")

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[..., k] = g
        return (gx,)

    return _make("index_lastdim", x.value[..., k], (x,), bwd)


def _seq(node):
    return node.seq


def _toposort(root):
    """The requires_grad nodes reachable from ``root`` through requires_grad
    nodes, in creation order (root last). Inputs are created before their
    consumers, so creation order is topological; an input no older than its
    consumer can only come from a rewired graph, and is reported as a cycle."""
    if not root.requires_grad:
        return []
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.inputs:
            if child.seq >= node.seq:
                raise ValueError(f"cycle detected in computation graph at op '{child.op}'")
            if child.requires_grad and child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen, key=_seq)


def backward(loss):
    """Populate ``grad`` on every reachable requires_grad leaf of ``loss``.

    Nodes are swept newest first, so each node's backward contribution is
    applied exactly once, after all of its consumers'; ``visits`` counts
    applications for auditability.
    """
    if loss.value.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    grads = {loss: np.ones(())}
    for node in reversed(_toposort(loss)):
        g = grads.pop(node, None)
        if g is None:
            continue
        node.visits += 1
        if node._backward_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for inp, gi in zip(node.inputs, node._backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            prev = grads.get(inp)
            grads[inp] = gi if prev is None else prev + gi


class ParameterSet:
    """An ordered, uniquely named collection of tensors with a total count."""

    def __init__(self, entries=None):
        self._entries = {}
        if entries:
            for name, t in entries.items():
                self.add(name, t)

    def add(self, name, tensor):
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._entries[name] = tensor

    def __getitem__(self, name):
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def items(self):
        return self._entries.items()

    @property
    def count(self):
        return sum(t.value.size for t in self._entries.values())

    def merge(self, other, prefix=""):
        for name, t in other.items():
            self.add(prefix + name, t)
        return self

    def clone(self):
        """A trainable bitwise copy of every tensor."""
        out = ParameterSet()
        for name, t in self.items():
            out.add(name, Tensor(t.value.copy(), requires_grad=True))
        return out

    def freeze(self):
        """Make every tensor a constant: it takes no gradient, and a write
        into its value raises."""
        for t in self._entries.values():
            t.requires_grad = False
            t.grad = None
            t.value.flags.writeable = False

    def zero_grads(self):
        for t in self._entries.values():
            t.grad = None

    def checksum(self):
        """SHA-256 over names and raw value bytes; detects any mutation."""
        h = hashlib.sha256()
        for name, t in self._entries.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.value).tobytes())
        return h.hexdigest()


class Adam:
    """Standard adaptive-moment optimizer over a :class:`ParameterSet`.

    The values and both moments of all parameters each live in one flat
    array: construction copies every value into ``_flat_x``, bytes unchanged,
    and makes the tensor's ``value`` a view into it, so a step ends in one
    subtraction. A read-only (frozen) tensor is refused, since it would be
    handed a writable copy. ``_m`` and ``_v`` map each name to its view into
    the moments."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError("lr must be positive")
        for name, p in params.items():
            if not p.value.flags.writeable:
                raise ValueError(f"adam: parameter {name!r} is read-only (frozen)")
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self._spans = {}  # name -> (start, stop) in the flat arrays
        offset = 0
        for name, p in params.items():
            self._spans[name] = (offset, offset + p.value.size)
            offset += p.value.size
        self._flat_x = np.empty(offset)
        self._flat_m, self._flat_v = np.zeros(offset), np.zeros(offset)
        for name, p in params.items():
            a, b = self._spans[name]
            self._flat_x[a:b] = p.value.reshape(-1)
            p.value = self._flat_x[a:b].reshape(p.shape)
        self._m = self.views(self._flat_m)
        self._v = self.views(self._flat_v)

    def views(self, flat):
        """Each parameter's view, by name and in order, into ``flat``."""
        return {name: flat[a:b].reshape(self.params[name].shape)
                for name, (a, b) in self._spans.items()}

    def views_by_id(self, flat):
        """:meth:`views`, keyed by the ``id`` of each parameter tensor."""
        return {id(self.params[name]): view for name, view in self.views(flat).items()}

    def step(self):
        """Gather every parameter's ``grad`` and :meth:`update` from them."""
        if len(self.params) == 0:
            return
        grads = []
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"adam step: parameter {name!r} has no gradient")
            grads.append(p.grad)
        self.update(np.concatenate(grads, axis=None))

    def update(self, g):
        """One step from the flat gradient ``g``, laid out as :meth:`views`;
        an optimizer of no parameters takes none, as :meth:`step`."""
        if len(self.params) == 0:
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self._flat_m *= self.beta1
        self._flat_m += (1.0 - self.beta1) * g
        self._flat_v *= self.beta2
        self._flat_v += (1.0 - self.beta2) * g * g
        self._flat_x -= self.lr * (self._flat_m / bc1) / (np.sqrt(self._flat_v / bc2) + self.eps)

    def check_moments(self):
        """Raise :class:`NonFiniteError` under the op ``'adam'`` unless both
        moments are finite. A non-finite moment stays so under every later
        update (an infinite second moment makes each later step of its
        parameter 0), so one check per epoch stops every run that a check
        per step would. One ``np.vdot`` of the second moment decides (it
        warns of no overflow): the second moment is finite only if every
        ``(1 - beta2) * g * g`` was, so every gradient lies below about
        4e155 and the first moment, a weighted mean of them, is finite too.
        Only a reduction that is not finite runs the exact check of both and
        of the last update's bias-corrected second moment, whose overflow
        also makes the step 0 (a finite reduction bounds ``v`` below about
        1.3e154, so ``v / (1 - beta2**t)`` is finite). That overflow, unlike
        a non-finite moment, can clear: ``v`` decays and the correction
        grows, so only one still present at the check is caught; steps
        stalled by one that cleared earlier pass unseen."""
        if not math.isfinite(np.vdot(self._flat_v, self._flat_v)):
            check_finite(self._flat_m, "adam")
            check_finite(self._flat_v, "adam")
            if self.t:
                with np.errstate(over="ignore"):
                    check_finite(self._flat_v / (1.0 - self.beta2 ** self.t), "adam")

    def minimize(self, loss, idle=()):
        """One training step: backpropagate ``loss``, update, and return the
        loss value. Every gradient is cleared first; ``idle`` names
        parameters that the step does not reach by design, which take an
        exact zero gradient, so their moments decay and the momentum step
        moves them as if the zeros had been backpropagated. Any other
        parameter left without a gradient fails the step."""
        self.params.zero_grads()
        for name in idle:
            p = self.params[name]
            p.grad = np.zeros(p.shape)
        backward(loss)
        self.step()
        return loss.item()

    def restricted(self, params):
        """A new optimizer over a subset of this one's parameters that
        continues from its step count and a copy of their moments; as with
        any new optimizer, the values move into its own buffer."""
        opt = Adam(params, self.lr)
        opt.t = self.t
        for name in params:
            opt._m[name][...] = self._m[name]
            opt._v[name][...] = self._v[name]
        return opt


def _stacked(shape):
    return len(shape) == 3  # a leading scheme axis: (S, n, a) rows, (S, a, b) weights, (S, 1, b) biases


def dense_check(x_shape, w_shape, b_shape, act):
    """Raise :func:`dense`'s ``ValueError`` for an unknown ``act`` or its
    :class:`ShapeError` for shapes that do not fit; return the shape of the
    layer's output."""
    if act not in ACTIVATIONS:
        raise ValueError(f"dense: unknown activation {act!r}")
    if (len(x_shape) not in (2, 3) or len(w_shape) not in (2, 3) or x_shape[-1] != w_shape[-2]
            or (_stacked(x_shape) and _stacked(w_shape) and x_shape[0] != w_shape[0])):
        raise ShapeError(f"dense: incompatible shapes {x_shape} @ {w_shape}")
    z_shape = (x_shape[:-2] or w_shape[:-2]) + (x_shape[-2], w_shape[-1])
    if _stacked(b_shape):
        fits = _stacked(z_shape) and b_shape == (z_shape[0], 1, z_shape[-1])
    else:
        fits = len(b_shape) <= len(z_shape) and _suffix_broadcastable(b_shape, z_shape)
    if not fits:
        raise ShapeError(f"dense bias: shape {b_shape} does not fit {z_shape}")
    return z_shape


def dense_core(x, w, b, act):
    """``(z, y)`` of a dense layer on numpy arrays whose shapes
    :func:`dense_check` accepts: ``z = x @ w + b`` and ``y = act(z)``;
    ``act`` is a key of :data:`ACTIVATIONS`. ``x`` and ``w`` may carry a
    leading scheme axis, ``(S, n, a)`` and ``(S, a, b)``, with the bias
    then ``(S, 1, b)``: each scheme's slice is computed as alone.

    ``z`` is checked by :func:`check_dense`; a finite ``z`` gives a finite
    ``y`` for every activation, so the activation cannot fail a check."""
    z = x @ w
    z += b  # the bytes of x @ w + b: the bias never widens z (dense_check)
    check_dense(z)
    return z, ACTIVATIONS[act][0](z)


def dense_backward(g, x, w, b_shape, act, z, y, need_x=True, need_w=True, need_b=True):
    """The gradients ``(dx, dw, db)`` of the dense layer :func:`dense_core`
    evaluated, from its output gradient ``g``; each one not needed is None.
    A stacked bias sums each scheme's rows alone."""
    g = ACTIVATIONS[act][1](g, z, y)
    if not need_b:
        db = None
    elif _stacked(b_shape):
        db = g.sum(axis=-2, keepdims=True)
    else:
        db = _unbroadcast(g, b_shape)
    return (g @ w.swapaxes(-1, -2) if need_x else None,
            x.swapaxes(-1, -2) @ g if need_w else None,
            db)


def dense(x, w, b, act):
    """``act(x @ w + b)`` as one node, for the layers of a module or an
    adapter. Its forward and backward evaluate the numpy expressions of
    ``add(matmul(x, w), b)`` followed by the activation op, so values and
    gradients equal theirs bit for bit. An unstacked ``x`` or ``w`` under a
    stacked other operand takes the sum of every scheme's gradient."""
    dense_check(x.shape, w.shape, b.shape, act)
    z, y = dense_core(x.value, w.value, b.value, act)

    def bwd(g):
        dx, dw, db = dense_backward(g, x.value, w.value, b.shape, act, z, y,
                                    x.requires_grad, w.requires_grad, b.requires_grad)
        return (dx if dx is None else _unbroadcast(dx, x.shape),
                dw if dw is None else _unbroadcast(dw, w.shape), db)

    return _make("dense", y, (x, w, b), bwd)


def nll(probs, labels):
    """Mean negative log-likelihood of the integer ``labels`` under the rows
    of ``probs`` (a batch of distributions over the last axis)."""
    onehot = np.eye(probs.shape[-1])[labels]
    logp = log(probs)
    picked = tensor_sum(mul(constant(onehot), logp), axis=-1)
    return scale(tensor_mean(picked), -1.0)
