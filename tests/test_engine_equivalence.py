"""The engine's fast paths against the code they replace, byte for byte.

Each reference below is the earlier implementation, kept here as a test-local
copy: ``affine`` plus an activation op for ``dense`` and for the adapters'
graph forward, the depth-first topological sort for ``backward``,
per-tensor moment arrays for ``Adam``, the Gumbel-softmax graph for
``gumbel_probs``, ``np.broadcast_to(...).copy()`` for the gradients of
``tensor_sum`` and ``tensor_mean``, the adapters' graph forward for their
array rules, one graph-trained scheme at a time for
``harness.train_fixed_schemes``, and ``graph_reference.GraphSearch`` (every
search step on the graph) for the search's graph-free steps.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference
from conftest import SEARCH_FUZZ_PROFILE, make_config, plan_layers
from nfa import autodiff as ad
from nfa import cascade, cell, harness, objective
from nfa.config import config_from_dict
from nfa.data import SynthDataConfig, generate_synthetic
from nfa.search import AdaptiveSearch, SearchConfig, cascade_loss, split_dataset

ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid, "linear": None}


def affine(x, w, b):
    """x @ w + b as the ops ``matmul`` and ``add``: the adapters' building
    block before they ran on ``dense`` nodes."""
    return ad.add(ad.matmul(x, w), b)


def affine_then(x, w, b, act):
    h = affine(x, w, b)
    return h if ACTIVATIONS[act] is None else ACTIVATIONS[act](h)


def affine_adapter_forward(adapter, x):
    """The graph forward of a BA or GA adapter as it was built from
    :func:`affine` and the ``tanh``/``sigmoid`` ops."""
    p = adapter.params
    if adapter.kind == "BA":
        h = ad.tanh(affine(x, p["down.W"], p["down.b"]))
        return ad.add(x, affine(h, p["up.W"], p["up.b"]))
    g = ad.sigmoid(affine(x, p["gate.W"], p["gate.b"]))
    expanded = affine(x, p["expand.W"], p["expand.b"])
    one_minus_g = ad.add(ad.constant(np.ones(adapter.in_dim)), ad.scale(g, -1.0))
    return ad.add(ad.mul(g, x), ad.mul(one_minus_g, expanded))


class TestDense:
    @pytest.mark.parametrize("act", sorted(ACTIVATIONS))
    def test_matches_affine_and_activation(self, act, rng):
        values = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        r = rng.normal(size=(5, 3))
        results = []
        for layer in (ad.dense, affine_then):
            x, w, b = (ad.parameter(v.copy()) for v in values)
            out = layer(x, w, b, act)
            ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(r))))
            results.append([out.value.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
        assert results[0] == results[1]

    def test_frozen_weights_pass_input_gradient(self, rng):
        x = ad.parameter(rng.normal(size=(2, 3)))
        w, b = ad.constant(rng.normal(size=(3, 3))), ad.constant(np.zeros(3))
        ad.backward(ad.tensor_sum(ad.dense(x, w, b, "tanh")))
        assert x.grad is not None and w.grad is None and b.grad is None

    def test_rejects_bad_input(self):
        x, w, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 4))), ad.constant(np.ones(4))
        with pytest.raises(ad.ShapeError, match="dense"):
            ad.dense(x, ad.constant(np.ones((2, 4))), b, "tanh")
        with pytest.raises(ad.ShapeError, match="bias"):
            ad.dense(x, w, ad.constant(np.ones(3)), "tanh")
        with pytest.raises(ValueError, match="unknown activation"):
            ad.dense(x, w, b, "gelu")

    def test_strict_catches_saturated_overflow(self):
        # tanh(inf) is finite, so only the pre-activation shows the overflow
        x, b = ad.constant(np.full((1, 2), 1e200)), ad.constant(np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="dense"):
            ad.dense(x, ad.constant(np.full((2, 2), 1e200)), b, "tanh")


# -- backward ------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(), (5,), (4, 3), (2, 3, 4)])
def test_reduction_gradients_match_broadcast_copy(shape, rng):
    x = ad.parameter(rng.normal(size=shape))
    g = np.asarray(rng.normal())
    cases = [(ad.tensor_sum(x), g, np.broadcast_to(g, shape).copy()),
             (ad.tensor_mean(x), g, np.broadcast_to(g / x.value.size, shape).copy())]
    if shape:
        g_rows = rng.normal(size=shape[:-1])
        cases.append((ad.tensor_sum(x, axis=-1), g_rows,
                      np.broadcast_to(np.expand_dims(g_rows, -1), shape).copy()))
    for node, upstream, want in cases:
        (got,) = node._backward_fn(upstream)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert got.tobytes() == want.tobytes()


def dfs_toposort(root):
    order = []
    VISITING, DONE = 0, 1
    state = {id(root): VISITING}
    stack = [(root, iter(root.inputs))]
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            state[id(node)] = DONE
            order.append(node)
            continue
        mark = state.get(id(child))
        if mark is VISITING:
            raise ValueError(f"cycle detected in computation graph at op '{child.op}'")
        if mark is None:
            state[id(child)] = VISITING
            stack.append((child, iter(child.inputs)))
    return order


def dfs_backward(loss):
    grads = {id(loss): np.ones(())}
    for node in reversed(dfs_toposort(loss)):
        g = grads.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._backward_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for inp, gi in zip(node.inputs, node._backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            prev = grads.get(id(inp))
            grads[id(inp)] = gi if prev is None else prev + gi


def toy6_search(seed):
    model = cascade.build_cascade(cascade.CascadeSpec(), seed)
    source = generate_synthetic(SynthDataConfig(n_samples=128, domain="source"), seed)
    cascade.pretrain_upstream(model, source, epochs=2, lr=0.01, seed=seed)
    cfg = SearchConfig(seed=seed, lr_network=0.01, lr_arch=0.05)
    target = generate_synthetic(SynthDataConfig(n_samples=128, domain="target"), seed)
    train, val = split_dataset(target, cfg.split_ratio, seed)
    cells = cell.build_cells(model, seed=seed)
    return AdaptiveSearch(model, cells, train, val, objective.PenaltyConfig(), cfg)


@pytest.mark.parametrize("seed", [0, 7])
def test_backward_matches_depth_first_sweep_on_arch_step_graph(seed):
    s = toy6_search(seed)
    for _ in range(3):  # move alpha and the adapters off their initial values
        s.arch_step(s.val_data.subset(np.arange(32)))
        s.net_step(s.train_data.subset(np.arange(32)))
    batch = s.val_data.subset(np.arange(32))
    # soft weights: every path of every cell carries a nonzero gradient, so the
    # order in which a node's contributions are summed shows in its bytes
    weights = [cell.gumbel_softmax(c.alpha, s.tau, rng=s._gumbel_rng, hard=False) for c in s.cells]
    task = graph_reference.cascade_loss(s.model, s.cells, weights, batch)
    loss = objective.total_loss(task, objective.penalty(s.cells, weights, s.penalty_cfg),
                                s.penalty_cfg)
    consumers = {}
    for node in dfs_toposort(loss):
        for inp in node.inputs:
            if inp.requires_grad:
                consumers[id(inp)] = consumers.get(id(inp), 0) + 1
    assert max(consumers.values()) >= 3  # the summation order into a node matters
    leaves = dict(s.net_params.items()) | dict(s.arch_params.items())
    sweeps = []
    for sweep in (ad.backward, dfs_backward):
        for t in leaves.values():
            t.grad = None
        sweep(loss)
        sweeps.append({name: t.grad.tobytes() for name, t in leaves.items()
                       if t.grad is not None})
    assert sweeps[0] == sweeps[1]
    assert len(sweeps[0]) == len(leaves)


# -- Adam ----------------------------------------------------------------------


class PerTensorAdam:
    """Adam with one moment array per tensor."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.t = 0
        self._m = {name: np.zeros(t.shape) for name, t in params.items()}
        self._v = {name: np.zeros(t.shape) for name, t in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g, m, v = p.grad, self._m[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def minimize(self, loss, idle=()):
        self.params.zero_grads()
        for name in idle:
            self.params[name].grad = np.zeros(self.params[name].shape)
        ad.backward(loss)
        self.step()

    def restricted(self, params):
        opt = PerTensorAdam(params, self.lr, (self.beta1, self.beta2), self.eps)
        opt.t = self.t
        opt._m = {name: self._m[name].copy() for name in params}
        opt._v = {name: self._v[name].copy() for name in params}
        return opt


SHAPES = {"W": (4, 3), "b": (3,), "s": (), "u": (2, 2), "c": (5,)}


def adam_run(opt_cls):
    rng = np.random.default_rng(17)
    ps = ad.ParameterSet({k: ad.parameter(rng.normal(size=shape)) for k, shape in SHAPES.items()})
    probes = {k: rng.normal(size=(20,) + shape) for k, shape in SHAPES.items()}
    opt = opt_cls(ps, lr=0.05)

    def loss(step, names):
        terms = [ad.tensor_sum(ad.mul(ps[k], ad.mul(ps[k], ad.constant(probes[k][step]))))
                 for k in names]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return total

    for step in range(20):
        idle = ["u", "c"] if step % 3 == 0 else ["s"] if step % 3 == 1 else []
        opt.minimize(loss(step, [k for k in SHAPES if k not in idle]), idle=idle)
    sub = opt.restricted(ad.ParameterSet({k: ps[k] for k in ("c", "W")}))
    for step in range(5):
        sub.minimize(loss(step, ["W"]), idle=["c"])
    record = [(opt.t, sub.t)] + [
        (k, ps[k].value.tobytes(), opt._m[k].tobytes(), opt._v[k].tobytes()) for k in SHAPES] + [
        (k, sub._m[k].tobytes(), sub._v[k].tobytes()) for k in ("c", "W")]
    return record, ps, opt, sub


def test_flat_adam_matches_per_tensor_adam():
    record, ps, opt, sub = adam_run(ad.Adam)
    assert record == adam_run(PerTensorAdam)[0]
    # every value is a view into the buffer of the optimizer that last took it
    for k, t in ps.items():
        owner = sub if k in ("c", "W") else opt
        a, b = owner._spans[k]
        assert t.value.base is owner._flat_x, k
        assert np.shares_memory(t.value, owner._flat_x[a:b]), k
        assert t.value.tobytes() == owner._flat_x[a:b].tobytes(), k


def test_restricted_of_restricted_copies_moments():
    ps = ad.ParameterSet({k: ad.parameter(np.ones(shape)) for k, shape in SHAPES.items()})
    opt = ad.Adam(ps, lr=0.1)
    for k, shape in SHAPES.items():
        ps[k].grad = np.ones(shape)
    opt.step()
    sub = opt.restricted(ad.ParameterSet({k: ps[k] for k in ("c", "b", "W")}))
    inner = sub.restricted(ad.ParameterSet({"W": ps["W"]}))
    assert inner.t == 1 and inner._m["W"].tobytes() == opt._m["W"].tobytes()
    inner.step()
    assert inner.t == 2 and sub.t == opt.t == 1
    assert np.array_equal(inner._m["W"], np.full(SHAPES["W"], 0.9 * (1.0 - 0.9) + (1.0 - 0.9)))
    for o in (opt, sub):  # neither earlier optimizer's moments moved
        assert np.array_equal(o._m["W"], np.full(SHAPES["W"], 1.0 - 0.9))
    assert ps["W"].value.base is inner._flat_x and ps["b"].value.base is sub._flat_x


# -- net-step sampling ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       tau=st.floats(0.05, 10.0), spread=st.floats(0.0, 20.0))
def test_gumbel_argmax_matches_hard_gumbel_softmax(seed, n, tau, spread):
    alpha = ad.parameter(np.random.default_rng(seed).normal(size=n) * spread)
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(3):
        want = int(np.argmax(cell.gumbel_softmax(alpha, tau, rng=a, hard=True).values))
        assert int(np.argmax(cell.gumbel_probs([SimpleNamespace(alpha=alpha)], tau, b)[0])) == want
    assert a.bit_generator.state == b.bit_generator.state


def test_gumbel_argmax_keeps_checks():
    alpha = ad.parameter(np.zeros(3))
    one_cell = [SimpleNamespace(alpha=alpha)]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="temperature must be positive"):
        cell.gumbel_probs(one_cell, 0.0, rng)
    with pytest.raises(ad.NonFiniteError, match="op 'scale'"):
        cell.gumbel_probs(one_cell, 1e-320, rng)  # 1/tau overflows
    alpha.value[1] = np.nan
    for sample in (lambda a, t, r: cell.gumbel_probs([SimpleNamespace(alpha=a)], t, r),
                   lambda a, t, r: cell.gumbel_softmax(a, t, rng=r, hard=True)):
        with pytest.raises(ad.NonFiniteError, match="op 'add'"):
            sample(alpha, 1.0, rng)


# -- stacked fixed-scheme training ----------------------------------------------


def stacked_copies(params, copies, rng):
    """Random values for ``params`` stacked as ``cell.NfaCell.stacked_params`` stacks them."""
    return {name: rng.normal(size=(copies,) + (1,) * (2 - t.value.ndim) + t.shape)
            for name, t in params.items()}


@pytest.mark.parametrize("kind", sorted(cascade.ADAPTER_KINDS))
@pytest.mark.parametrize("shared", [True, False])
def test_adapter_array_rule_matches_graph(kind, shared, rng):
    adapter = cascade.make_adapter(kind, 8, rng)
    copies, n = 3, 5
    values = stacked_copies(adapter.params, copies, rng)
    x = rng.normal(size=(n, 8) if shared else (copies, n, 8))
    g = rng.normal(size=(copies, n, 8))
    stacked = ad.ParameterSet({name: ad.parameter(v.copy()) for name, v in values.items()})
    layers = plan_layers(adapter.layers(stacked))
    grads = {f"{name}.{part}": layer[3 + i]
             for (name, _), layer in zip(adapter.LAYERS, layers) for i, part in enumerate("Wb")}
    out, record = adapter.run(x, layers)
    if not shared:  # the input-only backward: the same bytes, and no parameter gradient
        dx_only = adapter.sweep([layer[:3] + (None, None) for layer in layers], record, g, True)
        assert all(np.isnan(a).all() for a in grads.values())
        assert dx_only.tobytes() == adapter.sweep(layers, record, g, True).tobytes()
    dx = adapter.sweep(layers, record, g, need_x=not shared)
    assert (dx is None) == shared
    for k in range(copies):
        for name, t in adapter.params.items():
            t.value, t.grad = values[name][k].reshape(t.shape).copy(), None
        xk = ad.constant(x) if shared else ad.parameter(x[k].copy())
        y = adapter.forward(xk)
        ad.backward(ad.tensor_sum(ad.mul(y, ad.constant(g[k]))))
        assert y.value.tobytes() == out[k].tobytes()
        for name, t in adapter.params.items():
            assert t.grad.tobytes() == grads[name][k].reshape(t.shape).tobytes(), name
        if not shared:
            assert xk.grad.tobytes() == dx[k].tobytes()


def test_array_rules_check_under_graph_op_names(rng):
    adapter = cascade.make_adapter("BA", 4, rng)
    stacked = ad.ParameterSet({name: ad.parameter(v) for name, v
                               in stacked_copies(adapter.params, 2, rng).items()})
    stacked["down.W"].value[1, 0, 0] = np.inf
    with pytest.raises(ad.NonFiniteError, match="op 'dense'"):
        adapter.run(rng.normal(size=(3, 4)), plan_layers(adapter.layers(stacked)))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="op 'dense'"):
        cascade.run_dense(plan_layers([(ad.constant(np.full((4, 4), 1e200)), ad.constant(np.zeros(4)),
                                        "tanh")]), np.full((2, 3, 4), 1e200))


@pytest.mark.parametrize("kind", sorted(cascade.ADAPTER_KINDS))
@pytest.mark.parametrize("copies", [None, 2])
def test_adapter_dense_graph_matches_affine_graph(kind, copies, rng):
    """The adapter's graph forward on ``dense`` nodes gives the bytes of its
    :func:`affine_adapter_forward`: the value, every parameter's gradient
    and the input's gradient. Stacked parameters and a stacked input (of
    ``copies`` schemes) give each scheme's slice the bytes of that scheme
    alone."""
    adapter = cascade.make_adapter(kind, 6, rng)
    n, shapes = 4, {name: t.shape for name, t in adapter.params.items()}
    if copies is None:
        values = {name: rng.normal(size=t.shape) for name, t in adapter.params.items()}
        x, r = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    else:
        values = stacked_copies(adapter.params, copies, rng)
        x, r = rng.normal(size=(copies, n, 6)), rng.normal(size=(copies, n, 6))

    def run(forward, values, x, r):
        adapter.params = ad.ParameterSet({name: ad.parameter(v.copy())
                                          for name, v in values.items()})
        xt = ad.parameter(x.copy())
        out = forward(adapter, xt)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(r))))
        return [out.value, xt.grad] + [t.grad for _, t in adapter.params.items()]

    got = run(type(adapter).forward, values, x, r)
    if copies is None:
        want = run(affine_adapter_forward, values, x, r)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        return
    for k in range(copies):
        alone = {name: v[k].reshape(shapes[name]) for name, v in values.items()}
        want = run(affine_adapter_forward, alone, x[k], r[k])
        assert [a[k].reshape(w.shape).tobytes() for a, w in zip(got, want)] == [
            w.tobytes() for w in want]


def test_stacked_dense_rejects_mismatched_shapes():
    x, w = np.ones((2, 5, 3)), np.ones((3, 3, 4))
    with pytest.raises(ad.ShapeError, match="dense"):
        ad.dense_check(x.shape, w.shape, (3, 1, 4), "tanh")
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.dense_check(x.shape, w[:2].shape, (2, 5, 4), "tanh")


def test_dense_rejects_a_stacked_bias_for_an_unstacked_output():
    shapes = (3, 4), (4, 5), (3, 1, 5)
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.dense_check(*shapes, "tanh")
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.dense(*(ad.constant(np.ones(shape)) for shape in shapes), "tanh")


def graph_fixed_scheme(model, cells, scheme, train, val, lr, epochs, batch_size, seed):
    """One scheme trained alone on the graph, in place: the loop that
    ``harness.train_fixed_schemes`` replaces."""
    opt = ad.Adam(cell.scheme_params(cells, scheme), lr=lr)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x04AC]))
    for _ in range(epochs if len(opt.params) else 0):
        for batch in train.batches(batch_size, rng):
            opt.minimize(cascade_loss(model, cells, scheme, batch))
    return cascade_loss(model, cells, scheme, val).item()


def fixed_scheme_config(batch_size=32, **kw):
    kw = {"preset": "toy3", "pretrain_epochs": 5, "n_source": 256, "n_target": 256,
          "stage2_epochs": 2} | kw
    raw = make_config(**kw).raw
    raw["search"]["batch_size"] = batch_size
    return config_from_dict(raw)


def training_args(cfg, seed):
    return {"lr": cfg.search.lr_network, "epochs": cfg.search.stage2_epochs,
            "batch_size": cfg.search.batch_size, "seed": seed}


def checksums(cells):
    return [c.trainable_params().checksum() for c in cells]


FIXED_SCHEME_CASES = {
    "toy3 BA, seed 0": ({}, 0),
    "toy3 BA, seed 170": ({}, 170),
    "GA": ({"adapters": ("GA",)}, 1),
    "BA+GA: 64 schemes, a short last stack": ({"adapters": ("BA", "GA")}, 2),
    "NA": ({"mode": "NA"}, 3),
    "batches of 24 from 150 rows": ({"batch_size": 24, "n_target": 300}, 4),
    "no stage-2 epochs": ({"stage2_epochs": 0}, 5),
}


@pytest.mark.parametrize("case", sorted(FIXED_SCHEME_CASES))
def test_stacked_schemes_match_one_at_a_time_on_the_graph(case):
    kw, seed = FIXED_SCHEME_CASES[case]
    cfg = fixed_scheme_config(**kw)
    model, cells, train, val = harness.build_experiment(cfg, seed)
    space = harness.scheme_space(cells)
    before = checksums(cells)
    got = harness.train_fixed_schemes(model, cells, space, train, val, **training_args(cfg, seed))
    assert checksums(cells) == before  # every scheme starts from the same values
    want = [graph_fixed_scheme(model, cell.build_cells(model, mode=cfg.mode,
                                                       adapter_kinds=cfg.adapters, seed=seed),
                               scheme, train, val, **training_args(cfg, seed))
            for scheme in space]
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_one_toy6_scheme_matches_graph():
    cfg = fixed_scheme_config(preset="toy6")
    model, cells, train, val = harness.build_experiment(cfg, 6)
    # fine-tune on the shared input, then every path with an input gradient
    scheme = ("finetune", "adapter:BA", "frozen", "adapter:BA", "frozen", "finetune")
    got = harness.train_fixed_scheme(model, cells, scheme, train, val, **training_args(cfg, 6))
    want = graph_fixed_scheme(model, cells, scheme, train, val, **training_args(cfg, 6))
    assert repr(got) == repr(want)


def test_one_scheme_stacks_a_copy_of_its_own_parameters_alone():
    cfg = fixed_scheme_config(preset="toy6", pretrain_epochs=1, n_source=64, n_target=64)
    model, cells, train, val = harness.build_experiment(cfg, 0)
    scheme = ("finetune", "adapter:BA", "frozen", "adapter:BA", "frozen", "finetune")
    stacks, params = harness._stack(cells, [scheme])
    assert params.count == sum(c.trainable_count(choice) for c, choice in zip(cells, scheme))
    for c, groups, choice in zip(cells, stacks, scheme):
        (path, positions, own), = groups
        assert path == choice and positions is None
        theirs = c.params_for_choice(choice)
        assert list(own) == list(theirs)
        for name, t in own.items():
            assert t is not theirs[name] and t.value.tobytes() == theirs[name].value.tobytes()
            assert t.value.shape == theirs[name].value.shape  # no scheme axis
    plan = cell.Plan(model, cells, ad.Adam(params, lr=0.01), stacks)
    for groups in plan.groups:
        assert len(groups) == 1 and groups[0].positions is None
        assert all(w.ndim == 2 and b.ndim == 1 and db.ndim == 2 for w, b, _, _, db in groups[0].layers)


def test_alone_is_a_2d_row_of_the_stack():
    # after two stacked steps, every scheme's rows differ from the others':
    # each scheme alone runs on its own 2-D rows and equals its stacked row
    cfg = fixed_scheme_config(preset="toy6", pretrain_epochs=1, n_source=64, n_target=64)
    model, cells, train, val = harness.build_experiment(cfg, 0)
    schemes = [("finetune",) * 6, ("adapter:BA",) * 6, ("frozen",) * 6,
               ("finetune", "adapter:BA", "frozen", "adapter:BA", "frozen", "finetune"),
               ("adapter:BA", "finetune", "finetune", "frozen", "adapter:BA", "adapter:BA")]
    stacks, params = harness._stack(cells, schemes)
    plan = cell.Plan(model, cells, ad.Adam(params, lr=0.05), stacks)
    for rows in (np.arange(16), np.arange(16, 32)):
        plan.step(plan.groups, train.subset(rows))
    stacked, _ = plan.forward(plan.groups, val.x)
    for k, scheme in enumerate(schemes):
        groups = plan.alone(k)
        assert [gs[0].path for gs in groups] == list(scheme)
        for gs in groups:
            assert len(gs) == 1 and gs[0].positions is None
            for w, b, _, dw, db in gs[0].layers:
                assert w.ndim == 2 and b.ndim == 1 and dw is None and db is None
        alone, _ = plan.forward(groups, val.x)
        assert alone.shape == stacked[k].shape and alone.tobytes() == stacked[k].tobytes()


def test_oracle_checks_moments_once_per_trained_chunk_epoch(monkeypatch):
    cfg = fixed_scheme_config()
    model, cells, train, val = harness.build_experiment(cfg, 0)
    checked = []
    monkeypatch.setattr(ad.Adam, "check_moments", lambda opt: checked.append(opt))
    space = harness.scheme_space(cells)  # 27 schemes: chunks of 14 and 13
    harness.train_fixed_schemes(model, cells, space, train, val, **training_args(cfg, 0))
    assert len(checked) == 2 * cfg.search.stage2_epochs
    checked.clear()
    harness.train_fixed_scheme(model, cells, ("frozen",) * 3, train, val, **training_args(cfg, 0))
    assert checked == []  # an all-frozen scheme trains nothing


def test_stacked_schemes_reject_what_the_graph_rejects():
    cfg = fixed_scheme_config()
    model, cells, train, val = harness.build_experiment(cfg, 0)
    args = training_args(cfg, 0)
    with pytest.raises(ValueError, match="cell has no path 'adapter:GA'"):
        harness.train_fixed_schemes(model, cells, [("frozen",) * 3, ("frozen", "adapter:GA", "frozen")],
                                    train, val, **args)
    with pytest.raises(ValueError, match="names 2 paths for 3 cells"):
        harness.train_fixed_scheme(model, cells, ("frozen", "finetune"), train, val, **args)


# -- search steps without a network graph ----------------------------------------


def search_state(s):
    """Every byte a search step may change: the parameters, both optimizers'
    moments and step counts, and the sampler's state."""
    out = [s._gumbel_rng.bit_generator.state]
    for opt in (s.opt_net, s.opt_arch):
        out += [opt.t, opt._flat_m.tobytes(), opt._flat_v.tobytes()]
    for group in (s.net_params, s.arch_params):
        out += [(name, t.value.tobytes()) for name, t in group.items()]
    return out


def search_pair(batch_size=32, seed=0, **kw):
    """The same search twice: graph-free, and with every step on the graph."""
    cfg = fixed_scheme_config(batch_size, stage1_epochs=2, **kw)
    searches = []
    for cls in (AdaptiveSearch, graph_reference.GraphSearch):
        model, cells, train, val = harness.build_experiment(cfg, seed)
        searches.append(cls(model, cells, train, val, cfg.penalty, cfg.search))
    return searches


SEARCH_CASES = {
    "toy3, seed 0": ({}, 0),
    "toy3, seed 170": ({}, 170),
    "toy6, seed 0": ({"preset": "toy6"}, 0),
    "toy6, seed 170": ({"preset": "toy6"}, 170),
    "GA": ({"adapters": ("GA",)}, 1),
    "BA+GA": ({"adapters": ("BA", "GA")}, 2),
    "NA": ({"mode": "NA"}, 3),
    "penalty disabled": ({"penalty": {"enabled": False}}, 4),
    "penalty coefficient 0": ({"penalty": {"coefficient": 0.0}}, 5),
    "batches of 24 from 150 rows": ({"batch_size": 24, "n_target": 300}, 6),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_steps_match_graph_steps(case):
    kw, seed = SEARCH_CASES[case]
    new, ref = search_pair(seed=seed, **kw)
    rng = np.random.default_rng(seed)
    train, val = (s.batches(new.cfg.batch_size, rng) for s in (new.train_data, new.val_data))
    for it in range(len(train)):  # the steps' return values
        assert ([repr(v) for v in new.arch_step(val[it % len(val)])]
                == [repr(v) for v in ref.arch_step(val[it % len(val)])])
        assert repr(new.net_step(train[it])) == repr(ref.net_step(train[it]))
        assert search_state(new) == search_state(ref)
    states = {id(new): [], id(ref): []}

    def record(kind, s):
        states[id(s)].append((kind, search_state(s)))

    for s in (new, ref):
        s.run_stage1(step_callback=record)
        s.run_stage2(step_callback=record)
    assert states[id(new)] == states[id(ref)]
    assert [repr(r) for r in new.state.history] == [repr(r) for r in ref.state.history]
    assert repr(new.evaluate(new.val_data)) == repr(ref.evaluate(ref.val_data))


@pytest.mark.parametrize("mode, kinds", [("NFA", ("BA",)), ("NFA", ("GA",)), ("NA", ("BA",))],
                         ids=["NFA-BA", "NFA-GA", "NA-BA"])
def test_net_step_gradient_buffer_is_the_graph_gradients(mode, kinds):
    # after each net step the plan's flat buffer holds, byte for byte, the
    # per-parameter gradients of the graph step, in the optimizer's layout;
    # every parameter of an unsampled path holds exactly +0.0
    new, ref = search_pair(mode=mode, adapters=kinds)
    batches = new.train_data.batches(16, np.random.default_rng(3))
    idle_seen = 0
    for batch in batches[:6]:
        state = new._gumbel_rng.bit_generator.state
        assert repr(new.net_step(batch)) == repr(ref.net_step(batch))
        want = np.concatenate([t.grad for _, t in ref.opt_net.params.items()], axis=None)
        assert new._plan.grad.tobytes() == want.tobytes()
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = state
        picks = cell.gumbel_probs(new.cells, new.tau, replay).argmax(axis=-1)
        views = new.opt_net.views(new._plan.grad)
        for name in ref.idle([c.paths[k] for c, k in zip(new.cells, picks)]):
            assert views[name].tobytes() == bytes(views[name].nbytes), name
            idle_seen += 1
    assert idle_seen


def failure(step, *args, **kwargs):
    """The error ``step(*args, **kwargs)`` raises, as its type and message."""
    with pytest.raises(Exception) as info:
        step(*args, **kwargs)
    return type(info.value), str(info.value)


def outcome(step):
    """The error ``step()`` raises as its type and message, or None."""
    try:
        step()
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("lr, value, raises", [("lr_arch", 1e300, None),
                                                ("lr_arch", 1e308, "add"),
                                                ("lr_network", 1e300, "log")])
def test_search_overflow_matches_graph(lr, value, raises):
    # a huge learning rate makes some step's arrays non-finite, or not: both
    # searches must stop at the same step with the same error, or finish, in
    # the same state
    new, ref = search_pair(**{lr: value})
    with np.errstate(over="ignore"):  # Adam's update overflows alpha at 1e308
        got = outcome(new.run_stage1)
        assert got == outcome(ref.run_stage1)
    assert search_state(new) == search_state(ref)
    if raises is None:
        assert got is None
    else:
        assert got == (ad.NonFiniteError, f"non-finite values in tensor produced by op '{raises}'")


@pytest.mark.parametrize("coefficient, raises", [(1e308, "adam"), (1.7e308, "scale")])
def test_penalty_overflow_matches_graph(coefficient, raises):
    # coefficient times a penalty above 1 overflows: the architecture step's
    # total loss raises as the graph's scale, before alpha moves. Below that,
    # the penalty's gradient squared overflows Adam's second moment: both
    # searches step alike to the end of the epoch, which then raises
    new, ref = search_pair(penalty={"pfr_policy": "half_finetune", "coefficient": coefficient,
                                    "enabled": True})
    with np.errstate(over="ignore"):
        got = outcome(new.run_stage1)
        assert got == outcome(ref.run_stage1)
    assert search_state(new) == search_state(ref)
    assert got == (None if raises is None else
                   (ad.NonFiniteError, f"non-finite values in tensor produced by op '{raises}'"))


def test_search_non_finite_input_matches_graph():
    new, ref = search_pair()
    batch = new.train_data.subset(np.arange(8))
    batch.x[3, 2] = np.nan
    for step in ("arch_step", "net_step"):
        got = failure(getattr(new, step), batch)
        assert got == failure(getattr(ref, step), batch)
        assert "op 'leaf'" in got[1]
        assert search_state(new) == search_state(ref)


def poke(tau=None, alpha=None, nan_in_last_cell=False):
    """A change made to both searches before the step under test."""
    def apply(s):
        if tau is not None:
            s.tau = tau
        for c in s.cells:
            if alpha is not None:
                c.alpha.value[:] = alpha
        if nan_in_last_cell:
            s.cells[-1].alpha.value[1] = np.nan
    return apply


# the change, and the error both the architecture step and the network step
# then raise (None: the step completes)
SAMPLER_FAILURES = {
    "1/tau overflows": (poke(tau=1e-320), "scale"),
    "NaN alpha in the last cell": (poke(nan_in_last_cell=True), "add"),
    "alpha at +-1e308": (poke(alpha=[1e308, -1e308, 0.0]), None),
    "alpha at +-1e308, tau 0.5": (poke(tau=0.5, alpha=[1e308, -1e308, 0.0]), "scale"),
}


@pytest.mark.parametrize("step", ["arch_step", "net_step"])
@pytest.mark.parametrize("case", sorted(SAMPLER_FAILURES))
def test_sampler_failures_match_graph(case, step):
    # the batched sampler raises the error of the per-cell graph sampler, at
    # the same cell, with the generator where the per-cell draws leave it
    change, op = SAMPLER_FAILURES[case]
    new, ref = search_pair()
    batch = new.val_data.subset(np.arange(8))
    for s in (new, ref):
        s.arch_step(batch)  # move alpha and the optimizer off their initial state
        change(s)
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: getattr(new, step)(batch))
        assert got == outcome(lambda: getattr(ref, step)(batch))
    assert search_state(new) == search_state(ref)
    assert got == (None if op is None else
                   (ad.NonFiniteError, f"non-finite values in tensor produced by op '{op}'"))


@pytest.mark.parametrize("bad", ["-1", "L", "shape"])
def test_search_steps_check_labels(bad):
    new, ref = search_pair()
    batch = new.train_data.subset(np.arange(8))
    labels = {"-1": np.r_[batch.labels[:-1], -1], "L": np.r_[batch.labels[:-1], 8],
              "shape": batch.labels[:-1]}[bad]
    batch = replace(batch, labels=labels)
    want = failure(objective.task_loss, ad.constant(np.zeros((8, 8))), labels)
    assert want[0] is (ad.ShapeError if bad == "shape" else ValueError)
    assert failure(cascade._nll, np.zeros((8, 8)), labels) == want
    for step in ("arch_step", "net_step"):
        assert failure(getattr(new, step), batch) == failure(getattr(ref, step), batch) == want
    cfg = fixed_scheme_config()
    model, cells, train, val = harness.build_experiment(cfg, 0)
    bad_rows = replace(val.subset(np.arange(8)), labels=labels)
    # bad labels in the validation rows, and where the rows can be batched, in the training rows
    for rows in [(train, bad_rows)] + [(bad_rows, val)] * (bad != "shape"):
        assert failure(harness.train_fixed_schemes, model, cells, [("finetune",) * 3], *rows,
                       **training_args(cfg, 0)) == want


# -- one input check per cell ----------------------------------------------------


WRONG_INPUTS = {"wrong width": (8, 17), "1-D": (16,), "4-D": (1, 1, 8, 16)}
# stacks of the wrong number of schemes for a two-scheme plan
WRONG_STACKS = {"3 schemes for 2": (3, 8, 16), "1 scheme for 2": (1, 8, 16)}


@pytest.mark.parametrize("case", sorted(WRONG_INPUTS) + sorted(WRONG_STACKS))
def test_wrong_shape_inputs_raise_the_graph_error(case):
    # every numpy route of a toy6 cell or cascade raises the graph's dense
    # ShapeError for its input, naming the first layer that the input meets:
    # the module's, or a stacked fine-tune copy's when every scheme of a
    # stack fine-tunes the first cell (validation runs each scheme alone, on
    # its 2-D copy). A stack of the wrong size, which only a stacked plan
    # indexes, raises a ShapeError naming both counts
    x = np.ones({**WRONG_INPUTS, **WRONG_STACKS}[case])
    cfg = fixed_scheme_config(preset="toy6", pretrain_epochs=1, n_source=64, n_target=64)
    model, cells, train, val = harness.build_experiment(cfg, 0)
    c, n_cells = cells[0], len(cells)

    def two_schemes(first):
        return [(first,) + ("frozen",) * (n_cells - 1), (first,) + ("finetune",) * (n_cells - 1)]

    def stacked_plan(schemes):
        stacks, params = harness._stack(cells, schemes)
        return cell.Plan(model, cells, ad.Adam(params, lr=0.01), stacks)

    if case in WRONG_STACKS:
        want = (ad.ShapeError, f"cell 0: a stack of {x.shape[0]} inputs for 2 schemes")
        for first in ("finetune", "adapter:BA"):
            plan = stacked_plan(two_schemes(first))
            assert outcome(lambda: cell.run_cell(plan.groups[0], x, True)) == want
            assert outcome(lambda: plan.forward(plan.groups, x)) == want
        return
    want = failure(c.forward, ad.constant(x), "frozen")
    assert want == (ad.ShapeError, f"dense: incompatible shapes {x.shape} @ (16, 16)")

    def stacked_want(copies):
        return ad.ShapeError, f"dense: incompatible shapes {x.shape} @ ({copies}, 16, 16)"

    search = AdaptiveSearch(model, cells, train, val, cfg.penalty, cfg.search)
    plan = search._plan
    batch = replace(val.subset(np.arange(8)), x=x)
    rows = train.subset(np.arange(16))
    args = training_args(cfg, 0)
    routes = {"run_cell mixed": (lambda: cell.run_cell(plan.mixed[0], x, True), want),
              "Plan.forward_mixed": (lambda: plan.forward_mixed([0] * n_cells, x), want),
              "arch_step": (lambda: search.arch_step(batch), want),
              "net_step": (lambda: search.net_step(batch), want)}
    for k, group in enumerate(plan.groups[0]):
        routes[f"run_path {group.path}"] = (lambda g=group: cell.run_path(g, x, check=True), want)
        routes[f"run_cell {group.path} alone"] = (lambda g=group: cell.run_cell([g], x, True), want)
        routes[f"Plan.forward {group.path} in every cell"] = (
            lambda k=k: plan.forward([[groups[k]] for groups in plan.groups], x), want)
    for first in ("finetune", "adapter:BA"):
        schemes = two_schemes(first)
        stacked = stacked_plan(schemes)
        fine = first == "finetune"
        routes[f"run_cell first {first}"] = (
            lambda p=stacked: cell.run_cell(p.groups[0], x, True), stacked_want(2) if fine else want)
        routes[f"Plan.forward first {first}"] = (
            lambda p=stacked: p.forward(p.groups, x), stacked_want(2) if fine else want)
        routes[f"train_fixed_schemes first {first}, training rows"] = (
            lambda sc=schemes: harness.train_fixed_schemes(model, cells, sc, replace(rows, x=x),
                                                           val, **args),
            stacked_want(2) if fine else want)
        routes[f"train_fixed_schemes first {first}, validation rows"] = (  # each scheme alone, 2-D
            lambda sc=schemes: harness.train_fixed_schemes(model, cells, sc, rows,
                                                           replace(rows, x=x), **args),
            want)
    assert {name: outcome(route) for name, (route, _) in routes.items()} == {
        name: expected for name, (_, expected) in routes.items()}


def test_each_cell_checks_its_input_once(monkeypatch):
    # one dense_check per step, of the cascade's input against the first
    # layer it meets (one per path group of the first cell when stacked): a
    # later cell's input, whose shape the cells fix when they are built, is
    # never checked again
    cfg = fixed_scheme_config(preset="toy6", pretrain_epochs=1, n_source=64, n_target=64)
    model, cells, train, val = harness.build_experiment(cfg, 0)
    search = AdaptiveSearch(model, cells, train, val, cfg.penalty, cfg.search)
    batch = train.subset(np.arange(8))
    shapes = []
    dense_check = ad.dense_check

    def counting(x_shape, *args):
        shapes.append(x_shape)
        return dense_check(x_shape, *args)

    monkeypatch.setattr(ad, "dense_check", counting)
    scheme = ("finetune", "adapter:BA", "frozen", "adapter:BA", "frozen", "finetune")
    plan = search._plan
    plan.step([[groups[c.paths.index(choice)]] for c, groups, choice in zip(cells, plan.groups, scheme)],
              batch)
    assert shapes == [batch.x.shape]
    shapes.clear()
    search.arch_step(batch)
    assert shapes == [batch.x.shape]
    shapes.clear()
    stacks, params = harness._stack(cells, harness.scheme_space(cells)[:harness.STACK_SCHEMES])
    stacked = cell.Plan(model, cells, ad.Adam(params, lr=0.01), stacks)
    stacked.step(stacked.groups, batch)
    assert 1 <= len(shapes) <= len(stacked.groups[0])


# -- the search steps fuzzed against the graph ----------------------------------


@st.composite
def cascade_specs(draw):
    dim = draw(st.integers(2, 24))
    return cascade.CascadeSpec(dim, draw(st.sampled_from([k for k in range(1, dim + 1) if dim % k == 0])),
                               draw(st.integers(1, 2)))


@st.composite
def modes_and_kinds(draw):
    mode = draw(st.sampled_from(["NFA", "NA"]))
    return mode, draw(st.sampled_from([("BA",), ("GA",)] + [("BA", "GA"), ("GA", "BA")] * (mode == "NFA")))


@st.composite
def search_setups(draw):
    mode, kinds = draw(modes_and_kinds())
    policy = draw(st.sampled_from(objective.PFR_POLICIES))
    return {
        "spec": draw(cascade_specs()),
        "mode": mode,
        "kinds": kinds,
        "penalty": objective.PenaltyConfig(
            pfr_policy=policy, pfr_constant=draw(st.integers(0, 1000)) if policy == "constant" else 0,
            coefficient=draw(st.sampled_from([0.0]) | st.floats(0.01, 10.0)),
            enabled=draw(st.booleans())),
        "search": SearchConfig(stage1_epochs=draw(st.integers(1, 2)), stage2_epochs=1,
                               batch_size=draw(st.integers(1, 40)), lr_network=0.01, lr_arch=0.05,
                               seed=draw(st.integers(0, 2**16))),
        "n_target": draw(st.integers(2, 64)),
    }


def recorded(s):
    """Wrap ``s``'s steps on the instance: every call appends the step's
    name, its return value and the search's state afterwards to the list
    returned."""
    log = []
    for name in ("arch_step", "net_step", "_train"):
        def step(*args, _method=getattr(s, name), _name=name, **kwargs):
            out = _method(*args, **kwargs)
            log.append((_name, repr(out), search_state(s)))
            return out
        setattr(s, name, step)
    return log


FUZZ_EXAMPLES = (settings.get_profile(SEARCH_FUZZ_PROFILE).max_examples
                 if settings.get_current_profile_name() == SEARCH_FUZZ_PROFILE else 150)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(setup=search_setups())
def test_search_fuzz_matches_graph(setup):
    """Stage 1 and stage 2 on drawn cascades, modes, adapters, penalties,
    batch sizes and seeds: every step's return value, alpha, every network
    parameter, both optimizers' moments and step counts and the sampler's
    state equal the graph search's byte for byte."""
    spec, cfg = setup["spec"], setup["search"]
    data = generate_synthetic(SynthDataConfig(n_samples=setup["n_target"], dim=spec.dim,
                                              n_labels=spec.n_labels, n_intermediate=spec.dim,
                                              domain="target"), cfg.seed)
    train, val = split_dataset(data, cfg.split_ratio, cfg.seed)
    logs, searches = [], []
    for cls in (AdaptiveSearch, graph_reference.GraphSearch):
        model = cascade.build_cascade(spec, cfg.seed)
        model.freeze()
        cells = cell.build_cells(model, mode=setup["mode"], adapter_kinds=setup["kinds"], seed=cfg.seed)
        s = cls(model, cells, train, val, setup["penalty"], cfg)
        logs.append(recorded(s))
        s.run_stage1()
        s.run_stage2()
        searches.append(s)
    new, ref = searches
    assert logs[0] == logs[1]
    assert any(name == "arch_step" for name, _, _ in logs[0])
    assert [repr(r) for r in new.state.history] == [repr(r) for r in ref.state.history]
    assert repr(new.evaluate(val)) == repr(ref.evaluate(val))


ONE_SCHEME_EXAMPLES = (settings.get_profile(SEARCH_FUZZ_PROFILE).max_examples
                       if settings.get_current_profile_name() == SEARCH_FUZZ_PROFILE else 40)


@settings(max_examples=ONE_SCHEME_EXAMPLES, deadline=None)
@given(modules_per_stage=st.integers(1, 2), mode_kinds=modes_and_kinds(), batch_size=st.integers(1, 24),
       n_target=st.integers(2, 64), seed=st.integers(0, 2**16), data=st.data())
def test_one_scheme_alone_matches_its_stacked_row_and_the_graph(modules_per_stage, mode_kinds,
                                                                batch_size, n_target, seed, data):
    """A random scheme ``s`` on toy3 or toy6, NFA or NA, BA or GA:
    ``train_fixed_scheme(s)``, which runs it alone in 2-D, gives the bytes
    of ``train_fixed_schemes([s, t])[0]``, its row of a stack with another
    random scheme ``t``, and of ``s`` trained on the graph; and it leaves
    the cells unchanged."""
    mode, kinds = mode_kinds
    spec = cascade.CascadeSpec(modules_per_stage=modules_per_stage)
    paths = cell.cell_paths(mode, kinds)
    s, t = (data.draw(st.tuples(*[st.sampled_from(paths)] * (3 * modules_per_stage))) for _ in range(2))
    rows = generate_synthetic(SynthDataConfig(n_samples=n_target, dim=spec.dim, n_labels=spec.n_labels,
                                              n_intermediate=spec.dim, domain="target"), seed)
    train, val = split_dataset(rows, 0.5, seed)
    model = cascade.build_cascade(spec, seed)
    model.freeze()
    args = {"lr": 0.01, "epochs": 2, "batch_size": batch_size, "seed": seed}

    def fresh_cells():
        return cell.build_cells(model, mode=mode, adapter_kinds=kinds, seed=seed)

    cells = fresh_cells()
    before = checksums(cells)
    alone = harness.train_fixed_scheme(model, cells, s, train, val, **args)
    assert checksums(cells) == before
    stacked = harness.train_fixed_schemes(model, fresh_cells(), [s, t], train, val, **args)[0]
    graph = graph_fixed_scheme(model, fresh_cells(), s, train, val, **args)
    assert repr(alone) == repr(stacked) == repr(graph)


ORACLE_FUZZ_EXAMPLES = (settings.get_profile(SEARCH_FUZZ_PROFILE).max_examples
                        if settings.get_current_profile_name() == SEARCH_FUZZ_PROFILE else 250)


@settings(max_examples=ORACLE_FUZZ_EXAMPLES, deadline=None)
@given(spec=cascade_specs(), mode_kinds=modes_and_kinds(), batch_size=st.integers(1, 40),
       n_target=st.integers(2, 64), seed=st.integers(0, 2**16), data=st.data())
def test_stacked_oracle_fuzz_matches_graph(spec, mode_kinds, batch_size, n_target, seed, data):
    """The stacked oracle on drawn cascades, modes, adapters, batch sizes and
    seeds: each of 1-3 drawn schemes' validation loss from
    ``harness.train_fixed_schemes`` equals the loss of that scheme trained
    alone on the graph."""
    mode, kinds = mode_kinds
    paths = cell.cell_paths(mode, kinds)
    schemes = data.draw(st.lists(st.tuples(*[st.sampled_from(paths)] * (3 * spec.modules_per_stage)),
                                 min_size=1, max_size=3))
    rows = generate_synthetic(SynthDataConfig(n_samples=n_target, dim=spec.dim, n_labels=spec.n_labels,
                                              n_intermediate=spec.dim, domain="target"), seed)
    train, val = split_dataset(rows, 0.5, seed)
    model = cascade.build_cascade(spec, seed)
    model.freeze()
    args = {"lr": 0.01, "epochs": 1, "batch_size": batch_size, "seed": seed}

    def fresh_cells():
        return cell.build_cells(model, mode=mode, adapter_kinds=kinds, seed=seed)

    got = harness.train_fixed_schemes(model, fresh_cells(), schemes, train, val, **args)
    want = [graph_fixed_scheme(model, fresh_cells(), scheme, train, val, **args) for scheme in schemes]
    assert [repr(v) for v in got] == [repr(v) for v in want]
