"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL verdict line. Criteria mix exact fixtures (gradients, penalty
arithmetic, sampling laws) with trend reproduction on the synthetic cascades
(oracle rank, penalty-driven shrinkage, two-stage benefit, determinism)."""

import math
import statistics
from types import SimpleNamespace

import numpy as np

from conftest import analytic_grad, numeric_grad, plan_layers, rel_err
from graph_reference import cell_forward
from nfa import autodiff as ad
from nfa import cascade, cell, harness, objective
from nfa.config import config_from_dict
from nfa.search import AdaptiveSearch
from test_cell import make_cell, path_groups


def verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def exp_config(seed, preset="toy6", mode="NFA", stage1=8, stage2=4,
               pfr="half_finetune", lam=1.0, enabled=True, output_dir="runs"):
    return config_from_dict({
        "cascade": {"preset": preset},
        "adapters": ["BA"],
        "mode": mode,
        "penalty": {"pfr_policy": pfr, "coefficient": lam, "enabled": enabled},
        "search": {"stage1_epochs": stage1, "stage2_epochs": stage2,
                   "lr_network": 0.01, "lr_arch": 0.05, "batch_size": 32, "seed": seed},
        "pretrain": {"epochs": 30, "lr": 0.01},
        "data": {"n_source": 1024, "n_target": 512},
        "output_dir": str(output_dir),
    })


def checked(build_loss, x, tol=1e-4):
    got = analytic_grad(build_loss, x)
    want = numeric_grad(lambda v: build_loss(ad.parameter(v.copy())).item(), np.asarray(x, float))
    return rel_err(got, want) < tol


def random_params(params, stack, rng):
    """Random trainable values named and shaped as ``params``, or with a
    ``stack`` of schemes stacked as ``NfaCell.stacked_params`` stacks them."""
    def shape(t):
        return (stack,) + (1,) * (2 - t.value.ndim) + t.shape if stack else t.shape
    return ad.ParameterSet({name: ad.parameter(0.5 * rng.normal(size=shape(t)))
                            for name, t in params.items()})


def plan_rule(layers_of, run, sweep):
    """A rule of the network plan as ``(x, params) -> (out, backward)``: the
    layers ``layers_of(params)`` as the plan lays them out
    (:func:`plan_layers`), ``run(layers, x) -> (out, record)`` and
    ``sweep(layers, record, g, need_x)``. ``backward(g)`` returns ``x``'s
    gradient and each parameter's gradient array by the parameter's id."""
    def rule(x, params):
        tensors = layers_of(params)
        layers = plan_layers(tensors)
        out, record = run(layers, x)

        def backward(g):
            dx = sweep(layers, record, g, True)
            return dx, {id(t): grad for (w, b, _), (*_, dw, db) in zip(tensors, layers)
                        for t, grad in ((w, dw), (b, db))}

        return out, backward
    return rule


def module_rule(module):
    """A module's layers as the plan's dense sweep: ``run_dense`` and ``sweep_dense``."""
    return plan_rule(module.layers, lambda layers, x: cascade.run_dense(layers, x),
                     cascade.sweep_dense)


def adapter_rule(adapter):
    """An adapter as the plan runs it: the BA skip or the GA mix around its
    dense layers (``run`` and ``sweep``)."""
    return plan_rule(adapter.layers, lambda layers, x: adapter.run(x, layers), adapter.sweep)


def array_rule_checked(run, params, x, probe, tol=1e-4):
    """Whether the numpy rule ``run(x, params) -> (out, backward)`` (see
    :func:`plan_rule`) gives the gradients of ``sum(out * probe)`` with
    respect to ``x`` and every one of ``params`` within ``tol`` of central
    differences."""
    _, backward = run(x, params)
    dx, grad_of = backward(probe)
    grads = [(dx, None)] + [(grad_of[id(t)].reshape(t.shape), t) for _, t in params.items()]

    def loss_of(t):
        def loss(v):
            if t is None:
                return (run(v, params)[0] * probe).sum()
            kept, t.value = t.value, v
            try:
                return (run(x, params)[0] * probe).sum()
            finally:
                t.value = kept
        return loss

    return all(rel_err(g, numeric_grad(loss_of(t), (x if t is None else t.value).copy())) < tol
               for g, t in grads)


def closed_form_rules(c, rng):
    """``name -> (f, grad, at)``: a closed-form gradient rule of the
    graph-free routes, ``grad`` its gradient of the scalar function ``f`` at
    the array ``at``. The rules: the softmax backward, the cross-entropy
    gradient (unstacked with a loss gradient, and stacked over 2 schemes),
    the squared-error gradient, the penalty's weight gradient, and the path
    weights' and input's gradients of cell ``c``'s mixed forward
    (:func:`cell.forward_mixed` on the plan's groups), against the graph's
    weighted sum."""
    z, target, probe = (rng.normal(size=(2, 3)) for _ in range(3))
    stacked, labels, g = rng.normal(size=(2, 2, 3)), rng.integers(0, 3, size=2), rng.normal()
    x, out_probe, k = rng.normal(size=(2, 6)), rng.normal(size=(2, 6)), int(rng.integers(0, c.n_paths))

    def mixed(w):
        weights = SimpleNamespace(values=w, weights=ad.constant(w))  # any weights, off the simplex too
        return (cell_forward(c, ad.constant(x), weights).value * out_probe).sum()

    pcfg = objective.PenaltyConfig()

    def pen(w):
        return g * objective.penalty([c], [SimpleNamespace(weights=ad.constant(w))], pcfg).item()

    groups = path_groups(c)
    _, backward = cell.forward_mixed(groups, x, k)
    return {
        "softmax_backward": (lambda v: (ad.softmax(v) * probe).sum(),
                             ad.softmax_backward(probe, ad.softmax(z)), z),
        "nll_backward": (lambda v: g * cascade._nll(v, labels)[0],
                         cascade._nll_backward(*cascade._nll(z, labels)[1:], g), z),
        "nll_backward/stacked": (lambda v: cascade._nll(v, labels)[0].sum(),
                                 cascade._nll_backward(*cascade._nll(stacked, labels)[1:]), stacked),
        "mse_grad": (lambda v: ((v - target) ** 2).mean(), cascade._mse_grad(z, target), z),
        "hard_penalty_grad": (pen, objective.hard_penalty_grad(objective.penalty_table([c], pcfg), g)[0],
                              np.eye(c.n_paths)[k]),
        "forward_mixed/weights": (mixed, backward(out_probe, False)[0], np.eye(c.n_paths)[k]),
        "forward_mixed/x": (lambda v: (cell.forward_mixed(groups, v, k)[0] * out_probe).sum(),
                            backward(out_probe, True)[1], x),
    }


def test_criterion_1_gradcheck_all_ops_and_full_cell():
    """Every autodiff op, the network plan's rules (the dense sweep of a
    module's layers, the BA skip and the GA mix, unstacked and stacked over 2
    schemes), the closed-form
    rules of :func:`closed_form_rules`, and the whole search-cell forward
    pass agree with central finite differences (rel err < 1e-4) across 20
    seeds."""
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        m = rng.normal(size=(3, 4))
        r3 = rng.normal(size=(2, 3))
        r4 = rng.normal(size=(2, 4))
        pos = np.abs(a) + 0.5
        probes = {
            "add": lambda t: ad.tensor_sum(ad.mul(ad.add(t, ad.constant(b)), ad.constant(r3))),
            "mul": lambda t: ad.tensor_sum(ad.mul(ad.mul(t, ad.constant(b)), ad.constant(r3))),
            "matmul": lambda t: ad.tensor_sum(ad.mul(ad.matmul(t, ad.constant(m)), ad.constant(r4))),
            "tanh": lambda t: ad.tensor_sum(ad.mul(ad.tanh(t), ad.constant(r3))),
            "sigmoid": lambda t: ad.tensor_sum(ad.mul(ad.sigmoid(t), ad.constant(r3))),
            "softmax": lambda t: ad.tensor_sum(ad.mul(ad.softmax_lastdim(t), ad.constant(r3))),
            "sum_axis": lambda t: ad.tensor_sum(ad.mul(ad.tensor_sum(t, axis=-1), ad.constant(r3[:, 0]))),
            "mean": lambda t: ad.tensor_mean(ad.mul(t, ad.constant(r3))),
            "scale": lambda t: ad.tensor_sum(ad.mul(ad.scale(t, 1.7), ad.constant(r3))),
            "index": lambda t: ad.tensor_sum(ad.index_lastdim(t, 1)),
        }
        for name, f in probes.items():
            if not checked(f, a):
                failures.append(f"{name}@{seed}")
        if not checked(lambda t: ad.tensor_sum(ad.mul(ad.log(t), ad.constant(r3))), pos):
            failures.append(f"log@{seed}")

        c = make_cell(seed=seed, dims=(6, 6, 6))
        c.adapters[0].params["up.W"].value[:] = rng.normal(size=(2, 6)) * 0.3
        x = rng.normal(size=(2, 6))
        probe = rng.normal(size=(2, 6))

        def cell_loss(alpha):
            w = cell.PathWeights(ad.softmax_lastdim(alpha), hard=False)
            return ad.tensor_sum(ad.mul(cell_forward(c, ad.constant(x), w), ad.constant(probe)))

        if not checked(cell_loss, rng.normal(size=3)):
            failures.append(f"cell@{seed}")

        ba, ga = c.adapters[0], cascade.GatedAdapter(6, rng)
        rules = {"layers": (module_rule(c.module), c.module.params),
                 "BA": (adapter_rule(ba), ba.params), "GA": (adapter_rule(ga), ga.params)}
        for name, (run, params) in rules.items():
            for stack in (0, 2):
                rows = (stack, 2, 6) if stack else (2, 6)
                if not array_rule_checked(run, random_params(params, stack, rng),
                                          rng.normal(size=rows), rng.normal(size=rows)):
                    failures.append(f"{name}{'/stacked' if stack else ''}@{seed}")
        for name, (f, grad, at) in closed_form_rules(c, rng).items():
            if not rel_err(grad, numeric_grad(f, at.copy())) < 1e-4:
                failures.append(f"{name}@{seed}")
    verdict("criterion 1: gradcheck of every op, the numpy dense and closed-form rules and the "
            "full cell, 20 seeds, rel err < 1e-4",
            not failures, detail=",".join(failures) or "all matched")


class _StubModule:
    name = "stub"
    param_count = 1200


class _StubCell:
    index = 0
    module = _StubModule()
    paths = ["frozen", "finetune", "adapter:BA"]

    def trainable_count(self, path):
        return {"frozen": 0, "finetune": 1200, "adapter:BA": 150}[path]


def test_criterion_2_penalty_fixtures_and_properties():
    """Hand-computed penalty fixtures hold to 1e-12, on the graph penalty and
    on the search's float penalties of one pick (``hard_penalty``,
    ``scheme_penalty``); the per-cell term is bounded in [0, 1] and monotone
    on 1,000 random simplex weights."""
    c = _StubCell()
    half = objective.PenaltyConfig(pfr_policy="half_finetune")
    zero = objective.PenaltyConfig(pfr_policy="zero")

    def pen(weights, cfg):
        w = cell.PathWeights(ad.constant(weights), hard=np.max(weights) == 1.0)
        return objective.penalty([c], [w], cfg).item()

    ok = abs(pen([0.2, 0.5, 0.3], half) - 765 / 1950) < 1e-12
    ok &= abs(pen([1.0, 0.0, 0.0], half) - 600 / 1950) < 1e-12
    ok &= pen([1.0, 0.0, 0.0], zero) == 0.0
    for k, want in enumerate((600 / 1950, 1200 / 1950, 150 / 1950)):
        ok &= abs(objective.hard_penalty(objective.penalty_table([c], half), [k]) - want) < 1e-12
        ok &= abs(objective.scheme_penalty([c], [c.paths[k]], half) - want) < 1e-12
    ok &= objective.hard_penalty(objective.penalty_table([c], zero), [0]) == 0.0
    ok &= objective.scheme_penalty([c], ["frozen"], zero) == 0.0

    rng = np.random.default_rng(2024)
    counts = objective.penalty_counts(c, half)
    hi = int(np.argmax(counts))
    lo = int(np.argmin(counts))
    for _ in range(1000):
        w = rng.dirichlet(np.ones(3))
        term = pen(w, half)
        if not 0.0 <= term <= 1.0:
            ok = False
            break
        shifted = w.copy()
        delta = 0.5 * shifted[lo]
        shifted[lo] -= delta
        shifted[hi] += delta
        if pen(shifted, half) < term:
            ok = False
            break
    verdict("criterion 2: penalty fixtures to 1e-12, bounds and monotonicity on 1000 draws", ok)


def test_criterion_3_gumbel_softmax_laws():
    """Noise-free symmetric logits are exactly uniform; straight-through
    gradients equal soft gradients to 1e-12; the empirical two-path pick rate
    matches e/(e+1) within 0.01 over 1e5 samples. Each law holds for the
    graph sampler and for the search's (``gumbel_probs``, whose noise-free
    case draws from a generator of zeros, and ``gumbel_softmax_grad``)."""
    w = cell.gumbel_softmax(ad.constant(np.zeros(4)), tau=1.3, noise=False)
    ok = np.array_equal(w.values, np.full(4, 0.25))

    probe = np.array([0.7, -1.1, 0.4])
    grads = []
    for hard in (False, True):
        alpha = ad.parameter([0.5, -0.2, 0.1])
        sampled = cell.gumbel_softmax(alpha, tau=0.7, noise=False, hard=hard)
        ok &= sampled.hard == hard
        if hard:
            ok &= sorted(sampled.values.tolist()) == [0.0, 0.0, 1.0]
        ad.backward(ad.tensor_sum(ad.mul(sampled.weights, ad.constant(probe))))
        grads.append(alpha.grad.copy())
    ok &= bool(np.all(np.abs(grads[0] - grads[1]) < 1e-12))
    zero_draws = SimpleNamespace(gumbel=lambda size: np.zeros(size),
                                 bit_generator=SimpleNamespace(state=None))
    uniform = cell.gumbel_probs([SimpleNamespace(alpha=ad.constant(np.zeros(4)))] * 2, 1.3, zero_draws)
    ok &= np.array_equal(uniform, np.full((2, 4), 0.25))
    soft = cell.gumbel_softmax(ad.constant([0.5, -0.2, 0.1]), tau=0.7, noise=False).values
    closed = cell.gumbel_softmax_grad(probe[None], soft[None], 0.7)[0]
    ok &= bool(np.all(np.abs(closed - grads[0]) < 1e-12))

    rng = np.random.default_rng(7)
    alpha = ad.constant([1.0, 0.0])
    n = 100_000
    hits = sum(
        int(cell.gumbel_softmax(alpha, tau=1.0, rng=rng, hard=True, noise=True).values[0] == 1.0)
        for _ in range(n)
    )
    target = math.e / (math.e + 1.0)
    ok &= abs(hits / n - target) < 0.01
    probs = cell.gumbel_probs([SimpleNamespace(alpha=alpha)] * n, 1.0, np.random.default_rng(8))
    batched = float(np.mean(probs.argmax(axis=-1) == 0))
    ok &= abs(batched - target) < 0.01
    verdict("criterion 3: gumbel-softmax uniformity, straight-through grads, pick rate e/(e+1)",
            ok, detail=f"pick rate {hits / n:.4f} per cell, {batched:.4f} in one call, "
                       f"vs {target:.4f}")


def test_criterion_4_group_exclusivity_and_frozen_isolation(tmp_path):
    """Over a full two-stage run, checksums prove alpha never moves during
    network steps, the network group never moves during architecture steps,
    and the pretrained backbone never moves at all."""
    cfg = exp_config(0, preset="toy3", stage1=3, stage2=2, output_dir=tmp_path)
    model, cells, train, val = harness.build_experiment(cfg, 0)
    search = AdaptiveSearch(model, cells, train, val, cfg.penalty, cfg.search)
    pre = [m.params.checksum() for m in model.modules]
    state = {"alpha": search.arch_params.checksum(),
             "net": search.net_params.checksum(),
             "ok": True, "events": 0}

    def watch(kind, s):
        cur_a = s.arch_params.checksum()
        cur_n = s.net_params.checksum()
        if kind == "net" and cur_a != state["alpha"]:
            state["ok"] = False
        if kind == "arch" and cur_n != state["net"]:
            state["ok"] = False
        if [m.params.checksum() for m in model.modules] != pre:
            state["ok"] = False
        state["alpha"], state["net"] = cur_a, cur_n
        state["events"] += 1

    search.run_stage1(step_callback=watch)
    alpha_at_stage2 = search.arch_params.checksum()
    search.run_stage2(step_callback=watch)
    ok = state["ok"] and state["events"] > 0
    ok &= search.arch_params.checksum() == alpha_at_stage2
    ok &= [m.params.checksum() for m in model.modules] == pre
    verdict("criterion 4: group exclusivity and frozen isolation across a two-stage run",
            ok, detail=f"{state['events']} steps audited")


def test_criterion_5_searched_scheme_ranks_high_in_oracle(tmp_path):
    """On the 3-cell cascade (27 discrete schemes) the searched scheme's
    budget-matched enumeration rank is in the top 5 for at least 3 of 5 seeds."""
    hits, ranks = 0, []
    for seed in range(5):
        cfg = exp_config(seed, preset="toy3", enabled=False, output_dir=tmp_path)
        result = harness.run_experiment(cfg)
        entries = harness.enumerate_oracle(cfg)
        scheme = tuple(c.choice for c in result.decision.cells)
        rank = harness.oracle_rank(entries, scheme)
        ranks.append(rank)
        hits += rank <= 5
    verdict("criterion 5: searched scheme in oracle top 5 of 27 for >= 3 of 5 seeds",
            hits >= 3, detail=f"ranks {ranks}")


def test_criterion_6_penalty_shrinks_architecture(tmp_path):
    """With the HalfFineTune penalty on the 6-cell cascade, mean selected
    parameters and mean fine-tuned cell count do not exceed the no-penalty run
    over 5 paired seeds."""
    sel_pen, sel_off, ft_pen, ft_off = [], [], [], []
    for seed in range(5):
        with_pen = harness.run_experiment(exp_config(seed, output_dir=tmp_path / "pen"))
        no_pen = harness.run_experiment(exp_config(seed, enabled=False, output_dir=tmp_path / "off"))
        sel_pen.append(with_pen.decision.totals["selected_params"])
        sel_off.append(no_pen.decision.totals["selected_params"])
        ft_pen.append(sum(c.choice == "finetune" for c in with_pen.decision.cells))
        ft_off.append(sum(c.choice == "finetune" for c in no_pen.decision.cells))
    ok = np.mean(sel_pen) <= np.mean(sel_off) and np.mean(ft_pen) <= np.mean(ft_off)
    verdict("criterion 6: penalty shrinks mean selected params and fine-tuned cell count",
            ok, detail=f"selected {np.mean(sel_pen):.0f} vs {np.mean(sel_off):.0f}, "
                       f"finetuned {np.mean(ft_pen):.1f} vs {np.mean(ft_off):.1f}")


def test_criterion_7_pfr_policy_steering():
    """Optimizing the penalty alone, the Zero policy drives every cell to
    Frozen and HalfFineTune drives every cell whose adapter is cheaper than
    half its module to Adapter."""
    model = cascade.build_cascade(cascade.CascadeSpec(), 0)
    model.freeze()

    def converge(pfr):
        cells = cell.build_cells(model, seed=0)
        cfg = objective.PenaltyConfig(pfr_policy=pfr)
        opt = ad.Adam(cell.arch_group(cells), lr=0.1)
        for _ in range(300):
            for c in cells:
                c.alpha.zero_grad()
            ws = [cell.PathWeights(ad.softmax_lastdim(c.alpha), hard=False) for c in cells]
            ad.backward(objective.penalty(cells, ws, cfg))
            opt.step()
        return cells

    zero_cells = converge("zero")
    ok = all(c.discretize() == "frozen" for c in zero_cells)
    half_cells = converge("half_finetune")
    for c in half_cells:
        if c.trainable_count("adapter:BA") < c.module.param_count / 2:
            ok &= c.discretize() == "adapter:BA"
    verdict("criterion 7: penalty-only optimization obeys the frozen-count policy", ok)


def test_criterion_8_two_stage_benefit(tmp_path):
    """At an equal 12-epoch budget, the two-stage schedule's median final
    validation loss over 5 seeds does not exceed the single-stage schedule's,
    and the discretization never moves during stage 2."""
    two, one, invariant = [], [], True
    for seed in range(5):
        r2 = harness.run_experiment(exp_config(seed, stage1=4, stage2=8, output_dir=tmp_path / "two"))
        r1 = harness.run_experiment(exp_config(seed, stage1=12, stage2=0, output_dir=tmp_path / "one"))
        two.append(r2.final_val_loss)
        one.append(r1.final_val_loss)
        history = r2.search.state.history
        final_stage1 = [rec for rec in history if rec.stage == 1][-1].discretization
        invariant &= all(rec.discretization == final_stage1
                         for rec in history if rec.stage == 2)
    ok = statistics.median(two) <= statistics.median(one) and invariant
    verdict("criterion 8: two-stage median val loss <= one-stage at equal budget",
            ok, detail=f"{statistics.median(two):.4f} vs {statistics.median(one):.4f}")


def test_criterion_9_na_beats_full_plugging(tmp_path):
    """NA-mode search selects fewer parameters than plugging an adapter into
    every module, for at least 3 of 5 seeds."""
    hits, pairs = 0, []
    for seed in range(5):
        cfg = exp_config(seed, mode="NA", pfr="zero", lam=0.01, output_dir=tmp_path)
        result = harness.run_experiment(cfg)
        selected = result.decision.totals["selected_params"]
        full_plug = sum(c.path_params["adapter:BA"] for c in result.decision.cells)
        pairs.append((selected, full_plug))
        hits += selected < full_plug
    verdict("criterion 9: NA selected params < all-adapters baseline for >= 3 of 5 seeds",
            hits >= 3, detail=f"{pairs}")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    """Identical (config, seed) runs produce byte-identical reports, and the
    architecture report survives an export/import round trip."""
    cfg = exp_config(0, preset="toy3", stage1=2, stage2=2)
    a = harness.run_experiment(cfg, seed=0, out_dir=tmp_path / "a")
    b = harness.run_experiment(cfg, seed=0, out_dir=tmp_path / "b")
    ok = a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    ok &= a.architecture_path.read_bytes() == b.architecture_path.read_bytes()
    ok &= harness.import_architecture(a.architecture_path) == a.decision
    verdict("criterion 10: byte-identical reports and export/import round trip", ok)
