"""Search-cell behavior: sampling, path mixing, discretization, isolation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FINITE_EXTREMES, check_grad, numeric_grad, rel_err
from graph_reference import cell_forward, one_hot_weights
from nfa import autodiff as ad
from nfa import cascade, cell


def frozen_module(seed=0, dims=(16, 16, 16)):
    m = cascade.NetModule("m", dims, np.random.default_rng(seed))
    m.freeze()
    return m


def make_cell(mode="NFA", adapter_kinds=("BA",), seed=0, dims=(16, 16, 16)):
    return cell.NfaCell(frozen_module(seed, dims), mode=mode, adapter_kinds=adapter_kinds,
                        index=0, rng=np.random.default_rng(seed + 1))


def path_plan(c):
    """A ``cell.Plan`` of ``c`` as a one-cell cascade: its groups are every
    path of ``c`` alone."""
    model = SimpleNamespace(modules=[c.module], softmax_after=[False])
    return cell.Plan(model, [c], ad.Adam(c.trainable_params(), lr=0.1))


class TestGumbelSoftmax:
    def test_symmetric_noise_free_is_uniform(self):
        w = cell.gumbel_softmax(ad.constant([0.0, 0.0, 0.0]), tau=1.0, noise=False)
        np.testing.assert_allclose(w.values, [1 / 3] * 3, atol=1e-15)
        assert not w.hard

    def test_dominant_logit_hard_one_hot(self):
        w = cell.gumbel_softmax(ad.constant([10.0, 0.0, 0.0]), tau=1.0, noise=False, hard=True)
        assert np.array_equal(w.values, [1.0, 0.0, 0.0])

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="temperature"):
            cell.gumbel_softmax(ad.constant([0.0, 1.0]), tau=0.0, noise=False)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            cell.gumbel_softmax(ad.constant([0.0, 1.0]), tau=1.0, noise=True)

    def test_two_path_pick_rate(self):
        # argmax of Gumbel-perturbed logits follows softmax(alpha): e/(e+1)
        rng = np.random.default_rng(99)
        alpha = ad.constant([1.0, 0.0])
        n = 20_000
        hits = 0
        for _ in range(n):
            w = cell.gumbel_softmax(alpha, tau=1.0, rng=rng, hard=True, noise=True)
            hits += w.values[0] == 1.0
        p = math.e / (math.e + 1.0)
        assert abs(hits / n - p) < 0.02

    def test_straight_through_backward_equals_soft(self):
        r = np.array([0.3, -1.2, 2.0])
        alpha_soft = ad.parameter([0.5, -0.2, 0.1])
        soft = cell.gumbel_softmax(alpha_soft, tau=0.7, noise=False, hard=False)
        ad.backward(ad.tensor_sum(ad.mul(soft.weights, ad.constant(r))))

        alpha_hard = ad.parameter([0.5, -0.2, 0.1])
        hard = cell.gumbel_softmax(alpha_hard, tau=0.7, noise=False, hard=True)
        ad.backward(ad.tensor_sum(ad.mul(hard.weights, ad.constant(r))))
        np.testing.assert_allclose(alpha_hard.grad, alpha_soft.grad, atol=1e-15)

    def test_soft_weights_differentiable(self):
        def loss_for(a):
            w = cell.gumbel_softmax(a, tau=0.8, noise=False)
            return ad.tensor_sum(ad.mul(w.weights, ad.constant([1.0, 2.0, -0.5])))

        check_grad(loss_for, np.array([0.2, -0.4, 0.9]))


    def test_closed_form_alpha_gradient_matches_central_differences(self):
        """The architecture step's alpha rule, ``gumbel_softmax_grad``, is
        d/dalpha of g_w . softmax((alpha + G) / tau) for a fixed upstream g_w
        and noise G, one row per cell (rel err < 1e-4, 20 seeds)."""
        failures = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(1, 7)), int(rng.integers(2, 5)))
            noise, g_w = rng.gumbel(size=shape), rng.normal(size=shape)
            tau = float(rng.uniform(0.3, 5.0))
            alpha = rng.normal(size=shape)

            def f(a):
                return float((g_w * ad.softmax((a + noise) * (1.0 / tau))).sum())

            got = cell.gumbel_softmax_grad(g_w, ad.softmax((alpha + noise) * float(1.0 / tau)), tau)
            if rel_err(got, numeric_grad(f, alpha)) >= 1e-4:
                failures.append(seed)
        assert not failures


class TestPathWeights:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError, match="simplex"):
            cell.PathWeights(ad.constant([0.5, 0.6]), hard=False)

    def test_hard_must_be_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            cell.PathWeights(ad.constant([0.5, 0.5]), hard=True)


class TestCellForward:
    def test_nfa_paths_and_counts(self):
        c = make_cell()
        assert c.paths == ["frozen", "finetune", "adapter:BA"]
        assert [c.trainable_count(p) for p in c.paths] == [0, 544, 148]

    def test_na_paths(self):
        c = make_cell(mode="NA")
        assert c.paths == ["frozen", "adapter:BA"]
        assert [c.trainable_count(p) for p in c.paths] == [0, 148]

    def test_na_requires_single_adapter(self):
        with pytest.raises(ValueError, match="NA mode"):
            make_cell(mode="NA", adapter_kinds=("BA", "GA"))

    def test_one_hot_frozen_equals_pretrained_forward(self, rng):
        c = make_cell()
        x = rng.normal(size=(4, 16))
        out, _ = path_plan(c).forward_mixed([0], x)
        assert np.array_equal(out, c.module.forward(ad.constant(x)).value)

    def test_finetune_equals_frozen_at_init(self, rng):
        c = make_cell()
        x = rng.normal(size=(4, 16))
        frozen, _ = path_plan(c).forward_mixed([0], x)
        finetune, _ = path_plan(c).forward_mixed([1], x)
        assert np.array_equal(frozen, finetune)

    def test_na_equal_weights_with_zero_init_adapter(self, rng):
        c = make_cell(mode="NA")
        x = ad.constant(rng.normal(size=(4, 16)))
        out = cell_forward(c, x, cell.PathWeights(ad.constant([0.5, 0.5]), hard=False))
        np.testing.assert_allclose(out.value, c.module.forward(x).value, atol=1e-15)

    def test_finetune_path_skips_backbone_forward(self, rng, monkeypatch):
        c = make_cell()
        x = ad.constant(rng.normal(size=(4, 16)))
        calls = []
        forward = c.module.forward

        def recording(h, params=None):
            calls.append(params)
            return forward(h, params)

        monkeypatch.setattr(c.module, "forward", recording)
        c.forward(x, "finetune")
        assert calls == [c.finetune_params]
        for path in ("frozen", "adapter:BA"):  # both need the backbone
            calls.clear()
            c.forward(x, path)
            assert calls == [None]

    @pytest.mark.parametrize("mode, kinds", [("NFA", ("BA",)), ("NFA", ("GA",)), ("NA", ("BA",))],
                             ids=["NFA-BA", "NFA-GA", "NA-BA"])
    def test_path_name_matches_one_hot_weights_bitwise(self, rng, mode, kinds):
        c = make_cell(mode=mode, adapter_kinds=kinds)
        for _, t in c.trainable_params().items():  # make every path's output distinct
            t.value += rng.normal(size=t.shape) * 0.3
        x = rng.normal(size=(4, 16))
        probe = ad.constant(rng.normal(size=(4, 16)))

        def run(path, weights):
            c.trainable_params().zero_grads()
            out = cell_forward(c, ad.constant(x), weights)
            ad.backward(ad.tensor_sum(ad.mul(out, probe)))
            grads = [t.grad.tobytes() for _, t in c.params_for_choice(path).items()]
            return out.value.tobytes(), grads

        for k, path in enumerate(c.paths):
            assert run(path, path) == run(path, one_hot_weights(c.n_paths, k))
        with pytest.raises(ValueError, match="cell has no path"):
            c.forward(ad.constant(x), "bogus")

    def test_weighted_sum_linearity(self, rng):
        c = make_cell()
        c.adapters[0].params["up.W"].value[:] = rng.normal(size=(4, 16)) * 0.3
        x = ad.constant(rng.normal(size=(3, 16)))
        w = np.array([0.2, 0.5, 0.3])
        mixed = cell_forward(c, x, cell.PathWeights(ad.constant(w), hard=False)).value
        parts = [cell_forward(c, x, path).value for path in c.paths]
        np.testing.assert_allclose(mixed, sum(wk * p for wk, p in zip(w, parts)), atol=1e-12)

    def test_hard_st_forward_matches_argmax_path(self, rng):
        c = make_cell()
        c.adapters[0].params["up.W"].value[:] = rng.normal(size=(4, 16)) * 0.3
        x = rng.normal(size=(3, 16))
        alpha = ad.parameter([0.1, 0.0, 2.0])
        w = cell.gumbel_softmax(alpha, tau=1.0, noise=False, hard=True)
        out = cell_forward(c, ad.constant(x), w)
        pure, _ = path_plan(c).forward_mixed([2], x)
        assert np.array_equal(out.value, pure)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EXTREMES)
EXTREME_OUTPUTS = [np.array(FINITE_EXTREMES), np.array(FINITE_EXTREMES[::-1]),
                   np.array(FINITE_EXTREMES[1:] + FINITE_EXTREMES[:1])]


@st.composite
def path_outputs_and_pick(draw):
    shape = draw(hnp.array_shapes(max_dims=2, max_side=6))
    n_paths = draw(st.integers(2, 4))
    outs = [draw(hnp.arrays(np.float64, shape, elements=FINITE)) for _ in range(n_paths)]
    return outs, draw(st.integers(0, n_paths - 1))


@settings(max_examples=200, deadline=None)
@given(mix=path_outputs_and_pick())
@example(mix=(EXTREME_OUTPUTS, 0))
@example(mix=(EXTREME_OUTPUTS, 1))
@example(mix=(EXTREME_OUTPUTS, 2))
def test_one_hot_mix_of_finite_outputs_is_the_pick(mix):
    """Why ``cell.Plan.forward_mixed`` returns path ``k``'s output and checks no
    ``mul`` or ``add``: under the one-hot weights of ``k``, the graph's mix of
    finite path outputs (``index_lastdim``, ``mul`` and ``add`` in path order,
    each checked finite as it is made) equals ``y_k``, its bytes different
    only where ``y_k`` is -0.0."""
    outs, k = mix
    w = ad.constant(np.eye(len(outs))[k])
    out = None
    for j, y in enumerate(outs):
        term = ad.mul(ad.index_lastdim(w, j), ad.constant(y))
        out = term if out is None else ad.add(out, term)
    assert np.array_equal(out.value, outs[k])
    differs = out.value.view(np.uint64) != outs[k].view(np.uint64)
    assert (outs[k][differs] == 0.0).all() and np.signbit(outs[k][differs]).all()


class TestGradientFlow:
    def test_constant_one_hot_gives_no_alpha_gradient(self, rng):
        c = make_cell()
        x = ad.constant(rng.normal(size=(2, 16)))
        out = cell_forward(c, x, one_hot_weights(3, 0))
        ad.backward(ad.tensor_sum(ad.mul(out, out)))
        assert c.alpha.grad is None

    def test_straight_through_gives_alpha_gradient(self, rng):
        c = make_cell()
        # break the init-time tie between paths so alpha actually matters
        c.adapters[0].params["up.W"].value[:] = rng.normal(size=(4, 16)) * 0.3
        x = ad.constant(rng.normal(size=(2, 16)))
        w = cell.gumbel_softmax(c.alpha, tau=1.0, noise=False, hard=True)
        out = cell_forward(c, x, w)
        ad.backward(ad.tensor_sum(ad.mul(out, out)))
        assert c.alpha.grad is not None
        assert np.any(c.alpha.grad != 0.0)

    def test_frozen_path_isolation_under_updates(self, rng):
        c = make_cell()
        before = c.module.params.checksum()
        group = c.trainable_params()
        opt = ad.Adam(group, lr=0.05)
        x = ad.constant(rng.normal(size=(4, 16)))
        for _ in range(5):
            group.zero_grads()
            c.alpha.zero_grad()
            w = cell.gumbel_softmax(c.alpha, tau=1.0, rng=rng, hard=True, noise=True)
            out = cell_forward(c, x, w)
            ad.backward(ad.tensor_sum(ad.mul(out, out)))
            opt.step()
        assert c.module.params.checksum() == before

    def test_full_cell_gradcheck_wrt_alpha(self, rng):
        c = make_cell(dims=(6, 6, 6))
        c.adapters[0].params["up.W"].value[:] = rng.normal(size=(2, 6)) * 0.3
        x = rng.normal(size=(2, 6))
        r = rng.normal(size=(2, 6))

        def loss_for(a):
            w = cell.PathWeights(ad.softmax_lastdim(a), hard=False)
            out = cell_forward(c, ad.constant(x), w)
            return ad.tensor_sum(ad.mul(out, ad.constant(r)))

        check_grad(loss_for, np.array([0.3, -0.1, 0.6]))


class TestDiscretize:
    def test_argmax(self):
        c = make_cell()
        c.alpha.value[:] = [2.0, 1.0, 0.5]
        assert c.discretize() == "frozen"
        c.alpha.value[:] = [0.0, 0.1, 3.0]
        assert c.discretize() == "adapter:BA"

    def test_tie_breaks_to_fewest_trainables(self):
        c = make_cell()
        c.alpha.value[:] = 0.0
        assert c.discretize() == "frozen"
        c.alpha.value[:] = [-1.0, 0.5, 0.5]  # finetune ties adapter; adapter cheaper
        assert c.discretize() == "adapter:BA"


class TestTrainableParams:
    def test_nfa_network_group_count(self):
        c = make_cell()
        assert c.trainable_params().count == 544 + 148

    def test_na_adapter_only(self):
        c = make_cell(mode="NA")
        assert c.trainable_params().count == 148

    def test_two_adapters_both_counted(self):
        c = make_cell(adapter_kinds=("BA", "GA"))
        assert c.trainable_params().count == 544 + 148 + 544
        assert c.paths == ["frozen", "finetune", "adapter:BA", "adapter:GA"]

    def test_params_for_choice(self):
        c = make_cell()
        assert c.params_for_choice("frozen").count == 0
        assert c.params_for_choice("finetune").count == 544
        assert c.params_for_choice("adapter:BA").count == 148

    @pytest.mark.parametrize("mode, path", [("NA", "finetune"), ("NFA", "bogus"),
                                            ("NFA", "adapter:GA")])
    def test_missing_path_rejected(self, mode, path):
        c = make_cell(mode=mode)
        with pytest.raises(ValueError, match="cell has no path"):
            c.trainable_count(path)
        with pytest.raises(ValueError, match="cell has no path"):
            c.params_for_choice(path)
        with pytest.raises(ValueError, match="cell has no path"):
            c.forward(ad.constant(np.ones((1, 16))), path)

    def test_duplicate_adapter_kinds_rejected(self):
        with pytest.raises(ValueError, match="duplicate adapter kinds"):
            make_cell(adapter_kinds=("BA", "GA", "BA"))

    def test_finetune_copy_bitwise_at_init(self):
        c = make_cell()
        for name, t in c.finetune_params.items():
            assert np.array_equal(t.value, c.module.params[name].value)


def test_cascade_forward_with_cells(rng):
    model = cascade.build_cascade(cascade.CascadeSpec(), 5)
    model.freeze()
    cells = cell.build_cells(model, seed=5)
    plan = cell.Plan(model, cells, ad.Adam(cell.network_group(cells), lr=0.1))
    out, _ = plan.forward_mixed([0] * len(cells), rng.normal(size=(3, 16)))
    assert out.shape == (3, 8)


def test_groups(rng):
    model = cascade.build_cascade(cascade.CascadeSpec(), 5)
    model.freeze()
    cells = cell.build_cells(model, seed=5)
    assert cell.arch_group(cells).count == 6 * 3
    assert cell.network_group(cells).count == sum(c.trainable_params().count for c in cells)
