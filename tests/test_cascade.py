"""Cascade construction, adapters, parameter counts, and upstream pretraining."""

import ast
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FINITE_EXTREMES, SEARCH_FUZZ_PROFILE, check_grad
from nfa import autodiff as ad
from nfa import cascade, cell
from nfa.data import SynthDataConfig, generate_synthetic
from test_engine_equivalence import affine, cascade_specs


def source_data(n=256, seed=0):
    return generate_synthetic(SynthDataConfig(n_samples=n, domain="source"), seed)


def forward_stage(model, stage_index, x):
    """The graph of stage ``stage_index`` of ``model`` on ``x``, with the
    softmax after the recognize stage."""
    for module in model.stages[stage_index]:
        x = module.forward(x)
    return ad.softmax_lastdim(x) if stage_index == cascade.RECOGNIZE else x


def model_forward(model, x):
    """The graph of the whole cascade on ``x``, stage by stage."""
    for stage_index in range(len(model.stages)):
        x = forward_stage(model, stage_index, x)
    return x


def per_batch_recognize_pretrain(model, source_data, epochs, lr, batch_size=32, seed=0):
    """Pretraining through the graph, as before it ran graph-free and before
    stage-0 reuse: ``Adam.minimize`` on each batch's loss graph, and the
    recognize loss runs the finished denoise stage's forward again on every
    batch of every epoch."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E7A]))
    n_inter = model.stages[1][-1].out_dim

    def run_stage(loss_fn, stage_index):
        params = ad.ParameterSet()
        for m in model.stages[stage_index]:
            params.merge(m.params, prefix=m.name + ".")
        opt = ad.Adam(params, lr=lr)
        for _ in range(epochs):
            for batch in source_data.batches(batch_size, rng):
                opt.minimize(loss_fn(batch))

    def denoise_loss(batch):
        pred = forward_stage(model, 0, ad.constant(batch.x))
        diff = ad.add(pred, ad.scale(ad.constant(batch.clean), -1.0))
        return ad.tensor_mean(ad.mul(diff, diff))

    def recognize_loss(batch):
        h = ad.constant(forward_stage(model, 0, ad.constant(batch.x)).value)
        probs = forward_stage(model, 1, h)
        onehot = np.eye(n_inter)[batch.inter_labels]
        picked = ad.tensor_sum(ad.mul(ad.constant(onehot), ad.log(probs)), axis=-1)
        return ad.scale(ad.tensor_mean(picked), -1.0)

    run_stage(denoise_loss, 0)
    run_stage(recognize_loss, 1)
    model.freeze()


def pass_order(n, seed, index=0):
    """The row order of shuffled pass number ``index`` (from 0) of
    pretraining over ``n`` rows at ``seed``: its batches are consecutive
    slices of it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E7A]))
    for _ in range(index):
        rng.permutation(n)
    return rng.permutation(n)


class TestSpecs:
    def test_default_spec_shape(self):
        # what build_cascade makes of each preset, at the default size and a small one
        param_counts = {(2, 16, 8): [544] * 5 + [408], (1, 16, 8): [544, 544, 408],
                        (2, 6, 3): [84] * 5 + [63], (1, 6, 3): [84, 84, 63]}
        for (per_stage, dim, n_labels), counts in param_counts.items():
            model = cascade.build_cascade(cascade.CascadeSpec(dim, n_labels, per_stage), 0)
            n = 3 * per_stage
            assert [[m.name for m in model.stages[s]] for s in range(3)] == [
                [f"{stage}.{i}" for i in range(per_stage)]
                for stage in ("denoise", "recognize", "label")]
            assert model.softmax_after == [i == 2 * per_stage - 1 for i in range(n)]
            for m in model.modules:
                out = n_labels if m is model.modules[-1] else dim
                assert [(k, t.shape) for k, t in m.params.items()] == [
                    ("L0.W", (dim, dim)), ("L0.b", (dim,)), ("L1.W", (dim, out)), ("L1.b", (out,))]
            assert [m.activations for m in model.modules] == (
                [["tanh", "tanh"]] * (n - 1) + [["tanh", "linear"]])
            assert [m.param_count for m in model.modules] == counts
            assert model_forward(model, ad.constant(np.zeros((2, dim)))).shape == (2, n_labels)


class TestBuild:
    def test_default_build_counts(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 7)
        assert len(model.modules) == 6
        assert [m.param_count for m in model.modules] == [544, 544, 544, 544, 544, 408]

    def test_same_seed_identical(self):
        a = cascade.build_cascade(cascade.CascadeSpec(), 7)
        b = cascade.build_cascade(cascade.CascadeSpec(), 7)
        for ma, mb in zip(a.modules, b.modules):
            assert ma.params.checksum() == mb.params.checksum()

    def test_different_seed_differs(self):
        a = cascade.build_cascade(cascade.CascadeSpec(), 7)
        b = cascade.build_cascade(cascade.CascadeSpec(), 8)
        assert a.modules[0].params.checksum() != b.modules[0].params.checksum()

    def test_forward_shapes(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 0)
        out = model_forward(model, ad.constant(np.zeros((5, 16))))
        assert out.shape == (5, 8)


class TestParamCount:
    def test_affine_16_16(self):
        ps = ad.ParameterSet({
            "W": ad.parameter(np.zeros((16, 16))),
            "b": ad.parameter(np.zeros(16)),
        })
        assert ps.count == 272

    def test_ba_16(self, rng):
        assert cascade.BottleneckAdapter(16, rng).param_count == 148

    def test_empty(self):
        assert ad.ParameterSet().count == 0


class TestBottleneckAdapter:
    def test_quarter_hidden_with_ceil(self, rng):
        assert cascade.BottleneckAdapter(16, rng).hidden == 4
        assert cascade.BottleneckAdapter(8, rng).hidden == 2
        assert cascade.BottleneckAdapter(3, rng).hidden == 1

    def test_count_in_dim_8(self, rng):
        # down 8*2+2, up 2*8+8
        assert cascade.BottleneckAdapter(8, rng).param_count == 42

    def test_zero_init_identity(self, rng):
        a = cascade.BottleneckAdapter(16, rng)
        x = rng.normal(size=(4, 16))
        assert np.array_equal(a.forward(ad.constant(x)).value, x)

    def test_shape_preserved_after_training_noise(self, rng):
        a = cascade.BottleneckAdapter(16, rng)
        a.params["up.W"].value[:] = rng.normal(size=(4, 16))
        out = a.forward(ad.constant(rng.normal(size=(7, 16))))
        assert out.shape == (7, 16)

    def test_wrong_width_rejected(self, rng):
        a = cascade.BottleneckAdapter(16, rng)
        with pytest.raises(ad.ShapeError):
            a.forward(ad.constant(np.zeros((2, 8))))

    def test_gradcheck_through_adapter(self, rng):
        a = cascade.BottleneckAdapter(6, rng)
        a.params["up.W"].value[:] = rng.normal(size=(2, 6)) * 0.3
        x = rng.normal(size=(3, 6))
        r = rng.normal(size=(3, 6))

        def loss_for(w):
            h = ad.tanh(affine(ad.constant(x), w, a.params["down.b"]))
            out = ad.add(ad.constant(x), affine(h, a.params["up.W"], a.params["up.b"]))
            return ad.tensor_sum(ad.mul(out, ad.constant(r)))

        check_grad(loss_for, a.params["down.W"].value.copy())


class TestGatedAdapter:
    def test_shape_preserved(self, rng):
        g = cascade.GatedAdapter(16, rng)
        assert g.forward(ad.constant(rng.normal(size=(5, 16)))).shape == (5, 16)

    def test_gate_saturation_returns_input(self, rng):
        g = cascade.GatedAdapter(16, rng)
        g.params["gate.b"].value[:] = 800.0  # sigmoid underflows to exactly 1
        x = rng.normal(size=(3, 16))
        assert np.array_equal(g.forward(ad.constant(x)).value, x)

    def test_convex_mix(self, rng):
        g = cascade.GatedAdapter(4, rng)
        g.params["gate.b"].value[:] = 0.0  # gate = 0.5 everywhere at zero weights
        x = rng.normal(size=(2, 4))
        out = g.forward(ad.constant(x)).value
        expand = x @ g.params["expand.W"].value + g.params["expand.b"].value
        np.testing.assert_allclose(out, 0.5 * x + 0.5 * expand, atol=1e-12)

    def test_count(self, rng):
        assert cascade.GatedAdapter(16, rng).param_count == 2 * 272


def test_make_adapter_unknown_kind(rng):
    with pytest.raises(ValueError, match="unknown adapter kind"):
        cascade.make_adapter("LoRA", 16, rng)


class TestPretraining:
    def test_denoising_improves_on_held_out(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        train = source_data(n=512, seed=1)
        held_out = source_data(n=256, seed=2)

        def held_out_mse():
            pred = forward_stage(model, 0, ad.constant(held_out.x)).value
            return np.mean((pred - held_out.clean) ** 2)

        before = held_out_mse()
        cascade.pretrain_upstream(model, train, epochs=20, lr=0.01, seed=3)
        assert held_out_mse() < before

    def test_stage3_untouched(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        stage3_before = [m.params.checksum() for m in model.stages[2]]
        cascade.pretrain_upstream(model, source_data(), epochs=3, lr=0.01, seed=3)
        assert [m.params.checksum() for m in model.stages[2]] == stage3_before

    def test_zero_epochs_leaves_all_params(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        before = [m.params.checksum() for m in model.modules]
        cascade.pretrain_upstream(model, source_data(), epochs=0, lr=0.01, seed=3)
        assert [m.params.checksum() for m in model.modules] == before
        assert model.modules[0]._frozen

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        before = [m.params.checksum() for m in model.modules]
        with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
            cascade.pretrain_upstream(model, source_data(n=64), epochs=1, lr=0.01,
                                      batch_size=batch_size)
        assert [m.params.checksum() for m in model.modules] == before

    def test_empty_data_rejected(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        data = source_data().subset(np.array([], dtype=int))
        with pytest.raises(ValueError, match="nonempty"):
            cascade.pretrain_upstream(model, data, epochs=1, lr=0.01)

    def test_freeze_blocks_gradients(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        cascade.pretrain_upstream(model, source_data(), epochs=1, lr=0.01, seed=3)
        out = model_forward(model, ad.constant(np.ones((2, 16))))
        ad.backward(ad.tensor_sum(out))
        for m in model.modules:
            for _, t in m.params.items():
                assert t.grad is None

    def test_recognize_stage_backprop_stops_at_denoise_stage(self, monkeypatch):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        stage_params = [[t for m in model.stages[s] for _, t in m.params.items()]
                        for s in (0, 1)]
        stage1_ids = {id(t) for t in stage_params[1]}
        steps = []  # per Adam update: its parameters, then stage 0's grads and values
        update = ad.Adam.update

        def recording(opt, g):
            steps.append(({id(p) for _, p in opt.params.items()},
                          [t.grad for t in stage_params[0]],
                          [t.value.tobytes() for t in stage_params[0]]))
            update(opt, g)

        monkeypatch.setattr(ad.Adam, "update", recording)
        cascade.pretrain_upstream(model, source_data(), epochs=1, lr=0.01, seed=3)
        # 256 rows in batches of 32: 8 steps per stage, the recognize stage's last
        assert [i for i, s in enumerate(steps) if s[0] & stage1_ids] == list(range(8, 16))
        recognize = steps[8:]
        assert all(ids == stage1_ids for ids, _, _ in recognize)
        # stage 0's parameters are stepped before the recognize stage and only
        # read during it: pretraining writes gradients into its flat buffer,
        # so no gradient is assigned to them, and none of them changes
        values = recognize[0][2]
        for _, step_grads, step_values in recognize:
            assert all(g is None for g in step_grads)
            assert step_values == values
        assert [t.value.tobytes() for t in stage_params[0]] == values

    @pytest.mark.parametrize("seed", [0, 150])
    @pytest.mark.parametrize("spec", [cascade.CascadeSpec(), cascade.CascadeSpec(modules_per_stage=1)],
                             ids=["toy6", "toy3"])
    def test_stage0_reuse_matches_per_batch_reference_bitwise(self, spec, seed):
        # 1000 rows: the last batch of each pass is a short one of 8 rows
        data = source_data(n=1000, seed=seed)
        ref, new = cascade.build_cascade(spec, seed), cascade.build_cascade(spec, seed)
        per_batch_recognize_pretrain(ref, data, epochs=4, lr=0.01, seed=seed)
        cascade.pretrain_upstream(new, data, epochs=4, lr=0.01, seed=seed)
        for a, b in zip(ref.modules, new.modules):
            for (name, ta), (_, tb) in zip(a.pretrained_params.items(), b.pretrained_params.items()):
                assert ta.value.tobytes() == tb.value.tobytes(), (a.name, name)

    def test_batch_sizes_not_powers_of_two_match_graph_reference_bitwise(self):
        # a mean over 24 or 12 rows is not an exact power-of-two scaling, so
        # every closed-form expression must be the graph's own to match
        data = source_data(n=300, seed=5)
        ref, new = (cascade.build_cascade(cascade.CascadeSpec(), 5) for _ in range(2))
        per_batch_recognize_pretrain(ref, data, epochs=2, lr=0.01, batch_size=24, seed=5)
        cascade.pretrain_upstream(new, data, epochs=2, lr=0.01, batch_size=24, seed=5)
        for a, b in zip(ref.modules, new.modules):
            assert a.params.checksum() == b.params.checksum(), a.name

    @pytest.mark.parametrize("case, op", [
        ("nan_in_x", "leaf"),  # a source input
        ("nan_in_clean", "leaf"),  # a denoising target
        # the same in the last batch of a pass, which the graph reaches only
        # after every batch before it has stepped
        ("nan_in_x_last_batch", "leaf"),
        ("inf_in_clean_last_batch", "leaf"),
        ("clean_times_1e200", "mul"),  # the squared error overflows
        ("inf_in_denoise_weight", "dense"),
        ("nan_in_recognize_bias", "dense"),  # raised in the recognize stage
        ("x_times_1e200", None),  # tanh saturates, so nothing overflows
    ])
    def test_non_finite_matches_graph_reference(self, case, op):
        def setup():
            data = source_data()
            model = cascade.build_cascade(cascade.CascadeSpec(), 3)
            x, clean = data.x.copy(), data.clean.copy()
            if case == "nan_in_x":
                x[40, 3] = np.nan
            elif case == "nan_in_clean":
                clean[100, 0] = np.nan
            elif case == "nan_in_x_last_batch":
                x[pass_order(len(x), 3)[-1], 5] = np.nan
            elif case == "inf_in_clean_last_batch":
                clean[pass_order(len(x), 3)[-1], 1] = -np.inf
            elif case == "clean_times_1e200":
                clean *= 1e200
            elif case == "inf_in_denoise_weight":
                model.modules[0].params["L0.W"].value[0, 0] = np.inf
            elif case == "nan_in_recognize_bias":
                model.stages[1][-1].params["L1.b"].value[2] = np.nan
            elif case == "x_times_1e200":
                x *= 1e200
            return model, replace(data, x=x, clean=clean)

        (ref, ref_data), (new, new_data) = setup(), setup()
        if op is None:
            with warnings.catch_warnings():  # nothing overflows, and no check says it did
                warnings.simplefilter("error")
                per_batch_recognize_pretrain(ref, ref_data, epochs=2, lr=0.01, seed=3)
                cascade.pretrain_upstream(new, new_data, epochs=2, lr=0.01, seed=3)
            for a, b in zip(ref.modules, new.modules):
                assert a.params.checksum() == b.params.checksum(), a.name
            return
        message = f"non-finite values in tensor produced by op '{op}'"
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ad.NonFiniteError, match=message) as graph_error:
            per_batch_recognize_pretrain(ref, ref_data, epochs=2, lr=0.01, seed=3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ad.NonFiniteError, match=message) as error:
            cascade.pretrain_upstream(new, new_data, epochs=2, lr=0.01, seed=3)
        assert str(error.value) == str(graph_error.value)
        if op == "leaf":
            # the denoise stage checks its whole input and target before its
            # first step, so no weight moves, wherever the bad row lies
            ref = cascade.build_cascade(cascade.CascadeSpec(), 3)
        # otherwise both routes stop at the same step: every weight stepped so far agrees
        for a, b in zip(ref.modules, new.modules):
            assert a.params.checksum() == b.params.checksum(), a.name

    def test_denoise_output_overflow_in_recognize_stage_raises_at_the_same_step(self, monkeypatch):
        # a denoise weight made large after the denoise stage's last step:
        # only the row with a large input overflows, in the recognize stage's
        # fourth batch, after three recognize steps
        data = source_data()
        x = data.x.copy()
        x[pass_order(len(data), 3, index=2)[100], 0] = 1e5
        data = replace(data, x=x)
        update = ad.Adam.update

        def poking(opt, g):
            update(opt, g)
            if opt.t == 16 and "denoise.0.L0.W" in opt.params:  # 2 passes of 8 batches
                opt.params["denoise.0.L0.W"].value[0, 0] = 1e304

        monkeypatch.setattr(ad.Adam, "update", poking)
        ref, new = (cascade.build_cascade(cascade.CascadeSpec(), 3) for _ in range(2))
        message = "non-finite values in tensor produced by op 'dense'"
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=message):
            per_batch_recognize_pretrain(ref, data, epochs=2, lr=0.01, seed=3)
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=message):
            cascade.pretrain_upstream(new, data, epochs=2, lr=0.01, seed=3)
        for a, b in zip(ref.modules, new.modules):
            assert a.params.checksum() == b.params.checksum(), a.name
        init = cascade.build_cascade(cascade.CascadeSpec(), 3)
        assert new.stages[1][0].params.checksum() != init.stages[1][0].params.checksum()

    def test_denoise_output_overflow_in_a_short_last_batch_raises_at_that_step(self, monkeypatch):
        # 1000 rows: each pass ends in a batch of 8 rows, and the recognize
        # stage's first pass overflows only there, after 31 recognize steps
        data = source_data(n=1000)
        x = data.x.copy()
        x[pass_order(len(data), 3, index=2)[-1], 0] = 1e5
        data = replace(data, x=x)
        update = ad.Adam.update

        def poking(opt, g):
            update(opt, g)
            if opt.t == 64 and "denoise.0.L0.W" in opt.params:  # 2 passes of 32 batches
                opt.params["denoise.0.L0.W"].value[0, 0] = 1e304

        monkeypatch.setattr(ad.Adam, "update", poking)
        ref, new = (cascade.build_cascade(cascade.CascadeSpec(), 3) for _ in range(2))
        message = "non-finite values in tensor produced by op 'dense'"
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=message):
            per_batch_recognize_pretrain(ref, data, epochs=2, lr=0.01, seed=3)
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=message):
            cascade.pretrain_upstream(new, data, epochs=2, lr=0.01, seed=3)
        for a, b in zip(ref.modules, new.modules):
            for (name, ta), (_, tb) in zip(a.params.items(), b.params.items()):
                assert ta.value.tobytes() == tb.value.tobytes(), (a.name, name)
        init = cascade.build_cascade(cascade.CascadeSpec(), 3)
        assert new.stages[1][0].params.checksum() != init.stages[1][0].params.checksum()

    def test_frozen_forward_reports_the_earliest_faulty_batch(self):
        # three batches of two rows: the first layer overflows only in batch 2
        # (row 4), and the second, behind a saturated tanh, in batches 0 and 2
        # (rows 0 and 4); the fault is batch 0, with the second layer's z
        xs = np.array([[5.0], [-5.0], [-5.0], [-5.0], [1e308], [-5.0]])
        layers = [(np.array([[2.0]]), np.zeros(1), "tanh", None, None),
                  (np.array([[1e308]]), np.full(1, 1e308), "linear", None, None)]
        with np.errstate(over="ignore", invalid="ignore"):
            h, fault = cascade.frozen_forward(layers, xs, batch_size=2)
        i, z = fault
        assert i == 0
        assert np.array_equal(np.isfinite(z[:, 0]), [False, True, True, True, False, True])
        assert np.array_equal(h, z)  # the second layer is linear
        with np.errstate(over="ignore"):
            _, first_only = cascade.frozen_forward(layers[:1], xs, batch_size=2)
        assert first_only[0] == 2

    def test_frozen_layers_run_once_per_recognize_pass(self, monkeypatch):
        calls = []
        frozen_forward = cascade.frozen_forward

        def counting(layers, xs, batch_size):
            calls.append(len(layers))
            return frozen_forward(layers, xs, batch_size)

        monkeypatch.setattr(cascade, "frozen_forward", counting)
        cascade.pretrain_upstream(cascade.build_cascade(cascade.CascadeSpec(), 3), source_data(),
                                  epochs=3, lr=0.01, seed=3)
        # the denoise stage has no trained stage before it; each recognize
        # pass runs the denoise stage's four layers once
        assert calls == [4, 4, 4]

    def test_moments_checked_once_per_stage_epoch(self, monkeypatch):
        checked = []
        monkeypatch.setattr(ad.Adam, "check_moments", lambda opt: checked.append(next(iter(opt.params))))
        cascade.pretrain_upstream(cascade.build_cascade(cascade.CascadeSpec(), 3), source_data(),
                                  epochs=3, lr=0.01, seed=3)
        assert checked == ["denoise.0.L0.W"] * 3 + ["recognize.0.L0.W"] * 3

    def test_out_of_range_label_raises_before_the_recognize_stage(self):
        data = source_data()
        # in the last batch of the recognize stage's first pass, after the two denoise passes
        labels = data.inter_labels.copy()
        labels[pass_order(len(data), 3, index=2)[-1]] = 16
        data = replace(data, inter_labels=labels)
        ref, new = (cascade.build_cascade(cascade.CascadeSpec(), 3) for _ in range(2))
        with pytest.raises(IndexError):  # the graph's one-hot, np.eye(16)[labels], at that batch
            per_batch_recognize_pretrain(ref, data, epochs=2, lr=0.01, seed=3)
        # the whole label array's range, checked before the recognize stage's first step
        message = f"labels must lie in [0, 16), got range [{labels.min()}, {labels.max()}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            cascade.pretrain_upstream(new, data, epochs=2, lr=0.01, seed=3)
        init = cascade.build_cascade(cascade.CascadeSpec(), 3)
        for a, b in zip(ref.stages[0] + init.stages[1] + init.stages[2], new.modules):
            assert a.params.checksum() == b.params.checksum(), a.name
        assert new.stages[0][0].params.checksum() != init.stages[0][0].params.checksum()

    def test_labels_are_checked_once_per_stage(self, monkeypatch):
        # the recognize stage checks its whole label array once, in range or not
        calls = []
        checked_labels = cascade.checked_labels

        def counting(labels, shape):
            calls.append(shape)
            return checked_labels(labels, shape)

        monkeypatch.setattr(cascade, "checked_labels", counting)
        data = source_data()
        cascade.pretrain_upstream(cascade.build_cascade(cascade.CascadeSpec(), 3), data,
                                  epochs=2, lr=0.01, seed=3)
        assert calls == [(len(data), 16)]
        calls.clear()
        labels = data.inter_labels.copy()
        labels[pass_order(len(data), 3, index=2)[31]] = 16  # the first recognize batch's last row
        with pytest.raises(ValueError, match="labels must lie in"):
            cascade.pretrain_upstream(cascade.build_cascade(cascade.CascadeSpec(), 3),
                                      replace(data, inter_labels=labels), epochs=2, lr=0.01, seed=3)
        assert calls == [(len(data), 16)]

    @pytest.mark.parametrize("cut", ["columns", "rows"])
    def test_wrong_shape_denoise_target_raises_before_any_weight_moves(self, cut):
        data = source_data(64)
        clean = {"columns": data.clean[:, :15], "rows": data.clean[:40]}[cut]
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        before = [m.params.checksum() for m in model.modules]
        message = f"denoise target: shape {clean.shape} does not match the output's (64, 16)"
        with pytest.raises(ad.ShapeError, match=re.escape(message)):
            cascade.pretrain_upstream(model, replace(data, clean=clean), epochs=2, lr=0.01, seed=3)
        assert [m.params.checksum() for m in model.modules] == before

    def test_too_few_labels_raise_before_the_recognize_stage(self):
        data = source_data(64)
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        init = cascade.build_cascade(cascade.CascadeSpec(), 3)
        with pytest.raises(ad.ShapeError, match=re.escape("labels shape (40,) does not match batch 64")):
            cascade.pretrain_upstream(model, replace(data, inter_labels=data.inter_labels[:40]),
                                      epochs=2, lr=0.01, seed=3)
        for a, b in zip(init.stages[1] + init.stages[2], model.stages[1] + model.stages[2]):
            assert a.params.checksum() == b.params.checksum(), a.name

    def test_adam_refuses_the_frozen_snapshots(self):
        model = cascade.build_cascade(cascade.CascadeSpec(modules_per_stage=1), 3)
        cascade.pretrain_upstream(model, source_data(), epochs=1, lr=0.01, seed=3)
        before = model.modules[0].params.checksum()
        with pytest.raises(ValueError, match="parameter 'L0.W' is read-only"):
            ad.Adam(model.modules[0].pretrained_params, lr=0.01)
        assert model.modules[0].params.checksum() == before

    def test_frozen_snapshots_are_read_only(self):
        model = cascade.build_cascade(cascade.CascadeSpec(modules_per_stage=1), 3)
        cascade.pretrain_upstream(model, source_data(), epochs=1, lr=0.01, seed=3)
        before = [m.params.checksum() for m in model.modules]
        for m in model.modules:
            for _, t in m.pretrained_params.items():
                with pytest.raises(ValueError, match="read-only"):
                    t.value[...] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    t.value += 1.0
        c = cell.NfaCell(model.modules[0])
        tuned = c.finetune_params.checksum()
        loss = ad.tensor_sum(c.forward(ad.constant(np.ones((2, 16))), "finetune"))
        ad.Adam(c.finetune_params, lr=0.01).minimize(loss)
        assert c.finetune_params.checksum() != tuned
        assert [m.params.checksum() for m in model.modules] == before

    def test_pretrained_snapshot_accessor(self):
        model = cascade.build_cascade(cascade.CascadeSpec(), 3)
        with pytest.raises(RuntimeError, match="frozen"):
            _ = model.modules[0].pretrained_params
        model.freeze()
        assert model.modules[0].pretrained_params.count == 544


# -- the checks the array rules leave out, and why none of them can fire ------


@settings(max_examples=200, deadline=None)
@given(logits=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=5),
                         elements=st.floats(-1e308, 1e308) | st.sampled_from(FINITE_EXTREMES)),
       seed=st.integers(0, 2**32 - 1))
@example(logits=np.array([[1e308, -1e308, 0.0]]), seed=0)  # log(0): log fires
@example(logits=np.array([[5e-324, -0.0], [1e308, 1e308]]), seed=1)
def test_nll_checks_nothing_after_a_finite_log(logits, seed):
    """``_nll`` checks ``log`` and nothing after it: a finite ``logp`` gives a
    finite one-hot, pick, row sum, mean and loss. Where ``log`` is not
    finite, ``_nll`` raises under its name, as the graph does."""
    labels = np.random.default_rng(seed).integers(0, logits.shape[-1], logits.shape[-2])
    with np.errstate(over="ignore", divide="ignore"):
        logp = np.log(ad.softmax(logits))
        if not np.isfinite(logp).all():
            with pytest.raises(ad.NonFiniteError, match="op 'log'"):
                cascade._nll(logits, labels)
            if logits.ndim == 2:
                with pytest.raises(ad.NonFiniteError, match="op 'log'"):
                    ad.nll(ad.softmax_lastdim(ad.constant(logits)), labels)
            return
        loss = cascade._nll(logits, labels)[0]
        graph = ad.nll(ad.softmax_lastdim(ad.constant(logits)), labels) if logits.ndim == 2 else None
    onehot = np.eye(logits.shape[-1])[labels]
    picked = onehot * logp
    row = picked.sum(axis=-1)
    mean = row.mean(axis=-1)
    for value in (onehot, picked, row, mean, mean * -1.0):
        assert np.isfinite(value).all()
    assert np.asarray(loss).tobytes() == np.asarray(mean * -1.0).tobytes()
    if graph is not None:
        assert graph.value.tobytes() == np.asarray(loss).tobytes()


@settings(max_examples=200, deadline=None)
@given(logits=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(FINITE_EXTREMES)))
@example(logits=np.array([FINITE_EXTREMES]))
@example(logits=np.array([FINITE_EXTREMES[::-1], FINITE_EXTREMES[1::2] * 2]))
def test_softmax_of_finite_logits_is_finite(logits):
    """Why ``_nll_probs`` does not check its softmax as ``softmax_lastdim``:
    its logits were checked finite by the op that made them, and a finite
    row's softmax is finite (its largest entry maps to exp(0) = 1, so the
    row sum lies in [1, n])."""
    with np.errstate(over="ignore"):  # z - max may overflow to -inf; exp gives 0
        probs = ad.softmax(logits)
    assert np.isfinite(probs).all()


@settings(max_examples=100, deadline=None)
@given(target=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(FINITE_EXTREMES)))
@example(target=np.array(FINITE_EXTREMES))
def test_mse_scale_of_a_finite_target_is_finite(target):
    """Why ``_mse_grad`` does not check ``target * -1.0`` as ``scale``:
    negation is exact, so a target checked finite as a leaf stays finite."""
    assert np.isfinite(target * -1.0).all()


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EXTREMES)


@settings(max_examples=200, deadline=None)
@given(arrays=hnp.array_shapes(max_dims=3, max_side=6).flatmap(
    lambda shape: st.tuples(*[hnp.arrays(np.float64, shape, elements=FINITE)] * 3)))
@example(arrays=(np.array(FINITE_EXTREMES),) * 3)
@example(arrays=(np.array(FINITE_EXTREMES), np.array(FINITE_EXTREMES[::-1]),
                 np.array(FINITE_EXTREMES[1:] + FINITE_EXTREMES[:1])))
def test_gated_mix_of_finite_arrays_is_finite(arrays):
    """Why ``GatedAdapter.run`` checks only its final ``add``: the
    gate is the sigmoid of a finite ``z``, so it lies in [0, 1], and with a
    finite input and expansion the graph's ``leaf``, ``scale``, ``add`` and
    two ``mul`` before that add are finite."""
    z, x, expanded = arrays
    gate = ad.ACTIVATIONS["sigmoid"][0](z)
    assert ((gate >= 0.0) & (gate <= 1.0)).all()
    ones = np.ones(z.shape[-1:])
    neg = gate * -1.0
    one_minus_g = ones + neg
    for value in (ones, neg, one_minus_g, gate * x, one_minus_g * expanded):
        assert np.isfinite(value).all()


# -- pretraining's one-reduction checks, and why each raises exactly as before --


ANY = st.floats() | st.sampled_from(FINITE_EXTREMES)


def recorded(fn, *args):
    """``(outcome, warned)``: the bytes of what ``fn(*args)`` returned (None
    for None) or the message of the ``NonFiniteError`` it raised, and
    whether it emitted a ``RuntimeWarning``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
            outcome = ("returned", None if out is None else np.asarray(out).tobytes())
        except ad.NonFiniteError as e:
            outcome = ("raised", str(e))
    return outcome, any(issubclass(w.category, RuntimeWarning) for w in caught)


def graph_mse_grad(pred, target):
    """The checks and gradient of ``ad.mean((pred - target)**2)`` op by op,
    as the graph of ``add(pred, scale(target, -1))``, ``mul(diff, diff)``
    and ``tensor_mean`` makes them."""
    diff = pred + target * -1.0
    ad.check_finite(diff, "add")
    sq = diff * diff
    ad.check_finite(sq, "mul")
    ad.check_finite(sq.mean(), "mean")
    t = np.full(sq.shape, 1.0 / sq.size) * diff
    return t + t


def shaped_pairs(elements):
    return hnp.array_shapes(min_dims=2, max_dims=2, max_side=8).flatmap(
        lambda shape: st.tuples(*[hnp.arrays(np.float64, shape, elements=elements)] * 2))


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=8), elements=ANY))
@example(z=np.full((4, 4), 1e200))  # every element finite, the sum of squares overflows
@example(z=np.array([FINITE_EXTREMES, FINITE_EXTREMES[::-1]]))
@example(z=np.array([[np.inf, -np.inf], [np.nan, 0.0]]))
@example(z=np.full((2, 3, 4), 1e200))  # stacked, as a stack of schemes gives it
@example(z=np.array([[FINITE_EXTREMES], [[np.nan] * 6]]))
def test_dense_prefilter_raises_exactly_when_the_dense_check_does(z):
    """``ad.check_dense`` raises exactly when ``check_finite(z, "dense")``
    does, with its message, and never warns: ``np.vdot`` reports no
    overflow."""
    got, warned = recorded(ad.check_dense, z)
    assert got == recorded(ad.check_finite, z, "dense")[0]
    assert not warned


def dense_shapes(stack, n, a, b):
    """The shapes of ``x``, ``W`` and ``b`` of an ``a -> b`` dense layer on
    ``n`` rows, with the leading scheme axis ``stack`` (``()`` or ``(S,)``)."""
    return stack + (n, a), stack + (a, b), stack + (1,) * len(stack) + (b,)


def checked_dense(x, w, b, act):
    """``dense_core``'s ``(z, y)`` as ``x @ w + b`` checked in full by
    ``check_finite(z, "dense")``."""
    z = x @ w + b
    ad.check_finite(z, "dense")
    return z, ad.ACTIVATIONS[act][0](z)


@settings(max_examples=300, deadline=None)
@given(arrays=st.tuples(st.sampled_from([(), (2,)]), *[st.integers(1, 5)] * 3).flatmap(
    lambda sizes: st.tuples(*(hnp.arrays(np.float64, shape, elements=FINITE)
                              for shape in dense_shapes(*sizes)))),
    act=st.sampled_from(sorted(ad.ACTIVATIONS)))
@example(arrays=(np.full((2, 3), 1e200), np.full((3, 2), 1e200), np.zeros(2)), act="tanh")
@example(arrays=(np.full((2, 3), 1e200), np.full((3, 2), -1e200), np.zeros(2)), act="sigmoid")
@example(arrays=(np.array([[1e308, 1e308]]), np.ones((2, 1)), np.zeros(1)), act="linear")
@example(arrays=(np.ones((1, 1)), np.full((1, 1), 1.7e308), np.full(1, 1.7e308)), act="tanh")
@example(arrays=(np.full((2, 2, 3), 1e200), np.full((2, 3, 2), 1e200), np.zeros((2, 1, 2))),
         act="tanh")
@example(arrays=(np.array([[-5e-324]]), np.array([[0.5, 0.0]]), np.array([-0.0, -0.0])),
         act="linear")  # a one-term product of -0: @ sums it onto +0
def test_dense_core_raises_exactly_when_the_dense_check_does(arrays, act):
    """``dense_core`` on finite inputs whose product or sum may overflow
    raises exactly when ``check_finite(z, "dense")`` on ``x @ w + b`` does,
    with its message, returns its bytes otherwise, and warns only where it
    warns."""
    got, warned = recorded(ad.dense_core, *arrays, act)
    want, full_warned = recorded(checked_dense, *arrays, act)
    assert got == want
    assert full_warned or not warned


@settings(max_examples=300, deadline=None)
@given(arrays=shaped_pairs(ANY))
@example(arrays=(np.full((4, 4), 1e200), np.zeros((4, 4))))  # the squares overflow: mul
@example(arrays=(np.full((4, 4), 1e154), np.zeros((4, 4))))  # only their sum overflows: mean
@example(arrays=(np.array([[1.7e308, 1.0]]), np.array([[-1.7e308, 1.0]])))  # the difference: add
@example(arrays=(np.array([[np.inf, 1e200]]), np.zeros((1, 2))))
@example(arrays=(np.array([FINITE_EXTREMES]), np.array([FINITE_EXTREMES[::-1]])))
def test_mse_prefilter_raises_exactly_when_the_graph_checks_do(arrays):
    """``_mse_grad`` raises exactly when the graph's ``add``, ``mul`` and
    ``mean`` checks do, with the first failing one's message, and otherwise
    returns the graph's gradient byte for byte. On the inputs pretraining
    gives it, a finite prediction and a target checked finite, it warns
    only where the graph warns."""
    pred, target = arrays
    got, warned = recorded(cascade._mse_grad, pred, target)
    want, graph_warned = recorded(graph_mse_grad, pred, target)
    assert got == want
    if np.isfinite(pred).all() and np.isfinite(target).all():
        assert graph_warned or not warned


@settings(max_examples=300, deadline=None)
@given(logits=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                         elements=ANY),
       seed=st.integers(0, 2**32 - 1))
@example(logits=np.array([[1e308, -1e308, 0.0]]), seed=0)  # a probability underflows to 0
@example(logits=np.array([[-np.inf, 0.0], [1.0, 2.0]]), seed=1)
@example(logits=np.array([FINITE_EXTREMES]), seed=2)
def test_log_prefilter_raises_exactly_when_the_log_check_does(logits, seed):
    """``_nll_grad`` checks ``log`` as ``probs.min() > 0``: given the loss
    seed of the labels, it raises exactly when ``_nll_probs``'s ``log``
    check does, with its message, warns only where that route warns, and
    otherwise returns the gradient of ``_nll_backward`` on ``_nll_probs``
    byte for byte."""
    labels = np.random.default_rng(seed).integers(0, logits.shape[-1], logits.shape[-2])
    loss_seed = np.full(logits.shape, -1.0 / logits.shape[-2]) * np.eye(logits.shape[-1])[labels]
    got, warned = recorded(cascade._nll_grad, logits, loss_seed)
    want, graph_warned = recorded(
        lambda: cascade._nll_backward(*cascade._nll_probs(logits, labels)[:2]))
    assert got == want
    assert graph_warned or not warned


DENSE_SIDES = st.sampled_from([1, 2, 3, 4, 16, 33])
DENSE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5]) | st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(m=DENSE_SIDES, a=DENSE_SIDES, width=DENSE_SIDES, act=st.sampled_from(sorted(ad.ACTIVATIONS)),
       data=st.data())
def test_dense_arrays_are_the_graphs_dense_rule(m, a, width, act, data):
    """A dense layer's arrays, run by ``run_dense`` and swept by
    ``sweep_dense``, give the graph's bytes: ``z = x @ w + b`` on a slice of
    gathered rows, and ``dense_backward``'s three gradients, the weight's
    written into views of a flat buffer. Every product's contraction length
    is drawn, 1 included, where a one-term ``-0`` is summed onto ``+0``."""
    x, w, b, g = (data.draw(hnp.arrays(np.float64, shape, elements=DENSE_VALUES))
                  for shape in ((m + 1, a), (a, width), (width,), (m, width)))
    x = x[1:]
    flat = np.full(a * width + width + 1, np.nan)
    dw, db = flat[1:a * width + 1].reshape(a, width), flat[a * width + 1:].reshape(1, width)
    layers = [(w, b, act, dw, db)]
    y, tape = cascade.run_dense(layers, x)
    dx = cascade.sweep_dense(layers, tape, g, True)
    z = x @ w + b
    want_y = ad.ACTIVATIONS[act][0](z)
    want_dx, want_dw, want_db = ad.dense_backward(g, x, w, b.shape, act, z, want_y)
    assert (tape[0][1].tobytes(), y.tobytes()) == (z.tobytes(), want_y.tobytes())
    assert (dx.tobytes(), dw.tobytes(), db.tobytes()) == \
        (want_dx.tobytes(), want_dw.tobytes(), want_db[None].tobytes())


def test_sweep_dense_multiplies_a_1x1_layer_as_the_graph_does():
    """Products that sum one term, a ``-0`` (or a negative product that
    underflows to it): a 1x1 layer, where every product does; one row into a
    ``(1, 2)`` layer, where ``dW``'s does; and a width-1 layer under two
    rows, where ``dx``'s does. ``np.dot`` keeps the ``-0`` in each, where
    ``dense_backward``'s ``@`` gives ``+0``."""
    for x, w, g in (([[-1.0]], [[-1.0]], [[0.0]]),
                    ([[-5e-324]], [[0.5, 0.0]], [[0.5, 0.5]]),
                    ([[1.0, -1.0], [2.0, 0.0]], [[0.5], [0.5]], [[-5e-324], [5e-324]])):
        x, w, g = np.array(x), np.array(w), np.array(g)
        b = np.zeros(w.shape[1])
        _, tape = cascade.run_dense([(w, b, "linear", None, None)], x)
        dw, db = np.full(w.shape, np.nan), np.full((1,) + b.shape, np.nan)
        dx = cascade.sweep_dense([(w, b, "linear", dw, db)], tape, g, True)
        want_dx, want_dw, want_db = ad.dense_backward(g, x, w, b.shape, "linear", *tape[0][1:])
        assert (dx.tobytes(), dw.tobytes(), db.tobytes()) == \
            (want_dx.tobytes(), want_dw.tobytes(), want_db[None].tobytes())
        assert not (np.signbit(dx).any() or np.signbit(dw).any())


def test_src_multiplies_only_as_the_graph_does():
    """Every product in ``src/nfa`` is the graph's ``@`` (or ``np.matmul``):
    no module calls ``dot``, which keeps the ``-0`` of a one-term product,
    or names an ``autodiff.product`` that picks a function by shape."""
    found = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "dot" or node.attr == "product" and isinstance(node.value, ast.Name)
                    and node.value.id in ("ad", "autodiff")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                found += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names
                          if a.name == "product"]
    assert found == []
    assert not hasattr(ad, "product")


def test_frozen_forward_multiplies_a_one_row_last_batch_as_each_batch_alone():
    """A one-row last batch into a layer of width 1 with a ``-0`` bias: its
    ``0 * -1`` is ``+0`` under ``@``, so ``z`` is ``+0``, as each batch's
    ``x @ w + b`` alone gives it."""
    xs, w, b = np.array([[1.0], [2.0], [0.0]]), np.array([[-1.0]]), np.array([-0.0])
    h, fault = cascade.frozen_forward([(w, b, "linear", None, None)], xs, batch_size=2)
    want = np.concatenate([xs[:2] @ w + b, xs[2:] @ w + b])
    assert fault is None
    assert h.tobytes() == want.tobytes()
    assert not np.signbit(h[2, 0])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 4), m=st.integers(1, 40), a=st.integers(1, 24), b=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_product_is_each_batchs_matmul(k, m, a, b, seed):
    """The recognize stage runs its trained denoise layers once per pass as
    ``(k, m, a) @ W`` over the pass's ``k`` full batches of ``m`` rows:
    each slice has the bytes of that batch's own ``@``, also written with
    ``np.matmul``'s ``out=`` into a view of a flat buffer, as
    ``frozen_forward`` writes a short last batch."""
    rng = np.random.default_rng(seed)
    h, w = rng.normal(size=(k * m + 1, a))[1:], rng.normal(size=(a, b))
    z = np.empty(k * m * b + 1)[1:].reshape(k * m, b)
    stacked = h.reshape(k, m, a) @ w
    np.matmul(h.reshape(k, m, a), w, out=z.reshape(k, m, b))
    for i in range(k):
        batch = h[i * m:(i + 1) * m] @ w
        assert stacked[i].tobytes() == batch.tobytes()
        assert z[i * m:(i + 1) * m].tobytes() == batch.tobytes()
        out = np.empty(m * b + 1)[1:].reshape(m, b)
        assert np.matmul(h[i * m:(i + 1) * m], w, out=out).tobytes() == batch.tobytes()


# -- pretraining fuzzed against the graph -------------------------------------

PRETRAIN_FUZZ_EXAMPLES = (settings.get_profile(SEARCH_FUZZ_PROFILE).max_examples
                          if settings.get_current_profile_name() == SEARCH_FUZZ_PROFILE else 100)


def raised(run):
    """None, or the type and message of what ``run()`` raised."""
    try:
        run()
    except Exception as e:  # any error, to compare with the graph's
        return type(e), str(e)
    return None


@st.composite
def poisons(draw, spec, n_source):
    """None, or a NaN or infinity at a drawn place: ``(array, index,
    value)`` with the array ``"x"``, ``"clean"`` or ``(module, name)`` of a
    denoise or recognize weight."""
    where = draw(st.sampled_from([None, "x", "clean", "weight"]))
    if where is None:
        return None
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if where != "weight":
        return where, (draw(st.integers(0, n_source - 1)), draw(st.integers(0, spec.dim - 1))), value
    module = draw(st.integers(0, 2 * spec.modules_per_stage - 1))
    name = draw(st.sampled_from(["L0.W", "L0.b", "L1.W", "L1.b"]))
    shape = (spec.dim, spec.dim) if name.endswith("W") else (spec.dim,)
    return (module, name), tuple(draw(st.integers(0, side - 1)) for side in shape), value


@settings(max_examples=PRETRAIN_FUZZ_EXAMPLES, deadline=None)
@given(spec=cascade_specs(), batch_size=st.integers(1, 40), epochs=st.integers(1, 2),
       n_source=st.integers(1, 80), seed=st.integers(0, 2**16), data=st.data())
def test_pretrain_fuzz_matches_graph(spec, batch_size, epochs, n_source, seed, data):
    """Pretraining on drawn cascades, batch sizes, epochs, source sizes and
    seeds, with or without a NaN or infinity drawn into the input, the
    target or a weight: it raises what the graph reference raises. A weight
    fault raises at the same step, and every pretrained parameter equals the
    graph's byte for byte. An input or target fault raises the whole-array
    ``leaf`` error before the denoise stage's first step (no stage comes
    before it), so no weight moves."""
    poison = data.draw(poisons(spec, n_source))
    rows = generate_synthetic(SynthDataConfig(n_samples=n_source, dim=spec.dim, n_labels=spec.n_labels,
                                              n_intermediate=spec.dim, domain="source"), seed)
    models, outcomes = [], []
    for pretrain in (per_batch_recognize_pretrain, cascade.pretrain_upstream):
        model = cascade.build_cascade(spec, seed)
        arrays = {"x": rows.x.copy(), "clean": rows.clean.copy()}
        if poison is not None:
            where, index, value = poison
            if where in arrays:
                arrays[where][index] = value
            else:
                model.modules[where[0]].params[where[1]].value[index] = value
        with np.errstate(all="ignore"):
            outcomes.append(raised(lambda: pretrain(model, replace(rows, **arrays), epochs=epochs,
                                                    lr=0.01, batch_size=batch_size, seed=seed)))
        models.append(model)
    assert outcomes[1] == outcomes[0]
    assert (poison is None) == (outcomes[0] is None)
    if poison is not None and poison[0] in ("x", "clean"):
        assert outcomes[1] == (ad.NonFiniteError, "non-finite values in tensor produced by op 'leaf'")
        models[0] = cascade.build_cascade(spec, seed)
    for a, b in zip(*(m.modules for m in models)):
        for (name, ta), (_, tb) in zip(a.params.items(), b.params.items()):
            assert ta.value.tobytes() == tb.value.tobytes(), (a.name, name)
