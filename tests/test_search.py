"""Bilevel search mechanics: splitting, step contracts, staging, hygiene."""

import numpy as np
import pytest

import graph_reference
from nfa import autodiff as ad
from nfa import cascade, cell, objective
from nfa.data import SynthDataConfig, generate_synthetic
from nfa.search import AdaptiveSearch, SearchConfig, split_dataset


def target_data(n=200, seed=4):
    return generate_synthetic(SynthDataConfig(n_samples=n, domain="target"), seed)


def make_search(seed=0, n=128, mode="NFA", penalty_cfg=None, modules_per_stage=1,
                search_cls=AdaptiveSearch, **cfg_kw):
    cfg_kw.setdefault("lr_network", 0.01)
    cfg_kw.setdefault("lr_arch", 0.05)
    cfg_kw.setdefault("stage1_epochs", 2)
    cfg_kw.setdefault("stage2_epochs", 1)
    model = cascade.build_cascade(cascade.CascadeSpec(modules_per_stage=modules_per_stage), seed)
    source = generate_synthetic(SynthDataConfig(n_samples=256, domain="source"), seed)
    cascade.pretrain_upstream(model, source, epochs=10, lr=0.01, seed=seed)
    cells = cell.build_cells(model, mode=mode, seed=seed)
    cfg = SearchConfig(seed=seed, **cfg_kw)
    train, val = split_dataset(target_data(n, seed), cfg.split_ratio, seed)
    pcfg = penalty_cfg or objective.PenaltyConfig()
    return search_cls(model, cells, train, val, pcfg, cfg)


def all_path_net_step(s, batch):
    """The network step before single-path stepping: every path of every cell
    forwarded under straight-through weights and the whole graph, alpha
    included, backpropagated."""
    weights = s.sample_weights()
    loss = graph_reference.cascade_loss(s.model, s.cells, weights, batch)
    s.net_params.zero_grads()
    ad.backward(loss)
    s.opt_net.step()
    return loss.item()


def step_state(s):
    """Every byte a network step may touch."""
    out = [s.opt_net.t, s._gumbel_rng.bit_generator.state]
    for name, t in s.net_params.items():
        out += [name, t.value.tobytes(), s.opt_net._m[name].tobytes(), s.opt_net._v[name].tobytes()]
    return out + [c.alpha.value.tobytes() for c in s.cells]


class TestSplit:
    def test_even_split(self):
        train, val = split_dataset(target_data(100), 0.5, 0)
        assert len(train) == 50 and len(val) == 50

    def test_odd_split_rounds_up(self):
        train, val = split_dataset(target_data(101), 0.5, 0)
        assert len(train) == 51 and len(val) == 50

    def test_disjoint_and_exhaustive(self):
        data = target_data(100)
        train, val = split_dataset(data, 0.5, 7)
        ids = set(train.ids) | set(val.ids)
        assert not set(train.ids) & set(val.ids)
        assert ids == set(data.ids)

    def test_seed_determinism(self):
        a, _ = split_dataset(target_data(100), 0.5, 7)
        b, _ = split_dataset(target_data(100), 0.5, 7)
        c, _ = split_dataset(target_data(100), 0.5, 8)
        assert np.array_equal(a.ids, b.ids)
        assert not np.array_equal(a.ids, c.ids)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset(target_data(10).subset(np.array([], dtype=int)), 0.5, 0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            split_dataset(target_data(10), 1.0, 0)


class TestStepContracts:
    def test_arch_step_updates_alpha_only(self):
        s = make_search()
        net_before = s.net_params.checksum()
        alpha_before = s.arch_params.checksum()
        s.arch_step(s.val_data.subset(np.arange(16)))
        assert s.net_params.checksum() == net_before
        assert s.arch_params.checksum() != alpha_before

    def test_arch_step_sweeps_no_first_cell_and_writes_no_network_gradient(self, monkeypatch):
        # the first cell's pick is swept for nothing: no layer of the
        # architecture step has a gradient view and no input gradient is used
        s = make_search(modules_per_stage=2)
        s._plan.grad.fill(np.nan)
        sentinel = s._plan.grad.tobytes()
        swept = []
        sweep = cell.sweep_path

        def counting(*args):
            swept.append(args[0].index)
            return sweep(*args)

        monkeypatch.setattr(cell, "sweep_path", counting)
        for step in range(2):
            s.arch_step(s.val_data.subset(np.arange(16 * step, 16 * step + 16)))
        assert swept == list(range(len(s.cells) - 1, 0, -1)) * 2
        assert s._plan.grad.tobytes() == sentinel

    def test_net_step_updates_network_only(self):
        s = make_search()
        net_before = s.net_params.checksum()
        alpha_before = s.arch_params.checksum()
        s.net_step(s.train_data.subset(np.arange(16)))
        assert s.net_params.checksum() != net_before
        assert s.arch_params.checksum() == alpha_before

    def test_pretrained_backbone_never_moves(self):
        s = make_search()
        before = [m.params.checksum() for m in s.model.modules]
        s.run_stage1()
        s.run_stage2()
        assert [m.params.checksum() for m in s.model.modules] == before

    def test_empty_batch_rejected(self):
        s = make_search()
        empty = s.train_data.subset(np.array([], dtype=int))
        with pytest.raises(ValueError, match="nonempty"):
            s.arch_step(empty)
        with pytest.raises(ValueError, match="nonempty"):
            s.net_step(empty)

    def test_arch_step_builds_no_parameter_set(self, monkeypatch):
        # each cell's per-path parameter sets are built once, with the cell
        s = make_search(modules_per_stage=2)
        built = []
        init = ad.ParameterSet.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.ParameterSet, "__init__", counting)
        s.arch_step(s.val_data.subset(np.arange(32)))
        assert built == []

    def test_net_step_ignores_penalty(self):
        lo = make_search(penalty_cfg=objective.PenaltyConfig(coefficient=0.0))
        hi = make_search(penalty_cfg=objective.PenaltyConfig(coefficient=50.0))
        batch = lo.train_data.subset(np.arange(16))
        lo.net_step(batch)
        hi.net_step(batch)
        assert lo.net_params.checksum() == hi.net_params.checksum()

    def test_single_path_step_matches_all_path_reference(self, monkeypatch):
        evaluated = []
        run_path = cell.run_path

        def counting(group, *args, **kwargs):
            evaluated.append((group.index, group.path))
            return run_path(group, *args, **kwargs)

        monkeypatch.setattr(cell, "run_path", counting)
        ref, new = make_search(search_cls=graph_reference.GraphSearch), make_search()
        batches = new.train_data.batches(16, np.random.default_rng(1))
        all_paths = {(c.index, p) for c in new.cells for p in c.paths}
        sampled_seen, idle_seen = set(), set()
        for i in range(24):
            batch = batches[i % len(batches)]
            ref_loss = all_path_net_step(ref, batch)
            evaluated.clear()
            assert new.net_step(batch) == ref_loss
            assert sorted(index for index, _ in evaluated) == list(range(len(new.cells)))
            sampled_seen.update(evaluated)
            idle_seen.update(all_paths - set(evaluated))
            assert step_state(new) == step_state(ref)
        assert sampled_seen == idle_seen == all_paths

        # skipping the idle parameters instead of zero-filling them would show
        class SkippingIdle(graph_reference.GraphSearch):
            def _train(self, groups, batch):
                # the zero-filled step, then the idle values and moments put back
                opt = self.opt_net
                kept = {n: [a.copy() for a in (opt.params[n].value, opt._m[n], opt._v[n])]
                        for n in self.idle([cell_groups[0].path for cell_groups in groups])}
                loss = super()._train(groups, batch)
                for n, arrays in kept.items():
                    for a, old in zip((opt.params[n].value, opt._m[n], opt._v[n]), arrays):
                        a[...] = old
                return loss

        skipping = make_search(search_cls=SkippingIdle)
        for i in range(24):
            skipping.net_step(batches[i % len(batches)])
        assert step_state(skipping) != step_state(new)

    def test_net_step_fits_the_toy_task(self):
        # pin the sampler onto the fine-tune path so every step trains it
        s = make_search(stage1_epochs=0, stage2_epochs=0, lr_network=0.02)
        for c in s.cells:
            c.alpha.value[:] = [-40.0, 40.0, -40.0]
        batch = s.train_data.subset(np.arange(len(s.train_data)))
        loss = None
        for _ in range(400):
            loss = s.net_step(batch)
        assert loss < 0.1


class TestStaging:
    def test_tau_anneal_endpoints(self):
        s = make_search(stage1_epochs=5)
        assert s.tau_at(0) == s.cfg.tau_start
        assert abs(s.tau_at(4) - s.cfg.tau_end) < 1e-12

    def test_stage_bookkeeping(self):
        s = make_search(stage1_epochs=2, stage2_epochs=2)
        s.run_stage1()
        assert s.state.stage == 2
        assert [r.stage for r in s.state.history] == [1, 1]
        s.run_stage2()
        assert [r.stage for r in s.state.history] == [1, 1, 2, 2]
        assert [r.epoch for r in s.state.history] == [0, 1, 2, 3]

    def test_epoch_means_checked_before_recording(self):
        # each step's total is finite, but their mean overflows
        s = make_search()
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="op 'mean'"):
            s._record_epoch(1, 1.0, float(np.mean([1.2e308, 1.2e308])), 0.5)
        assert s.state.history == [] and s.state.epoch == 0

    def test_moments_checked_once_per_epoch(self, monkeypatch):
        s = make_search(stage1_epochs=3, stage2_epochs=2)
        checked = []
        monkeypatch.setattr(ad.Adam, "check_moments", lambda opt: checked.append(
            ("arch" if opt is s.opt_arch else "net", len(s.state.history))))
        s.run_stage1()
        assert checked == [(kind, e) for e in range(3) for kind in ("arch", "net")]
        checked.clear()
        s.run_stage2()
        assert checked == [("net", 3), ("net", 4)]

    def test_stage_order_enforced(self):
        s = make_search()
        with pytest.raises(RuntimeError, match="stage 1"):
            s.run_stage2()
        s.run_stage1()
        with pytest.raises(RuntimeError, match="already"):
            s.run_stage1()

    def test_stage2_freezes_alpha_and_scheme(self):
        s = make_search(stage1_epochs=2, stage2_epochs=3)
        s.run_stage1()
        alpha = s.arch_params.checksum()
        scheme = s.discretization()
        s.run_stage2()
        assert s.arch_params.checksum() == alpha
        assert s.discretization() == scheme

    def test_second_stage2_continues_the_first(self):
        # two stage-2 runs of 2 epochs equal one of 4: the second continues
        # from the step count and moments that the first left in opt_net
        def stage2_state(runs, epochs):
            s = make_search(stage1_epochs=2, stage2_epochs=epochs)
            s.run_stage1()
            for _ in range(runs):
                s.run_stage2()
            for _, t in s.opt_net.params.items():
                assert t.value.base is s.opt_net._flat_x  # the optimizer it stepped backs its values
            return ([(n, t.value.tobytes()) for group in (s.net_params, s.arch_params)
                     for n, t in group.items()],
                    s.opt_net.t, s.opt_net._flat_m.tobytes(), s.opt_net._flat_v.tobytes(),
                    [repr(r) for r in s.state.history])

        assert stage2_state(2, 2) == stage2_state(1, 4)

    def test_stage2_rebuilds_the_plan_for_its_optimizer(self):
        # the restricted optimizer moves the live values into its own buffer:
        # the plan that stage 2 steps reads them there and writes their
        # gradients into its own buffer
        s = make_search(stage1_epochs=1, stage2_epochs=1)
        s.run_stage1()
        for c, k in zip(s.cells, (1, 0, 2)):  # fine-tune, frozen, adapter
            c.alpha.value[:] = 5.0 * np.eye(3)[k]
        s.run_stage2()
        opt, plan = s.opt_net, s._plan
        assert plan.opt is opt and plan.grad.size == opt._flat_x.size
        assert len(opt.params) == 8
        live = {id(t.value.base) for _, t in opt.params.items()}
        assert live == {id(opt._flat_x)}
        for c, groups, choice in zip(s.cells, plan.groups, s.discretization()):
            layers = groups[c.paths.index(choice)].layers
            for (w, b, _), (wa, ba, _, dw, db) in zip(c.path_layers(choice, c.params_for_choice(choice)),
                                                      layers):
                assert wa is w.value and ba is b.value
                assert dw.base is plan.grad and db.base is plan.grad

    def test_stage2_moves_only_selected_group(self):
        s = make_search(stage1_epochs=2, stage2_epochs=2)
        s.run_stage1()
        # force a known mixed scheme so selected and unselected groups coexist
        s.cells[0].alpha.value[:] = [0.0, 5.0, 0.0]   # finetune
        s.cells[1].alpha.value[:] = [5.0, 0.0, 0.0]   # frozen
        s.cells[2].alpha.value[:] = [0.0, 0.0, 5.0]   # adapter
        untouched = [
            s.cells[0].adapters[0].params.checksum(),
            s.cells[1].params_for_choice("finetune").checksum(),
            s.cells[2].params_for_choice("finetune").checksum(),
        ]
        moved_before = [
            s.cells[0].params_for_choice("finetune").checksum(),
            s.cells[2].adapters[0].params.checksum(),
        ]
        s.run_stage2()
        assert [
            s.cells[0].adapters[0].params.checksum(),
            s.cells[1].params_for_choice("finetune").checksum(),
            s.cells[2].params_for_choice("finetune").checksum(),
        ] == untouched
        assert [
            s.cells[0].params_for_choice("finetune").checksum(),
            s.cells[2].adapters[0].params.checksum(),
        ] != moved_before

    def test_history_records_selected_params(self):
        s = make_search(stage1_epochs=1, stage2_epochs=1)
        s.run_stage1()
        s.run_stage2()
        for rec in s.state.history:
            assert rec.selected_params == sum(
                c.trainable_count(choice) for c, choice in zip(s.cells, rec.discretization)
            )

    def test_step_callback_sees_both_kinds(self):
        kinds = []
        s = make_search(stage1_epochs=1, stage2_epochs=1)
        s.run_stage1(step_callback=lambda kind, _: kinds.append(kind))
        s.run_stage2(step_callback=lambda kind, _: kinds.append(kind))
        assert "arch" in kinds and "net" in kinds
        assert kinds[0] == "arch"


class TestHygieneAndDeterminism:
    def test_arch_uses_val_net_uses_train(self):
        s = make_search(stage1_epochs=2, stage2_epochs=1)
        s.run_stage1()
        s.run_stage2()
        train_ids = set(int(i) for i in s.train_data.ids)
        val_ids = set(int(i) for i in s.val_data.ids)
        assert s.state.train_ids_seen <= train_ids
        assert s.state.val_ids_seen <= val_ids
        assert not s.state.train_ids_seen & s.state.val_ids_seen

    def test_full_run_deterministic(self):
        def final_state(seed):
            s = make_search(seed=seed)
            s.run_stage1()
            s.run_stage2()
            return s.net_params.checksum(), s.arch_params.checksum(), s.discretization()

        assert final_state(3) == final_state(3)
        assert final_state(3) != final_state(4)

    def test_evaluate_uses_discretized_weights(self):
        s = make_search()
        for i, c in enumerate(s.cells):
            c.alpha.value[:] = 5.0 * np.eye(3)[i]
        scheme = s.discretization()
        assert scheme == ["frozen", "finetune", "adapter:BA"]
        task, pen = s.evaluate(s.val_data)
        logits = cell.cascade_forward(s.model, s.cells, ad.constant(s.val_data.x), scheme)
        assert task == objective.task_loss(logits, s.val_data.labels).item()
        weights = graph_reference.scheme_weights(s.cells, scheme)
        assert pen == objective.penalty(s.cells, weights, s.penalty_cfg).item()


def test_config_validation():
    with pytest.raises(ValueError, match="split_ratio"):
        SearchConfig(split_ratio=0.0)
    with pytest.raises(ValueError, match="learning"):
        SearchConfig(lr_network=0.0)
    with pytest.raises(ValueError, match="temperatures"):
        SearchConfig(tau_end=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        SearchConfig(batch_size=0)
