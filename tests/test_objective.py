"""Objective terms: cross-entropy task loss and the parameter-count penalty."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grad, numeric_grad, rel_err
from graph_reference import one_hot_weights
from nfa import autodiff as ad
from nfa import cascade, cell, objective
from test_cell import make_cell


def soft(values):
    return cell.PathWeights(ad.constant(values), hard=False)


class TestPenaltyConfig:
    def test_policy_validated(self):
        with pytest.raises(ValueError, match="pfr_policy"):
            objective.PenaltyConfig(pfr_policy="median")

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient"):
            objective.PenaltyConfig(coefficient=-0.5)

    def test_frozen_count_policies(self):
        assert objective.PenaltyConfig(pfr_policy="zero").frozen_count(544) == 0
        assert objective.PenaltyConfig(pfr_policy="constant", pfr_constant=99).frozen_count(544) == 99
        assert objective.PenaltyConfig(pfr_policy="half_finetune").frozen_count(544) == 272


class TestPenaltyCounts:
    def test_nfa_half_finetune(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        np.testing.assert_array_equal(objective.penalty_counts(c, cfg), [272.0, 544.0, 148.0])

    def test_nfa_zero(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="zero")
        np.testing.assert_array_equal(objective.penalty_counts(c, cfg), [0.0, 544.0, 148.0])

    def test_na_policy_keys_off_module_size(self):
        c = make_cell(mode="NA")
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        np.testing.assert_array_equal(objective.penalty_counts(c, cfg), [272.0, 148.0])

    def test_two_adapters_each_get_a_term(self):
        c = make_cell(adapter_kinds=("BA", "GA"))
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        np.testing.assert_array_equal(
            objective.penalty_counts(c, cfg), [272.0, 544.0, 148.0, 544.0]
        )


class TestPenaltyValue:
    # Hand-derived fixtures for a 544-parameter module with a BA adapter:
    # half_finetune counts are [272, 544, 148], denominator 964.

    def test_one_hot_fixtures(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        expect = {0: 272 / 964, 1: 544 / 964, 2: 148 / 964}
        for k, want in expect.items():
            got = objective.penalty([c], [one_hot_weights(3, k)], cfg).item()
            assert abs(got - want) < 1e-12
            assert objective.scheme_penalty([c], [c.paths[k]], cfg) == got

    def test_mixed_weights_fixture(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        got = objective.penalty([c], [soft([0.25, 0.5, 0.25])], cfg).item()
        want = (0.25 * 272 + 0.5 * 544 + 0.25 * 148) / 964
        assert abs(got - want) < 1e-12

    def test_zero_policy_all_frozen_is_zero(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="zero")
        got = objective.penalty([c], [one_hot_weights(3, 0)], cfg).item()
        assert got == 0.0
        assert objective.scheme_penalty([c], ["frozen"], cfg) == 0.0

    def test_sums_over_cells(self):
        cells = [make_cell(seed=s) for s in range(3)]
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        ws = [one_hot_weights(3, 1)] * 3
        got = objective.penalty(cells, ws, cfg).item()
        assert abs(got - 3 * 544 / 964) < 1e-12
        assert objective.scheme_penalty(cells, ["finetune"] * 3, cfg) == got

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weight vectors"):
            objective.penalty([make_cell()], [], objective.PenaltyConfig())
        with pytest.raises(ValueError, match="weight vectors"):
            objective.scheme_penalty([make_cell()], [], objective.PenaltyConfig())

    def test_zero_denominator_rejected(self):
        c = make_cell(mode="NA")
        cfg = objective.PenaltyConfig(pfr_policy="zero")
        # force a zero adapter count through a stub so the denominator vanishes
        c.trainable_count = lambda path=None: 0
        with pytest.raises(ValueError, match="zero"):
            objective.penalty([c], [one_hot_weights(2, 0)], cfg)
        with pytest.raises(ValueError, match="zero"):
            objective.scheme_penalty([c], ["frozen"], cfg)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
    def test_bounded_by_unit_interval_per_cell(self, raw):
        w = np.asarray(raw) / np.sum(raw)
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        got = objective.penalty([c], [soft(w)], cfg).item()
        assert 0.0 <= got <= 1.0

    def test_monotone_in_expensive_path_weight(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")
        lo = objective.penalty([c], [soft([0.8, 0.1, 0.1])], cfg).item()
        hi = objective.penalty([c], [soft([0.1, 0.8, 0.1])], cfg).item()
        assert hi > lo

    def test_gradient_wrt_weights(self):
        c = make_cell()
        cfg = objective.PenaltyConfig(pfr_policy="half_finetune")

        def loss_for(a):
            return objective.penalty([c], [cell.PathWeights(ad.softmax_lastdim(a), hard=False)], cfg)

        check_grad(loss_for, np.array([0.4, -0.2, 0.7]))


class TestTaskLoss:
    def test_uniform_logits_give_log_width(self):
        logits = ad.constant(np.zeros((6, 8)))
        labels = np.arange(6) % 8
        assert abs(objective.task_loss(logits, labels).item() - math.log(8)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        logits = np.full((4, 8), -50.0)
        labels = np.array([2, 5, 0, 7])
        logits[np.arange(4), labels] = 50.0
        assert objective.task_loss(ad.constant(logits), labels).item() < 1e-9

    def test_mean_over_batch(self):
        logits = np.zeros((2, 4))
        logits[0, 0] = 10.0
        one = objective.task_loss(ad.constant(logits[:1]), np.array([0])).item()
        two = objective.task_loss(ad.constant(logits[1:]), np.array([0])).item()
        both = objective.task_loss(ad.constant(logits), np.array([0, 0])).item()
        assert abs(both - 0.5 * (one + two)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            objective.task_loss(ad.constant(np.zeros((2, 4))), np.array([0, 4]))

    def test_label_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            objective.task_loss(ad.constant(np.zeros((2, 4))), np.array([0, 1, 2]))

    def test_gradcheck(self, rng):
        labels = np.array([1, 0, 3])

        def loss_for(z):
            return objective.task_loss(z, labels)

        check_grad(loss_for, rng.normal(size=(3, 4)))


class TestTotalLoss:
    def test_combination(self):
        task = ad.constant(2.0)
        pen = ad.constant(0.5)
        cfg = objective.PenaltyConfig(coefficient=0.2)
        assert abs(objective.total_loss(task, pen, cfg).item() - 2.1) < 1e-15

    def test_disabled_returns_task(self):
        task = ad.constant(2.0)
        pen = ad.constant(100.0)
        cfg = objective.PenaltyConfig(enabled=False)
        assert objective.total_loss(task, pen, cfg) is task

    def test_zero_coefficient_returns_task(self):
        task = ad.constant(2.0)
        cfg = objective.PenaltyConfig(coefficient=0.0)
        assert objective.total_loss(task, ad.constant(1.0), cfg) is task


def test_total_value_add_cannot_overflow():
    """The proof that ``total_value`` needs no ``add`` check. A task loss
    that passes the ``log`` check is at most ``-log`` of the least positive
    double, below 745.2: the softmax's smallest positive entry, and a
    smaller one is 0, whose ``log`` raises. And 745.2 added to the largest
    finite ``scaled`` rounds to the largest double."""
    worst = float(cascade._nll(np.array([[0.0, -744.0]]), np.array([1]))[0])
    assert 743.0 < worst <= -math.log(5e-324) < 745.2
    with pytest.raises(ad.NonFiniteError, match="op 'log'"):
        cascade._nll(np.array([[0.0, -746.0]]), np.array([1]))
    biggest = np.finfo(np.float64).max
    cfg = objective.PenaltyConfig(coefficient=float(biggest))
    total = objective.total_value(745.2, 1.0, cfg)
    assert total == biggest and math.isfinite(total)
    with pytest.raises(ad.NonFiniteError, match="op 'scale'"):
        objective.total_value(0.0, 1.0 + 2**-52, cfg)


def test_penalty_only_optimization_steers_to_frozen():
    """With no task term, gradient descent on alpha should collapse every
    cell onto its cheapest penalty path."""
    c = make_cell()
    cfg = objective.PenaltyConfig(pfr_policy="zero", coefficient=1.0)
    opt = ad.Adam(ad.ParameterSet({"alpha": c.alpha}), lr=0.1)
    for _ in range(200):
        c.alpha.zero_grad()
        w = cell.PathWeights(ad.softmax_lastdim(c.alpha), hard=False)
        ad.backward(objective.penalty([c], [w], cfg))
        opt.step()
    assert c.discretize() == "frozen"


def test_hard_penalty_grad_matches_central_differences():
    """The closed-form weight gradient of the penalty, ``coef * inv *
    counts`` per cell, against central differences of ``coef`` times the
    graph penalty at arbitrary weights (rel err < 1e-4, 20 seeds)."""
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        kinds = [("BA",), ("GA",), ("BA", "GA")][seed % 3]
        cells = [make_cell(adapter_kinds=kinds, seed=seed + i) for i in range(3)]
        cfg = objective.PenaltyConfig(pfr_policy=objective.PFR_POLICIES[seed % 3], pfr_constant=seed * 10,
                                      coefficient=float(rng.uniform(0.1, 5.0)))
        table = objective.penalty_table(cells, cfg)

        def graph_penalty(w):  # the graph penalty at any weights, not only the simplex
            ws = [SimpleNamespace(weights=ad.constant(row)) for row in w]
            return objective.penalty(cells, ws, cfg).item()

        w = rng.normal(size=(3, cells[0].n_paths))
        got = objective.hard_penalty_grad(table, cfg.coefficient)
        if rel_err(got, numeric_grad(lambda v: cfg.coefficient * graph_penalty(v), w)) >= 1e-4:
            failures.append(seed)
        picks = rng.integers(0, cells[0].n_paths, size=3)
        assert objective.hard_penalty(table, picks) == graph_penalty(np.eye(cells[0].n_paths)[picks])
    assert not failures
