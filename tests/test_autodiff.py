"""Core engine tests: forward fixtures, gradchecks against central finite
differences, backward bookkeeping, and the optimizer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FINITE_EXTREMES, check_grad, numeric_grad, rel_err
from nfa import autodiff as ad


class TestForwardFixtures:
    def test_matmul_identity(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.constant(np.eye(2))
        assert np.array_equal(ad.matmul(a, eye).value, a.value)

    def test_softmax_symmetry(self):
        out = ad.softmax_lastdim(ad.constant([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_bias_broadcast_over_batch(self):
        x = ad.constant(np.ones((3, 2)))
        b = ad.constant([1.0, 2.0])
        assert np.array_equal(ad.add(x, b).value, [[2.0, 3.0]] * 3)


class TestShapeErrors:
    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_add_non_suffix_broadcast(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(ad.constant(np.ones((4, 3))), ad.constant(np.ones(4)))

    def test_index_out_of_range(self):
        with pytest.raises(ad.ShapeError, match="index"):
            ad.index_lastdim(ad.constant(np.ones(3)), 5)


class TestNonFinite:
    def test_strict_rejects_nan(self):
        with pytest.raises(ad.NonFiniteError):
            ad.constant([1.0, np.nan])

    def test_strict_rejects_op_result(self):
        x = ad.constant([0.0])
        with pytest.raises(ad.NonFiniteError, match="log"):
            ad.log(x)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_strict_rejects_every_non_finite_kind(self, bad, shape):
        v = np.ones(shape)
        v.flat[-1] = bad
        with pytest.raises(ad.NonFiniteError, match="op 'probe'"):
            ad.Tensor(v, op="probe")


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EXTREMES)


@settings(max_examples=200, deadline=None)
@given(act=st.sampled_from(sorted(ad.ACTIVATIONS)),
       z=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=FINITE))
@example(act="tanh", z=np.array(FINITE_EXTREMES))
@example(act="sigmoid", z=np.array(FINITE_EXTREMES))
@example(act="linear", z=np.array(FINITE_EXTREMES))
def test_finite_preactivation_gives_finite_activation(act, z):
    """Why a dense layer checks only its ``z`` (``cascade.run_dense``): every
    activation maps a finite ``z`` to a finite ``y``."""
    assert np.isfinite(ad.ACTIVATIONS[act][0](z)).all()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        ad.backward(ad.tensor_sum(x))
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = ad.parameter([2.0])
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        assert np.array_equal(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_no_grad_into_constants(self):
        x = ad.parameter([1.0])
        c = ad.constant([3.0])
        ad.backward(ad.tensor_sum(ad.mul(x, c)))
        assert c.grad is None
        assert np.array_equal(x.grad, [3.0])

    def test_each_node_visited_once(self):
        x = ad.parameter([1.0, 2.0])
        y = ad.mul(x, x)
        z = ad.add(y, y)  # diamond: y feeds z twice
        loss = ad.tensor_sum(z)
        ad.backward(loss)
        for node in (x, y, z, loss):
            assert node.visits == 1
        assert np.array_equal(x.grad, [4.0, 8.0])  # d(2x^2)/dx

    def test_grad_accumulates_across_backward_calls(self):
        x = ad.parameter([1.0])
        ad.backward(ad.tensor_sum(x))
        ad.backward(ad.tensor_sum(x))
        assert np.array_equal(x.grad, [2.0])

    def test_cycle_detected(self):
        x = ad.parameter(np.array(1.0))
        y = ad.scale(x, 2.0)
        y.inputs = (y,)  # force a cycle
        with pytest.raises(ValueError, match="cycle"):
            ad.backward(y)

    def test_two_layer_tanh_network_matches_finite_differences(self, rng):
        w1 = rng.normal(size=(4, 5))
        b1 = rng.normal(size=5)
        w2 = rng.normal(size=(5, 2))
        x = rng.normal(size=(3, 4))

        def loss_for(w1t):
            h = ad.tanh(ad.add(ad.matmul(ad.constant(x), w1t), ad.constant(b1)))
            out = ad.tanh(ad.matmul(h, ad.constant(w2)))
            return ad.tensor_sum(ad.mul(out, out))

        check_grad(loss_for, w1)


class TestGradcheckPerOp:
    """Every op kind against the central finite-difference oracle. The random
    probe direction r is fixed per test so every evaluation sees the same loss."""

    def test_matmul(self, rng):
        b, r = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.matmul(t, ad.constant(b)), ad.constant(r))),
                   rng.normal(size=(4, 3)))

    def test_add_broadcast(self, rng):
        x, r = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.add(ad.constant(x), t), ad.constant(r))),
                   rng.normal(size=3))

    def test_mul_broadcast(self, rng):
        x, r = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.mul(ad.constant(x), t), ad.constant(r))),
                   rng.normal(size=3))

    def test_tanh(self, rng):
        r = rng.normal(size=(3, 3))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.tanh(t), ad.constant(r))), rng.normal(size=(3, 3)))

    def test_sigmoid(self, rng):
        r = rng.normal(size=(3, 3))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.sigmoid(t), ad.constant(r))), rng.normal(size=(3, 3)))

    def test_softmax_lastdim(self, rng):
        r = rng.normal(size=(2, 5))
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.softmax_lastdim(t), ad.constant(r))),
                   rng.normal(size=(2, 5)))

    def test_log(self, rng):
        x = rng.uniform(0.5, 3.0, size=(3, 4))
        r = rng.normal(size=x.shape)
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.log(t), ad.constant(r))), x)

    def test_sum_axis(self, rng):
        r = rng.normal(size=4)
        check_grad(lambda t: ad.tensor_sum(ad.mul(ad.tensor_sum(t, axis=-1), ad.constant(r))),
                   rng.normal(size=(4, 3)))

    def test_mean(self, rng):
        check_grad(lambda t: ad.scale(ad.tensor_mean(ad.mul(t, t)), 3.0), rng.normal(size=(4, 3)))

    def test_scale(self, rng):
        check_grad(lambda t: ad.tensor_sum(ad.scale(ad.mul(t, t), -2.5)), rng.normal(size=(3,)))

    def test_index_lastdim(self, rng):
        check_grad(lambda t: ad.scale(ad.index_lastdim(ad.mul(t, t), 2), 2.0), rng.normal(size=(5,)))

    def test_nll(self, rng):
        labels = rng.integers(0, 5, size=4)
        check_grad(lambda t: ad.nll(t, labels), rng.uniform(0.1, 1.0, size=(4, 5)))

    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "linear"])
    def test_dense(self, act, rng):
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        r = rng.normal(size=(5, 3))

        def probe(out):
            return ad.tensor_sum(ad.mul(out, ad.constant(r)))

        c = ad.constant
        check_grad(lambda t: probe(ad.dense(t, c(w), c(b), act)), x)
        check_grad(lambda t: probe(ad.dense(c(x), t, c(b), act)), w)
        check_grad(lambda t: probe(ad.dense(c(x), c(w), t, act)), b)

    @pytest.mark.parametrize("unstacked", ["x", "w"])
    def test_dense_unstacked_operand_sums_the_schemes(self, unstacked, rng):
        # an unstacked input under stacked weights (or unstacked weights under
        # a stacked input) takes a gradient of its own shape: the sum of
        # every scheme's gradient with that scheme's slice run alone
        x, w = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 3, 4))
        b, r = rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 5, 4))
        shared = {"x": x[0], "w": w[0]}[unstacked]

        def grad(x, w, b, r):
            t = ad.parameter(shared)
            args = {"x": t, "w": ad.constant(w)} if unstacked == "x" else {"x": ad.constant(x), "w": t}
            out = ad.dense(args["x"], args["w"], ad.constant(b), "tanh")
            ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(r))))
            return t.grad

        got = grad(x, w, b, r)
        assert got.shape == shared.shape
        alone = grad(x[0], w[0], b[0, 0], r[0]) + grad(x[1], w[1], b[1, 0], r[1])
        np.testing.assert_allclose(got, alone, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_random_composite_gradcheck(seed):
    """Random two-layer composites keep matching finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    w2 = rng.normal(size=(4, 3))

    def loss_for(w):
        h = ad.tanh(ad.matmul(ad.constant(x), w))
        s = ad.softmax_lastdim(ad.matmul(h, ad.constant(w2)))
        return ad.tensor_mean(ad.mul(s, s))

    check_grad(loss_for, rng.normal(size=(3, 4)))


class TestParameterSet:
    def test_count_and_uniqueness(self):
        ps = ad.ParameterSet()
        ps.add("w", ad.parameter(np.ones((4, 2))))
        ps.add("b", ad.parameter(np.ones(2)))
        assert ps.count == 10
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", ad.parameter(np.ones(1)))

    def test_empty_count(self):
        assert ad.ParameterSet().count == 0

    def test_checksum_tracks_mutation(self):
        ps = ad.ParameterSet({"w": ad.parameter(np.ones(3))})
        before = ps.checksum()
        assert ps.checksum() == before
        ps["w"].value[0] = 2.0
        assert ps.checksum() != before

    def test_clone_is_bitwise_and_independent(self):
        ps = ad.ParameterSet({"w": ad.parameter(np.arange(3.0))})
        cp = ps.clone()
        assert np.array_equal(cp["w"].value, ps["w"].value)
        cp["w"].value[0] = 9.0
        assert ps["w"].value[0] == 0.0


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = ad.parameter(np.array([1.5, -2.0]))
        ps = ad.ParameterSet({"p": p})
        opt = ad.Adam(ps, lr=0.1)
        p.grad = np.zeros(2)
        before = p.value.copy()
        opt.step()
        assert np.array_equal(p.value, before)

    def test_first_step_bias_corrected(self):
        # one step at g=1: m-hat = v-hat = 1, so the update is lr / (1 + eps)
        p = ad.parameter(np.array(1.0))
        opt = ad.Adam(ad.ParameterSet({"p": p}), lr=0.1)
        p.grad = np.array(1.0)
        opt.step()
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert abs(p.value - expected) < 1e-15
        assert abs(p.value - 0.9) < 1e-7  # decreases by ~lr

    def test_missing_grad_errors(self):
        opt = ad.Adam(ad.ParameterSet({"p": ad.parameter(np.ones(1))}), lr=0.1)
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_minimize_is_zero_backward_step(self):
        def twin():
            p = ad.parameter(np.array([1.5, -2.0]))
            p.grad = np.array([7.0, 7.0])  # stale: minimize must zero it first
            return p, ad.Adam(ad.ParameterSet({"p": p}), lr=0.1)

        p, opt = twin()
        loss = ad.tensor_sum(ad.mul(p, p))
        assert opt.minimize(loss) == loss.item()
        q, manual = twin()
        q.grad = None
        ad.backward(ad.tensor_sum(ad.mul(q, q)))
        manual.step()
        assert np.array_equal(p.value, q.value) and opt.t == manual.t == 1

    def test_minimize_keeps_missing_grad_error(self):
        p, unreached = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
        opt = ad.Adam(ad.ParameterSet({"p": p, "unreached": unreached}), lr=0.1)
        with pytest.raises(ValueError, match="'unreached' has no gradient"):
            opt.minimize(ad.tensor_sum(ad.mul(p, p)))

    def test_minimize_zero_fills_declared_idle_only(self):
        def twin():
            p, idle = ad.parameter(np.ones(2)), ad.parameter(np.array([3.0, -1.0]))
            opt = ad.Adam(ad.ParameterSet({"p": p, "idle": idle}), lr=0.1)
            opt._m["idle"][:] = [0.5, -0.5]  # as if an earlier step had moved it
            opt._v["idle"][:] = [0.25, 0.25]
            return p, idle, opt

        p, idle, opt = twin()
        opt.minimize(ad.tensor_sum(ad.mul(p, p)), idle=["idle"])
        q, ref_idle, ref = twin()  # the same step with the zeros backpropagated
        ad.backward(ad.tensor_sum(ad.mul(q, ad.add(q, ad.scale(ref_idle, 0.0)))))
        ref.step()
        for a, b in ((p, q), (idle, ref_idle)):
            assert a.value.tobytes() == b.value.tobytes()
        assert opt._m["idle"].tobytes() == ref._m["idle"].tobytes()
        assert np.array_equal(opt._m["idle"], [0.45, -0.45])  # the zero gradient decayed it
        assert np.array_equal(idle.grad, np.zeros(2))
        p, _, opt = twin()
        with pytest.raises(ValueError, match="'idle' has no gradient"):
            opt.minimize(ad.tensor_sum(ad.mul(p, p)))

    def test_restricted_steps_subset_like_full(self):
        def twin():
            rng = np.random.default_rng(5)
            ps = ad.ParameterSet({k: ad.parameter(rng.normal(size=3)) for k in "abc"})
            opt = ad.Adam(ps, lr=0.05)
            for _ in range(3):
                opt.minimize(ad.tensor_sum(ad.mul(ps["a"], ad.mul(ps["b"], ps["c"]))))
            return ps, opt

        ps, full = twin()
        parent = [buf.tobytes() for buf in (full._flat_x, full._flat_m, full._flat_v)]
        sub = full.restricted(ad.ParameterSet({"a": ps["a"], "c": ps["c"]}))
        assert sub.t == full.t == 3 and sub.lr == full.lr
        for k in "ac":  # a copy of the parent's moments, in the restricted optimizer's own buffers
            assert sub._m[k].tobytes() == full._m[k].tobytes() and sub._m[k].base is sub._flat_m
            assert sub._v[k].tobytes() == full._v[k].tobytes() and sub._v[k].base is sub._flat_v
            assert ps[k].value.base is sub._flat_x
        sub.minimize(ad.tensor_sum(ad.mul(ps["a"], ps["c"])))
        ref, ref_opt = twin()  # the full optimizer, stepping "b" on a zero gradient
        ref.zero_grads()
        ad.backward(ad.tensor_sum(ad.mul(ref["a"], ref["c"])))
        ref["b"].grad = np.zeros(3)
        ref_opt.step()
        for k in "ac":
            assert np.array_equal(ps[k].value, ref[k].value)
            assert np.array_equal(sub._m[k], ref_opt._m[k])
            assert np.array_equal(sub._v[k], ref_opt._v[k])
        assert [buf.tobytes() for buf in (full._flat_x, full._flat_m, full._flat_v)] == parent
        assert sub.t == 4 and full.t == 3

    def test_values_become_views_of_one_buffer(self):
        rng = np.random.default_rng(4)
        ps = ad.ParameterSet({"W": ad.parameter(rng.normal(size=(2, 3))),
                              "s": ad.parameter(np.array(0.5)), "b": ad.parameter(rng.normal(size=3))})
        before = {name: t.value.tobytes() for name, t in ps.items()}
        opt = ad.Adam(ps, lr=0.1)
        for name, t in ps.items():
            assert t.value.base is opt._flat_x and t.value.flags.writeable
            assert t.value.tobytes() == before[name]
        assert opt._flat_x.tobytes() == b"".join(before.values())

    def test_refuses_read_only_tensor(self):
        ps = ad.ParameterSet({"w": ad.parameter(np.ones(2)), "frozen": ad.parameter(np.ones(3))})
        ps["frozen"].value.flags.writeable = False
        with pytest.raises(ValueError, match="parameter 'frozen' is read-only"):
            ad.Adam(ps, lr=0.1)
        assert not ps["frozen"].value.flags.writeable

    @staticmethod
    def stepped(*gs):
        """An optimizer of one two-value parameter after one update per
        gradient of ``gs``."""
        opt = ad.Adam(ad.ParameterSet({"p": ad.parameter(np.zeros(2))}), lr=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            for g in gs:
                opt.update(np.asarray(g, dtype=float))
        return opt

    @pytest.mark.parametrize("g", [[np.inf, 0.0], [0.0, -np.inf], [np.nan, 1.0], [1e200, 1.0],
                                   [-4.3e155, 0.0]])
    def test_check_moments_catches_every_non_finite_gradient(self, g):
        # the second moment overflows (or turns NaN) and stays so under later
        # finite updates, so a check after them still raises
        opt = self.stepped(g, [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ad.NonFiniteError, match="produced by op 'adam'"):
            opt.check_moments()

    @pytest.mark.parametrize("size", FINITE_EXTREMES + [4.1e155, -4.1e155, 2.3e155, -2.3e155])
    def test_finite_second_moment_means_finite_first_moment(self, size):
        # the one reduction reads only v: whenever v is finite, so is m; the
        # check raises exactly when v or its bias correction is not finite
        # (at 2.3e155, v stays finite, its reduction overflows, and so does
        # its correction)
        opt = self.stepped([size, size], [size, -size], [0.0, size])
        if np.isfinite(opt._flat_v).all():
            assert np.isfinite(opt._flat_m).all()
        with np.errstate(over="ignore"):
            corrected = opt._flat_v / (1.0 - opt.beta2 ** opt.t)
        if np.isfinite(corrected).all():
            opt.check_moments()
        else:
            with pytest.raises(ad.NonFiniteError, match="'adam'"):
                opt.check_moments()

    def test_check_moments_catches_an_overflowing_bias_correction(self):
        # three updates by 2.3e155 leave v finite (5.3e307, 1.06e308,
        # 1.59e308), but v / (1 - beta2**t) overflows, so each step moves
        # the parameter by exactly 0: the check must stop the run
        opt = ad.Adam(ad.ParameterSet({"p": ad.parameter(np.ones(2))}), lr=0.1)
        for _ in range(3):
            with np.errstate(over="ignore"):
                opt.update(np.full(2, 2.3e155))
            assert np.isfinite(opt._flat_v).all()
            assert opt._flat_x.tolist() == [1.0, 1.0]
            with pytest.raises(ad.NonFiniteError, match="produced by op 'adam'"):
                opt.check_moments()

    def test_check_moments_misses_a_bias_correction_overflow_that_has_cleared(self):
        # after the three updates above, 631 zero gradients decay v and grow
        # 1 - beta2**t until v / (1 - beta2**t) is finite again: the stall
        # has ended, the parameter moves, and a check made now passes
        opt = ad.Adam(ad.ParameterSet({"p": ad.parameter(np.zeros(2))}), lr=0.1)
        with np.errstate(over="ignore"):
            for _ in range(3):
                opt.update(np.full(2, 2.3e155))
            for _ in range(630):
                opt.update(np.zeros(2))
        assert opt._flat_x.tolist() == [0.0, 0.0]
        with pytest.raises(ad.NonFiniteError, match="produced by op 'adam'"):
            opt.check_moments()
        opt.update(np.zeros(2))
        assert (opt._flat_x < 0.0).all()  # by about 6e-30
        opt.check_moments()

    def test_check_moments_falls_back_to_the_exact_check(self):
        # a second moment whose reduction overflows but whose entries are
        # finite passes; an empty optimizer passes
        opt = self.stepped()
        opt._flat_v[:] = 1e200
        opt.check_moments()
        ad.Adam(ad.ParameterSet(), lr=0.1).check_moments()
        opt._flat_m[1] = np.nan  # only the exact check reads m
        with pytest.raises(ad.NonFiniteError, match="'adam'"):
            opt.check_moments()

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            p = ad.parameter(rng.normal(size=4))
            opt = ad.Adam(ad.ParameterSet({"p": p}), lr=0.05)
            for _ in range(5):
                p.zero_grad()
                ad.backward(ad.tensor_sum(ad.mul(p, p)))
                opt.step()
            return p.value.copy()

        assert np.array_equal(run(), run())


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(11)
        x = ad.parameter(rng.normal(size=(3, 4)))
        loss = ad.tensor_mean(ad.mul(ad.tanh(x), ad.tanh(x)))
        ad.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2 and np.array_equal(g1, g2)
