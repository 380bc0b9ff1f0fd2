"""Shared helpers: a central finite-difference oracle and config factories."""

import numpy as np
import pytest
from hypothesis import settings

from nfa import autodiff as ad
from nfa.config import config_from_dict


# the largest and least finite magnitudes and both zeros: the edges a finite
# check's proof test must cover
FINITE_EXTREMES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0]


# the long run of the search fuzz (tests/test_engine_equivalence.py), outside
# tier-1: pytest tests/test_engine_equivalence.py -k fuzz --hypothesis-profile=search-fuzz
SEARCH_FUZZ_PROFILE = "search-fuzz"
settings.register_profile(SEARCH_FUZZ_PROFILE, max_examples=2000, deadline=None)


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / denom


def analytic_grad(build_loss, x):
    """Gradient of build_loss(Tensor) -> scalar Tensor at leaf value x."""
    leaf = ad.parameter(np.asarray(x, dtype=np.float64).copy())
    loss = build_loss(leaf)
    ad.backward(loss)
    return leaf.grad


def check_grad(build_loss, x, h=1e-5, tol=1e-4):
    got = analytic_grad(build_loss, x)
    want = numeric_grad(lambda v: build_loss(ad.parameter(v.copy())).item(), np.asarray(x, float), h)
    err = rel_err(got, want)
    assert err < tol, f"gradcheck failed: rel err {err:.3e}\nanalytic={got}\nnumeric={want}"


def plan_layers(layers):
    """Dense layers ``(W, b, act)`` of tensors as a ``cell.Plan`` lays them
    out, ``(W, b, act, dW, db)``: their values, and a gradient array of
    each's shape, NaN until a sweep writes it (the bias's with its row axis)."""
    return [(w.value, b.value, act, np.full(w.shape, np.nan),
             np.full(b.shape if len(b.shape) > 1 else (1,) + b.shape, np.nan))
            for w, b, act in layers]


def make_config(
    seed=0,
    preset="toy6",
    mode="NFA",
    adapters=("BA",),
    penalty=None,
    stage1_epochs=8,
    stage2_epochs=4,
    lr_network=0.01,
    lr_arch=0.05,
    pretrain_epochs=30,
    n_source=1024,
    n_target=512,
    output_dir="runs",
):
    """Desk-scale experiment config used across the suite. Learning rates are
    raised above the library defaults so toy runs converge within seconds."""
    return config_from_dict({
        "cascade": {"preset": preset},
        "adapters": list(adapters),
        "mode": mode,
        "penalty": penalty or {"pfr_policy": "half_finetune", "coefficient": 1.0, "enabled": True},
        "search": {
            "stage1_epochs": stage1_epochs,
            "stage2_epochs": stage2_epochs,
            "lr_network": lr_network,
            "lr_arch": lr_arch,
            "batch_size": 32,
            "seed": seed,
        },
        "pretrain": {"epochs": pretrain_epochs, "lr": 0.01},
        "data": {"n_source": n_source, "n_target": n_target},
        "output_dir": output_dir,
    })


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
