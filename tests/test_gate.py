import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.gate import GateParams, clip_alpha, gate_backward, gate_forward, init_gate
from ringskip.neighborhood import AttentionConfig
from ringskip.numerics import Rng, gelu_cdf, grad_check, sigmoid


def cfg(**kw):
    base = dict(d_model=8, n_heads=2, ring_k=1, skip_period=4)
    base.update(kw)
    return AttentionConfig(**base)


def random_gate(seed, d=8, h=2):
    rng = Rng(seed)
    return GateParams(w1=rng.glorot((d, d // 2)), b1=rng.normal((d // 2,), 0.1),
                      w2=rng.glorot((d // 2, h)), b2=rng.normal((h,), 0.5))


def test_fresh_gate_starts_at_half():
    params = init_gate(Rng(0), 8, 2)
    alpha, cache = gate_forward(params, Rng(1).normal((1, 5, 8)), cfg())
    assert np.abs(alpha - 0.5).max() < 1e-15
    assert cache is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(1.0, 1e6))
def test_alpha_stays_inside_clip_band(seed, scale):
    params = random_gate(seed)
    x = Rng(seed + 7).normal((1, 4, 8)) * scale
    alpha, _ = gate_forward(params, x, cfg())
    eps = cfg().eps
    assert (alpha >= eps).all() and (alpha <= 1.0 - eps).all()


@settings(max_examples=50, deadline=None)
@given(shape=st.sampled_from([(8,), (3, 8), (2, 5, 8)]), seed=st.integers(0, 2 ** 31 - 1),
       eps=st.sampled_from([1e-4, 1e-2]), scale=st.sampled_from([0.1, 1.0, 30.0]))
def test_gate_forward_is_the_textbook_chain_bit_for_bit(shape, seed, eps, scale):
    params = random_gate(seed)
    x = Rng(seed + 1).normal(shape, scale)
    alpha, cache = gate_forward(params, x, cfg(eps=eps))
    h_pre = x @ params.w1 + params.b1
    h_cdf = gelu_cdf(h_pre)
    alpha_raw = sigmoid((h_pre * h_cdf) @ params.w2 + params.b2)
    for got, want in [(alpha, clip_alpha(alpha_raw, eps)), (cache.h_pre, h_pre),
                      (cache.h_cdf, h_cdf), (cache.alpha_raw, alpha_raw)]:
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_no_gate_returns_none():
    alpha, cache = gate_forward(random_gate(0), np.zeros((1, 3, 8)),
                                cfg(ablation="no_gate"))
    assert alpha is None and cache is None


def test_backward_without_cache_rejected():
    with pytest.raises(ValueError, match="no cache"):
        gate_backward(random_gate(0), None, np.zeros((1, 3, 2)))


def test_gate_gradients_match_finite_differences():
    params = random_gate(3)
    c = cfg()
    x = Rng(5).normal((1, 4, 8))
    w = Rng(6).normal((1, 4, 2))  # fixed loss mixing weights

    def losses(name):
        """Loss of each point in a stack of perturbed copies of one tensor;
        a stacked parameter broadcasts over the batch as a leading replica axis."""
        def f(stack):
            if name == "x":
                a, _ = gate_forward(params, stack[:, 0], c)
            else:
                replicas = stack[:, None, :] if stack.ndim == 2 else stack
                a, _ = gate_forward(dataclasses.replace(params, **{name: replicas}), x, c)
            return (a * w).sum(axis=(1, 2))
        return f

    alpha, cache = gate_forward(params, x, c)
    d_inp, g = gate_backward(params, cache, w.copy())
    for name, arr, grad in [("w1", params.w1, g.w1), ("b1", params.b1, g.b1),
                            ("w2", params.w2, g.w2), ("b2", params.b2, g.b2),
                            ("x", x, d_inp)]:
        assert grad_check(losses(name), arr, grad) < 1e-6, name
