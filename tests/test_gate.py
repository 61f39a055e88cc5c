import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, expit

from ringskip.gate import GateParams, clip_alpha, empty_gate, gate_backward, gate_forward, init_gate
from ringskip.neighborhood import AttentionConfig
from ringskip.numerics import Rng, gelu_cdf, gelu_grad, grad_check, linear_grads
from ringskip.split import halves, row_views


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
    h_cdf = 0.5 * (1.0 + erf(h_pre / np.sqrt(2.0)))
    alpha_raw = expit((h_pre * h_cdf) @ params.w2 + params.b2)
    for got, want in [(alpha, (1.0 - 2.0 * eps) * alpha_raw + eps), (cache.h_pre, h_pre),
                      (cache.h_cdf, h_cdf), (cache.alpha_raw, alpha_raw)]:
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gelu_cdf_and_clip_alpha_write_into_out():
    # gate_head writes through these into the arrays of a split call's cache
    x = Rng(4).normal((3, 5))
    for rule in (gelu_cdf, lambda a, out=None: clip_alpha(a, 1e-2, out=out)):
        buf = np.empty_like(x)
        assert rule(x, out=buf) is buf and np.array_equal(buf, rule(x))


def test_no_gate_returns_none():
    alpha, cache = gate_forward(random_gate(0), np.zeros((1, 3, 8)),
                                cfg(ablation="no_gate"))
    assert alpha is None and cache is None


def test_backward_without_cache_rejected():
    with pytest.raises(ValueError, match="no cache"):
        gate_backward(random_gate(0), None, np.zeros((1, 3, 2)), cfg().eps)


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
    dz, dh, d_inp = gate_backward(params, cache, w.copy(), c.eps)
    (d_w1, d_b1), (d_w2, d_b2) = linear_grads(x, dh), linear_grads(cache.h_pre * cache.h_cdf, dz)
    for name, arr, grad in [("w1", params.w1, d_w1), ("b1", params.b1, d_b1),
                            ("w2", params.w2, d_w2), ("b2", params.b2, d_b2),
                            ("x", x, d_inp)]:
        assert grad_check(losses(name), arr, grad) < 1e-6, name


def one_piece_gate_backward(params, x, cache, d_alpha, eps):
    """The gate backward as one function over all rows, the form the row-local
    chain and the whole sums were split from."""
    dz = (1.0 - 2.0 * eps) * d_alpha * cache.alpha_raw * (1.0 - cache.alpha_raw)
    flat_h = (cache.h_pre * cache.h_cdf).reshape(-1, cache.h_pre.shape[-1])
    flat_dz = dz.reshape(-1, dz.shape[-1])
    d_w2 = flat_h.T @ flat_dz
    d_b2 = flat_dz.sum(axis=0)
    dh = (dz @ params.w2.T) * gelu_grad(cache.h_pre, cache.h_cdf)
    flat_in = x.reshape(-1, x.shape[-1])
    flat_dh = dh.reshape(-1, dh.shape[-1])
    d_w1 = flat_in.T @ flat_dh
    d_b1 = flat_dh.sum(axis=0)
    return dh @ params.w1.T, GateParams(w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2)


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(1, 5, 8), (2, 6, 8), (3, 40, 8)]),
       seed=st.integers(0, 2 ** 31 - 1), head_major=st.booleans())
def test_halves_of_the_gate_equal_the_one_piece_gate_bit_for_bit(shape, seed, head_major):
    """Forward: halves written into `empty_gate` arrays equal one whole call.
    Backward: `gate_backward` whole, and per half into whole arrays, each
    followed by the whole sums, equal the one-piece backward. d_alpha is
    either C-ordered or the (B, H, n) transposed view attention passes."""
    params, c = random_gate(seed), cfg()
    x = Rng(seed + 1).normal(shape)
    b, n, _ = shape
    alpha, cache = gate_forward(params, x, c)
    alpha_split, cache_split = empty_gate(params, x, c)
    for rows in halves(b):
        gate_forward(params, x[rows], c, out=(alpha_split[rows], row_views(cache_split, rows)))
    for name in ("h_pre", "h_cdf", "alpha_raw"):
        assert same_bits(getattr(cache_split, name), getattr(cache, name)), name
    assert same_bits(alpha_split, alpha)

    d_alpha = Rng(seed + 2).normal((b, 2, n) if head_major else (b, n, 2))
    if head_major:
        d_alpha = d_alpha.transpose(0, 2, 1)
    want_inp, want = one_piece_gate_backward(params, x, cache, d_alpha, c.eps)

    def with_sums(dz, dh, d_inp):
        (w1, b1), (w2, b2) = linear_grads(x, dh), linear_grads(cache.h_pre * cache.h_cdf, dz)
        return d_inp, GateParams(w1=w1, b1=b1, w2=w2, b2=b2)

    dz, dh, split_inp = np.empty(alpha.shape), np.empty(cache.h_pre.shape), np.empty(x.shape)
    for rows in halves(b):
        split_inp[rows] = gate_backward(params, row_views(cache, rows), d_alpha[rows], c.eps,
                                        out=(dz[rows], dh[rows]))[2]
    for d_inp, grads in (with_sums(*gate_backward(params, cache, d_alpha, c.eps)),
                         with_sums(dz, dh, split_inp)):
        assert same_bits(d_inp, want_inp)
        for name in ("w1", "b1", "w2", "b2"):
            assert same_bits(getattr(grads, name), getattr(want, name)), name


def test_empty_gate_is_none_without_a_gate():
    assert empty_gate(random_gate(0), np.zeros((1, 3, 8)), cfg(ablation="no_gate")) == (None, None)
