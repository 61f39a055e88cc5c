import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from ringskip.numerics import (
    NonFiniteError,
    Rng,
    ShapeError,
    gelu,
    gelu_cdf,
    gelu_grad,
    grad_check,
    layer_norm_backward,
    layer_norm_forward,
    normalize,
    softmax_row,
)


def test_softmax_rows_sum_to_one_and_mask_zeroes():
    logits = Rng(1).normal((4, 6))
    valid = np.ones((4, 6), dtype=bool)
    valid[:, 5] = False
    p = softmax_row(logits, valid)
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert (p[:, 5] == 0.0).all()
    assert (p[valid] > 0).all()


def test_softmax_empty_row_raises():
    with pytest.raises(ValueError, match="empty neighborhood"):
        softmax_row(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-50, 50))
def test_softmax_shift_invariance(seed, shift):
    logits = Rng(seed).normal((3, 5))
    valid = Rng(seed + 1).uniform((3, 5)) > 0.3
    valid[:, 0] = True  # keep every row nonempty
    p1 = softmax_row(logits, valid)
    p2 = softmax_row(logits + shift, valid)
    assert np.abs(p1 - p2).max() < 1e-12


def test_softmax_extreme_logits_stay_finite():
    p = softmax_row(np.array([1e6, -1e6, 0.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


def test_gelu_values_and_gradient():
    assert gelu(np.array(0.0)) == 0.0
    assert abs(gelu(np.array(10.0)) - 10.0) < 1e-6
    x = Rng(2).normal((20,))
    h = 1e-6
    fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
    assert np.abs(fd - gelu_grad(x, gelu_cdf(x))).max() < 1e-7


def test_layer_norm_standardizes():
    x = Rng(3).normal((4, 8), scale=3.0) + 5.0
    y, _ = layer_norm_forward(x, np.ones(8), np.zeros(8))
    assert np.abs(y.mean(axis=-1)).max() < 1e-10
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4  # variance epsilon


def test_rng_reproducible_and_spawn_distinct():
    a = Rng(42).normal((10,))
    b = Rng(42).normal((10,))
    c = Rng(42).spawn(1).normal((10,))
    assert (a == b).all()
    assert not (a == c).all()


@pytest.mark.parametrize("seed,offset", [(0, 0), (42, 1), (7, 1000)])
def test_spawn_draws_equal_the_derived_seed_and_seeds_nothing_until_drawn(seed, offset):
    child = Rng(seed).spawn(offset)
    assert "_gen" not in vars(child)
    ref = Rng(seed * 1_000_003 + offset)
    assert np.array_equal(child.normal((5,)), ref.normal((5,)))
    assert np.array_equal(child.integers(0, 100, (5,)), ref.integers(0, 100, (5,)))


@pytest.mark.parametrize("m,a,b", [(1, 3, 5), (4, 8, 8), (3, 64, 32)])
def test_glorot_stack_equals_consecutive_draws(m, a, b):
    # the fan-in is the second-to-last axis, so a leading stack axis keeps the
    # limit, and PCG64 fills the stack in the order of m separate draws
    seq = Rng(9)
    ref = np.stack([seq.glorot((a, b)) for _ in range(m)])
    assert np.array_equal(Rng(9).glorot((m, a, b)), ref)
    assert np.abs(ref).max() <= np.sqrt(6.0 / (a + b))


def test_grad_check_quadratic():
    x = Rng(4).normal((6,))

    def f(v):
        return 0.5 * (v * v).sum(axis=-1)

    assert grad_check(f, x, x.copy()) < 1e-7


def half_square(stack):
    """0.5 |v|^2 of each point in a stack of (7, 10) points."""
    return 0.5 * (stack * stack).sum(axis=(1, 2))


# 70 coordinates are chunks of 32, 32 and 6: index 0 and 40 open a chunk,
# 69 closes the last, partial one
@pytest.mark.parametrize("i", [0, 40, 69])
def test_grad_check_catches_one_wrong_coordinate(i):
    x = Rng(7).normal((7, 10))
    assert grad_check(half_square, x, x.copy()) < 1e-7
    analytic = x.copy()
    analytic.flat[i] += 1e-3
    assert grad_check(half_square, x, analytic) > 1e-6


def test_grad_check_names_first_non_finite_coordinate():
    x = Rng(8).normal((7, 10))

    def f(stack):
        out = half_square(stack)
        out[stack.reshape(len(stack), -1)[:, 45] != x.flat[45]] = np.nan
        return out

    with pytest.raises(NonFiniteError, match=r"coordinate 45$"):
        grad_check(f, x, x.copy())


def test_grad_check_rejects_shape_mismatch():
    x = np.ones(3)
    with pytest.raises(ShapeError, match=r"\(3,\) vs gradient \(4,\)"):
        grad_check(half_square, x, np.ones(4))
    with pytest.raises(ShapeError, match="returned"):
        grad_check(lambda v: 0.0, x, x)


def test_grad_check_rejects_bad_step():
    x = np.ones(2)
    with pytest.raises(ValueError, match="outside"):
        grad_check(lambda v: 0.0, x, x, h=1e-9)
    with pytest.raises(ValueError, match="outside"):
        grad_check(lambda v: 0.0, x, x, h=1e-2)


# ---------------------------------------------------------------------------
# the trimmed primitives against their textbook forms, bit for bit
# ---------------------------------------------------------------------------


def bits_equal(a, b) -> bool:
    """Same shape and the same float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def softmax_textbook(logits, valid):
    valid = np.broadcast_to(valid, logits.shape)
    shifted = np.where(valid, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expv = np.where(valid, np.exp(np.where(valid, shifted, 0.0)), 0.0)
    return expv / expv.sum(axis=-1, keepdims=True)


def layer_norm_textbook(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_backward_textbook(xhat, inv, gain, dy):
    dg = dy * gain
    return inv * (dg - dg.mean(axis=-1, keepdims=True)
                  - xhat * (dg * xhat).mean(axis=-1, keepdims=True))


SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=7)


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2 ** 31 - 1),
       scale=st.sampled_from([1e-3, 1.0, 50.0]), shift=st.floats(-100, 100))
def test_layer_norm_bit_identical_to_mean_var_form(shape, seed, scale, shift):
    rng = Rng(seed)
    x = rng.normal(shape, scale=scale) + shift
    gain, bias = rng.normal(shape[-1:]), rng.normal(shape[-1:])
    dy = rng.normal(shape)
    y, cache = layer_norm_forward(x, gain, bias)
    y_ref, xhat, inv = layer_norm_textbook(x, gain, bias)
    assert bits_equal(y, y_ref)
    assert bits_equal(cache[0], xhat) and bits_equal(cache[1], inv)
    dx, d_gain, d_bias = layer_norm_backward(cache, dy)
    assert bits_equal(dx, layer_norm_backward_textbook(xhat, inv, gain, dy))
    assert bits_equal(d_gain, (dy * xhat).reshape(-1, shape[-1]).sum(axis=0))
    assert bits_equal(d_bias, dy.reshape(-1, shape[-1]).sum(axis=0))


def test_layer_norm_of_one_row_keeps_its_cache_shapes():
    # decode normalises one (d,) row, whose statistics `normalize` keeps as
    # scalars; the layer norm's cache of such a row is unchanged
    rng = Rng(4)
    x, gain, bias = rng.normal((8,)), rng.normal((8,)), rng.normal((8,))
    y, (xhat, inv, g) = layer_norm_forward(x, gain, bias)
    assert y.shape == xhat.shape == (8,) and inv.shape == (1,) and g is gain
    n_xhat, n_inv = normalize(x)
    assert np.shape(n_inv) == () and bits_equal(n_xhat, xhat) and bits_equal(n_inv, inv[0])
    assert bits_equal(y, xhat * gain + bias)


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, mask_dims=st.integers(0, 4), seed=st.integers(0, 2 ** 31 - 1),
       scale=st.sampled_from([1e-3, 1.0, 300.0]))
def test_softmax_bit_identical_to_three_where_form(shape, mask_dims, seed, scale):
    # the mask covers the trailing mask_dims axes (at least the slot axis) and
    # broadcasts over the rest, like dense_oracle's (n, n) mask of (B, H, n, n) logits
    rng = Rng(seed)
    logits = rng.normal(shape, scale=scale)
    mask_shape = shape[len(shape) - max(1, min(mask_dims, len(shape))):]
    valid = rng.uniform(mask_shape) < 0.6
    # one valid slot per row at a random position
    valid |= np.arange(shape[-1]) == rng.integers(0, shape[-1], mask_shape[:-1] + (1,))
    assert bits_equal(softmax_row(logits, valid), softmax_textbook(logits, valid))
    assert bits_equal(softmax_row(logits), softmax_textbook(logits, True))


def test_softmax_broadcast_mask_empty_row_raises():
    valid = np.ones((5, 3), dtype=bool)
    valid[2] = False
    with pytest.raises(ValueError, match="empty neighborhood"):
        softmax_row(np.zeros((2, 4, 5, 3)), valid)


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, SHAPES, elements=st.floats(-50, 50)))
def test_gelu_with_cached_cdf_bit_identical_to_erf_form(x):
    cdf = gelu_cdf(x)
    act = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    assert bits_equal(gelu(x), act)
    assert bits_equal(x * cdf, act)  # the activation the FFN and gate rebuild
    grad = (0.5 * (1.0 + erf(x / np.sqrt(2.0)))
            + x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)))
    assert bits_equal(gelu_grad(x, cdf), grad)
