import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.numerics import (
    NonFiniteError,
    Rng,
    ShapeError,
    gelu,
    gelu_grad,
    grad_check,
    layer_norm_forward,
    sigmoid,
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
    assert np.abs(fd - gelu_grad(x)).max() < 1e-7


def test_sigmoid_saturation():
    assert sigmoid(np.array(1e6)) == 1.0
    assert sigmoid(np.array(-1e6)) == 0.0
    assert abs(sigmoid(np.array(0.0)) - 0.5) < 1e-15


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
