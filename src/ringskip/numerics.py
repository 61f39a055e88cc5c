"""Dense numerics substrate: nonlinearities, masked softmax, layer norm with
its backward pass, a seeded PRNG, and finite-difference gradient checking.

Everything runs in float64 on numpy arrays. Accumulation order is whatever the
linked BLAS uses, which is deterministic run-to-run for a fixed thread count;
all determinism guarantees in this package are stated at that level.

The PRNG is numpy's PCG64 behind a thin seeded wrapper. The algorithm is
stable across numpy versions for a fixed seed; tests rely on properties of the
draws, never on golden values.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.special import erf, expit

SQRT2 = np.sqrt(2.0)
GRAD_CHECK_FLOOR = 1e-8


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation; message carries both shapes."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is NaN or Inf."""


def softmax_row(logits: np.ndarray, valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Masked, max-subtracted softmax over the last axis.

    Invalid entries get probability exactly 0 and never enter the exponent sum
    (masking, not -inf arithmetic). Raises on rows with no valid entry.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if valid is None:
        valid = np.ones(logits.shape, dtype=bool)
    else:
        valid = np.broadcast_to(np.asarray(valid, dtype=bool), logits.shape)
    if not valid.any(axis=-1).all():
        raise ValueError("empty neighborhood: softmax row has no valid entry")
    shifted = np.where(valid, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expv = np.where(valid, np.exp(np.where(valid, shifted, 0.0)), 0.0)
    return expv / expv.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of the erf-form GELU."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / SQRT2)) + x * phi


def sigmoid(x: np.ndarray) -> np.ndarray:
    return expit(np.asarray(x, dtype=np.float64))


LN_EPS = 1e-5


def layer_norm_forward(x, gain, bias):
    """Layer norm over the last axis with variance epsilon 1e-5.

    Returns (output, cache for `layer_norm_backward`).
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def layer_norm_backward(cache, dy):
    """Returns (d_x, d_gain, d_bias)."""
    xhat, inv, gain = cache
    d_gain = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    d_bias = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dg = dy * gain
    dx = inv * (dg - dg.mean(axis=-1, keepdims=True)
                - xhat * (dg * xhat).mean(axis=-1, keepdims=True))
    return dx, d_gain, d_bias


class Rng:
    """Seeded PCG64 generator. Identical seeds give bit-identical draw streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def glorot(self, shape) -> np.ndarray:
        fan_in, fan_out = shape[0], shape[-1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self._gen.uniform(-limit, limit, size=shape)

    def spawn(self, offset: int) -> "Rng":
        return Rng(self.seed * 1_000_003 + offset)


def grad_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    analytic: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Central-difference check of an analytic gradient.

    Returns max over coordinates of |fd - analytic| / (|analytic| + 1e-8).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"grad_check: step h={h} outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if x.shape != analytic.shape:
        raise ShapeError(f"grad_check: point {x.shape} vs gradient {analytic.shape}")
    worst = 0.0
    flat = x.ravel()
    gflat = analytic.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError(f"grad_check: f non-finite near coordinate {i}")
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(fd - gflat[i]) / (abs(gflat[i]) + GRAD_CHECK_FLOOR))
    return worst
