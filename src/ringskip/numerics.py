"""Dense numerics substrate: nonlinearities, masked softmax, layer norm with
its backward pass, a seeded PRNG, and finite-difference gradient checking.

Everything runs in float64 on numpy arrays. Accumulation order is whatever the
linked BLAS uses, which is deterministic run-to-run for a fixed thread count;
all determinism guarantees in this package are stated at that level. Training
splits each batch into two fixed halves and adds their gradients in a fixed
order, whether the second half ran in a forked sibling process or after the
first in the same one, so its outputs are byte-identical across reruns with
the same seed and BLAS thread count on any number of CPUs.

`softmax_row`, `gelu`, `gelu_grad` and the layer norm skip redundant passes
but equal their textbook forms bit for bit; the tests keep those forms.
`normalize` (the layer norm before its affine) and `gelu` are also the rules
stepwise decoding runs on one row at a time, so their bodies are plain numpy
on float64 arrays, with no conversions and no nested helpers.

The PRNG is numpy's PCG64 behind a thin seeded wrapper. The algorithm is
stable across numpy versions for a fixed seed; tests rely on properties of the
draws, never on golden values.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.special import erf

SQRT2 = np.sqrt(2.0)
GRAD_CHECK_FLOOR = 1e-8
# Coordinates per call of f in `grad_check`, 4 points each. For the
# stacked-block check a chunk of 32 (128-row stacks) runs within 5% of a chunk
# of 64 with 3 MB less peak memory; a chunk of 16 is 15% slower.
GRAD_CHECK_CHUNK = 32


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation; message carries both shapes."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is NaN or Inf."""


def softmax_row(logits: np.ndarray, valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Masked, max-subtracted softmax over the last axis.

    `valid` broadcasts against `logits` and is checked for empty rows at its
    own shape. Invalid entries become -inf, so exp gives them exactly 0.
    Raises on rows with no valid entry.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if not valid.any(axis=-1).all():
            raise ValueError("empty neighborhood: softmax row has no valid entry")
        logits = np.where(valid, logits, -np.inf)
    expv = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return expv / expv.sum(axis=-1, keepdims=True)


def gelu_cdf(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phi(x) = 0.5 (1 + erf(x / sqrt 2)) of a float64 array, written into
    `out` when given; x * Phi(x) is the GELU bit for bit."""
    return np.multiply(0.5, 1.0 + erf(x / SQRT2), out=out)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU of a float64 array, x * gelu_cdf(x) bit for bit."""
    return x * (0.5 * (1.0 + erf(x / SQRT2)))


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of the erf-form GELU, given cdf = gelu_cdf(x) (no second erf)."""
    x = np.asarray(x, dtype=np.float64)
    return cdf + x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))


def linear_grads(inp: np.ndarray, d_out: np.ndarray) -> tuple:
    """The weight and bias gradients of a linear layer, inp @ w + b, given its
    input (..., a) and the gradient at its output (..., c): (a, c) and (c,),
    each one reduction over all rows."""
    flat_d = d_out.reshape(-1, d_out.shape[-1])
    return inp.reshape(-1, inp.shape[-1]).T @ flat_d, flat_d.sum(axis=0)


LN_EPS = 1e-5


def normalize(x: np.ndarray):
    """The layer norm without its affine, over the last axis of a float64
    array: (xhat, inv) with inv = 1 / sqrt(var + 1e-5) of shape x.shape[:-1].
    Centres once and takes the variance from the centred copy. The statistics
    carry no length-1 axis, so those of one (d,) row are numpy scalars, and
    xhat broadcasts inv through the transposes."""
    d = x.shape[-1]
    xc = x - (np.add.reduce(x, -1) / d)[..., None]
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, -1) / d + LN_EPS)
    return (xc.T * inv.T).T, inv


def layer_norm_forward(x, gain, bias):
    """Layer norm over the last axis: `normalize`, then gain and bias.

    Returns (output, cache for `layer_norm_backward`); the cache's inv keeps
    a length-1 last axis.
    """
    xhat, inv = normalize(x)
    return xhat * gain + bias, (xhat, inv[..., None], gain)


def layer_norm_backward(cache, dy):
    """Returns (d_x, d_gain, d_bias)."""
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    d_gain = (dy * xhat).reshape(-1, d).sum(axis=0)
    d_bias = dy.reshape(-1, d).sum(axis=0)
    dg = dy * gain
    dx = inv * (dg - dg.sum(axis=-1, keepdims=True) / d
                - xhat * ((dg * xhat).sum(axis=-1, keepdims=True) / d))
    return dx, d_gain, d_bias


class Rng:
    """Seeded PCG64 generator, built on the first draw (spawning seeds none).
    Identical seeds give bit-identical draw streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def glorot(self, shape) -> np.ndarray:
        """Glorot-uniform (fan_in, fan_out) matrices; a leading axis stacks m of
        them, drawn in the order of m consecutive (fan_in, fan_out) draws."""
        fan_in, fan_out = shape[-2], shape[-1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return self._gen.uniform(-limit, limit, size=shape)

    def spawn(self, offset: int) -> "Rng":
        return Rng(self.seed * 1_000_003 + offset)


def grad_check(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    analytic: np.ndarray,
    h: float = 1e-3,
) -> float:
    """Fourth-order central-difference check of an analytic gradient.

    `f` maps a stack of points, shape (m, *x.shape), to their m losses. The
    coordinates of x are taken in chunks of at most GRAD_CHECK_CHUNK; for a
    chunk of m coordinates, f gets one (4m, *x.shape) stack whose rows
    j, m + j, 2m + j and 3m + j are x + h e_j, x - h e_j, x + 2h e_j and
    x - 2h e_j. Each difference is the five-point stencil

        fd = (8 (f(x + h e_i) - f(x - h e_i)) - (f(x + 2h e_i) - f(x - 2h e_i))) / 12h,

    the Richardson extrapolation of the central difference. Its truncation
    error is O(h^4), so h can be large enough to keep round-off small. An f
    that evaluates every row on its own gives the same numbers as one scalar
    loss called per point.

    Returns max over coordinates of |fd - analytic| / (|analytic| + 1e-8),
    NaN when any of them is NaN.
    NonFiniteError names the first coordinate whose perturbed loss is not
    finite.
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
    for start in range(0, flat.size, GRAD_CHECK_CHUNK):
        idx = np.arange(start, min(start + GRAD_CHECK_CHUNK, flat.size))
        m = idx.size
        stack = np.tile(flat, (4 * m, 1))
        for r, step in enumerate((h, -h, 2.0 * h, -2.0 * h)):
            stack[np.arange(r * m, (r + 1) * m), idx] = flat[idx] + step
        losses = np.asarray(f(stack.reshape((4 * m,) + x.shape)), dtype=np.float64)
        if losses.shape != (4 * m,):
            raise ShapeError(f"grad_check: f returned {losses.shape} for {4 * m} points")
        bad = ~np.isfinite(losses.reshape(4, m)).all(axis=0)
        if bad.any():
            raise NonFiniteError(
                f"grad_check: f non-finite near coordinate {idx[bad.argmax()]}")
        fp, fm, f2p, f2m = losses.reshape(4, m)
        fd = (8.0 * (fp - fm) - (f2p - f2m)) / (12.0 * h)
        g = gflat[idx]
        # np.maximum keeps a NaN error, which then fails every `< tol`
        worst = np.maximum(worst, (np.abs(fd - g) / (np.abs(g) + GRAD_CHECK_FLOOR)).max())
    return float(worst)
