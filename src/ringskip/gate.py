"""Per-token, per-head fusion gate.

A shared two-layer trunk (width d_model/2, GELU) emits H sigmoid outputs per
token; `clip_alpha` then maps the raw gate alpha affinely onto [eps, 1-eps] so
the log-priors built from it stay finite. Everything after the trunk's first
product is `gate_head`, which stepwise decoding calls on the trunk columns of
its packed product.

Under the no_gate ablation `gate_forward` returns (None, None), the one form
of "no log-prior": the term is dropped downstream, and callers cannot
accidentally use a gate value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import erf, expit

from .neighborhood import AttentionConfig
from .numerics import SQRT2, NonFiniteError, Rng, gelu_grad


@dataclass
class GateParams:
    w1: np.ndarray  # (d_model, d_model // 2)
    b1: np.ndarray  # (d_model // 2,)
    w2: np.ndarray  # (d_model // 2, n_heads)
    b2: np.ndarray  # (n_heads,)


def init_gate(rng: Rng, d_model: int, n_heads: int) -> GateParams:
    """Glorot trunk, zero output layer so training starts at alpha = 0.5."""
    hidden = d_model // 2
    return GateParams(
        w1=rng.glorot((d_model, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, n_heads)),
        b2=np.zeros(n_heads),
    )


def clip_alpha(alpha_raw: np.ndarray, eps: float) -> np.ndarray:
    """The eps clip (1-2*eps)*alpha + eps, mapping [0, 1] onto [eps, 1-eps]."""
    return (1.0 - 2.0 * eps) * alpha_raw + eps


@dataclass
class GateCache:
    inp: np.ndarray
    h_pre: np.ndarray   # pre-GELU hidden
    h_cdf: np.ndarray   # gelu_cdf(h_pre); the activation is h_pre * h_cdf
    alpha_raw: np.ndarray
    eps: float


def gate_forward(
    params: GateParams,
    inp: np.ndarray,
    config: AttentionConfig,
) -> Tuple[Optional[np.ndarray], Optional[GateCache]]:
    """Stabilized gate values, shape (..., n, H), and the cache for
    `gate_backward`; both None under the no_gate ablation.

    alpha = clip_alpha(sigmoid(w2 . gelu(w1 . inp + b1) + b2), eps).
    """
    if config.ablation == "no_gate":
        return None, None
    if not np.isfinite(inp).all():
        raise NonFiniteError("gate input contains non-finite values")
    h_pre = inp @ params.w1 + params.b1
    alpha, h_cdf, alpha_raw = gate_head(h_pre, params, config.eps)
    return alpha, GateCache(inp=inp, h_pre=h_pre, h_cdf=h_cdf,
                            alpha_raw=alpha_raw, eps=config.eps)


def gate_head(h_pre: np.ndarray, params: GateParams, eps: float):
    """The gate after its trunk product: (alpha, h_cdf, alpha_raw) from the
    pre-GELU hidden h_pre (float64, (..., d_model/2)), where
    h_cdf = gelu_cdf(h_pre), alpha_raw = sigmoid(w2 . (h_pre * h_cdf) + b2) and
    alpha = clip_alpha(alpha_raw, eps), each bit for bit. Shared by
    `gate_forward` and stepwise decoding, which packs the trunk product with
    the attention projections."""
    h_cdf = 0.5 * (1.0 + erf(h_pre / SQRT2))
    alpha_raw = expit((h_pre * h_cdf) @ params.w2 + params.b2)
    return (1.0 - 2.0 * eps) * alpha_raw + eps, h_cdf, alpha_raw


def gate_backward(
    params: GateParams,
    cache: Optional[GateCache],
    d_alpha: np.ndarray,
) -> Tuple[np.ndarray, GateParams]:
    """Chain rule through clip, sigmoid, and the trunk.

    Returns (gradient w.r.t. the gate input, gradient tree for the params).
    """
    if cache is None:
        raise ValueError("gate_backward: no cache (ablated gate has no gradients)")
    dz = (1.0 - 2.0 * cache.eps) * d_alpha * cache.alpha_raw * (1.0 - cache.alpha_raw)
    flat_h = (cache.h_pre * cache.h_cdf).reshape(-1, cache.h_pre.shape[-1])
    flat_dz = dz.reshape(-1, dz.shape[-1])
    d_w2 = flat_h.T @ flat_dz
    d_b2 = flat_dz.sum(axis=0)
    dh = (dz @ params.w2.T) * gelu_grad(cache.h_pre, cache.h_cdf)
    flat_in = cache.inp.reshape(-1, cache.inp.shape[-1])
    flat_dh = dh.reshape(-1, dh.shape[-1])
    d_w1 = flat_in.T @ flat_dh
    d_b1 = flat_dh.sum(axis=0)
    d_inp = dh @ params.w1.T
    return d_inp, GateParams(w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2)
