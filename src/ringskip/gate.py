"""Per-token, per-head fusion gate.

A shared two-layer trunk (width d_model/2, GELU) emits H sigmoid outputs per
token; `clip_alpha` then maps the raw gate alpha affinely onto [eps, 1-eps] so
the log-priors built from it stay finite. Everything after the trunk's first
product is `gate_head`, which stepwise decoding calls on the trunk columns of
its packed product.

Under the no_gate ablation `gate_forward` returns (None, None), the one form
of "no log-prior": the term is dropped downstream, and callers cannot
accidentally use a gate value.

A split attention call runs the gate per half of its batch rows. In the
forward each half writes its rows (`split.row_views`) of one whole-batch
cache (`empty_gate`, `gate_forward`'s `out`); in the backward each half runs
`gate_backward`, the row-local chain. The weight and bias gradients, each one
reduction over all rows, are `numerics.linear_grads` of each layer, which
attention runs whole after the halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import expit

from .neighborhood import AttentionConfig
from .numerics import NonFiniteError, Rng, gelu_cdf, gelu_grad


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


def clip_alpha(alpha_raw: np.ndarray, eps: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """The eps clip (1-2*eps)*alpha + eps, mapping [0, 1] onto [eps, 1-eps],
    written into `out` when given."""
    return np.add((1.0 - 2.0 * eps) * alpha_raw, eps, out=out)


@dataclass
class GateCache:
    h_pre: np.ndarray   # pre-GELU hidden
    h_cdf: np.ndarray   # gelu_cdf(h_pre); the activation is h_pre * h_cdf
    alpha_raw: np.ndarray


# the `out` of `gate_forward` that writes nothing given: every array is fresh
_FRESH = (None, GateCache(h_pre=None, h_cdf=None, alpha_raw=None))


def empty_gate(
    params: GateParams,
    inp: np.ndarray,
    config: AttentionConfig,
) -> Tuple[Optional[np.ndarray], Optional[GateCache]]:
    """`gate_forward`'s (alpha, cache) over inp (B, n, d_model) with its arrays
    allocated and not yet written; (None, None) under the no_gate ablation."""
    if config.ablation == "no_gate":
        return None, None
    lead, hidden, heads = inp.shape[:-1], params.w1.shape[-1:], params.w2.shape[-1:]
    return np.empty(lead + heads), GateCache(
        h_pre=np.empty(lead + hidden), h_cdf=np.empty(lead + hidden),
        alpha_raw=np.empty(lead + heads))


def gate_forward(
    params: GateParams,
    inp: np.ndarray,
    config: AttentionConfig,
    out: Optional[Tuple[np.ndarray, GateCache]] = None,
) -> Tuple[Optional[np.ndarray], Optional[GateCache]]:
    """Stabilized gate values, shape (..., n, H), and the cache for
    `gate_backward`; both None under the no_gate ablation.

    alpha = clip_alpha(sigmoid(w2 . gelu(w1 . inp + b1) + b2), eps).
    Given `out`, an (alpha, cache) of the result's shapes (rows of
    `empty_gate`'s), the values are written into its arrays.
    """
    if config.ablation == "no_gate":
        return None, None
    if not np.isfinite(inp).all():
        raise NonFiniteError("gate input contains non-finite values")
    alpha, cache = out or _FRESH
    h_pre = np.add(inp @ params.w1, params.b1, out=cache.h_pre)
    alpha, h_cdf, alpha_raw = gate_head(h_pre, params, config.eps,
                                        (alpha, cache.h_cdf, cache.alpha_raw))
    return alpha, GateCache(h_pre=h_pre, h_cdf=h_cdf, alpha_raw=alpha_raw)


def gate_head(h_pre: np.ndarray, params: GateParams, eps: float, out=(None, None, None)):
    """The gate after its trunk product: (alpha, h_cdf, alpha_raw) from the
    pre-GELU hidden h_pre (float64, (..., d_model/2)), where
    h_cdf = gelu_cdf(h_pre), alpha_raw = sigmoid(w2 . (h_pre * h_cdf) + b2) and
    alpha = clip_alpha(alpha_raw, eps), each bit for bit; written into the
    arrays of `out` (alpha, h_cdf, alpha_raw) that are not None. Shared by
    `gate_forward` and stepwise decoding, which packs the trunk product with
    the attention projections."""
    alpha, h_cdf, alpha_raw = out
    h_cdf = gelu_cdf(h_pre, out=h_cdf)
    alpha_raw = expit((h_pre * h_cdf) @ params.w2 + params.b2, out=alpha_raw)
    return clip_alpha(alpha_raw, eps, out=alpha), h_cdf, alpha_raw


def gate_backward(
    params: GateParams,
    cache: Optional[GateCache],
    d_alpha: np.ndarray,
    eps: float,
    out=(None, None),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain rule through clip (at `eps`), sigmoid and the trunk, row for
    row of `cache`: (dz, dh, d_inp), the gradients at the output layer's
    pre-activation, the hidden pre-activation and the gate input; dz and dh
    are written into the arrays of `out` (dz, dh) that are not None. The
    weight and bias gradients are `linear_grads(inp, dh)` and
    `linear_grads(h_pre * h_cdf, dz)`."""
    if cache is None:
        raise ValueError("gate_backward: no cache (ablated gate has no gradients)")
    dz = np.multiply((1.0 - 2.0 * eps) * d_alpha * cache.alpha_raw,
                     1.0 - cache.alpha_raw, out=out[0])
    dh = np.multiply(dz @ params.w2.T, gelu_grad(cache.h_pre, cache.h_cdf), out=out[1])
    return dz, dh, dh @ params.w1.T
