"""Fused union-neighborhood attention: one softmax per token over ring plus
skip slots, with the gate entering as a log-prior on the logits.

The sparse path works offset-by-offset on the gather schedule: each offset is
a band of query rows against key rows shifted by the offset, so gathers and
scatters are plain slices and each slot is scored once. `dense_oracle`
recomputes the same operator with full n x n tensors built independently from
the per-token union entries; the two must agree to ~1e-12 arithmetic noise.

Backward passes are hand-derived reverse mode; every gradient is covered by
central-difference checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .gate import GateCache, GateParams, gate_backward, gate_forward
from .neighborhood import AttentionConfig, GatherMap, Kind, UnionNeighborhood
from .numerics import (
    Rng,
    ShapeError,
    gelu,
    gelu_grad,
    layer_norm_backward,
    layer_norm_forward,
    softmax_row,
)


@dataclass
class ProjectionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


@dataclass
class BlockParams:
    proj: ProjectionParams
    gate: GateParams
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_ff1: np.ndarray
    b_ff1: np.ndarray
    w_ff2: np.ndarray
    b_ff2: np.ndarray


def init_projection(rng: Rng, d_model: int) -> ProjectionParams:
    z = lambda: np.zeros(d_model)
    return ProjectionParams(
        wq=rng.glorot((d_model, d_model)),
        wk=rng.glorot((d_model, d_model)),
        wv=rng.glorot((d_model, d_model)),
        wo=rng.glorot((d_model, d_model)),
        bq=z(), bv=z(), bo=z(),
    )


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, n, d) -> (B, H, n, d_h), contiguous so that row slices are whole blocks"""
    b, n, d = x.shape
    return np.ascontiguousarray(x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, n, d_h) -> (B, n, d)"""
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


@dataclass
class AttnCache:
    """Saved activations for the analytic backward pass."""

    x: np.ndarray
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    scores_raw: np.ndarray       # (B, H, n, O), pre-clamp
    probs: np.ndarray            # (B, H, n, O), post-softmax, pre-dropout
    drop_mask: Optional[np.ndarray]
    alpha: Optional[np.ndarray]  # (B, n, H), stabilized
    gate_cache: Optional[GateCache]
    fused: np.ndarray            # (B, n, d) pre-output-projection
    schedule: List[GatherMap]
    config: AttentionConfig
    # work accounting (per this call, per layer)
    score_evals: int = 0
    stored_activation_elements: int = 0
    multiply_adds: int = 0


def log_prior(alpha_h: np.ndarray, ring_mask: np.ndarray) -> np.ndarray:
    """Gate log-prior per slot: log(alpha) on RING slots, log(1 - alpha) on SKIP.

    alpha_h (...), ring_mask (O,) bool -> (..., O). One log per gate value and
    branch, broadcast over the slots.
    """
    a = alpha_h[..., None]
    return np.where(ring_mask, np.log(a), np.log(1.0 - a))


def gated_softmax(
    scores: np.ndarray,
    alpha_h: Optional[np.ndarray],
    ring_mask: np.ndarray,
    valid: np.ndarray,
    config: AttentionConfig,
) -> np.ndarray:
    """The single fused softmax over the slot (last) axis of `scores`.

    Adds the gate log-prior (none when alpha_h is None, the no_gate ablation),
    clamps to [-logit_clamp, logit_clamp] before or after the prior as
    configured, and normalises over the valid slots. The batched forward and
    stepwise decoding both go through here.
    """
    prior = None if alpha_h is None else log_prior(alpha_h, ring_mask)
    lc = config.logit_clamp
    if config.clamp_after_prior:
        logits = np.clip(scores if prior is None else scores + prior, -lc, lc)
    else:
        logits = np.clip(scores, -lc, lc)
        if prior is not None:
            logits = logits + prior
    return softmax_row(logits, valid)


def pi_attention_forward(
    x: np.ndarray,
    proj: ProjectionParams,
    gate_params: GateParams,
    schedule: List[GatherMap],
    config: AttentionConfig,
    train: bool = False,
    rng: Optional[Rng] = None,
) -> Tuple[np.ndarray, AttnCache]:
    """Sparse fused attention over the gather schedule.

    Returns (output (B, n, d_model), cache). Attention weights are available
    as cache.probs, laid out per (head, token, offset slot).
    """
    if x.ndim == 2:
        x = x[None]
    b, n, d = x.shape
    if d != config.d_model:
        raise ShapeError(f"input width {d} != d_model {config.d_model}")
    h_cnt, d_h = config.n_heads, config.head_dim
    scale = 1.0 / np.sqrt(d_h)

    qh = split_heads(x @ proj.wq + proj.bq, h_cnt)
    kh = split_heads(x @ proj.wk, h_cnt)
    vh = split_heads(x @ proj.wv + proj.bv, h_cnt)

    gate_in = merge_heads(qh) if config.gate_on_query else x
    alpha, gate_cache = gate_forward(gate_params, gate_in, config)
    alpha_h = None if alpha is None else alpha.transpose(0, 2, 1)  # (B, H, n)

    n_off = len(schedule)
    scores = np.zeros((b, h_cnt, n, n_off))
    valid = np.stack([m.valid for m in schedule], axis=-1)  # (n, O)
    ring_mask = np.array([m.kind == Kind.RING for m in schedule])
    for o, m in enumerate(schedule):
        scores[:, :, m.rows, o] = np.einsum("bhnd,bhnd->bhn", qh[:, :, m.rows],
                                            kh[:, :, m.keys]) * scale

    probs = gated_softmax(scores, alpha_h, ring_mask, valid, config)

    drop_mask = None
    probs_used = probs
    if train and config.dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng in training mode")
        keep = rng.uniform(probs.shape) >= config.dropout_p
        drop_mask = keep / (1.0 - config.dropout_p)
        probs_used = probs * drop_mask

    out_h = np.zeros_like(qh)
    for o, m in enumerate(schedule):
        out_h[:, :, m.rows] += probs_used[:, :, m.rows, o, None] * vh[:, :, m.keys]

    fused = merge_heads(out_h)
    out = fused @ proj.wo + proj.bo

    n_valid = int(valid.sum())
    cache = AttnCache(
        x=x, qh=qh, kh=kh, vh=vh, scores_raw=scores, probs=probs,
        drop_mask=drop_mask, alpha=alpha, gate_cache=gate_cache, fused=fused,
        schedule=schedule, config=config,
        score_evals=n_valid,
        stored_activation_elements=n_valid * h_cnt * d_h + n * h_cnt,
        multiply_adds=(4 * b * n * d * d
                       + 2 * b * n_valid * h_cnt * d_h
                       + b * n * (d * (d // 2) + (d // 2) * h_cnt)),
    )
    return out, cache


def pi_attention_backward(
    proj: ProjectionParams,
    gate_params: GateParams,
    cache: AttnCache,
    d_out: np.ndarray,
) -> Tuple[np.ndarray, ProjectionParams, Optional[GateParams]]:
    """Exact reverse-mode gradients for the sparse fused attention.

    Returns (d_x, projection grads, gate grads or None when the gate carries
    no trainable path).
    """
    cfg = cache.config
    b, n, d = cache.x.shape
    h_cnt, d_h = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(d_h)
    sched = cache.schedule
    ring_mask = np.array([m.kind == Kind.RING for m in sched])

    flat_fused = cache.fused.reshape(-1, d)
    flat_dout = d_out.reshape(-1, d)
    d_wo = flat_fused.T @ flat_dout
    d_bo = flat_dout.sum(axis=0)
    d_out_h = split_heads(d_out @ proj.wo.T, h_cnt)

    probs_used = cache.probs if cache.drop_mask is None else cache.probs * cache.drop_mask
    d_probs_used = np.zeros_like(cache.probs)
    d_vh = np.zeros_like(cache.vh)
    for o, m in enumerate(sched):
        d_probs_used[:, :, m.rows, o] = np.einsum("bhnd,bhnd->bhn", d_out_h[:, :, m.rows],
                                                  cache.vh[:, :, m.keys])
        d_vh[:, :, m.keys] += probs_used[:, :, m.rows, o, None] * d_out_h[:, :, m.rows]

    d_probs = d_probs_used if cache.drop_mask is None else d_probs_used * cache.drop_mask
    # softmax backward; invalid slots have probs == 0 so they drop out
    inner = (cache.probs * d_probs).sum(axis=-1, keepdims=True)
    d_logits = cache.probs * (d_probs - inner)

    pre = cache.scores_raw
    if cfg.clamp_after_prior and cache.alpha is not None:
        pre = pre + log_prior(cache.alpha.transpose(0, 2, 1), ring_mask)
    d_scores = d_logits * (np.abs(pre) <= cfg.logit_clamp)
    d_prior = d_scores if cfg.clamp_after_prior else d_logits

    gate_grads: Optional[GateParams] = None
    d_gate_in = None
    if cache.gate_cache is not None:
        alpha_h = cache.alpha.transpose(0, 2, 1)  # (B, H, n)
        d_alpha_h = (d_prior[..., ring_mask].sum(axis=-1) / alpha_h
                     - d_prior[..., ~ring_mask].sum(axis=-1) / (1.0 - alpha_h))
        d_gate_in, gate_grads = gate_backward(gate_params, cache.gate_cache,
                                              d_alpha_h.transpose(0, 2, 1))

    d_qh = np.zeros_like(cache.qh)
    d_kh = np.zeros_like(cache.kh)
    for o, m in enumerate(sched):
        ds = d_scores[:, :, m.rows, o, None] * scale
        d_qh[:, :, m.rows] += ds * cache.kh[:, :, m.keys]
        d_kh[:, :, m.keys] += ds * cache.qh[:, :, m.rows]

    # merge_heads copies; free the dead intermediates first to keep the peak down
    del d_out_h, d_probs_used, d_probs, d_logits, d_scores, d_prior
    d_q_flat = merge_heads(d_qh)
    if d_gate_in is not None and cfg.gate_on_query:
        d_q_flat = d_q_flat + d_gate_in
    d_k_flat = merge_heads(d_kh)
    d_v_flat = merge_heads(d_vh)

    flat_x = cache.x.reshape(-1, d)
    proj_grads = ProjectionParams(
        wq=flat_x.T @ d_q_flat.reshape(-1, d),
        wk=flat_x.T @ d_k_flat.reshape(-1, d),
        wv=flat_x.T @ d_v_flat.reshape(-1, d),
        wo=d_wo,
        bq=d_q_flat.reshape(-1, d).sum(axis=0),
        bv=d_v_flat.reshape(-1, d).sum(axis=0),
        bo=d_bo,
    )
    d_x = d_q_flat @ proj.wq.T + d_k_flat @ proj.wk.T + d_v_flat @ proj.wv.T
    if d_gate_in is not None and not cfg.gate_on_query:
        d_x = d_x + d_gate_in
    return d_x, proj_grads, gate_grads


def dense_oracle(
    x: np.ndarray,
    proj: ProjectionParams,
    gate_params: GateParams,
    union: UnionNeighborhood,
    config: AttentionConfig,
) -> np.ndarray:
    """Full n x n masked attention with the log-prior as a bias matrix.

    Built from the per-token union entries, independently of the gather-based
    sparse path; used purely for equivalence checks.
    """
    if x.ndim == 2:
        x = x[None]
    b, n, d = x.shape
    h_cnt, d_h = config.n_heads, config.head_dim
    scale = 1.0 / np.sqrt(d_h)

    qh = split_heads(x @ proj.wq + proj.bq, h_cnt)
    kh = split_heads(x @ proj.wk, h_cnt)
    vh = split_heads(x @ proj.wv + proj.bv, h_cnt)

    gate_in = merge_heads(qh) if config.gate_on_query else x
    alpha, _ = gate_forward(gate_params, gate_in, config)

    allowed = np.zeros((n, n), dtype=bool)
    ring_pair = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(union.entries):
        for e in row:
            if e.valid:
                allowed[i, e.target] = True
                if e.kind == Kind.RING:
                    ring_pair[i, e.target] = True

    scores = np.einsum("bhid,bhjd->bhij", qh, kh) * scale
    lc = config.logit_clamp
    if alpha is not None:
        alpha_h = alpha.transpose(0, 2, 1)[..., None]       # (B, H, n, 1)
        prior = np.where(ring_pair, np.log(alpha_h), np.log(1.0 - alpha_h))
    else:
        prior = 0.0
    if config.clamp_after_prior:
        logits = np.clip(scores + prior, -lc, lc)
    else:
        logits = np.clip(scores, -lc, lc) + prior
    probs = softmax_row(logits, allowed)
    out_h = np.einsum("bhij,bhjd->bhid", probs, vh)
    return merge_heads(out_h) @ proj.wo + proj.bo


# ---------------------------------------------------------------------------
# transformer block (pre-norm residual, GELU FFN)
# ---------------------------------------------------------------------------


@dataclass
class BlockCache:
    ln1: tuple
    attn: AttnCache
    y1: np.ndarray
    ln2: tuple
    ff_pre: np.ndarray
    ff_act: np.ndarray
    h2: np.ndarray


def block_forward(
    x: np.ndarray,
    params: BlockParams,
    schedule: List[GatherMap],
    config: AttentionConfig,
    train: bool = False,
    rng: Optional[Rng] = None,
) -> Tuple[np.ndarray, BlockCache]:
    """y = x + Attn(LN1(x)); out = y + FFN(LN2(y))."""
    h1, ln1c = layer_norm_forward(x, params.ln1_g, params.ln1_b)
    a, attn_cache = pi_attention_forward(h1, params.proj, params.gate, schedule,
                                         config, train=train, rng=rng)
    y1 = x + a
    h2, ln2c = layer_norm_forward(y1, params.ln2_g, params.ln2_b)
    ff_pre = h2 @ params.w_ff1 + params.b_ff1
    ff_act = gelu(ff_pre)
    out = y1 + ff_act @ params.w_ff2 + params.b_ff2
    return out, BlockCache(ln1=ln1c, attn=attn_cache, y1=y1, ln2=ln2c,
                           ff_pre=ff_pre, ff_act=ff_act, h2=h2)


def block_backward(
    params: BlockParams,
    cache: BlockCache,
    d_out: np.ndarray,
) -> Tuple[np.ndarray, BlockParams]:
    d_ff_act = d_out @ params.w_ff2.T
    flat_act = cache.ff_act.reshape(-1, cache.ff_act.shape[-1])
    flat_dout = d_out.reshape(-1, d_out.shape[-1])
    d_w_ff2 = flat_act.T @ flat_dout
    d_b_ff2 = flat_dout.sum(axis=0)
    d_ff_pre = d_ff_act * gelu_grad(cache.ff_pre)
    flat_h2 = cache.h2.reshape(-1, cache.h2.shape[-1])
    flat_dpre = d_ff_pre.reshape(-1, d_ff_pre.shape[-1])
    d_w_ff1 = flat_h2.T @ flat_dpre
    d_b_ff1 = flat_dpre.sum(axis=0)
    d_h2 = d_ff_pre @ params.w_ff1.T
    d_y1_ln, d_ln2_g, d_ln2_b = layer_norm_backward(cache.ln2, d_h2)
    d_y1 = d_out + d_y1_ln

    d_h1, proj_grads, gate_grads = pi_attention_backward(params.proj, params.gate,
                                                         cache.attn, d_y1)
    d_x_ln, d_ln1_g, d_ln1_b = layer_norm_backward(cache.ln1, d_h1)
    d_x = d_y1 + d_x_ln

    if gate_grads is None:
        gate_grads = GateParams(
            w1=np.zeros_like(params.gate.w1), b1=np.zeros_like(params.gate.b1),
            w2=np.zeros_like(params.gate.w2), b2=np.zeros_like(params.gate.b2))
    grads = BlockParams(
        proj=proj_grads, gate=gate_grads,
        ln1_g=d_ln1_g, ln1_b=d_ln1_b, ln2_g=d_ln2_g, ln2_b=d_ln2_b,
        w_ff1=d_w_ff1, b_ff1=d_b_ff1, w_ff2=d_w_ff2, b_ff2=d_b_ff2,
    )
    return d_x, grads


# ---------------------------------------------------------------------------
# stabilization analysis
# ---------------------------------------------------------------------------


def distributions_from_scores(
    scores: np.ndarray,
    ring_mask: np.ndarray,
    valid: np.ndarray,
    alpha_raw: Optional[np.ndarray],
    eps: Optional[float],
    clamp: Optional[float],
) -> np.ndarray:
    """Union-softmax probabilities for raw scores under a given stabilization.

    scores: (..., n, O); ring_mask: (O,) bool; valid: (n, O); alpha_raw has the
    slot-broadcastable shape (..., n). eps=None means no gate clip; clamp=None
    means no logit clamp.
    """
    if alpha_raw is not None:
        a = alpha_raw if eps is None else (1.0 - 2.0 * eps) * alpha_raw + eps
        with np.errstate(divide="ignore"):
            prior = log_prior(a, ring_mask)
    else:
        prior = 0.0
    s = scores if clamp is None else np.clip(scores, -clamp, clamp)
    logits = s + prior
    # -inf priors (alpha exactly 0/1 without clipping) zero out that branch
    branch_ok = np.isfinite(logits)
    return softmax_row(np.where(branch_ok, logits, 0.0), valid & branch_ok)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) over the last axis; +inf where p > 0 meets q == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms.sum(axis=-1)


def kl_stabilization(
    x: np.ndarray,
    proj: ProjectionParams,
    gate_params: GateParams,
    schedule: List[GatherMap],
    config: AttentionConfig,
    eps_list: List[float],
) -> Dict[float, Tuple[float, float]]:
    """Per-epsilon (mean, max) KL between stabilized and ideal distributions.

    The ideal distribution uses the unclipped gate output and unclamped logits;
    each stabilized variant applies the epsilon clip and the configured clamp.
    """
    if x.ndim == 2:
        x = x[None]
    _, cache = pi_attention_forward(x, proj, gate_params, schedule, config)
    ring_mask = np.array([m.kind == Kind.RING for m in schedule])
    valid = np.stack([m.valid for m in schedule], axis=-1)
    if cache.gate_cache is not None:
        alpha_raw = cache.gate_cache.alpha_raw.transpose(0, 2, 1)  # (B, H, n)
    elif cache.alpha is not None:
        alpha_raw = cache.alpha.transpose(0, 2, 1)
    else:
        alpha_raw = None
    ideal = distributions_from_scores(cache.scores_raw, ring_mask, valid,
                                      alpha_raw, eps=None, clamp=None)
    report: Dict[float, Tuple[float, float]] = {}
    for eps in eps_list:
        stab = distributions_from_scores(cache.scores_raw, ring_mask, valid,
                                         alpha_raw, eps=eps,
                                         clamp=config.logit_clamp)
        kl = kl_divergence(stab, ideal)
        report[eps] = (float(kl.mean()), float(kl.max()))
    return report
