"""Incremental autoregressive decoding: the one-row case of the sparse
attention, reading keys and values from a fixed per-layer ring buffer.

Each step projects only the new token and attends over the slots of
`slot_layout` (a causal plan, so every offset is <= 0), in the forward's slot
order, through the same `gated_softmax` the batched forward uses; the gate
reads the new token's normalised block input h1, as the forward's gate reads
its attention input. Slot offset o is valid when t + o >= 0, which holds for
every slot from t = size - 1 on, so only the steps before that pass a mask.
Each layer keeps a buffer of 1 + the plan's largest |offset| rows, and
position t lives in row t mod size, so the newest row overwrites the one no
slot can reach any more: nothing is evicted, memory is fixed, and per-step
work is independent of t.

At t == 0 the step packs a plan for the sequence into the cache: per layer
one matrix whose columns give Q (pre-scaled by 1/sqrt(d_h)), K, V and the
gate trunk, with LN1's gain and bias folded in, W_ff1 with LN2's folded in,
and the vocab head with the final LN's. A layer then runs `normalize`, one
product, `gate_head`, the slot scores, `gated_softmax`, the value sum, W_o
plus the residual, `normalize`, W_ff1, `gelu` and W_ff2 plus the residual:
the layer norm, gate, GELU and fusion rules are the batched forward's own
helpers. The plan copies the params it was packed from, so every step of a
sequence must pass that params object. Stepwise logits agree with a
teacher-forced full pass to rounding, and a step raises NonFiniteError
wherever the forward's gate would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .attention import gated_softmax
from .gate import gate_head
from .model import ModelConfig, ModelParams
from .neighborhood import AttentionConfig, ConfigError, slot_layout
from .numerics import NonFiniteError, Rng, gelu, normalize, softmax_row


class CacheGapError(RuntimeError):
    """A step arrived out of order, so the cache cannot serve it."""


@dataclass
class LayerCache:
    # (1 + the plan's largest |offset|, 2, H, d_h): K and V of position t at
    # row t mod size; allocated by decode_step at t == 0
    rows: Optional[np.ndarray] = None
    # the layer's packed plan, set at t == 0: columns Q / sqrt(d_h), K, V and
    # (unless no_gate) the gate trunk, with LN1's gain and bias folded in,
    # (d, 3d [+ d/2]) and its bias; W_ff1 and b_ff1 with LN2's folded in
    w_in: Optional[np.ndarray] = None
    b_in: Optional[np.ndarray] = None
    w_ff1: Optional[np.ndarray] = None
    b_ff1: Optional[np.ndarray] = None


@dataclass
class KVCache:
    layers: List[LayerCache]
    next_pos: int = 0
    # slot offsets (slot_layout's, <= 0) and RING flags; set by decode_step at t == 0
    offsets: Optional[np.ndarray] = None
    ring_mask: Optional[np.ndarray] = None
    # set at t == 0: the buffer row each slot reads, by row of the current
    # position (size, S); the params the plan was packed from; the vocab head
    # with the final LN's gain and bias folded in
    slot_rows: Optional[np.ndarray] = None
    params: Optional[ModelParams] = None
    w_out: Optional[np.ndarray] = None
    b_out: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, n_layers: int) -> "KVCache":
        return cls(layers=[LayerCache() for _ in range(n_layers)])


def _folded(gain: np.ndarray, bias: np.ndarray, w: np.ndarray, b: np.ndarray):
    """(W', b') with xhat @ W' + b' = (xhat * gain + bias) @ w + b: a layer
    norm's affine folded into the linear map after it."""
    return gain[:, None] * w, bias @ w + b


def _pack(params: ModelParams, att: AttentionConfig, gated: bool, cache: KVCache) -> None:
    """Build the sequence's plan in `cache` from `params` (see `KVCache`); the
    gate trunk's columns only when `gated`."""
    if gated and not all(np.isfinite(a).all() for bp in params.blocks
                         for a in (bp.ln1_g, bp.ln1_b)):
        # every gate input of the forward would be non-finite
        raise NonFiniteError("gate input contains non-finite values")
    cache.offsets, cache.ring_mask = slot_layout(att)
    size = 1 - cache.offsets.min()
    cache.slot_rows = (np.arange(size)[:, None] + cache.offsets) % size
    cache.params = params
    scale = 1.0 / math.sqrt(att.head_dim)
    for bp, lc in zip(params.blocks, cache.layers):
        lc.rows = np.zeros((size, 2, att.n_heads, att.head_dim))
        p = bp.proj
        w = [p.wq * scale, p.wk, p.wv] + ([bp.gate.w1] if gated else [])
        b = [p.bq * scale, np.zeros_like(p.bv), p.bv] + ([bp.gate.b1] if gated else [])
        lc.w_in, lc.b_in = _folded(bp.ln1_g, bp.ln1_b, np.hstack(w), np.concatenate(b))
        lc.w_ff1, lc.b_ff1 = _folded(bp.ln2_g, bp.ln2_b, bp.w_ff1, bp.b_ff1)
    cache.w_out, cache.b_out = _folded(params.lnf_g, params.lnf_b, params.w_out,
                                       params.b_out)


def decode_step(
    params: ModelParams,
    cfg: ModelConfig,
    cache: KVCache,
    token: int,
    t: int,
) -> np.ndarray:
    """Process one token at absolute position t; returns vocab logits (V,).

    The plan packed at t == 0 holds copies of `params`, so every step of a
    sequence must pass the same params object; another one raises ConfigError.
    """
    att = cfg.attention
    if not att.causal:
        raise ConfigError("incremental decoding requires a causal config")
    if t != cache.next_pos:
        raise CacheGapError(f"cache is consistent through {cache.next_pos - 1}, got t={t}")
    if t >= cfg.max_seq:
        raise ConfigError(f"position {t} exceeds max_seq {cfg.max_seq}")
    if not 0 <= token < cfg.vocab:
        raise ConfigError(f"token {token} outside the vocabulary [0, {cfg.vocab})")
    gated = att.ablation != "no_gate"
    if t == 0:
        _pack(params, att, gated, cache)
    elif params is not cache.params:
        raise ConfigError("params: a sequence must be decoded with the params object "
                          "it started with")
    d, h_cnt, d_h = att.d_model, att.n_heads, att.head_dim
    size, slots = cache.slot_rows.shape
    row = t % size
    # until every slot reaches a position >= 0, the others get probability 0
    valid = (cache.offsets >= -t)[:, None] if t < size - 1 else None

    x = params.tok_emb[token] + params.pos_emb[t]  # (d,)
    for bp, lc in zip(params.blocks, cache.layers):
        xhat = normalize(x)[0]
        y = xhat @ lc.w_in + lc.b_in
        lc.rows[row] = y[d:3 * d].reshape(2, h_cnt, d_h)
        alpha = gate_head(y[3 * d:], bp.gate, att.eps)[0] if gated else None
        kv = lc.rows.take(cache.slot_rows[row], axis=0)  # (S, 2, H, d_h)
        scores = kv[:, 0].transpose(1, 0, 2) @ y[:d].reshape(h_cnt, d_h, 1)  # (H, S, 1)
        probs = gated_softmax(scores.reshape(h_cnt, slots).T, alpha, cache.ring_mask,
                              valid, att)
        attn = probs.T.reshape(h_cnt, 1, slots) @ kv[:, 1].transpose(1, 0, 2)  # (H, 1, d_h)
        x = x + attn.reshape(d) @ bp.proj.wo + bp.proj.bo
        x = x + gelu(normalize(x)[0] @ lc.w_ff1 + lc.b_ff1) @ bp.w_ff2 + bp.b_ff2
    # the forward's gate raises on a non-finite input row, LN1's output; with
    # LN1's affine finite, one in any layer makes the last layer's xhat non-finite
    if gated and not np.isfinite(xhat).all():
        raise NonFiniteError("gate input contains non-finite values")
    cache.next_pos = t + 1
    return normalize(x)[0] @ cache.w_out + cache.b_out


def generate(
    params: ModelParams,
    cfg: ModelConfig,
    prompt: List[int],
    steps: int,
    temperature: Optional[float] = None,
    rng: Optional[Rng] = None,
) -> List[int]:
    """Extend a nonempty prompt by `steps` tokens within max_seq: greedy when
    `temperature` is None, else sampled from `rng` at that temperature, which
    must be finite and > 0. Runs one `decode_step` per prompt token and per
    sampled token but the last: len(prompt) + steps - 1 steps, or
    len(prompt) when `steps` is 0."""
    if not prompt:
        raise ConfigError("prompt must be nonempty")
    if steps < 0:
        raise ConfigError(f"steps: must be >= 0, got {steps}")
    if len(prompt) + steps > cfg.max_seq:
        raise ConfigError(f"prompt length {len(prompt)} + steps {steps} exceeds "
                          f"max_seq {cfg.max_seq}")
    if temperature is not None and rng is None:
        raise ConfigError("temperature sampling requires an rng")
    if temperature is not None and not 0.0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    cache = KVCache.empty(cfg.layers)
    for t, tok in enumerate(prompt):
        logits = decode_step(params, cfg, cache, tok, t)
    out = list(prompt)
    for step in range(steps):
        if temperature is None:
            nxt = int(np.argmax(logits))
        else:
            p = softmax_row(np.asarray(logits) / temperature)
            nxt = int(np.searchsorted(np.cumsum(p), rng.uniform(())))
        out.append(nxt)
        if step + 1 < steps:  # the last token's logits would never be read
            logits = decode_step(params, cfg, cache, nxt, len(out) - 1)
    return out
