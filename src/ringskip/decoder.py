"""Incremental autoregressive decoding: the one-row case of the sparse
attention, reading keys and values from a fixed per-layer ring buffer.

Each step projects only the new token and attends over the slots of
`slot_layout` (a causal plan, so every offset is <= 0), in the forward's slot
order, through the same `gated_softmax` the batched forward uses; the gate
reads the new token's normalised block input h1, as the forward's gate reads
its attention input. Slot offset o is valid when t + o >= 0. Each layer keeps
a buffer of 1 + the plan's largest |offset| rows, and position t lives in row
t mod size, so the newest row overwrites the one no slot can reach any more:
nothing is evicted, memory is fixed, and per-step work is independent of t.
Stepwise logits agree with a teacher-forced full pass to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .attention import gated_softmax
from .gate import gate_forward
from .model import ModelConfig, ModelParams
from .neighborhood import ConfigError, slot_layout
from .numerics import Rng, gelu, layer_norm_forward, softmax_row


class CacheGapError(RuntimeError):
    """A step arrived out of order, so the cache cannot serve it."""


@dataclass
class LayerCache:
    # (1 + the plan's largest |offset|, 2, H, d_h): K and V of position t at
    # row t mod size; allocated by decode_step at t == 0
    rows: Optional[np.ndarray] = None


@dataclass
class KVCache:
    layers: List[LayerCache]
    next_pos: int = 0
    # slot offsets (slot_layout's, <= 0) and RING flags; set by decode_step at t == 0
    offsets: Optional[np.ndarray] = None
    ring_mask: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, n_layers: int) -> "KVCache":
        return cls(layers=[LayerCache() for _ in range(n_layers)])


def decode_step(
    params: ModelParams,
    cfg: ModelConfig,
    cache: KVCache,
    token: int,
    t: int,
) -> np.ndarray:
    """Process one token at absolute position t; returns vocab logits (V,)."""
    att = cfg.attention
    if not att.causal:
        raise ConfigError("incremental decoding requires a causal config")
    if t != cache.next_pos:
        raise CacheGapError(f"cache is consistent through {cache.next_pos - 1}, got t={t}")
    if t >= cfg.max_seq:
        raise ConfigError(f"position {t} exceeds max_seq {cfg.max_seq}")
    if not 0 <= token < cfg.vocab:
        raise ConfigError(f"token {token} outside the vocabulary [0, {cfg.vocab})")
    h_cnt, d_h = att.n_heads, att.head_dim
    if t == 0:
        cache.offsets, cache.ring_mask, _ = slot_layout(att)
        for lc in cache.layers:
            lc.rows = np.zeros((1 - cache.offsets.min(), 2, h_cnt, d_h))
    size = len(cache.layers[0].rows)
    pos = t + cache.offsets
    # slots with pos < 0 read an unrelated row; they get probability 0
    valid, kv_rows = pos >= 0, pos % size
    scale = 1.0 / math.sqrt(d_h)

    x = params.tok_emb[token] + params.pos_emb[t]  # (d,)
    for bp, lc in zip(params.blocks, cache.layers):
        h1, _ = layer_norm_forward(x, bp.ln1_g, bp.ln1_b)
        q = (h1 @ bp.proj.wq + bp.proj.bq).reshape(h_cnt, d_h)
        lc.rows[t % size, 0] = (h1 @ bp.proj.wk).reshape(h_cnt, d_h)
        lc.rows[t % size, 1] = (h1 @ bp.proj.wv + bp.proj.bv).reshape(h_cnt, d_h)

        alpha, _ = gate_forward(bp.gate, h1, att)  # (H,) or None

        kv = lc.rows[kv_rows]  # (S, 2, H, d_h)
        scores = np.einsum("hd,shd->sh", q, kv[:, 0]) * scale
        probs = gated_softmax(scores, alpha, cache.ring_mask, valid[:, None], att)
        attn_h = np.einsum("sh,shd->hd", probs, kv[:, 1])
        y1 = x + attn_h.reshape(-1) @ bp.proj.wo + bp.proj.bo
        h2, _ = layer_norm_forward(y1, bp.ln2_g, bp.ln2_b)
        x = y1 + gelu(h2 @ bp.w_ff1 + bp.b_ff1) @ bp.w_ff2 + bp.b_ff2

    hf, _ = layer_norm_forward(x, params.lnf_g, params.lnf_b)
    cache.next_pos = t + 1
    return hf @ params.w_out + params.b_out


def generate(
    params: ModelParams,
    cfg: ModelConfig,
    prompt: List[int],
    steps: int,
    greedy: bool = True,
    temperature: float = 1.0,
    rng: Optional[Rng] = None,
) -> List[int]:
    """Extend a nonempty prompt by `steps` tokens (greedy, or sampled at a
    finite temperature > 0), within max_seq."""
    if not prompt:
        raise ConfigError("prompt must be nonempty")
    if steps < 0:
        raise ConfigError(f"steps: must be >= 0, got {steps}")
    if len(prompt) + steps > cfg.max_seq:
        raise ConfigError(f"prompt length {len(prompt)} + steps {steps} exceeds "
                          f"max_seq {cfg.max_seq}")
    if not greedy and rng is None:
        raise ConfigError("temperature sampling requires an rng")
    if not greedy and not 0.0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    cache = KVCache.empty(cfg.layers)
    for t, tok in enumerate(prompt):
        logits = decode_step(params, cfg, cache, tok, t)
    out = list(prompt)
    for _ in range(steps):
        if greedy:
            nxt = int(np.argmax(logits))
        else:
            p = softmax_row(np.asarray(logits) / temperature)
            nxt = int(np.searchsorted(np.cumsum(p), rng.uniform(())))
        out.append(nxt)
        logits = decode_step(params, cfg, cache, nxt, len(out) - 1)
    return out
