"""Incremental autoregressive decoding: the one-row case of the sparse
attention, reading keys and values from a fixed per-layer ring buffer.

Each step projects only the new token and attends over the slots of
`offset_plan` with offset <= 0, in the forward's slot order, through the same
`gated_softmax` the batched forward uses. Slot offset o is valid when
t + o >= 0. Each layer keeps a buffer of max(k, skip_period) + 1 rows, and
position t lives in row t mod size, so the newest row overwrites the one no
slot can reach any more: nothing is evicted, memory is fixed, and per-step
work is independent of t. Stepwise logits agree with a teacher-forced full
pass to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .attention import gated_softmax
from .gate import gate_forward
from .model import ModelConfig, ModelParams
from .neighborhood import Kind, offset_plan
from .numerics import Rng, gelu, layer_norm_forward, softmax_row


class CacheGapError(RuntimeError):
    """A step arrived out of order, so the cache cannot serve it."""


@dataclass
class LayerCache:
    # (max(k, skip_period) + 1, 2, H, d_h): K and V of position t at row
    # t mod size; allocated by decode_step at t == 0
    rows: Optional[np.ndarray] = None


@dataclass
class KVCache:
    layers: List[LayerCache]
    next_pos: int = 0

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
        raise ValueError("incremental decoding requires a causal config")
    if t != cache.next_pos:
        raise CacheGapError(f"cache is consistent through {cache.next_pos - 1}, got t={t}")
    if t >= cfg.max_seq:
        raise ValueError(f"position {t} exceeds max_seq {cfg.max_seq}")
    if not 0 <= token < cfg.vocab:
        raise ValueError(f"token {token} outside the vocabulary [0, {cfg.vocab})")
    h_cnt, d_h = att.n_heads, att.head_dim
    size = max(att.ring_k, att.skip_period) + 1
    if t == 0:
        for lc in cache.layers:
            lc.rows = np.zeros((size, 2, h_cnt, d_h))
    slots = [(o, kind) for o, kind in offset_plan(att) if o <= 0]
    pos = t + np.array([o for o, _ in slots])
    valid = pos >= 0
    ring_mask = np.array([kind == Kind.RING for _, kind in slots])
    scale = 1.0 / np.sqrt(d_h)

    x = params.tok_emb[token] + params.pos_emb[t]  # (d,)
    for bp, lc in zip(params.blocks, cache.layers):
        h1, _ = layer_norm_forward(x, bp.ln1_g, bp.ln1_b)
        q = (h1 @ bp.proj.wq + bp.proj.bq).reshape(h_cnt, d_h)
        lc.rows[t % size, 0] = (h1 @ bp.proj.wk).reshape(h_cnt, d_h)
        lc.rows[t % size, 1] = (h1 @ bp.proj.wv + bp.proj.bv).reshape(h_cnt, d_h)

        gate_in = q.reshape(-1) if att.gate_on_query else h1
        alpha, _ = gate_forward(bp.gate, gate_in, att)  # (H,) or None

        # slots with pos < 0 read an unrelated row; they get probability 0
        kv = lc.rows[pos % size]  # (S, 2, H, d_h)
        scores = np.einsum("hd,shd->hs", q, kv[:, 0]) * scale
        probs = gated_softmax(scores, alpha, ring_mask, valid, att)
        attn_h = np.einsum("hs,shd->hd", probs, kv[:, 1])
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
    """Extend a nonempty prompt by `steps` tokens (greedy or temperature)."""
    if not prompt:
        raise ValueError("prompt must be nonempty")
    if not greedy and rng is None:
        raise ValueError("temperature sampling requires an rng")
    cache = KVCache.empty(cfg.layers)
    logits = None
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
