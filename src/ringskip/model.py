"""Toy decoder-only model built from the fused-attention block: learned token
and position embeddings, L blocks, final layer norm, vocab head. Everything is
float64 numpy with hand-written backward passes.

Parameters and gradients share the same dataclass tree; `flatten` gives the
ordered name -> array view the optimizer and checkpoints operate on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attention import (
    BlockCache,
    BlockParams,
    GateParams,
    ProjectionParams,
    block_backward,
    block_forward,
    init_projection,
)
from .gate import init_gate
from .neighborhood import AttentionConfig, GatherMap, gather_schedule
from .numerics import Rng, layer_norm_backward, layer_norm_forward


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab: int
    max_seq: int
    attention: AttentionConfig

    def validate(self) -> None:
        self.attention.validate()
        for name in ("layers", "d_model", "n_heads", "d_ff", "vocab", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if self.d_model != self.attention.d_model or self.n_heads != self.attention.n_heads:
            raise ValueError("d_model/n_heads: model and attention configs disagree")


@dataclass
class ModelParams:
    tok_emb: np.ndarray   # (V, d)
    pos_emb: np.ndarray   # (max_seq, d)
    blocks: List[BlockParams]
    lnf_g: np.ndarray
    lnf_b: np.ndarray
    w_out: np.ndarray     # (d, V)
    b_out: np.ndarray


def init_block(rng: Rng, cfg: ModelConfig) -> BlockParams:
    d = cfg.d_model
    return BlockParams(
        proj=init_projection(rng.spawn(1), d),
        gate=init_gate(rng.spawn(2), d, cfg.n_heads),
        ln1_g=np.ones(d), ln1_b=np.zeros(d),
        ln2_g=np.ones(d), ln2_b=np.zeros(d),
        w_ff1=rng.spawn(3).glorot((d, cfg.d_ff)), b_ff1=np.zeros(cfg.d_ff),
        w_ff2=rng.spawn(4).glorot((cfg.d_ff, d)), b_ff2=np.zeros(d),
    )


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    cfg.validate()
    rng = Rng(seed)
    return ModelParams(
        tok_emb=rng.spawn(10).normal((cfg.vocab, cfg.d_model), scale=0.02),
        pos_emb=rng.spawn(11).normal((cfg.max_seq, cfg.d_model), scale=0.02),
        blocks=[init_block(rng.spawn(100 + i), cfg) for i in range(cfg.layers)],
        lnf_g=np.ones(cfg.d_model), lnf_b=np.zeros(cfg.d_model),
        w_out=rng.spawn(12).glorot((cfg.d_model, cfg.vocab)),
        b_out=np.zeros(cfg.vocab),
    )


def flatten(obj, prefix: str = "") -> Dict[str, np.ndarray]:
    """Ordered name -> array view of a parameter (or gradient) tree."""
    out: Dict[str, np.ndarray] = {}
    if isinstance(obj, np.ndarray):
        out[prefix] = obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            out.update(flatten(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            out.update(flatten(item, f"{prefix}.{i}"))
    else:
        raise TypeError(f"flatten: unsupported node {type(obj)} at {prefix!r}")
    return out


@dataclass
class ModelCache:
    tokens: np.ndarray
    x0: np.ndarray
    blocks: List[BlockCache]
    lnf: tuple
    hf: np.ndarray


def model_forward(
    tokens: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    schedule: Optional[List[GatherMap]] = None,
    train: bool = False,
    rng: Optional[Rng] = None,
) -> Tuple[np.ndarray, ModelCache]:
    """tokens (B, n) int -> logits (B, n, V)."""
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None]
    b, n = tokens.shape
    if n > cfg.max_seq:
        raise ValueError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")
    if schedule is None:
        schedule = gather_schedule(cfg.attention, n)
    x = params.tok_emb[tokens] + params.pos_emb[:n]
    x0 = x
    caches: List[BlockCache] = []
    for bp in params.blocks:
        x, c = block_forward(x, bp, schedule, cfg.attention, train=train, rng=rng)
        caches.append(c)
    hf, lnf_c = layer_norm_forward(x, params.lnf_g, params.lnf_b)
    logits = hf @ params.w_out + params.b_out
    return logits, ModelCache(tokens=tokens, x0=x0, blocks=caches, lnf=lnf_c, hf=hf)


def model_backward(
    params: ModelParams,
    cfg: ModelConfig,
    cache: ModelCache,
    d_logits: np.ndarray,
) -> ModelParams:
    """Gradient tree matching the parameter tree."""
    d = cfg.d_model
    flat_hf = cache.hf.reshape(-1, d)
    flat_dl = d_logits.reshape(-1, cfg.vocab)
    d_w_out = flat_hf.T @ flat_dl
    d_b_out = flat_dl.sum(axis=0)
    d_hf = d_logits @ params.w_out.T
    d_x, d_lnf_g, d_lnf_b = layer_norm_backward(cache.lnf, d_hf)

    block_grads: List[BlockParams] = [None] * len(params.blocks)  # type: ignore[list-item]
    for i in range(len(params.blocks) - 1, -1, -1):
        d_x, g = block_backward(params.blocks[i], cache.blocks[i], d_x)
        block_grads[i] = g

    d_tok = np.zeros_like(params.tok_emb)
    np.add.at(d_tok, cache.tokens.ravel(), d_x.reshape(-1, d))
    d_pos = np.zeros_like(params.pos_emb)
    n = cache.tokens.shape[1]
    d_pos[:n] = d_x.sum(axis=0)
    return ModelParams(
        tok_emb=d_tok, pos_emb=d_pos, blocks=block_grads,
        lnf_g=d_lnf_g, lnf_b=d_lnf_b, w_out=d_w_out, b_out=d_b_out,
    )
