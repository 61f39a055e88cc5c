"""Toy decoder-only model built from the fused-attention block: learned token
and position embeddings, L blocks, final layer norm, vocab head. Everything is
float64 numpy with hand-written backward passes.

Parameters and gradients share the same dataclass tree; `flatten` gives the
ordered name -> array view checkpoints operate on, and `bind_params` builds a
tree whose arrays are views of one flat vector in that order, the layout the
optimizer works on; `param_shapes` alone states it. `init_model` draws into
a zeroed vector's views, so its biases and gate output layer are 0 (alpha 0.5).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attention import BlockCache, BlockParams, ProjectionParams, block_backward, block_forward
from .gate import GateParams
from .neighborhood import AttentionConfig, ConfigError, ExecutionPlan, gather_schedule
from .numerics import Rng, layer_norm_backward, layer_norm_forward, linear_grads


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab: int
    max_seq: int
    attention: AttentionConfig

    def __post_init__(self) -> None:
        for name in ("layers", "d_model", "n_heads", "d_ff", "vocab", "max_seq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.d_model != self.attention.d_model or self.n_heads != self.attention.n_heads:
            raise ConfigError("d_model/n_heads: model and attention configs disagree")


@dataclass
class ModelParams:
    tok_emb: np.ndarray   # (V, d)
    pos_emb: np.ndarray   # (max_seq, d)
    blocks: List[BlockParams]
    lnf_g: np.ndarray
    lnf_b: np.ndarray
    w_out: np.ndarray     # (d, V)
    b_out: np.ndarray


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameters: views of one zeroed vector (`bind_params`) with unit
    layer-norm gains, where every bias and the gate's output layer stay 0.
    Each draw has its own `Rng(seed)` stream: the embeddings are normal
    (scale 0.02) from spawn(10) and (11), the vocab head Glorot from
    spawn(12), and block i's spawn(100 + i) gives wq, wk, wv and wo from its
    spawn(1) and the gate trunk, w_ff1 and w_ff2 from its spawn(2), (3), (4)."""
    params = bind_params(cfg, np.zeros(sum(map(math.prod, param_shapes(cfg).values()))))
    rng = Rng(seed)
    params.tok_emb[...] = rng.spawn(10).normal(params.tok_emb.shape, scale=0.02)
    params.pos_emb[...] = rng.spawn(11).normal(params.pos_emb.shape, scale=0.02)
    for i, bp in enumerate(params.blocks):
        block_rng = rng.spawn(100 + i)
        proj_rng = block_rng.spawn(1)
        for w in (bp.proj.wq, bp.proj.wk, bp.proj.wv, bp.proj.wo):
            w[...] = proj_rng.glorot(w.shape)
        for offset, w in ((2, bp.gate.w1), (3, bp.w_ff1), (4, bp.w_ff2)):
            w[...] = block_rng.spawn(offset).glorot(w.shape)
        bp.ln1_g[...] = bp.ln2_g[...] = 1.0
    params.lnf_g[...] = 1.0
    params.w_out[...] = rng.spawn(12).glorot(params.w_out.shape)
    return params


def param_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Name -> shape of each parameter array of `cfg`, in flatten order, none
    allocated: the one place that states them."""
    d, half, f, h, v = cfg.d_model, cfg.d_model // 2, cfg.d_ff, cfg.n_heads, cfg.vocab
    block = {**dict.fromkeys(("proj.wq", "proj.wk", "proj.wv", "proj.wo"), (d, d)),
             **dict.fromkeys(("proj.bq", "proj.bv", "proj.bo"), (d,)),
             "gate.w1": (d, half), "gate.b1": (half,), "gate.w2": (half, h), "gate.b2": (h,),
             **dict.fromkeys(("ln1_g", "ln1_b", "ln2_g", "ln2_b"), (d,)),
             "w_ff1": (d, f), "b_ff1": (f,), "w_ff2": (f, d), "b_ff2": (d,)}
    return {"tok_emb": (v, d), "pos_emb": (cfg.max_seq, d),
            **{f"blocks.{i}.{k}": s for i in range(cfg.layers) for k, s in block.items()},
            "lnf_g": (d,), "lnf_b": (d,), "w_out": (d, v), "b_out": (v,)}


def bind_params(cfg: ModelConfig, vec: np.ndarray) -> ModelParams:
    """A parameter tree whose arrays are views of the 1-D vector `vec`, one
    after another in `flatten` order with the shapes of `param_shapes(cfg)`:
    a write to either is a write to the other."""
    shapes = param_shapes(cfg)
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    if vec.shape != (int(ends[-1]),):
        raise ValueError(f"bind_params: vector of shape {vec.shape}, the model has "
                         f"{int(ends[-1])} parameters")
    views = {name: part.reshape(shape) for (name, shape), part
             in zip(shapes.items(), np.split(vec, ends[:-1]))}

    def node(cls, prefix: str, **given):
        return cls(**{f.name: given[f.name] if f.name in given else views[prefix + f.name]
                      for f in dataclasses.fields(cls)})

    return node(ModelParams, "", blocks=[
        node(BlockParams, f"blocks.{i}.", proj=node(ProjectionParams, f"blocks.{i}.proj."),
             gate=node(GateParams, f"blocks.{i}.gate."))
        for i in range(cfg.layers)])


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
    blocks: List[BlockCache]
    lnf: tuple
    hf: np.ndarray


def model_forward(
    tokens: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    schedule: Optional[ExecutionPlan] = None,
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
    caches: List[BlockCache] = []
    for bp in params.blocks:
        x, c = block_forward(x, bp, schedule, cfg.attention)
        caches.append(c)
    hf, lnf_c = layer_norm_forward(x, params.lnf_g, params.lnf_b)
    logits = hf @ params.w_out + params.b_out
    return logits, ModelCache(tokens=tokens, blocks=caches, lnf=lnf_c, hf=hf)


def model_backward(
    params: ModelParams,
    cfg: ModelConfig,
    cache: ModelCache,
    d_logits: np.ndarray,
) -> ModelParams:
    """Gradient tree matching the parameter tree."""
    d = cfg.d_model
    d_w_out, d_b_out = linear_grads(cache.hf, d_logits)
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
