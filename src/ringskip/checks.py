"""Verification drivers shared by the CLI and the acceptance suite: the
sparse-vs-dense oracle sweep, finite-difference gradient checks through
stacked blocks, stepwise decode-vs-full-forward equivalence, and the KL
stabilization sweep."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (
    BlockParams,
    GateParams,
    ProjectionParams,
    block_backward,
    block_forward,
    dense_oracle,
    distributions_from_scores,
    kl_divergence,
    pi_attention_forward,
)
from .decoder import KVCache, decode_step
from .gate import init_gate
from .model import ModelConfig, ModelParams, flatten, init_model, model_forward
from .neighborhood import ABLATIONS, AttentionConfig, build_union, gather_schedule
from .numerics import Rng, grad_check


def random_attention_params(rng: Rng, d_model: int, n_heads: int):
    """Projections plus a gate with a non-degenerate (non-0.5) output."""
    proj = ProjectionParams(
        wq=rng.glorot((d_model, d_model)), wk=rng.glorot((d_model, d_model)),
        wv=rng.glorot((d_model, d_model)), wo=rng.glorot((d_model, d_model)),
        bq=rng.normal((d_model,), 0.1), bv=rng.normal((d_model,), 0.1),
        bo=rng.normal((d_model,), 0.1),
    )
    hidden = d_model // 2
    gate = GateParams(
        w1=rng.glorot((d_model, hidden)), b1=rng.normal((hidden,), 0.1),
        w2=rng.glorot((hidden, n_heads)), b2=rng.normal((n_heads,), 0.5),
    )
    return proj, gate


def oracle_grid(size: str = "full") -> List[Tuple[AttentionConfig, int]]:
    """(config, n) combinations for the equivalence sweep."""
    if size == "small":
        ns, ks, pis, hs = [4, 12], [1, 2], [2, 4], [1, 2]
        ablations = ("full", "no_skip", "no_gate")
    else:
        ns, ks, pis, hs = [4, 12, 33, 64], [0, 1, 2, 4], [1, 2, 4, 8, 16], [1, 2, 4]
        ablations = ABLATIONS
    d_model = 8
    grid = []
    for n, k, pi, h, causal, abl in itertools.product(
            ns, ks, pis, hs, (True, False), ablations):
        cfg = AttentionConfig(d_model=d_model, n_heads=h, ring_k=k, skip_period=pi,
                              causal=causal, bidirectional_skip=not causal,
                              ablation=abl)
        grid.append((cfg, n))
    return grid


@dataclass
class OracleResult:
    checked: int
    max_delta: float
    worst: Optional[Tuple[AttentionConfig, int]]
    rows: List[dict]


def run_oracle_check(grid: Sequence[Tuple[AttentionConfig, int]],
                     seed: int = 0, tol: float = 1e-10) -> OracleResult:
    """Sparse path vs dense masked oracle, elementwise, per config."""
    rows = []
    max_delta = 0.0
    worst = None
    for idx, (cfg, n) in enumerate(grid):
        rng = Rng(seed).spawn(idx)
        proj, gate = random_attention_params(rng, cfg.d_model, cfg.n_heads)
        x = rng.normal((1, n, cfg.d_model))
        schedule = gather_schedule(cfg, n)
        union = build_union(cfg, n)
        sparse, _ = pi_attention_forward(x, proj, gate, schedule, cfg)
        dense = dense_oracle(x, proj, gate, union, cfg)
        delta = float(np.abs(sparse - dense).max())
        rows.append({"n": n, "k": cfg.ring_k, "pi": cfg.skip_period,
                     "heads": cfg.n_heads, "causal": int(cfg.causal),
                     "ablation": cfg.ablation, "max_delta": delta,
                     "ok": int(delta < tol)})
        if delta > max_delta:
            max_delta, worst = delta, (cfg, n)
    return OracleResult(checked=len(grid), max_delta=max_delta, worst=worst,
                        rows=rows)


def stacked_block_setup(seed: int = 0, n: int = 6, d_model: int = 16,
                        n_heads: int = 2, k: int = 1, pi: int = 2,
                        layers: int = 2):
    """Fixed scalar loss through stacked blocks for gradient checking."""
    cfg = AttentionConfig(d_model=d_model, n_heads=n_heads, ring_k=k,
                          skip_period=pi, causal=True)
    rng = Rng(seed)
    blocks = []
    for i in range(layers):
        br = rng.spawn(10 + i)
        proj, gate = random_attention_params(br, d_model, n_heads)
        blocks.append(BlockParams(
            proj=proj, gate=gate,
            ln1_g=1.0 + 0.1 * br.normal((d_model,)), ln1_b=0.1 * br.normal((d_model,)),
            ln2_g=1.0 + 0.1 * br.normal((d_model,)), ln2_b=0.1 * br.normal((d_model,)),
            w_ff1=br.glorot((d_model, d_model)), b_ff1=0.1 * br.normal((d_model,)),
            w_ff2=br.glorot((d_model, d_model)), b_ff2=0.1 * br.normal((d_model,)),
        ))
    x = rng.spawn(1).normal((1, n, d_model))
    w_loss = rng.spawn(2).normal((n, d_model))  # fixed mixing weights
    schedule = gather_schedule(cfg, n)
    return cfg, blocks, x, w_loss, schedule


def run_stacked_grad_check(seed: int = 0, h: float = 1e-5, **kw) -> Dict[str, float]:
    """Central-difference check of every parameter tensor and the input.

    Returns name -> max relative error.
    """
    cfg, blocks, x, w_loss, schedule = stacked_block_setup(seed, **kw)

    def loss_fn() -> float:
        y = x
        for bp in blocks:
            y, _ = block_forward(y, bp, schedule, cfg)
        return float((y[0] * w_loss).sum())

    # analytic gradients
    y = x
    caches = []
    for bp in blocks:
        y, c = block_forward(y, bp, schedule, cfg)
        caches.append(c)
    d_y = np.broadcast_to(w_loss, y.shape).copy()
    grads = []
    for bp, c in zip(reversed(blocks), reversed(caches)):
        d_y, g = block_backward(bp, c, d_y)
        grads.insert(0, g)

    errors: Dict[str, float] = {}
    for i, (bp, g) in enumerate(zip(blocks, grads)):
        for name, arr in flatten(bp).items():
            analytic = flatten(g)[name]
            errors[f"block{i}.{name}"] = grad_check(
                lambda _: loss_fn(), arr, analytic, h=h)
    errors["x"] = grad_check(lambda _: loss_fn(), x, d_y, h=h)
    return errors


def run_decode_check(cfg: ModelConfig, seq_len: int = 40,
                     seed: int = 0) -> float:
    """Max |stepwise logits - teacher-forced full-forward logits|."""
    params = init_model(cfg, seed=seed)
    rng = Rng(seed).spawn(7)
    tokens = rng.integers(0, cfg.vocab, (seq_len,))
    full_logits, _ = model_forward(tokens[None], params, cfg)
    cache = KVCache.empty(cfg.layers)
    worst = 0.0
    for t in range(seq_len):
        step_logits = decode_step(params, cfg, cache, int(tokens[t]), t)
        worst = max(worst, float(np.abs(step_logits - full_logits[0, t]).max()))
    return worst


def run_kl_random_scores(n: int = 256, k: int = 2, pi: int = 8,
                         eps: float = 1e-4, clamp: float = 20.0,
                         seeds: int = 100) -> Tuple[float, float]:
    """Mean/max KL on standard-normal scores and uniform raw gate values."""
    cfg = AttentionConfig(d_model=4, n_heads=1, ring_k=k, skip_period=pi,
                          causal=True, eps=eps, logit_clamp=clamp)
    schedule = gather_schedule(cfg, n)
    ring_mask = np.array([m.kind.value == "RING" for m in schedule])
    valid = np.stack([m.valid for m in schedule], axis=-1)
    means, maxes = [], []
    for s in range(seeds):
        rng = Rng(1000 + s)
        scores = rng.normal((1, 1, n, len(schedule)))
        alpha_raw = rng.uniform((1, 1, n))
        ideal = distributions_from_scores(scores, ring_mask, valid, alpha_raw,
                                          eps=None, clamp=None)
        stab = distributions_from_scores(scores, ring_mask, valid, alpha_raw,
                                         eps=eps, clamp=clamp)
        kl = kl_divergence(stab, ideal)
        means.append(float(kl.mean()))
        maxes.append(float(kl.max()))
    return float(np.mean(means)), float(np.max(maxes))
