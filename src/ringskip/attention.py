"""Fused union-neighborhood attention: one softmax per token over ring plus
skip slots, with the gate entering as a log-prior on the logits.

The fusion is one rule, `gated_softmax`: the scores are clamped to
[-logit_clamp, logit_clamp], the log-prior of the gate is added after the
clamp (log alpha on RING slots, log(1 - alpha) on SKIP), and one masked
softmax runs over the slots. The gate reads the attention input x, the same
rows the projections read.

The sparse path executes one `ExecutionPlan`, built for the input's n, and
rebuilds none of its offsets, RING flags, validity, ring band or margin P.
Scores, probabilities and their gradients are slot-major (O, B, H, n) arrays,
one contiguous (B, H, n) plane per offset slot, so per-slot writes are whole
planes and the softmax reductions combine planes. The head buffers
(B, H, P + n + P, d_h) carry P zero rows at each end, P being the reach of the
live ring slots (P <= k). The ring's live offsets, -P ... 0 or -P ... P, are
one `_band` over all n rows: a batched matmul of every row's window of
buffer rows (a strided view, no copy) with its vector of slot weights. That
covers the value aggregation and d_q; for d_v and d_k, `_skew` first moves each
slot plane to the key rows it reads, in reverse slot order. Windows reaching
past [0, n) read the zero margins. Skip slots, scores and d_probs take one
shifted slice per slot, over the rows whose key row lies in [0, n) (its span);
a slot with |offset| >= n takes no product. Validity lives only in the softmax
mask, which gives invalid slots probability 0.
`dense_oracle` recomputes the same operator with full n x n tensors: its masks
are built independently from the per-token union entries, and its two n x n
products are batched matmuls over head views of the projections (no margins,
no copies). The two must agree to ~1e-12 arithmetic noise.

Backward passes are hand-derived reverse mode; every gradient is covered by
central-difference checks in the test suite.

A large call, one with B * H * n >= SPLIT_MIN_ROWS, uses both CPUs by the
rule of `split`: batch rows [0, ⌈B/2⌉) run on the caller and the rest on the
one worker thread, each half writing its rows of whole-batch arrays allocated
before the split. Per half run every row-local step: in the forward the
Q/K/V and output projections, the head split and merge, `gate_forward` (into
`split.row_views` of one `empty_gate` cache), `_slot_dots`, `gated_softmax`
and `_gather`; in the backward d_out @ wo.T, `_slot_dots`, `_scatter`,
`_gather`, the softmax backward, d_alpha, `gate_backward` (the gate's
row-local chain), and the d_q/d_k/d_v merges with their products into d_x.
What sums over rows runs after the halves as two concurrent jobs, each sum
whole: the caller takes the wq and wk gradients, bq and the gate's first
layer (`linear_grads` of w1, b1); the worker takes wv, wo, bv, bo and the
gate's second layer (w2, b2). So each sum keeps the unsplit call's order, and
forward and backward are bit-identical to the call run inline. A call runs
whole, inline, with its two jobs in order on the caller, when its B * H * n
is below SPLIT_MIN_ROWS, on a host that gives the process one CPU, inside a
half of another split (a train step or `evaluate`), or when a parameter is
replica-stacked (a leading axis of one replica per batch row, as
`checks.run_stacked_grad_check` builds).

Every large call, split or not, calls `split.keep_heap`, so from the first
one on glibc keeps freed memory in the heap: the next call reuses its arrays
instead of faulting tens of MB of fresh pages in again. Small calls never
switch it on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .gate import GateCache, GateParams, empty_gate, gate_backward, gate_forward
from .neighborhood import AttentionConfig, ExecutionPlan, UnionNeighborhood
from .numerics import (
    Rng,
    ShapeError,
    gelu_cdf,
    gelu_grad,
    layer_norm_backward,
    layer_norm_forward,
    linear_grads,
    softmax_row,
)
from .split import can_split, halves, in_halves, keep_heap, row_views


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


def split_heads(x: np.ndarray, n_heads: int, pad: int = 0,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """(B, n, d) -> (B, H, pad + n + pad, d_h), contiguous so that row slices are
    whole blocks; the pad rows at each end are zero. Written into `out` when
    given."""
    b, n, d = x.shape
    if out is None:
        out = np.empty((b, n_heads, pad + n + pad, d // n_heads))
    out[:, :, :pad] = out[:, :, pad + n:] = 0.0
    out[:, :, pad:pad + n] = x.reshape(b, n, n_heads, -1).transpose(0, 2, 1, 3)
    return out


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, n, d_h) -> (B, n, d)"""
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """The (B, H, n, d_h) head view of a C-contiguous (B, n, d) array, no copy;
    writing to it writes x."""
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


@dataclass
class AttnCache:
    """Saved activations for the analytic backward pass. The slot arrays are
    slot-major: slot s of `schedule` is the contiguous plane [s]."""

    x: np.ndarray
    qh: np.ndarray               # (B, H, P + n + P, d_h); P zero margin rows at each end
    kh: np.ndarray               # likewise
    vh: np.ndarray               # likewise
    scores_raw: np.ndarray       # (O, B, H, n) slot-major, pre-clamp
    probs: np.ndarray            # (O, B, H, n) slot-major, post-softmax
    alpha: Optional[np.ndarray]  # (B, n, H), stabilized
    gate_cache: Optional[GateCache]
    fused: np.ndarray            # (B, n, d) pre-output-projection
    schedule: ExecutionPlan
    config: AttentionConfig
    # work accounting (per this call, per layer)
    score_evals: int = 0
    stored_activation_elements: int = 0
    multiply_adds: int = 0


def gated_softmax(
    scores: np.ndarray,
    alpha_h: Optional[np.ndarray],
    ring_mask: np.ndarray,
    valid: Optional[np.ndarray],
    config: AttentionConfig,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The single fused softmax over the slot (first) axis of float64
    `scores`, written into `out` when given.

    scores (O, ...); alpha_h (...) or None (the no_gate ablation, no prior);
    ring_mask (O,); valid broadcasts against scores, or None when every slot
    counts. The logits are the scores clamped to [-logit_clamp, logit_clamp]
    plus the gate log-prior, log(alpha) on RING slots and log(1 - alpha) on
    SKIP (one log per gate value and branch, broadcast over the slots),
    normalised over the valid slots: invalid slots get -inf, so exp gives them
    exactly 0, and a column with no valid slot raises. The clamp and the
    max-subtracted softmax equal `np.clip` and `softmax_row` bit for bit. The
    batched forward, stepwise decoding and the KL check all go through here.
    """
    logits = np.minimum(np.maximum(scores, -config.logit_clamp), config.logit_clamp)
    if alpha_h is not None:
        ring = ring_mask.reshape(ring_mask.shape + (1,) * alpha_h.ndim)
        logits += np.where(ring, np.log(alpha_h), np.log(1.0 - alpha_h))
    if valid is not None:
        if not valid.any(axis=0).all():
            raise ValueError("empty neighborhood: softmax row has no valid entry")
        logits = np.where(valid, logits, -np.inf)
    logits -= np.maximum.reduce(logits, 0)
    np.exp(logits, out=logits)
    return np.divide(logits, np.add.reduce(logits, 0), out=out)


def _band(out, src, coef, start) -> None:
    """out[:, :, i] = sum over u < w of coef[:, :, i, u] * src[:, :, start + i + u]
    for all n rows, written over whatever `out` held: coef is (B, H, n, w), and
    src (C-contiguous) has the margin rows for every window, so the windows are
    a strided view (no copy) and the band is one batched matmul into `out`."""
    b, h, n, w = coef.shape
    sb, sh, si, sd = src.strides
    win = np.ndarray((b, h, n, src.shape[3], w), src.dtype, src, start * si,
                     (sb, sh, si, sd, si))
    np.matmul(win, coef[..., None], out=out[..., None])


def _skew(coef, top, spans) -> np.ndarray:
    """The planes coef (w, B, H, n) of a band whose last offset is `top`, moved to
    the key rows they read (the band's `spans`), in reverse slot order: (B, H, n, w)
    with [..., j, u] = coef[w-1-u, ..., j - top + u], zero where that row leaves [0, n)."""
    out = np.zeros(coef.shape[1:] + coef.shape[:1])
    for u in range(len(coef)):
        lo, hi = spans[-1 - u]
        out[:, :, lo + top - u:hi + top - u, u] = coef[-1 - u, :, :, lo:hi]
    return out


def _gather(out, coef, src, plan: ExecutionPlan) -> None:
    """out[:, :, i] = sum over slots s of coef[s, :, :, i] * src[:, :, P + i + o_s], over
    each slot's span, for coef (O, B, H, n) and src with the plan's P margin rows:
    the band's rows outside their span read the zero margins, and the skip slots
    read only their span. The ring band writes every row of `out` (every plan's
    band holds offset 0), so `out` need not be zeroed; the skip slots then add to it."""
    s0, s1 = plan.band
    _band(out, src, coef[s0:s1].transpose(1, 2, 3, 0), 0)
    pad = plan.pad
    for s, o in plan.skips:
        lo, hi = plan.spans[s]
        out[:, :, lo:hi] += coef[s, :, :, lo:hi, None] * src[:, :, pad + lo + o:pad + hi + o]


def _scatter(out, coef, src, plan: ExecutionPlan) -> None:
    """The transpose of `_gather`: out[:, :, j] = sum over slots s of
    coef[s, :, :, j - o_s] * src[:, :, P + j - o_s], over the slots whose row
    j - o_s lies in [0, n). Key j's window is src rows j - top + u, for slot
    s1 - 1 - u, top being the band's last offset. As in `_gather`, the band
    writes every row of `out` and the skip slots add."""
    s0, s1 = plan.band
    pad, top = plan.pad, int(plan.offsets[s1 - 1])
    _band(out, src, _skew(coef[s0:s1], top, plan.spans[s0:s1]), pad - top)
    for s, o in plan.skips:
        lo, hi = plan.spans[s]
        out[:, :, lo + o:hi + o] += coef[s, :, :, lo:hi, None] * src[:, :, pad + lo:pad + hi]


def _slot_dots(out, a, b, plan: ExecutionPlan) -> None:
    """out[s, :, :, i] = a[:, :, P + i] . b[:, :, P + i + o_s] over the slot's
    span; a and b have the plan's P margin rows."""
    pad = plan.pad
    for s, (o, (lo, hi)) in enumerate(zip(plan.offsets.tolist(), plan.spans)):
        np.einsum("bhnd,bhnd->bhn", a[:, :, pad + lo:pad + hi],
                  b[:, :, pad + lo + o:pad + hi + o], out=out[s, :, :, lo:hi])


# A call with fewer (batch row, head, token) triples than this, B*H*n, runs
# whole. Forward plus backward on a 2-CPU host, one BLAS thread:
# the split first paid at B*H*n 2,048-4,096 for d = 64 shapes, but the
# gradient check's d = 16, n = 6 replica stacks ran 2-4% slower split up to
# 6,144 (and a third slower at their 1,536); from 8,192 on every measured
# shape ran 18-39% faster split.
SPLIT_MIN_ROWS = 8192


def _parts(b: int, rows_per_item: int, *params) -> List[Tuple[slice]]:
    """The argument (rows,) of each half of a call over b batch rows, by
    `split.halves`. All b rows are one part when b * rows_per_item is below
    SPLIT_MIN_ROWS, when the call cannot split (one CPU, or inside a half of
    another split), or when a tensor of `params` is replica-stacked (3-D).
    A call at or above the cut switches on `split.keep_heap`."""
    if b * rows_per_item < SPLIT_MIN_ROWS:
        return [(slice(0, b),)]
    keep_heap()
    if can_split() and all(a.ndim < 3 for p in params for a in vars(p).values()):
        return [(rows,) for rows in halves(b)]
    return [(slice(0, b),)]


def _in_jobs(jobs: List, split: bool) -> list:
    """[job() for job in jobs] for two zero-argument callables: at once through
    `split.in_halves` when `split` (the first on the caller, the second on the
    worker), else in order here."""
    if not split:
        return [job() for job in jobs]
    return in_halves(lambda job: job(), [(job,) for job in jobs])


def pi_attention_forward(
    x: np.ndarray,
    proj: ProjectionParams,
    gate_params: GateParams,
    schedule: ExecutionPlan,
    config: AttentionConfig,
) -> Tuple[np.ndarray, AttnCache]:
    """Sparse fused attention over an execution plan built for x's length.

    Returns (output (B, n, d_model), cache). Attention weights are available
    as cache.probs, laid out per (offset slot, batch, head, token).
    """
    if x.ndim == 2:
        x = x[None]
    b, n, d = x.shape
    if d != config.d_model:
        raise ShapeError(f"input width {d} != d_model {config.d_model}")
    if n != schedule.n:
        raise ShapeError(f"input length {n} != the plan's length {schedule.n}")
    h_cnt, d_h = config.n_heads, config.head_dim
    scale = 1.0 / math.sqrt(d_h)

    pad = schedule.pad
    qh, kh, vh = np.empty((3, b, h_cnt, pad + n + pad, d_h))
    scores = np.zeros((len(schedule), b, h_cnt, n))
    probs = np.empty_like(scores)
    fused = np.empty((b, n, d))
    out = np.empty((b, n, d))
    alpha, gate_cache = empty_gate(gate_params, x, config)

    def rows_forward(rows: slice) -> None:
        xr, q, k, v, f = x[rows], qh[rows], kh[rows], vh[rows], fused[rows]
        split_heads(xr @ proj.wq + proj.bq, h_cnt, pad, out=q)
        split_heads(xr @ proj.wk, h_cnt, pad, out=k)
        split_heads(xr @ proj.wv + proj.bv, h_cnt, pad, out=v)
        alpha_h = None
        if alpha is not None:
            gate_forward(gate_params, xr, config, out=(alpha[rows], row_views(gate_cache, rows)))
            alpha_h = alpha[rows].transpose(0, 2, 1)  # (B, H, n)
        s = scores[:, rows]
        _slot_dots(s, q, k, schedule)
        s *= scale
        p = gated_softmax(s, alpha_h, schedule.ring, schedule.valid[:, None, None], config,
                          out=probs[:, rows])
        out_h = np.empty(q.shape[:2] + (n, d_h))
        _gather(out_h, p, v, schedule)
        _heads(f, h_cnt)[...] = out_h
        np.add(f @ proj.wo, proj.bo, out=out[rows])

    in_halves(rows_forward, _parts(b, h_cnt * n, proj, gate_params))

    n_valid = schedule.n_valid
    cache = AttnCache(
        x=x, qh=qh, kh=kh, vh=vh, scores_raw=scores, probs=probs, alpha=alpha,
        gate_cache=gate_cache, fused=fused, schedule=schedule, config=config,
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

    Returns (d_x, projection grads, gate grads or None under the no_gate
    ablation).
    """
    cfg = cache.config
    b, n, d = cache.x.shape
    h_cnt, d_h = cfg.n_heads, cfg.head_dim
    scale = 1.0 / math.sqrt(d_h)
    plan = cache.schedule
    gate_cache = cache.gate_cache

    d_q, d_k, d_v = np.empty((3, b, n, d))
    d_x = np.empty((b, n, d))
    if gate_cache is not None:
        dz, dh = np.empty(gate_cache.alpha_raw.shape), np.empty(gate_cache.h_pre.shape)

    def rows_backward(rows: slice) -> None:
        d_out_h = split_heads(d_out[rows] @ proj.wo.T, h_cnt, plan.pad)
        probs = cache.probs[:, rows]
        d_probs = np.zeros(probs.shape)
        _slot_dots(d_probs, d_out_h, cache.vh[rows], plan)
        d_vh = np.empty(d_out_h.shape[:2] + (n, d_h))
        _scatter(d_vh, probs, d_out_h, plan)

        # softmax backward; invalid slots have probs == 0 so they drop out
        inner = (probs * d_probs).sum(axis=0)
        d_logits = probs * (d_probs - inner)
        # the clamp passes the gradient where it did not bind; the prior sits after it
        d_scores = d_logits * (np.abs(cache.scores_raw[:, rows]) <= cfg.logit_clamp)
        if gate_cache is not None:
            alpha_h = cache.alpha[rows].transpose(0, 2, 1)  # (B, H, n)
            d_alpha_h = (d_logits[plan.ring].sum(axis=0) / alpha_h
                         - d_logits[~plan.ring].sum(axis=0) / (1.0 - alpha_h))
        del d_out_h, d_probs, d_logits

        d_scores *= scale
        d_qh, d_kh = np.empty((2,) + d_vh.shape)
        _gather(d_qh, d_scores, cache.kh[rows], plan)
        _scatter(d_kh, d_scores, cache.qh[rows], plan)
        for whole, part in ((d_q, d_qh), (d_k, d_kh), (d_v, d_vh)):
            _heads(whole[rows], h_cnt)[...] = part
        np.add(d_q[rows] @ proj.wq.T + d_k[rows] @ proj.wk.T, d_v[rows] @ proj.wv.T,
               out=d_x[rows])
        if gate_cache is not None:
            d_x[rows] += gate_backward(gate_params, row_views(gate_cache, rows),
                                       d_alpha_h.transpose(0, 2, 1), cfg.eps,
                                       out=(dz[rows], dh[rows]))[2]

    parts = _parts(b, h_cnt * n, proj, gate_params)
    in_halves(rows_backward, parts)

    # each weight gradient sums over every row, whole, in the order of the
    # unsplit call; the two jobs hold disjoint sums (wk has no bias)
    def caller_sums() -> tuple:
        return (linear_grads(cache.x, d_q), cache.x.reshape(-1, d).T @ d_k.reshape(-1, d),
                None if gate_cache is None else linear_grads(cache.x, dh))

    def worker_sums() -> tuple:
        return (linear_grads(cache.x, d_v), linear_grads(cache.fused, d_out),
                None if gate_cache is None
                else linear_grads(gate_cache.h_pre * gate_cache.h_cdf, dz))

    ((wq, bq), wk, layer1), ((wv, bv), (wo, bo), layer2) = _in_jobs(
        [caller_sums, worker_sums], len(parts) == 2)
    proj_grads = ProjectionParams(wq=wq, wk=wk, wv=wv, wo=wo, bq=bq, bv=bv, bo=bo)
    gate_grads = None if layer1 is None else GateParams(*layer1, *layer2)
    return d_x, proj_grads, gate_grads


def dense_oracle(
    x: np.ndarray,
    proj: ProjectionParams,
    gate_params: GateParams,
    union: Union[UnionNeighborhood, Sequence[UnionNeighborhood]],
    config: AttentionConfig,
) -> np.ndarray:
    """Full n x n masked attention with the log-prior as a bias matrix.

    The masks come from the per-token union entries (`union.dense_masks`,
    built once per union), independently of the gather-based sparse path;
    used purely for equivalence checks. `union` is one neighborhood for
    every batch row, or a sequence of B, row b masked by the b-th: the oracle
    sweep stacks configs of several footprints as the rows of one call, with
    replica-stacked parameters. Heads are (B, H, n, d_h) views of the
    projections, and the scores and the value aggregation are one batched
    matmul each.
    """
    if x.ndim == 2:
        x = x[None]
    b, n, d = x.shape
    h_cnt, d_h = config.n_heads, config.head_dim
    scale = 1.0 / math.sqrt(d_h)

    qh = _heads(x @ proj.wq + proj.bq, h_cnt)
    kh, vh = _heads(x @ proj.wk, h_cnt), _heads(x @ proj.wv + proj.bv, h_cnt)

    alpha, _ = gate_forward(gate_params, x, config)

    if isinstance(union, UnionNeighborhood):
        allowed, ring_pair = union.dense_masks
    else:  # (B, 1, n, n): one mask per row, broadcast over heads
        allowed, ring_pair = (np.stack(masks)[:, None]
                              for masks in zip(*(u.dense_masks for u in union)))

    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    logits = np.clip(scores, -config.logit_clamp, config.logit_clamp)
    if alpha is not None:
        alpha_h = alpha.transpose(0, 2, 1)[..., None]       # (B, H, n, 1)
        logits = logits + np.where(ring_pair, np.log(alpha_h), np.log(1.0 - alpha_h))
    probs = softmax_row(logits, allowed)
    return merge_heads(probs @ vh) @ proj.wo + proj.bo


# ---------------------------------------------------------------------------
# transformer block (pre-norm residual, GELU FFN)
# ---------------------------------------------------------------------------


@dataclass
class BlockCache:
    ln1: tuple
    attn: AttnCache
    ln2: tuple
    ff_pre: np.ndarray
    ff_cdf: np.ndarray  # gelu_cdf(ff_pre); the activation is ff_pre * ff_cdf
    h2: np.ndarray


def block_forward(
    x: np.ndarray,
    params: BlockParams,
    schedule: ExecutionPlan,
    config: AttentionConfig,
) -> Tuple[np.ndarray, BlockCache]:
    """y = x + Attn(LN1(x)); out = y + FFN(LN2(y))."""
    h1, ln1c = layer_norm_forward(x, params.ln1_g, params.ln1_b)
    a, attn_cache = pi_attention_forward(h1, params.proj, params.gate, schedule, config)
    y1 = x + a
    h2, ln2c = layer_norm_forward(y1, params.ln2_g, params.ln2_b)
    ff_pre = h2 @ params.w_ff1 + params.b_ff1
    ff_cdf = gelu_cdf(ff_pre)
    out = y1 + (ff_pre * ff_cdf) @ params.w_ff2 + params.b_ff2
    return out, BlockCache(ln1=ln1c, attn=attn_cache, ln2=ln2c,
                           ff_pre=ff_pre, ff_cdf=ff_cdf, h2=h2)


def block_backward(
    params: BlockParams,
    cache: BlockCache,
    d_out: np.ndarray,
) -> Tuple[np.ndarray, BlockParams]:
    d_ff_act = d_out @ params.w_ff2.T
    d_w_ff2, d_b_ff2 = linear_grads(cache.ff_pre * cache.ff_cdf, d_out)
    d_ff_pre = d_ff_act * gelu_grad(cache.ff_pre, cache.ff_cdf)
    d_w_ff1, d_b_ff1 = linear_grads(cache.h2, d_ff_pre)
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
