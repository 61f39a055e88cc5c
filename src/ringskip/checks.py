"""Verification drivers shared by the CLI and the acceptance suite: the
sparse-vs-dense oracle sweep, finite-difference gradient checks through
stacked blocks, stepwise decode-vs-full-forward equivalence with a live gate,
and the KL stabilization sweep.

The oracle sweep and the KL sweep run as replica-stacked calls, cutting
calls rather than work. The oracle sweep stacks the configs that share n,
causality, head count, gate-on, d_model, eps and logit_clamp, sorted by
footprint: the sparse path runs once per footprint run of a stack and
`dense_oracle` once per stack, each row with its own footprint's masks. The
KL sweep draws every seed once into one stack and reuses it for every eps.
No stacked score array holds more than STACK_ELEMENTS elements, so a larger
grid or more seeds cost more stacks, not more memory. Each config or seed
keeps its own seeded draws and its own row, so the results are those of one
call per config or seed, bit for bit.

The oracle sweep and the stacked gradient check are many short numpy calls,
so they use both CPUs through the `split` sibling rule: their work items
((n, causal) buckets of the grid, tensors) are cut into two fixed sets of
near-equal static cost, the caller runs one and a process forked per call
runs the other, and the results are put back in grid or tensor order. A
footprint lies in one bucket, so its schedule and union are built once, in
one process, and held until its bucket ends: the unions alive at once in
each process are at most those of one bucket, 18 for the full grid. The
sibling reads the grid, or the analytic pass and the tensors, from the
memory it was forked with: only its set's indices cross the pipe to it and
only its deltas or errors come back; nothing is in shared memory. So their
results are the same floats on any number of CPUs; each reports the
sibling's peak resident memory, None when nothing was forked."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (
    BlockParams,
    GateParams,
    ProjectionParams,
    block_backward,
    block_forward,
    dense_oracle,
    gated_softmax,
    pi_attention_forward,
)
from .decoder import KVCache, decode_step
from .gate import clip_alpha
from .model import ModelConfig, ModelParams, flatten, init_model, model_forward
from .neighborhood import (ABLATIONS, AttentionConfig, ConfigError, build_union,
                           gather_schedule, offset_plan)
from .numerics import GRAD_CHECK_CHUNK, Rng, grad_check
from .split import in_two_sets, row_views


def random_attention_params(rng: Rng, d_model: int, n_heads: int):
    """Projections plus a gate with a non-degenerate (non-0.5) output.

    The four weights come from one stacked draw and the three biases from
    another; PCG64 fills a stack in the order of separate draws, so every
    tensor equals the one a per-tensor draw sequence gives."""
    wq, wk, wv, wo = rng.glorot((4, d_model, d_model))
    bq, bv, bo = rng.normal((3, d_model), 0.1)
    proj = ProjectionParams(wq=wq, wk=wk, wv=wv, wo=wo, bq=bq, bv=bv, bo=bo)
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
    else:
        ns, ks, pis, hs = [4, 12, 33, 64], [0, 1, 2, 4], [1, 2, 4, 8, 16], [1, 2, 4]
    d_model = 8
    grid = []
    for n, k, pi, h, causal, abl in itertools.product(
            ns, ks, pis, hs, (True, False), ABLATIONS):
        cfg = AttentionConfig(d_model=d_model, n_heads=h, ring_k=k, skip_period=pi,
                              causal=causal, bidirectional_skip=not causal,
                              ablation=abl)
        grid.append((cfg, n))
    return grid


def footprint(cfg: AttentionConfig, n: int) -> tuple:
    """What `gather_schedule` and `build_union` read of (cfg, n): the offset
    plan, causality and n. Equal footprints give equal schedules and unions."""
    return tuple(offset_plan(cfg)), cfg.causal, n


# a config passes the oracle check when its max |sparse - dense| is below this
ORACLE_TOL = 1e-10


# No stacked score array of the oracle or KL sweep holds more elements than
# this: the oracle's (m, H, n, n) dense and (O, m, H, n) sparse scores and the
# KL sweep's (O, seeds, 1, n). A larger sweep costs more stacks, not more
# memory. On a 2-CPU host, one BLAS thread, the oracle sweep ran 18% faster
# than one call per config at 2^16, 16% at 2^18 and 21-26% unbounded, for
# 2.9, 11 and 27 MB more peak memory in the caller.
STACK_ELEMENTS = 1 << 16


@dataclass
class OracleResult:
    max_delta: float
    worst: Optional[Tuple[AttentionConfig, int]]
    deltas: List[float]  # per config, in grid order
    footprints: int  # schedule/union pairs built: one per distinct footprint
    sparse_calls: int  # one per footprint run of a stack
    dense_calls: int  # one per stack
    sibling_peak_rss_mb: Optional[float] = None  # None when no sibling was forked


def _stack_key(cfg: AttentionConfig, n: int) -> tuple:
    """What the configs of one stack share: all that `pi_attention_forward`
    and `dense_oracle` read of a config besides its footprint, and n."""
    return (n, cfg.causal, cfg.n_heads, cfg.ablation != "no_gate", cfg.d_model,
            cfg.eps, cfg.logit_clamp)


def oracle_stacks(grid: Sequence[Tuple[AttentionConfig, int]],
                  members: Sequence[int]) -> List[List[List[int]]]:
    """The stacks of the grid indices `members`, each a list of footprint
    runs, each run the grid indices of one footprint in ascending order.

    The members of one `_stack_key` are sorted by footprint, stably, and cut
    in that order into stacks of at most STACK_ELEMENTS score elements, a
    config counting H·n·max(n, O) for its O slots; a config larger than that
    is a stack of its own."""
    keys: Dict[tuple, List[int]] = {}
    prints = {}
    for idx in members:
        keys.setdefault(_stack_key(*grid[idx]), []).append(idx)
        prints[idx] = footprint(*grid[idx])
    stacks = []
    for idxs in keys.values():
        stack: List[int] = []
        size = 0
        for idx in sorted(idxs, key=prints.__getitem__):
            cfg, n = grid[idx]
            elements = cfg.n_heads * n * max(n, len(prints[idx][0]))
            if stack and size + elements > STACK_ELEMENTS:
                stacks.append(stack)
                stack, size = [], 0
            stack.append(idx)
            size += elements
        stacks.append(stack)
    return [[list(run) for _, run in itertools.groupby(stack, key=prints.__getitem__)]
            for stack in stacks]


def _stack_deltas(grid: Sequence[Tuple[AttentionConfig, int]], seed: int,
                  runs: List[List[int]], plans: Dict[tuple, tuple]) -> List[float]:
    """Max |sparse - dense| of each config of one stack, given as its
    footprint runs, in stack order. `plans` maps a footprint to its schedule
    and union; a footprint not in it is built and added."""
    stack = [idx for run in runs for idx in run]
    cfg, n = grid[stack[0]]
    m, d, heads, hidden = len(stack), cfg.d_model, cfg.n_heads, cfg.d_model // 2
    proj = ProjectionParams(*np.empty((4, m, d, d)), *np.empty((3, m, 1, d)))
    gate = GateParams(np.empty((m, d, hidden)), np.empty((m, 1, hidden)),
                      np.empty((m, hidden, heads)), np.empty((m, 1, heads)))
    x = np.empty((m, n, d))
    tensors = [*vars(proj).values(), *vars(gate).values()]
    for row, idx in enumerate(stack):
        rng = Rng(seed).spawn(idx)
        drawn_proj, drawn_gate = random_attention_params(rng, d, heads)
        for stacked, drawn in zip(tensors, [*vars(drawn_proj).values(),
                                            *vars(drawn_gate).values()]):
            stacked[row] = drawn
        x[row] = rng.normal((n, d))
    sparse = np.empty((m, n, d))
    unions = []
    for run in runs:
        rows = slice(len(unions), len(unions) + len(run))
        run_cfg = grid[run[0]][0]
        key = footprint(run_cfg, n)
        if key not in plans:
            plans[key] = gather_schedule(run_cfg, n), build_union(run_cfg, n)
        schedule, union = plans[key]
        sparse[rows], _ = pi_attention_forward(x[rows], row_views(proj, rows),
                                               row_views(gate, rows), schedule, run_cfg)
        unions += [union] * len(run)
    dense = dense_oracle(x, proj, gate, unions, cfg)
    return [float(np.abs(s - t).max()) for s, t in zip(sparse, dense)]


def _bucket_deltas(grid: Sequence[Tuple[AttentionConfig, int]], seed: int,
                   stacks: List[List[List[int]]]) -> List[List[float]]:
    """`_stack_deltas` of each stack of one (n, causal) bucket; each of the
    bucket's footprints is built once and kept until the bucket ends."""
    plans: Dict[tuple, tuple] = {}
    return [_stack_deltas(grid, seed, runs, plans) for runs in stacks]


def run_oracle_check(grid: Sequence[Tuple[AttentionConfig, int]],
                     seed: int = 0) -> OracleResult:
    """Sparse path vs dense masked oracle, elementwise, per config.

    The configs run as replica-stacked calls (see `oracle_stacks`): the
    sparse path once per footprint run of a stack, on views of its rows, and
    `dense_oracle` once per stack, each row with the masks of its own
    footprint's union. The work is cut into (n, causal) buckets, which run
    through `split.in_two_sets` at a cost of n² per config: the caller runs
    one set while a forked sibling runs the other, or the caller runs both.
    A footprint holds its n and causality, so it lies in one bucket, and its
    schedule and union are built once, in one process, and held until its
    bucket ends: at most one bucket's unions are alive at a time in each
    process. Each config keeps its own `Rng(seed).spawn(idx)` draws, written
    into its row of the stack; each row is computed on its own, and
    `deltas`, `max_delta` and `worst` follow grid order, so the result does
    not depend on the stacks, the sets or the CPU count.
    """
    buckets: Dict[tuple, List[int]] = {}
    for idx, (cfg, n) in enumerate(grid):
        buckets.setdefault((n, cfg.causal), []).append(idx)
    units = [oracle_stacks(grid, members) for members in buckets.values()]
    per_unit, sibling_peak = in_two_sets(
        lambda u: _bucket_deltas(grid, seed, units[u]),
        [sum(grid[idx][1] ** 2 for idx in members) for members in buckets.values()])
    deltas = [0.0] * len(grid)
    for stacks, found in zip(units, per_unit):
        for runs, stack_deltas in zip(stacks, found):
            for idx, delta in zip((idx for run in runs for idx in run), stack_deltas):
                deltas[idx] = delta
    max_delta = 0.0
    worst = None
    for (cfg, n), delta in zip(grid, deltas):
        # the first NaN is the worst: it fails `< ORACLE_TOL` like its row does
        if not delta <= max_delta and max_delta == max_delta:
            max_delta, worst = delta, (cfg, n)
    return OracleResult(
        max_delta=max_delta, worst=worst, deltas=deltas,
        footprints=len({footprint(cfg, n) for cfg, n in grid}),
        sparse_calls=sum(len(runs) for stacks in units for runs in stacks),
        dense_calls=sum(len(stacks) for stacks in units), sibling_peak_rss_mb=sibling_peak)


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


def _with_tensor(obj, path: str, value: np.ndarray):
    """Copy of a parameter dataclass tree with the tensor at a dotted `flatten`
    path replaced by `value`; every other node is shared, not copied."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with_tensor(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


class GradCheckErrors(dict):
    """Tensor name -> max relative error, in tensor order, and the peak
    resident memory in MB of the sibling process that checked some of the
    tensors, None when no sibling was forked."""

    sibling_peak_rss_mb: Optional[float] = None


def run_stacked_grad_check(seed: int = 0, h: float = 1e-3, **kw) -> GradCheckErrors:
    """Fourth-order central-difference check of every parameter tensor and
    the input (see `grad_check`).

    Each stack of perturbed points is evaluated as one replica-stacked
    forward: a perturbed parameter gets a leading replica axis (matrices
    (m, a, b), vectors (m, 1, d), broadcast over positions) and x is broadcast
    to (m, n, d); perturbations of x are ordinary batch rows. A perturbation
    of block i starts from block i's input as cached by the analytic forward,
    since the blocks before it see no change, and runs through block i and
    every block after it.

    The tensors run through `split.in_two_sets`, at a cost of `grad_check`'s
    chunks times the blocks each chunk runs through: the caller checks one
    set while a forked sibling checks the other, or the caller checks both.
    Each check reads only the analytic pass, so the errors do not depend on
    the sets or the CPU count.

    Returns name -> max relative error, in the order of `flatten` per block,
    then x.
    """
    cfg, blocks, x, w_loss, schedule = stacked_block_setup(seed, **kw)

    def losses(xs: np.ndarray, stack: List[BlockParams]) -> np.ndarray:
        y = xs
        for bp in stack:
            y, _ = block_forward(y, bp, schedule, cfg)
        return (y * w_loss).sum(axis=(1, 2))

    # analytic gradients; inputs[i] is block i's input
    y = x
    inputs, caches = [], []
    for bp in blocks:
        inputs.append(y)
        y, c = block_forward(y, bp, schedule, cfg)
        caches.append(c)
    d_y = np.broadcast_to(w_loss, y.shape).copy()
    grads = []
    for bp, c in zip(reversed(blocks), reversed(caches)):
        d_y, g = block_backward(bp, c, d_y)
        grads.insert(0, g)

    def perturbed_block(i: int, name: str):
        y_in = inputs[i]

        def f(stack: np.ndarray) -> np.ndarray:
            if stack.ndim == 2:
                stack = stack[:, None, :]
            trial = [_with_tensor(blocks[i], name, stack)] + blocks[i + 1:]
            return losses(np.broadcast_to(y_in, (len(stack),) + y_in.shape[1:]), trial)
        return f

    # (name, loss of a stack of points, point, analytic gradient, blocks run)
    tensors = [(f"block{i}.{name}", perturbed_block(i, name), arr, flatten(g)[name],
                len(blocks) - i)
               for i, (bp, g) in enumerate(zip(blocks, grads))
               for name, arr in flatten(bp).items()]
    tensors.append(("x", lambda stack: losses(stack.reshape((-1,) + x.shape[1:]), blocks),
                    x, d_y, len(blocks)))
    found, sibling_peak = in_two_sets(
        lambda j: grad_check(*tensors[j][1:4], h=h),
        [-(-point.size // GRAD_CHECK_CHUNK) * depth for _, _, point, _, depth in tensors])
    errors = GradCheckErrors(zip((name for name, *_ in tensors), found))
    errors.sibling_peak_rss_mb = sibling_peak
    return errors


def random_model_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """init_model(cfg, seed) with every bias, layer-norm gain and layer-norm bias
    and the gate output layer drawn at random. At init_model's zero biases,
    unit gains and zero gate output layer (alpha 0.5 everywhere), a decoder
    that drops one of them, or folds it into the wrong product, still matches
    the forward."""
    params = init_model(cfg, seed=seed)
    rng = Rng(seed).spawn(200)
    for name, arr in flatten(params).items():
        if name.endswith("gate.w2"):
            arr[...] = rng.glorot(arr.shape)
        elif name.endswith("_g"):
            arr[...] = 1.0 + rng.normal(arr.shape, 0.2)
        elif arr.ndim == 1:
            arr[...] = rng.normal(arr.shape, 0.5 if name.endswith("gate.b2") else 0.2)
    return params


def run_decode_check(cfg: ModelConfig, seq_len: int = 40, seed: int = 0,
                     params: Optional[ModelParams] = None) -> float:
    """Max |stepwise logits - teacher-forced full-forward logits| for `params`,
    by default `random_model_params(cfg, seed)`, whose every parameter, and so
    the gate's input, reaches the logits."""
    if params is None:
        params = random_model_params(cfg, seed)
    rng = Rng(seed).spawn(7)
    tokens = rng.integers(0, cfg.vocab, (seq_len,))
    full_logits, _ = model_forward(tokens[None], params, cfg)
    cache = KVCache.empty(cfg.layers)
    worst = 0.0
    for t in range(seq_len):
        step_logits = decode_step(params, cfg, cache, int(tokens[t]), t)
        worst = max(worst, float(np.abs(step_logits - full_logits[0, t]).max()))
    return worst


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) over the first (slot) axis; +inf where p > 0 meets q == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms.sum(axis=0)


def run_kl_random_scores(eps: Sequence[float], n: int = 256, k: int = 2, pi: int = 8,
                         clamp: float = 20.0, seeds: int = 100) -> List[Tuple[float, float]]:
    """Mean/max KL on standard-normal scores and uniform raw gate values, one
    (mean, max) per value of `eps`.

    Both distributions come from `gated_softmax`. The stabilized one takes the
    gate clipped at that eps and the clamp; the ideal one takes the raw gate
    and no clamp, so an alpha of exactly 0 or 1 gives a -inf prior and
    probability 0.

    Seed s draws its (O, 1, 1, n) scores and (1, 1, n) raw gate from
    `Rng(1000 + s)`. The seeds are drawn once, in chunks of at most
    STACK_ELEMENTS score elements stacked on the second axis; each chunk's
    ideal distribution, which reads no eps, is computed once and reused for
    every eps. Each seed's mean and max come from its own slice, so the
    results do not depend on the chunking.
    """
    if seeds < 1:
        raise ConfigError(f"seeds: must be >= 1, got {seeds}")
    base = AttentionConfig(d_model=4, n_heads=1, ring_k=k, skip_period=pi, causal=True,
                           logit_clamp=clamp)
    cfgs = [dataclasses.replace(base, eps=e) for e in eps]
    ideal_cfg = dataclasses.replace(base, logit_clamp=np.inf)
    plan = gather_schedule(base, n)
    valid = plan.valid[:, None, None]
    chunk = max(1, STACK_ELEMENTS // (len(plan) * n))
    means: List[List[float]] = [[] for _ in cfgs]
    maxes: List[List[float]] = [[] for _ in cfgs]
    for start in range(0, seeds, chunk):
        drawn = range(start, min(seeds, start + chunk))
        scores = np.empty((len(plan), len(drawn), 1, n))
        alpha_raw = np.empty((len(drawn), 1, n))
        for j, s in enumerate(drawn):
            rng = Rng(1000 + s)
            scores[:, j] = rng.normal((len(plan), 1, n))
            alpha_raw[j] = rng.uniform((1, n))
        with np.errstate(divide="ignore"):
            ideal = gated_softmax(scores, alpha_raw, plan.ring, valid, ideal_cfg)
        for cfg, m_list, x_list in zip(cfgs, means, maxes):
            stab = gated_softmax(scores, clip_alpha(alpha_raw, cfg.eps), plan.ring, valid, cfg)
            kl = kl_divergence(stab, ideal)
            for row in kl:
                m_list.append(float(row.mean()))
                x_list.append(float(row.max()))
    return [(float(np.mean(m)), float(np.max(x))) for m, x in zip(means, maxes)]
