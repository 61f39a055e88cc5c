"""Cost accounting: the analytic per-layer latency model and its constant
fitting, the stride-skip communication-volume formula, a virtual device-ring
simulator for the three-stage layer schedule, and exact work ledgers checked
against the linear complexity/memory claims.

Note the closed-form communication volume (2*B*H*d_h*stride) carries no
dependence on sequence length or shard count, while a message-level tally
necessarily does; both numbers are reported side by side and never asserted
equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .attention import init_projection, pi_attention_forward
from .gate import init_gate
from .neighborhood import (AttentionConfig, ConfigError, build_union,
                           count_score_slots, gather_schedule, slot_layout)
from .numerics import Rng

# microbatches in `ring_simulate`'s pipeline
MICROBATCHES = 4


@dataclass(frozen=True)
class CostParams:
    gamma_tc: float      # tensor-core / compute throughput, ops per second
    gamma_hbm: float     # on-device memory bandwidth, elements per second
    gamma_net: float     # interconnect bandwidth, elements per second
    gamma_act: float     # activation throughput, elements per second
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gamma_tc", "gamma_hbm", "gamma_net", "gamma_act", "c1", "c2", "c3"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails
                raise ConfigError(f"{name}: must be strictly positive and finite")


def cost_model_eval(cp: CostParams, n: int, k: int, d_h: int) -> float:
    """Predicted per-layer seconds:
    c1*n*k*d_h/g_tc + c2*n*d_h/min(g_hbm, g_net) + c3*n*d_h/g_act."""
    for name, value, low in (("n", n, 1), ("k", k, 0), ("d_h", d_h, 1)):
        if value < low:
            raise ConfigError(f"{name}: must be >= {low}, got {value}")
    return (cp.c1 * n * k * d_h / cp.gamma_tc
            + cp.c2 * n * d_h / min(cp.gamma_hbm, cp.gamma_net)
            + cp.c3 * n * d_h / cp.gamma_act)


def fit_cost_constants(
    measurements: Sequence[Tuple[int, int, int, float]],
    cps: Sequence[CostParams],
) -> Tuple[float, float, float, float]:
    """Least-squares (c1, c2, c3) from (n, k, d_h, seconds) rows, each taken
    at the gamma rates of its own CostParams in `cps`. Returns (c1, c2, c3,
    relative residual).

    The memory and activation terms both scale as n*d_h, so rows that share
    one rate set cannot separate c2 from c3 (rank error); recovering all
    three constants needs measurements taken under at least two distinct
    rate settings.
    """
    if len(measurements) < 3:
        raise ValueError("need at least 3 measurements")
    if len(cps) != len(measurements):
        raise ValueError("one CostParams per measurement")
    rows = []
    y = []
    for i, ((n, k, d_h, seconds), c) in enumerate(zip(measurements, cps)):
        if not 0.0 <= seconds < np.inf:
            raise ValueError(f"measurement {i}: seconds must be finite and >= 0, "
                             f"got {seconds}")
        rows.append([n * k * d_h / c.gamma_tc,
                     n * d_h / min(c.gamma_hbm, c.gamma_net),
                     n * d_h / c.gamma_act])
        y.append(seconds)
    a = np.array(rows)
    b = np.array(y)
    if np.linalg.matrix_rank(a) < 3:
        raise ValueError("rank-deficient design matrix: measurements do not "
                         "separate the three terms")
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ coef - b) / max(np.linalg.norm(b), 1e-300))
    return float(coef[0]), float(coef[1]), float(coef[2]), residual


def comm_volume(batch: int, heads: int, d_h: int, stride: int) -> int:
    """Closed-form exchanged elements for the two stride gathers: 2*B*H*d_h*stride."""
    return 2 * batch * heads * d_h * stride


@dataclass
class Message:
    stage: str
    src: int
    dst: int
    elements: int


@dataclass
class CommReport:
    formula_elements: int
    tallied_messages: List[Message]
    tallied_elements: int
    received_elements: int
    stage_timeline: List[dict] = field(default_factory=list)
    makespan: float = 0.0


def ring_simulate(
    shards: int,
    n: int,
    config: AttentionConfig,
    batch: int,
    cost: Optional[CostParams] = None,
) -> CommReport:
    """Virtual device-ring run of one layer's three-stage schedule, rows of
    `batch` x `config.n_heads` x `config.head_dim` elements.

    Tokens are sharded contiguously; a non-dividing n pads the last shard with
    masked tokens that generate no messages. Stage 1 exchanges ring halos with
    adjacent shards, stage 2 ships every K/V row whose stride partner lives on
    another shard, stage 3 is local. A two-slot pipeline overlaps the next
    microbatch's stage 2 with the current one's stage 3:
    makespan = M*t1 + t2 + (M-1)*max(t2, t3) + t3, M = MICROBATCHES.
    """
    offsets, ring = slot_layout(config)
    k = config.ring_k
    if shards < 1 or shards > n:
        raise ConfigError(f"shards: must lie in [1, n], got {shards} for n={n}")
    if batch < 1:
        raise ConfigError(f"batch: must be >= 1, got {batch}")
    heads, d_h = config.n_heads, config.head_dim
    per = -(-n // shards)  # ceil; last shard padded
    shard_of = lambda i: i // per
    row_elems = batch * heads * d_h
    messages: List[Message] = []

    halo = 2 * min(k, per) * row_elems
    for s in range(1, shards):
        if halo:
            messages.append(Message("halo", s - 1, s, halo))
            if not config.causal and s * per < n:
                messages.append(Message("halo", s, s - 1, halo))

    # a skip stride inside the ring window has no SKIP slot: the halo carries it
    strides = offsets[~ring].tolist()
    for i in range(n):
        for st in strides:
            j = i + st
            if 0 <= j < n and shard_of(j) != shard_of(i):
                messages.append(Message("skip", shard_of(j), shard_of(i),
                                        2 * row_elems))

    tallied = sum(m.elements for m in messages)
    # every element sent lands at exactly one destination shard
    received = sum(m.elements for m in messages if 0 <= m.dst < shards)

    timeline: List[dict] = []
    makespan = 0.0
    if cost is not None:
        t1 = cost.c1 * n * k * d_h / cost.gamma_tc
        skip_elems = sum(m.elements for m in messages if m.stage == "skip")
        t2 = skip_elems / cost.gamma_net
        t3 = cost.c3 * n * d_h / cost.gamma_act
        timeline = [{"stage": "local_sweep", "seconds": t1},
                    {"stage": "periodic_gather", "seconds": t2},
                    {"stage": "fusion_projection", "seconds": t3}]
        m = MICROBATCHES
        makespan = m * t1 + t2 + (m - 1) * max(t2, t3) + t3

    return CommReport(
        # a plan without SKIP slots has no stride gathers to count
        formula_elements=(comm_volume(batch, heads, d_h, config.skip_period)
                          if strides else 0),
        tallied_messages=messages,
        tallied_elements=tallied,
        received_elements=received,
        stage_timeline=timeline,
        makespan=makespan,
    )


class WorkRow(NamedTuple):
    """The work counters of one (config, n), as `measure_work` and
    `work_report` return them; the field names are the bench.csv header."""

    n: int
    k: int
    pi: int
    heads: int
    causal: int
    ablation: str
    score_evals: int
    multiply_adds: int
    stored_activation_elements: int
    activation_bound: int  # n*(2k+3)*d_h*H + n*H
    doubling_ratio: Optional[float]  # None where n does not double


def measure_work(config: AttentionConfig, n: int, seed: int = 0) -> WorkRow:
    """Run the instrumented sparse path once and collect its counters; the
    row's `doubling_ratio` is None."""
    rng = Rng(seed)
    x = rng.normal((1, n, config.d_model), scale=0.5)
    proj = init_projection(rng.spawn(1), config.d_model)
    gate = init_gate(rng.spawn(2), config.d_model, config.n_heads)
    schedule = gather_schedule(config, n)
    _, cache = pi_attention_forward(x, proj, gate, schedule, config)
    # an explicit check, not an assert, so that `python -O` keeps it
    slots = count_score_slots(build_union(config, n))
    if cache.score_evals != slots:
        raise RuntimeError(f"work ledger: the sparse path scored {cache.score_evals} "
                           f"slots, the union holds {slots}")
    bound = (n * (2 * config.ring_k + 3) * config.head_dim * config.n_heads
             + n * config.n_heads)
    return WorkRow(n, config.ring_k, config.skip_period, config.n_heads, int(config.causal),
                   config.ablation, cache.score_evals, cache.multiply_adds,
                   cache.stored_activation_elements, bound, None)


def work_report(configs: Sequence[Tuple[AttentionConfig, int]]) -> List[WorkRow]:
    """Per-config ledgers plus the score-count ratio where n doubles."""
    rows = []
    prev = {}
    for config, n in configs:
        row = measure_work(config, n)
        key = (config.ring_k, config.skip_period, config.n_heads,
               config.causal, config.ablation)
        if key in prev and n == 2 * prev[key].n:
            row = row._replace(doubling_ratio=row.score_evals / prev[key].score_evals)
        prev[key] = row
        rows.append(row)
    return rows
