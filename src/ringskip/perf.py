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

import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .attention import init_projection, pi_attention_forward
from .gate import init_gate
from .neighborhood import (AttentionConfig, ConfigError, build_union, count_score_slots,
                           gather_schedule)
from .numerics import Rng


@dataclass(frozen=True)
class CostParams:
    gamma_tc: float      # tensor-core / compute throughput, ops per second
    gamma_hbm: float     # on-device memory bandwidth, elements per second
    gamma_net: float     # interconnect bandwidth, elements per second
    gamma_act: float     # activation throughput, elements per second
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0

    def validate(self) -> None:
        for name in ("gamma_tc", "gamma_hbm", "gamma_net", "gamma_act", "c1", "c2", "c3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be strictly positive")


def cost_model_eval(cp: CostParams, n: int, k: int, d_h: int) -> float:
    """Predicted per-layer seconds:
    c1*n*k*d_h/g_tc + c2*n*d_h/min(g_hbm, g_net) + c3*n*d_h/g_act."""
    cp.validate()
    if min(n, d_h) < 1 or k < 0:
        raise ValueError("n, d_h must be >= 1 and k >= 0")
    return (cp.c1 * n * k * d_h / cp.gamma_tc
            + cp.c2 * n * d_h / min(cp.gamma_hbm, cp.gamma_net)
            + cp.c3 * n * d_h / cp.gamma_act)


def fit_cost_constants(
    measurements: Sequence[Tuple[int, int, int, float]],
    cp,
) -> Tuple[float, float, float, float]:
    """Least-squares (c1, c2, c3) from (n, k, d_h, seconds) rows with the
    gamma rates held fixed. Returns (c1, c2, c3, relative residual).

    `cp` is one CostParams shared by all rows, or a sequence with one per
    row. The memory and activation terms both scale as n*d_h, so a single
    shared rate set cannot separate c2 from c3 (rank error); recovering all
    three constants needs measurements taken under at least two distinct
    rate settings.
    """
    if len(measurements) < 3:
        raise ValueError("need at least 3 measurements")
    cps = list(cp) if isinstance(cp, (list, tuple)) else [cp] * len(measurements)
    if len(cps) != len(measurements):
        raise ValueError("one CostParams per measurement (or a single shared one)")
    rows = []
    y = []
    for (n, k, d_h, seconds), c in zip(measurements, cps):
        c.validate()
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
    heads: int,
    d_h: int,
    cost: Optional[CostParams] = None,
    microbatches: int = 4,
) -> CommReport:
    """Virtual device-ring run of one layer's three-stage schedule.

    Tokens are sharded contiguously; a non-dividing n pads the last shard with
    masked tokens that generate no messages. Stage 1 exchanges ring halos with
    adjacent shards, stage 2 ships every K/V row whose stride partner lives on
    another shard, stage 3 is local. A two-slot pipeline overlaps the next
    microbatch's stage 2 with the current one's stage 3:
    makespan = M*t1 + t2 + (M-1)*max(t2, t3) + t3.
    """
    config.validate()
    if shards < 1 or shards > n:
        raise ConfigError(f"shards: must lie in [1, n], got {shards} for n={n}")
    per = -(-n // shards)  # ceil; last shard padded
    shard_of = lambda i: i // per
    row_elems = batch * heads * d_h
    messages: List[Message] = []

    k = config.ring_k if config.ablation != "no_ring" else 0
    for s in range(1, shards):
        left_rows = min(k, per)
        if left_rows > 0:
            messages.append(Message("halo", s - 1, s, 2 * left_rows * row_elems))
        if not config.causal and left_rows > 0:
            first_real = s * per
            if first_real < n:
                messages.append(Message("halo", s, s - 1, 2 * left_rows * row_elems))

    if config.ablation != "no_skip":
        strides = [-config.skip_period]
        if config.bidirectional_skip:
            strides.append(config.skip_period)
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
        cost.validate()
        t1 = cost.c1 * n * k * d_h / cost.gamma_tc
        skip_elems = sum(m.elements for m in messages if m.stage == "skip")
        t2 = skip_elems / cost.gamma_net
        t3 = cost.c3 * n * d_h / cost.gamma_act
        timeline = [{"stage": "local_sweep", "seconds": t1},
                    {"stage": "periodic_gather", "seconds": t2},
                    {"stage": "fusion_projection", "seconds": t3}]
        m = max(1, microbatches)
        makespan = m * t1 + t2 + (m - 1) * max(t2, t3) + t3

    return CommReport(
        formula_elements=comm_volume(batch, heads, d_h, config.skip_period),
        tallied_messages=messages,
        tallied_elements=tallied,
        received_elements=received,
        stage_timeline=timeline,
        makespan=makespan,
    )


@dataclass
class WorkLedger:
    n: int
    score_evals: int
    multiply_adds: int
    stored_activation_elements: int


def measure_work(config: AttentionConfig, n: int, seed: int = 0) -> WorkLedger:
    """Run the instrumented sparse path once and collect its counters."""
    rng = Rng(seed)
    x = rng.normal((1, n, config.d_model), scale=0.5)
    proj = init_projection(rng.spawn(1), config.d_model)
    gate = init_gate(rng.spawn(2), config.d_model, config.n_heads)
    schedule = gather_schedule(config, n)
    _, cache = pi_attention_forward(x, proj, gate, schedule, config)
    union = build_union(config, n)
    assert cache.score_evals == count_score_slots(union)
    return WorkLedger(n=n, score_evals=cache.score_evals,
                      multiply_adds=cache.multiply_adds,
                      stored_activation_elements=cache.stored_activation_elements)


def work_report(configs: Sequence[Tuple[AttentionConfig, int]]) -> str:
    """CSV of per-config ledgers plus the doubling ratio where n doubles."""
    buf = io.StringIO()
    buf.write("n,k,pi,heads,causal,ablation,score_evals,multiply_adds,"
              "stored_activation_elements,activation_bound,doubling_ratio\n")
    prev = {}
    for config, n in configs:
        led = measure_work(config, n)
        bound = (n * (2 * config.ring_k + 3) * config.head_dim * config.n_heads
                 + n * config.n_heads)
        key = (config.ring_k, config.skip_period, config.n_heads,
               config.causal, config.ablation)
        ratio = ""
        if key in prev and n == 2 * prev[key][0]:
            ratio = f"{led.score_evals / prev[key][1]:.6f}"
        prev[key] = (n, led.score_evals)
        buf.write(f"{n},{config.ring_k},{config.skip_period},{config.n_heads},"
                  f"{int(config.causal)},{config.ablation},{led.score_evals},"
                  f"{led.multiply_adds},{led.stored_activation_elements},"
                  f"{bound},{ratio}\n")
    return buf.getvalue()
