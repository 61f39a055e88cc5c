"""Receptive-field analysis for stacked layers of the sparse pattern.

Two quantities per (k, skip period, L):
  * `reach_full`    — true composition reach: BFS where every layer may use
    all ring offsets and the skip;
  * `reach_restricted` — the conservative accounting where local hops apply
    every layer but the skip hop is charged only at interval-doubling layers
    (cumulative skips after layer l equal ceil(log2 l)).

The ring hop is k; the skip stride is read from `slot_layout`. The restricted
extent of an interior query equals k*L + pi*ceil(log2 L) where the plan has a
SKIP slot, and k*L where it has none (pi <= k keeps the stride as a RING
slot). The full BFS reach can exceed the bound (up to L*(k+pi)) and is
reported as documented behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .neighborhood import AttentionConfig, ConfigError, build_union, slot_layout


@dataclass
class ReachSet:
    """Per-layer boolean reach masks into one query token."""

    query: int
    layers: List[np.ndarray]  # each (n,) bool

    @property
    def final(self) -> np.ndarray:
        return self.layers[-1]

    def leftward_extent(self, layers: Optional[int] = None) -> int:
        """Distance from the query to the leftmost token reached after
        `layers` layers (all of them by default)."""
        mask = self.final if layers is None else self.layers[layers - 1]
        return int(self.query - np.flatnonzero(mask).min())


def skip_budget(layers: int) -> int:
    """Skip hops charged by the restricted rule after `layers` layers."""
    return 0 if layers <= 1 else math.ceil(math.log2(layers))


def restricted_bound(k: int, pi: int, layers: int) -> int:
    return k * layers + pi * skip_budget(layers)


def reach_full(config: AttentionConfig, n: int, query: int, layers: int) -> ReachSet:
    """BFS over the actual per-layer union edges (causal)."""
    if not config.causal:
        raise ValueError("receptive-field analysis is defined for causal configs")
    allowed, _ = build_union(config, n).dense_masks
    cur = np.arange(n) == query
    per_layer = []
    for _ in range(layers):
        cur = cur | allowed[cur].any(axis=0)  # each reached token adds its targets
        per_layer.append(cur)
    return ReachSet(query=query, layers=per_layer)


def reach_restricted(config: AttentionConfig, n: int, query: int, layers: int) -> int:
    """Leftward extent under the doubling-charged skip rule (causal). The ring
    hop is k and the skip stride is the plan's own: a stride the plan keeps as
    a RING slot (pi <= k), or drops (no_skip), is never charged."""
    if not config.causal:
        raise ValueError("receptive-field analysis is defined for causal configs")
    offsets, ring = slot_layout(config)
    stride = -int(offsets[~ring].min(initial=0))
    lo = query
    for layer in range(1, layers + 1):
        lo -= config.ring_k
        if skip_budget(layer) > skip_budget(layer - 1):
            lo -= stride
        lo = max(lo, 0)
    return query - lo


class RfRow(NamedTuple):
    """One row of `rf_report`; the field names are the rf_bound.csv header."""

    k: int
    pi: int
    layers: int
    full_reach: int
    restricted_reach: int
    bound: int
    bound_holds_restricted: int
    bound_holds_full: int


def rf_report(k_values, pi_values, layer_values) -> List[RfRow]:
    """Full vs restricted reach against the analytic bound, one row per
    (k, pi, layers).

    One BFS per (k, pi) runs to the largest layer count, and each row reads
    the reach after its own layer count. n is beyond any possible reach
    (interior regime): no reach touches token 0, so the extents are those of
    any larger n, and the per-layer reaches of one BFS are exact.
    """
    if min(layer_values) < 1:
        raise ConfigError("layers: must be >= 1")
    rows = []
    top = max(layer_values)
    for k in k_values:
        for pi in pi_values:
            n = top * (k + pi) + 2
            query = n - 1
            cfg = AttentionConfig(d_model=2, n_heads=1, ring_k=k,
                                  skip_period=pi, causal=True)
            reach = reach_full(cfg, n, query, top)
            for layers in layer_values:
                bound = restricted_bound(k, pi, layers)
                full = reach.leftward_extent(layers)
                restricted = reach_restricted(cfg, n, query, layers)
                rows.append(RfRow(k, pi, layers, full, restricted, bound,
                                  int(restricted <= bound), int(full <= bound)))
    return rows
