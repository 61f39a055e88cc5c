"""Sparse footprint construction: ring window, periodic skip links, and the
union neighborhood each token's single softmax runs over.

Two equivalent views are exposed:
  * `build_union` — per-token lists of (target, offset, kind, valid) entries,
    the ground truth the dense oracle and the CSV dump consume;
  * `gather_schedule` — per distinct offset, one shifted slice of rows plus a
    validity mask: the plan the vectorized attention path executes.

Overlap rule: if the skip stride lands inside the ring window the duplicate
slot is kept once as a RING member (the ring log-prior applies).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional

import numpy as np

ABLATIONS = ("full", "no_skip", "no_gate", "static_alpha", "no_ring")


class ConfigError(ValueError):
    """Invalid attention configuration; message names the offending field."""


class EmptyNeighborhoodError(ValueError):
    """A token ended up with zero valid attention targets."""


class Kind(str, Enum):
    RING = "RING"
    SKIP = "SKIP"


@dataclass(frozen=True)
class AttentionConfig:
    """All hyperparameters of the sparse attention mechanism."""

    d_model: int
    n_heads: int
    ring_k: int
    skip_period: int
    causal: bool = True
    bidirectional_skip: bool = False
    include_self: bool = True
    eps: float = 1e-4            # gate clip: alpha -> (1-2*eps)*alpha + eps
    logit_clamp: float = 20.0    # scores bounded to [-logit_clamp, logit_clamp]
    dropout_p: float = 0.0
    ablation: str = "full"
    static_alpha_value: float = 0.5   # used when ablation == "static_alpha"
    gate_on_query: bool = False       # feed Q rows (not x rows) to the gate MLP
    clamp_after_prior: bool = False   # clamp(score + log prior) instead of clamp(score)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def validate(self) -> None:
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError("n_heads: d_model must be divisible by n_heads")
        if self.ring_k < 0:
            raise ConfigError("ring_k: must be >= 0")
        if self.skip_period < 1:
            raise ConfigError("skip_period: must be >= 1")
        if self.causal and self.bidirectional_skip:
            raise ConfigError("bidirectional_skip: forbidden when causal")
        if not 0.0 < self.eps < 0.5:
            raise ConfigError("eps: must lie in (0, 0.5)")
        if self.logit_clamp <= 0:
            raise ConfigError("logit_clamp: must be > 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p: must lie in [0, 1)")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation: unknown value {self.ablation!r}")
        if self.ablation == "static_alpha" and not 0.0 < self.static_alpha_value < 1.0:
            raise ConfigError("static_alpha_value: must lie in (0, 1)")


@dataclass(frozen=True)
class NeighborEntry:
    target: int
    offset: int
    kind: Kind
    valid: bool


@dataclass
class UnionNeighborhood:
    n: int
    entries: List[List[NeighborEntry]]

    def valid_targets(self, i: int) -> List[int]:
        return [e.target for e in self.entries[i] if e.valid]


@dataclass(frozen=True)
class GatherMap:
    """One offset as a shifted slice: query rows [lo, hi) read key rows
    [lo + offset, hi + offset). [lo, hi) is the extent of `valid` (lo == hi
    when no row is valid); rows inside it can still be user_mask holes."""

    offset: int
    kind: Kind
    lo: int
    hi: int
    valid: np.ndarray  # (n,) bool

    @property
    def rows(self) -> slice:
        return slice(self.lo, self.hi)

    @property
    def keys(self) -> slice:
        return slice(self.lo + self.offset, self.hi + self.offset)


def offset_plan(config: AttentionConfig) -> List[tuple]:
    """Ordered (offset, kind) list after ablation and overlap resolution."""
    config.validate()
    ring: List[int] = []
    if config.ablation == "no_ring":
        if config.include_self:
            ring = [0]
    else:
        ring = [o for o in range(-config.ring_k, config.ring_k + 1)
                if o != 0 or config.include_self]
    plan = [(o, Kind.RING) for o in ring]
    if config.ablation != "no_skip":
        skips = [-config.skip_period]
        if config.bidirectional_skip:
            skips.append(config.skip_period)
        ring_set = set(ring)
        # skip stride inside the ring window: keep the slot once, as RING
        plan += [(o, Kind.SKIP) for o in skips if o not in ring_set]
    return plan


def build_union(
    config: AttentionConfig,
    n: int,
    user_mask: Optional[np.ndarray] = None,
) -> UnionNeighborhood:
    """Per-token union of ring and skip targets with bounds/causal masking."""
    if n < 1:
        raise ConfigError(f"n: sequence length must be >= 1, got {n}")
    if user_mask is not None:
        user_mask = np.asarray(user_mask, dtype=bool)
        if user_mask.shape != (n,):
            raise ConfigError(f"user_mask: expected shape ({n},), got {user_mask.shape}")
    plan = offset_plan(config)
    entries: List[List[NeighborEntry]] = []
    for i in range(n):
        row = []
        for offset, kind in plan:
            j = i + offset
            valid = 0 <= j < n
            if valid and config.causal and j > i:
                valid = False
            if valid and user_mask is not None and not user_mask[j]:
                valid = False
            row.append(NeighborEntry(target=min(max(j, 0), n - 1), offset=offset,
                                     kind=kind, valid=valid))
        if not any(e.valid for e in row):
            raise EmptyNeighborhoodError(f"empty neighborhood at token {i}")
        entries.append(row)
    return UnionNeighborhood(n=n, entries=entries)


def gather_schedule(
    config: AttentionConfig,
    n: int,
    user_mask: Optional[np.ndarray] = None,
) -> List[GatherMap]:
    """One shifted slice plus validity mask per distinct offset (the execution plan)."""
    if n < 1:
        raise ConfigError(f"n: sequence length must be >= 1, got {n}")
    base = np.arange(n)
    if user_mask is not None:
        user_mask = np.asarray(user_mask, dtype=bool)
    maps = []
    for offset, kind in offset_plan(config):
        target = base + offset
        valid = (target >= 0) & (target < n)
        if config.causal and offset > 0:
            valid &= False
        if user_mask is not None:
            valid &= user_mask[np.clip(target, 0, n - 1)]
        rows = np.flatnonzero(valid)
        lo, hi = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
        maps.append(GatherMap(offset=offset, kind=kind, lo=lo, hi=hi, valid=valid))
    if not np.any([m.valid for m in maps], axis=0).all():
        bad = int(np.argmin(np.any([m.valid for m in maps], axis=0)))
        raise EmptyNeighborhoodError(f"empty neighborhood at token {bad}")
    return maps


def count_score_slots(union: UnionNeighborhood) -> int:
    """Total valid union slots; the attention path scores exactly this many."""
    return sum(sum(e.valid for e in row) for row in union.entries)


def union_from_schedule(maps: List[GatherMap], n: int) -> UnionNeighborhood:
    """Reconstruct per-token entries from the gather plan (consistency check)."""
    entries: List[List[NeighborEntry]] = [[] for _ in range(n)]
    for m in maps:
        for i in range(n):
            entries[i].append(NeighborEntry(target=min(max(i + m.offset, 0), n - 1),
                                            offset=m.offset, kind=m.kind,
                                            valid=bool(m.valid[i])))
    return UnionNeighborhood(n=n, entries=entries)


def union_table_csv(union: UnionNeighborhood) -> str:
    """CSV dump: token,offset,kind,valid."""
    buf = io.StringIO()
    buf.write("token,offset,kind,valid\n")
    for i, row in enumerate(union.entries):
        for e in row:
            buf.write(f"{i},{e.offset},{e.kind.value},{int(e.valid)}\n")
    return buf.getvalue()
