"""Sparse footprint construction: ring window, periodic skip links, and the
union neighborhood each token's single softmax runs over.

`offset_plan` holds the rules; `slot_layout` is its n-independent array form
(offsets and RING flags), read by decoding, `rfield` and `perf`.
  * `build_union` — per-token lists of (target, offset, kind, valid) entries,
    the ground truth the dense oracle and `validate-config`'s union table read;
  * `gather_schedule` — the `ExecutionPlan` of one (config, n), built once
    and read by the kernel and the KL check.

Ring rule: the ring is one window of consecutive offsets that holds the
token's own slot, -k ... 0 when causal and -k ... k otherwise.

Overlap rule: if the skip stride lands inside the ring window the duplicate
slot is kept once as a RING member (the ring log-prior applies).

Causal rule: a causal plan holds no positive offset, so no slot of the
execution plan is dead by causality. `build_union` (and the dense oracle
built from it) still apply their own causal test, since they are the check.

Every ring holds offset 0, so every token has at least one valid slot, its
own, and a slot is valid exactly where its key row lies in [0, n).
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

ABLATIONS = ("full", "no_skip", "no_gate")


class ConfigError(ValueError):
    """Invalid configuration or input; message names the offending field."""


def from_dict(cls, raw, where: str, defaults: Optional[dict] = None):
    """Config dataclass `cls` from the JSON object `raw` at the dotted path
    `where`; a field `raw` omits takes its value from `defaults`, else from
    the class. Raises ConfigError naming the dotted field on unknown keys,
    missing required fields, wrong JSON types (a bool is not an int, an int
    passes for a float, Optional takes null) and the class's own checks. A
    dataclass field recurses, with its entry of `defaults` as its defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    defaults = defaults or {}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")
    values = {}
    for f in dataclasses.fields(cls):
        at, hint = f"{where}.{f.name}", hints[f.name]
        value = raw.get(f.name, defaults.get(f.name, f.default))
        if value is dataclasses.MISSING:
            raise ConfigError(f"{at}: missing required field")
        if dataclasses.is_dataclass(hint):
            value = from_dict(hint, value, at, defaults.get(f.name))
        elif not any(type(value) is t or (t is float and type(value) is int)
                     for t in typing.get_args(hint) or (hint,)):
            raise ConfigError(f"{at}: expected {getattr(hint, '__name__', hint)}, "
                              f"got {value!r}")
        values[f.name] = value
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from None


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
    eps: float = 1e-4            # gate clip: alpha -> (1-2*eps)*alpha + eps
    logit_clamp: float = 20.0    # scores bounded to [-logit_clamp, logit_clamp]
    ablation: str = "full"

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def __post_init__(self) -> None:
        if self.d_model < 1:
            raise ConfigError("d_model: must be >= 1")
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
        if not self.logit_clamp > 0:  # NaN fails; inf (no clamp) passes
            raise ConfigError("logit_clamp: must be > 0")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation: unknown value {self.ablation!r}")


class NeighborEntry(NamedTuple):
    target: int
    offset: int
    kind: Kind
    valid: bool


@dataclass
class UnionNeighborhood:
    n: int
    entries: List[List[NeighborEntry]]

    @cached_property
    def dense_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(allowed, ring_pair): read-only (n, n) bool masks, [i, j] set when
        token i has a valid entry targeting j (of kind RING for ring_pair).
        Built from `entries` on first use; the entries must not change after."""
        allowed = np.zeros((self.n, self.n), dtype=bool)
        ring_pair = np.zeros((self.n, self.n), dtype=bool)
        for i, row in enumerate(self.entries):
            for e in row:
                if e.valid:
                    allowed[i, e.target] = True
                    if e.kind == Kind.RING:
                        ring_pair[i, e.target] = True
        allowed.flags.writeable = False
        ring_pair.flags.writeable = False
        return allowed, ring_pair


def offset_plan(config: AttentionConfig) -> List[tuple]:
    """Ordered (offset, kind) list after ablation, causality and overlap
    resolution. The ring comes first, its offsets in increasing order from -k
    to 0 (causal) or k; a causal plan's skip stride is always backward."""
    ring = range(-config.ring_k, (0 if config.causal else config.ring_k) + 1)
    plan = [(o, Kind.RING) for o in ring]
    if config.ablation != "no_skip":
        skips = [-config.skip_period]
        if config.bidirectional_skip:
            skips.append(config.skip_period)
        # skip stride inside the ring window: keep the slot once, as RING
        plan += [(o, Kind.SKIP) for o in skips if o not in ring]
    return plan


def slot_layout(config: AttentionConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The n-independent part of the plan: `offset_plan`'s offsets and RING
    flags, read-only (O,) arrays. The ring's reach is always `config.ring_k`."""
    plan = offset_plan(config)
    offsets = np.array([o for o, _ in plan], dtype=np.int64)
    ring = np.array([kind == Kind.RING for _, kind in plan], dtype=bool)
    offsets.flags.writeable = ring.flags.writeable = False
    return offsets, ring


class Slot(NamedTuple):
    offset: int
    kind: Kind
    valid: np.ndarray  # (n,) bool, a row view of the plan's validity


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """What the sparse kernel reads of (config, n). Row i of slot s reads key
    row i + offsets[s] and counts where valid[s, i], that is over the slot's
    span. Iterating gives one `Slot` per offset, in slot order."""

    offsets: np.ndarray  # (O,) int, read-only
    ring: np.ndarray     # (O,) bool, read-only
    valid: np.ndarray    # (O, n) bool, read-only
    spans: Tuple[Tuple[int, int], ...]  # per slot, the rows [lo, hi) whose key row lies in [0, n)
    # the slots [s0, s1) of the RING offsets with |offset| < n, -P ... 0 (causal)
    # or -P ... P, run as one `_band`, and that margin P = min(k, n - 1)
    band: Tuple[int, int]
    pad: int
    skips: Tuple[Tuple[int, int], ...]  # (slot, offset) of each SKIP slot
    n: int
    n_valid: int

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self) -> Iterator[Slot]:
        for s, o in enumerate(self.offsets.tolist()):
            yield Slot(o, Kind.RING if self.ring[s] else Kind.SKIP, self.valid[s])


def build_union(config: AttentionConfig, n: int) -> UnionNeighborhood:
    """Per-token union of ring and skip targets with bounds/causal masking."""
    if n < 1:
        raise ConfigError(f"n: sequence length must be >= 1, got {n}")
    plan = offset_plan(config)
    causal = config.causal
    entries: List[List[NeighborEntry]] = []
    for i in range(n):
        row = []
        for offset, kind in plan:
            j = i + offset
            valid = 0 <= j < n and not (causal and j > i)
            row.append(NeighborEntry(min(max(j, 0), n - 1), offset, kind, valid))
        entries.append(row)
    return UnionNeighborhood(n=n, entries=entries)


def gather_schedule(config: AttentionConfig, n: int) -> ExecutionPlan:
    """The execution plan of (config, n)."""
    if n < 1:
        raise ConfigError(f"n: sequence length must be >= 1, got {n}")
    offsets, ring = slot_layout(config)
    lo = np.clip(-offsets, 0, n)
    hi = np.maximum(lo, np.clip(n - offsets, 0, n))
    rows = np.arange(n)
    valid = (rows >= lo[:, None]) & (rows < hi[:, None])
    valid.flags.writeable = False
    # ring slot s holds offset s - k; the band is the ring slots with |offset| < n
    k = config.ring_k
    pad = min(k, n - 1)
    return ExecutionPlan(offsets, ring, valid, tuple(zip(lo.tolist(), hi.tolist())),
                         (k - pad, k + 1 + (0 if config.causal else pad)), pad,
                         tuple((s, o) for s, o in enumerate(offsets.tolist()) if not ring[s]),
                         n, int(valid.sum()))


def count_score_slots(union: UnionNeighborhood) -> int:
    """Total valid union slots; the attention path scores exactly this many."""
    return sum(sum(e.valid for e in row) for row in union.entries)

