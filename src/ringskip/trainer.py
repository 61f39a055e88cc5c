"""Training loop: mean token cross-entropy, AdamW with decoupled weight decay
and global-norm clipping, toy tasks that isolate the skip path, checkpoints,
and a CSV metrics log.

Tasks:
  * copy_at_pi      — targets[i] = inputs[i - delay]; solvable only when the
    delay is inside the stack's receptive field, which makes the skip path's
    contribution an analytic fact rather than a benchmark anecdote;
  * needle_retrieval — a key token sits exactly one skip stride before a query
    marker; the target at the marker is the key;
  * char_lm         — next-character prediction over a plain-text corpus.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .model import ModelConfig, ModelParams, flatten, init_model, model_backward, model_forward
from .neighborhood import AttentionConfig, gather_schedule
from .numerics import Rng, softmax_row

IGNORE_INDEX = -1


class TrainDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    batch_size: int = 16
    steps: int = 1000
    warmup_steps: int = 0
    seed: int = 0
    eval_interval: int = 50
    cosine_decay: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    stop_accuracy: Optional[float] = None  # early exit once eval accuracy reaches this

    def validate(self) -> None:
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr/weight_decay must be nonnegative")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if min(self.batch_size, self.steps, self.eval_interval) < 1:
            raise ValueError("batch_size/steps/eval_interval must be >= 1")


@dataclass(frozen=True)
class TaskSpec:
    kind: str                 # copy_at_pi | needle_retrieval | char_lm
    vocab: int
    seq_len: int
    delay: int = 8            # copy_at_pi
    corpus_path: Optional[str] = None  # char_lm

    def validate(self) -> None:
        if self.kind not in ("copy_at_pi", "needle_retrieval", "char_lm"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "copy_at_pi" and not 1 <= self.delay <= self.seq_len - 1:
            raise ValueError("copy_at_pi: delay must lie in [1, seq_len - 1]")


def cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    ignore_index: int = IGNORE_INDEX,
) -> Tuple[float, np.ndarray]:
    """Mean token NLL over non-ignored positions, plus dLoss/dlogits."""
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = np.asarray(targets).reshape(-1)
    keep = tgt != ignore_index
    count = int(keep.sum())
    if count == 0:
        raise ValueError("cross_entropy: every position is ignored")
    probs = softmax_row(flat)
    idx = np.where(keep, tgt, 0)
    nll = -np.log(probs[np.arange(flat.shape[0]), idx])
    loss = float(nll[keep].sum() / count)
    grad = probs.copy()
    grad[np.arange(flat.shape[0]), idx] -= 1.0
    grad[~keep] = 0.0
    grad /= count
    return loss, grad.reshape(logits.shape)


def token_accuracy(logits: np.ndarray, targets: np.ndarray,
                   ignore_index: int = IGNORE_INDEX) -> float:
    tgt = np.asarray(targets)
    keep = tgt != ignore_index
    pred = logits.argmax(axis=-1)
    return float((pred[keep] == tgt[keep]).mean())


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def global_norm(grads: Dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def clip_by_global_norm(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def lr_at(step: int, tc: TrainConfig) -> float:
    """Warmup then optional cosine decay to zero at tc.steps."""
    lr = tc.lr
    if tc.warmup_steps > 0 and step < tc.warmup_steps:
        return lr * (step + 1) / tc.warmup_steps
    if tc.cosine_decay:
        frac = (step - tc.warmup_steps) / max(1, tc.steps - tc.warmup_steps)
        return lr * 0.5 * (1.0 + np.cos(np.pi * min(frac, 1.0)))
    return lr


def adamw_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    state: AdamState,
    tc: TrainConfig,
    lr: Optional[float] = None,
) -> None:
    """In-place AdamW update with decoupled weight decay; grads must already
    be clipped. Rejects non-finite gradients."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainDivergedError(f"non-finite gradient in {name}")
    if lr is None:
        lr = tc.lr
    state.t += 1
    b1, b2 = tc.beta1, tc.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + tc.adam_eps)
        if tc.weight_decay > 0:
            p -= lr * tc.weight_decay * p


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

DEFAULT_CORPUS = Path(__file__).parent / "data" / "corpus.txt"


def load_corpus(task: TaskSpec) -> np.ndarray:
    path = Path(task.corpus_path) if task.corpus_path else DEFAULT_CORPUS
    if not path.exists():
        raise FileNotFoundError(f"char_lm corpus not found: {path}")
    text = path.read_text(encoding="utf-8")
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8) % task.vocab


def make_batch(task: TaskSpec, rng: Rng, batch_size: int,
               corpus: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded (inputs, targets) pair, both (B, seq_len) int64."""
    task.validate()
    n, v = task.seq_len, task.vocab
    if task.kind == "copy_at_pi":
        inp = rng.integers(0, v, (batch_size, n))
        tgt = np.full((batch_size, n), IGNORE_INDEX, dtype=np.int64)
        tgt[:, task.delay:] = inp[:, :n - task.delay]
        return inp, tgt
    if task.kind == "needle_retrieval":
        marker = v - 1
        inp = rng.integers(0, v - 1, (batch_size, n))
        tgt = np.full((batch_size, n), IGNORE_INDEX, dtype=np.int64)
        q = rng.integers(task.delay, n, (batch_size,))
        keys = rng.integers(0, v - 1, (batch_size,))
        for b in range(batch_size):
            inp[b, q[b]] = marker
            inp[b, q[b] - task.delay] = keys[b]
            tgt[b, q[b]] = keys[b]
        return inp, tgt
    # char_lm
    if corpus is None:
        corpus = load_corpus(task)
    if corpus.size <= n:
        raise ValueError("char_lm corpus shorter than sequence length")
    starts = rng.integers(0, corpus.size - n - 1, (batch_size,))
    inp = np.stack([corpus[s:s + n] for s in starts]).astype(np.int64)
    tgt = np.stack([corpus[s + 1:s + n + 1] for s in starts]).astype(np.int64)
    return inp, tgt


# ---------------------------------------------------------------------------
# checkpoints: JSON header + raw little-endian float64 arrays in header order
# ---------------------------------------------------------------------------


def save_checkpoint(path: Path, cfg: ModelConfig, params: ModelParams, seed: int) -> None:
    flat = flatten(params)
    header = {
        "format": "ringskip-ckpt-v1",
        "seed": seed,
        "model": dataclasses.asdict(cfg),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in flat.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        for v in flat.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path: Path) -> Tuple[ModelConfig, ModelParams, int]:
    """Read a checkpoint; ValueError naming the file when its length is not
    what the header's array shapes need (a truncated file or trailing bytes)."""
    blob = Path(path).read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    if header.get("format") != "ringskip-ckpt-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    expected = 8 + hlen + 8 * sum(int(np.prod(a["shape"])) for a in header["arrays"])
    if len(blob) != expected:
        raise ValueError(f"checkpoint {path} is {len(blob)} bytes, its header says {expected}")
    mc = dict(header["model"])
    mc["attention"] = AttentionConfig(**mc["attention"])
    cfg = ModelConfig(**mc)
    params = init_model(cfg, seed=0)
    flat = flatten(params)
    data = np.frombuffer(blob, dtype="<f8", offset=8 + hlen)
    for spec in header["arrays"]:
        arr = flat[spec["name"]]
        arr[...] = data[:arr.size].reshape(spec["shape"])
        data = data[arr.size:]
    return cfg, params, int(header["seed"])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    metrics: List[dict]           # step, loss, accuracy
    final_accuracy: float
    tokens_per_sec: float         # over the training steps, evaluation excluded


def train(
    cfg: ModelConfig,
    task: TaskSpec,
    tc: TrainConfig,
    out_dir: Optional[Path] = None,
) -> TrainResult:
    """Seeded end-to-end run. Writes metrics.csv and model.ckpt under out_dir."""
    cfg.validate()
    tc.validate()
    task.validate()
    if task.vocab != cfg.vocab:
        raise ValueError("task vocab and model vocab disagree")
    params = init_model(cfg, seed=tc.seed)
    flat = flatten(params)
    state = AdamState.for_params(flat)
    data_rng = Rng(tc.seed).spawn(1)
    eval_rng_seed = Rng(tc.seed).spawn(2).seed
    schedule = gather_schedule(cfg.attention, task.seq_len)
    corpus = load_corpus(task) if task.kind == "char_lm" else None

    metrics: List[dict] = []
    acc = float("nan")
    tokens, busy = 0, 0.0
    for step in range(tc.steps):
        t0 = time.perf_counter()
        inp, tgt = make_batch(task, data_rng, tc.batch_size, corpus)
        logits, mcache = model_forward(inp, params, cfg, schedule, train=True,
                                       rng=data_rng)
        loss, d_logits = cross_entropy(logits, tgt)
        if not np.isfinite(loss):
            raise TrainDivergedError(f"loss diverged at step {step}: {loss}")
        grads = flatten(model_backward(params, cfg, mcache, d_logits))
        clip_by_global_norm(grads, tc.clip_norm)
        adamw_step(flat, grads, state, tc, lr=lr_at(step, tc))
        busy += time.perf_counter() - t0
        tokens += inp.size

        if step % tc.eval_interval == 0 or step == tc.steps - 1:
            acc = evaluate(params, cfg, task, schedule, seed=eval_rng_seed,
                           batch_size=tc.batch_size, corpus=corpus)
            metrics.append({"step": step, "loss": loss, "accuracy": acc})
            if tc.stop_accuracy is not None and acc >= tc.stop_accuracy:
                break

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w") as f:
            f.write("step,loss,accuracy\n")
            for m in metrics:
                f.write(f"{m['step']},{m['loss']:.17g},{m['accuracy']:.17g}\n")
        save_checkpoint(out_dir / "model.ckpt", cfg, params, tc.seed)
    return TrainResult(params=params, metrics=metrics, final_accuracy=acc,
                       tokens_per_sec=tokens / busy)


def evaluate(
    params: ModelParams,
    cfg: ModelConfig,
    task: TaskSpec,
    schedule=None,
    seed: int = 1234,
    batch_size: int = 16,
    n_batches: int = 4,
    corpus: Optional[np.ndarray] = None,
) -> float:
    """Token accuracy on freshly sampled batches with a fixed seed."""
    rng = Rng(seed)
    if corpus is None and task.kind == "char_lm":
        corpus = load_corpus(task)
    correct = 0
    total = 0
    for _ in range(n_batches):
        inp, tgt = make_batch(task, rng, batch_size, corpus)
        logits, _ = model_forward(inp, params, cfg, schedule)
        keep = tgt != IGNORE_INDEX
        correct += int((logits.argmax(axis=-1)[keep] == tgt[keep]).sum())
        total += int(keep.sum())
    return correct / total
