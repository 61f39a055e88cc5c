"""Training loop: mean token cross-entropy, AdamW with decoupled weight decay
at a constant learning rate and the standard β = (0.9, 0.999) and ε = 1e-8,
global-norm clipping, toy tasks that isolate the skip path, checkpoints, and
a CSV metrics log.

Tasks:
  * copy_at_pi — targets[i] = inputs[i - delay]; solvable only when the delay
    is inside the stack's receptive field, which makes the skip path's
    contribution an analytic fact rather than a benchmark anecdote;
  * char_lm    — next-character prediction over a plain-text corpus.

Each training step splits its batch into two fixed halves by `split.halves`,
rows [0, ⌈B/2⌉) and the rest, and runs them as the two parts of a
`split.Sibling`: the caller runs forward, loss and backward on the first
while the sibling, a process forked at the first step, runs the second.
Each half's loss divides by the whole batch's count of scored targets, so
the step's loss and gradient are the first half's plus the second's, added
in that order. Two processes, not two threads: at these sizes two threads of
one process spend the step handing the interpreter lock back and forth.
The parameters are views of one flat vector in anonymous shared memory
(`model.bind_params`), so the sibling reads each step's parameters, updated
in place by the caller's AdamW, without a copy, and it writes its flat
gradient into a second shared vector. Those two vectors are all that is
shared: the sibling's half of the rows travels down its pipe with each
command, and only its loss comes back. Clipping, AdamW, the half-sum and
the finiteness check work on the flat vectors.

Where the `split` rule forks nothing (one CPU, no `os.fork`, or a `train`
call made inside a half), both halves run on the caller, in the same order,
so outputs depend on neither the CPU count nor process scheduling. The
sibling exits before `train` returns or raises, and an exception in its half
is raised in the caller. `evaluate` splits the rows of its batches the same
way, its second half in the sibling when `train` calls it. The attention
calls inside either half run inline.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (ModelConfig, ModelParams, bind_params, flatten, init_model,
                    model_backward, model_forward, param_shapes)
from .neighborhood import ConfigError, from_dict, gather_schedule
from .numerics import NonFiniteError, Rng, softmax_row
from .split import Sibling, halves

IGNORE_INDEX = -1
# AdamW's moment decay rates and denominator floor (Loshchilov & Hutter 2019)
BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8


class TrainDivergedError(NonFiniteError):
    """A training run met a non-finite loss, gradient or activation."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    batch_size: int = 16
    steps: int = 1000
    seed: int = 0
    eval_interval: int = 50
    stop_accuracy: Optional[float] = None  # early exit once eval accuracy reaches this

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison
        for name, low in (("lr", 0), ("weight_decay", 0), ("batch_size", 1), ("steps", 1),
                          ("eval_interval", 1)):
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name}: must be >= {low}")
        if not self.clip_norm > 0:
            raise ConfigError("clip_norm: must be > 0")
        for name in ("lr", "weight_decay"):
            if getattr(self, name) == math.inf:
                raise ConfigError(f"{name}: must be finite")


@dataclass(frozen=True)
class TaskSpec:
    kind: str                 # copy_at_pi | char_lm
    vocab: int
    seq_len: int
    delay: int = 8            # copy_at_pi
    corpus_path: Optional[str] = None  # char_lm

    def __post_init__(self) -> None:
        if self.kind not in ("copy_at_pi", "char_lm"):
            raise ConfigError(f"kind: unknown task {self.kind!r}")
        if self.kind == "copy_at_pi" and not 1 <= self.delay <= self.seq_len - 1:
            raise ConfigError(f"delay: must lie in [1, seq_len - 1] for {self.kind}")


# what `ringskip train` runs: the value of each section or field a config file omits
CONFIG_DEFAULTS = {
    "model": {"layers": 2, "d_model": 64, "n_heads": 4, "d_ff": 128,
              "vocab": 16, "max_seq": 32,
              "attention": {"d_model": 64, "n_heads": 4, "ring_k": 2,
                            "skip_period": 8}},
    "task": {"vocab": 16, "seq_len": 32, "delay": 8},
    "train": {"steps": 3000, "batch_size": 16, "eval_interval": 50,
              "stop_accuracy": 0.995},
}


def load_config(raw, kind: str, seed: int) -> Tuple[ModelConfig, TaskSpec, TrainConfig]:
    """(model, task, train) configs from a JSON object of optional `model`,
    `task` and `train` sections, each omitted section or field taken from
    CONFIG_DEFAULTS. The task kind and the seed come from the caller only."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown section")

    def section(cls, name: str, **owned):
        given = raw.get(name, {})
        clash = sorted(set(owned) & set(given)) if isinstance(given, dict) else []
        if clash:
            raise ConfigError(f"{name}.{clash[0]}: set by --task or --seed, "
                              "not by the config file")
        return from_dict(cls, given, name, {**CONFIG_DEFAULTS[name], **owned})

    return (section(ModelConfig, "model"), section(TaskSpec, "task", kind=kind),
            section(TrainConfig, "train", seed=seed))


def cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    count: Optional[int] = None,
) -> Tuple[float, np.ndarray]:
    """Token NLL summed over the positions whose target is not IGNORE_INDEX
    and divided by `count` (default: their number, the mean), plus
    dLoss/dlogits. A shard of a batch passes the whole batch's count, so the
    shards' losses and gradients sum to the batch's."""
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = np.asarray(targets).reshape(-1)
    keep = tgt != IGNORE_INDEX
    if count is None:
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


def count_correct(logits: np.ndarray, targets: np.ndarray) -> Tuple[int, int]:
    """(argmax hits, counted targets) over the targets that are not ignored."""
    keep = targets != IGNORE_INDEX
    return int((logits.argmax(axis=-1)[keep] == targets[keep]).sum()), int(keep.sum())


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def global_norm(grads: np.ndarray, cuts: Sequence[int] = ()) -> float:
    """Euclidean norm of the flat vector `grads`, whose arrays meet at the
    offsets `cuts`. Each array's squares are summed on their own and those
    sums added in order, so the norm is, bit for bit, the one taken array by
    array: numpy sums each run pairwise, and one run over the whole vector
    would group the terms differently."""
    squares = grads * grads
    return float(np.sqrt(sum(float(part.sum()) for part in np.split(squares, cuts))))


def clip_by_global_norm(grads: np.ndarray, max_norm: float, cuts: Sequence[int] = ()) -> float:
    """Scales the flat vector `grads` in place to norm `max_norm` when its
    `global_norm` is larger; returns that norm."""
    norm = global_norm(grads, cuts)
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self) -> None:
        # two vectors of working space, so that a step allocates nothing
        self.work = np.empty((2,) + self.m.shape)

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adamw_step(params: np.ndarray, grads: np.ndarray, state: AdamState, tc: TrainConfig) -> None:
    """In-place AdamW update of the flat vector `params` at `tc.lr` with
    decoupled weight decay; `grads` must already be clipped. Rejects a
    non-finite gradient."""
    finite = np.isfinite(grads)
    if not finite.all():
        raise TrainDivergedError(f"non-finite gradient at index {int(np.argmin(finite))}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    m, v, (a, b) = state.m, state.v, state.work
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), then p -= lr * wd * p, one
    # operation at a time in that order
    m *= BETA1
    m += np.multiply(grads, 1 - BETA1, out=a)
    v *= BETA2
    np.multiply(grads, 1 - BETA2, out=a)
    v += np.multiply(a, grads, out=a)
    np.multiply(np.divide(m, bc1, out=a), tc.lr, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    params -= np.divide(a, b, out=a)
    if tc.weight_decay > 0:
        params -= np.multiply(params, tc.lr * tc.weight_decay, out=a)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

DEFAULT_CORPUS = Path(__file__).parent / "data" / "corpus.txt"


def load_corpus(task: TaskSpec) -> np.ndarray:
    """The char_lm corpus as token ids. It must hold at least seq_len + 2
    bytes, so that `make_batch` has a start to draw and a target after it."""
    path = Path(task.corpus_path) if task.corpus_path else DEFAULT_CORPUS
    if not path.exists():
        raise FileNotFoundError(f"char_lm corpus not found: {path}")
    data = path.read_text(encoding="utf-8").encode("utf-8")
    if len(data) < task.seq_len + 2:
        raise ConfigError(f"task.corpus_path: {path} holds {len(data)} bytes, "
                          f"char_lm needs at least seq_len + 2 = {task.seq_len + 2}")
    return np.frombuffer(data, dtype=np.uint8) % task.vocab


def make_batch(task: TaskSpec, rng: Rng, batch_size: int,
               corpus: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded (inputs, targets) pair, both (B, seq_len) int64."""
    n, v = task.seq_len, task.vocab
    if task.kind == "copy_at_pi":
        inp = rng.integers(0, v, (batch_size, n))
        tgt = np.full((batch_size, n), IGNORE_INDEX, dtype=np.int64)
        tgt[:, task.delay:] = inp[:, :n - task.delay]
        return inp, tgt
    # char_lm
    if corpus is None:
        corpus = load_corpus(task)
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


# attention options that no longer exist, each with the one value a checkpoint
# header may still carry for it: the value that made the model the one this
# code runs. Any other value is an unknown field.
REMOVED_ATTENTION_FIELDS = {"dropout_p": 0.0, "static_alpha_value": 0.5,
                            "gate_on_query": False, "clamp_after_prior": False,
                            "include_self": True}
# ablations that no longer exist, each with the attention fields that give the
# same model
REMOVED_ABLATIONS = {"static_alpha": {"ablation": "no_gate"},
                     "no_ring": {"ablation": "full", "ring_k": 0}}


def _without_removed_options(model):
    """The header's model config without the removed attention fields that
    hold their one accepted value and with a removed ablation replaced by the
    fields of the model it equals; anything else is returned as it is."""
    att = model.get("attention") if isinstance(model, dict) else None
    if not isinstance(att, dict):
        return model
    kept = dict(att)
    for key, old in REMOVED_ATTENTION_FIELDS.items():
        # 0 == False, so a bool must meet a bool
        if (key in kept and kept[key] == old
                and isinstance(kept[key], bool) == isinstance(old, bool)):
            del kept[key]
    if isinstance(kept.get("ablation"), str):
        kept.update(REMOVED_ABLATIONS.get(kept["ablation"], {}))
    return {**model, "attention": kept}


def load_checkpoint(path: Path) -> Tuple[ModelConfig, ModelParams, int]:
    """Read a checkpoint. Every fault in the file raises ConfigError naming it:
    a header that is not UTF-8 JSON, lacks `seed`, `model` or `arrays`, holds
    an invalid model config, lists other arrays or shapes than the model's, or
    a file length that is not what the header's shapes need (a truncated file
    or trailing bytes). All of it is checked before any model array is made.
    A header may still list the attention fields of REMOVED_ATTENTION_FIELDS,
    each at its accepted value, and an ablation of REMOVED_ABLATIONS."""
    blob = Path(path).read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"checkpoint {path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != "ringskip-ckpt-v1":
        raise ConfigError(f"unrecognized checkpoint format in {path}")
    missing = [key for key in ("seed", "model", "arrays") if key not in header]
    if missing:
        raise ConfigError(f"checkpoint {path}: header lacks {', '.join(missing)}")
    try:
        seed = int(header["seed"])
        specs = [(str(a["name"]), tuple(int(s) for s in a["shape"])) for a in header["arrays"]]
        cfg = from_dict(ModelConfig, _without_removed_options(header["model"]), "model")
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: bad header ({exc!r})") from None
    expected = 8 + hlen + 8 * sum(math.prod(shape) for _, shape in specs)
    if len(blob) != expected:
        raise ConfigError(f"checkpoint {path} is {len(blob)} bytes, its header says {expected}")
    # shapes before arrays; every layer has arrays, so more layers than specs fail
    shapes = param_shapes(cfg) if cfg.layers <= len(specs) else {}
    odd = sorted(set(shapes.items()).symmetric_difference(specs))
    if odd:
        raise ConfigError(f"checkpoint {path}: header and model arrays differ: "
                         + ", ".join(f"{name} {shape}" for name, shape in odd))
    stored = dict(zip((name for name, _ in specs), np.split(
        np.frombuffer(blob, dtype="<f8", offset=8 + hlen),
        np.cumsum([math.prod(shape) for _, shape in specs])[:-1])))
    vec = np.concatenate([stored[name] for name in shapes], dtype=np.float64)
    return cfg, bind_params(cfg, vec), seed


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    metrics: List[dict]           # step, loss, accuracy
    final_accuracy: float
    tokens_per_sec: float         # over the training steps, evaluation excluded
    sibling_peak_rss_mb: Optional[float] = None  # None when both halves ran on the caller


# the batches `evaluate` draws
EVAL_BATCHES = 4


def _shared(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory: a process forked after it is
    made reads and writes the same pages."""
    size = math.prod(shape)
    buf = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype, size).reshape(shape)


def _half_step(params: ModelParams, cfg: ModelConfig, schedule, inp: np.ndarray,
               tgt: np.ndarray, count: int, grad: np.ndarray) -> Tuple[float, ModelParams]:
    """Loss of one half of a batch, its flat gradient written into `grad`,
    both scaled by 1 / count, and the gradient tree it was copied from."""
    logits, mcache = model_forward(inp, params, cfg, schedule)
    loss, d_logits = cross_entropy(logits, tgt, count=count)
    tree = model_backward(params, cfg, mcache, d_logits)
    np.concatenate([g.ravel() for g in flatten(tree).values()], out=grad)
    return loss, tree


def _score(params: ModelParams, cfg: ModelConfig, schedule,
           batches: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[int, int]:
    """(argmax hits, counted targets) summed over `batches`."""
    correct = total = 0
    for inp, tgt in batches:
        # the cache is not kept: a name bound to it would hold it through the next forward
        logits = model_forward(inp, params, cfg, schedule)[0]
        hits, counted = count_correct(logits, tgt)
        correct += hits
        total += counted
    return correct, total


class _Halves:
    """The two halves of each batch of one `train` call, run as the parts of
    a `split.Sibling`: rows [0, ⌈B/2⌉) on the caller, the rest in the
    sibling, or on the caller after the first where nothing is forked.

    `params` must be views of shared memory: the sibling reads the caller's
    in-place updates through them. Each command carries its half's rows.
    Half h writes its flat gradient into `grads[h]`: `grad` for the caller's
    half, an array in shared memory for the sibling's, so the sibling
    returns only its loss or its (hits, counted) over the pipe.

    Each half's last gradient tree is held until its next step. Freed at
    once, above the step's other freed arrays, it would leave the heap's top
    free, and glibc would hand those pages back and fault them in again on
    every step: on `train --task copy`, 2 CPUs, about ten times the minor
    faults and 8.6 against 7.3 ms a step."""

    def __init__(self, params: ModelParams, cfg: ModelConfig, schedule, grad: np.ndarray):
        self.params, self.cfg, self.schedule = params, cfg, schedule
        self.grads = [grad, _shared(grad.shape, np.float64)]
        self._trees = [None, None]  # each half's last
        self.sibling = Sibling(self._run)

    def _run(self, half: int, kind: str, batches: List[Tuple[np.ndarray, np.ndarray]],
             count: int = 0):
        """One half: a step's loss, or an evaluation's (hits, counted)."""
        if kind == "score":
            return _score(self.params, self.cfg, self.schedule, batches)
        (inp, tgt), = batches
        loss, self._trees[half] = _half_step(self.params, self.cfg, self.schedule, inp, tgt,
                                             count, self.grads[half])
        return loss

    def step(self, inp: np.ndarray, tgt: np.ndarray) -> float:
        """A batch's loss, its flat gradient written into `grads[0]`: the first
        half's plus the second's, added in that order."""
        count = int((tgt != IGNORE_INDEX).sum())
        loss, *rest = self.sibling.parts([(half, "step", [(inp[rows], tgt[rows])], count)
                                          for half, rows in enumerate(halves(len(inp)))])
        for other in rest:
            loss += other
            self.grads[0] += self.grads[1]
        return loss

    def score(self, parts: List[List[Tuple[np.ndarray, np.ndarray]]]) -> List[Tuple[int, int]]:
        """`_score` of each half's (inputs, targets) pairs, in half order."""
        return self.sibling.parts([(half, "score", part) for half, part in enumerate(parts)])


def train(
    cfg: ModelConfig,
    task: TaskSpec,
    tc: TrainConfig,
    out_dir: Optional[Path] = None,
) -> TrainResult:
    """Seeded end-to-end run. Writes metrics.csv and model.ckpt under out_dir,
    unless it diverges: then TrainDivergedError names the step."""
    if task.vocab != cfg.vocab:
        raise ConfigError(f"task.vocab: {task.vocab} differs from model.vocab {cfg.vocab}")
    if task.seq_len > cfg.max_seq:
        raise ConfigError(f"task.seq_len: {task.seq_len} exceeds model.max_seq {cfg.max_seq}")
    start = flatten(init_model(cfg, seed=tc.seed))
    vec = _shared((sum(a.size for a in start.values()),), np.float64)
    np.concatenate([a.ravel() for a in start.values()], out=vec)
    cuts = np.cumsum([a.size for a in start.values()])[:-1]
    del start
    params = bind_params(cfg, vec)
    grad = np.empty_like(vec)
    state = AdamState.for_params(vec)
    data_rng = Rng(tc.seed).spawn(1)
    eval_rng_seed = Rng(tc.seed).spawn(2).seed
    schedule = gather_schedule(cfg.attention, task.seq_len)
    corpus = load_corpus(task) if task.kind == "char_lm" else None

    metrics: List[dict] = []
    acc = float("nan")
    tokens, busy = 0, 0.0
    runner = _Halves(params, cfg, schedule, grad)
    try:
        # the checks below report a diverging run, so numpy's own warnings stay off
        with np.errstate(all="ignore"), runner.sibling:
            for step in range(tc.steps):
                t0 = time.perf_counter()
                inp, tgt = make_batch(task, data_rng, tc.batch_size, corpus)
                loss = runner.step(inp, tgt)
                if not np.isfinite(loss):
                    raise TrainDivergedError(f"loss {loss}")
                clip_by_global_norm(grad, tc.clip_norm, cuts)
                adamw_step(vec, grad, state, tc)
                busy += time.perf_counter() - t0
                tokens += inp.size

                if step % tc.eval_interval == 0 or step == tc.steps - 1:
                    acc = evaluate(params, cfg, task, schedule, seed=eval_rng_seed,
                                   batch_size=tc.batch_size, corpus=corpus, runner=runner)
                    metrics.append({"step": step, "loss": loss, "accuracy": acc})
                    if tc.stop_accuracy is not None and acc >= tc.stop_accuracy:
                        break
    except NonFiniteError as exc:  # from either half: one error that names the step
        raise TrainDivergedError(f"diverged at step {step}: {exc}") from exc

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w") as f:
            f.write("step,loss,accuracy\n")
            for m in metrics:
                f.write(f"{m['step']},{m['loss']:.17g},{m['accuracy']:.17g}\n")
        save_checkpoint(out_dir / "model.ckpt", cfg, params, tc.seed)
    return TrainResult(params=params, metrics=metrics, final_accuracy=acc,
                       tokens_per_sec=tokens / busy,
                       sibling_peak_rss_mb=runner.sibling.peak_rss_mb)


def evaluate(
    params: ModelParams,
    cfg: ModelConfig,
    task: TaskSpec,
    schedule=None,
    seed: int = 1234,
    batch_size: int = 16,
    corpus: Optional[np.ndarray] = None,
    runner: Optional[_Halves] = None,
) -> float:
    """Token accuracy on EVAL_BATCHES freshly sampled batches with a fixed
    seed. All batches are drawn first; the caller scores the first half of
    each batch's rows, then the rest, or `runner`, the halves of a `train`
    call, scores both at once. So no more rows are in flight at once than in
    one batch."""
    rng = Rng(seed)
    if corpus is None and task.kind == "char_lm":
        corpus = load_corpus(task)
    if schedule is None:
        schedule = gather_schedule(cfg.attention, task.seq_len)
    batches = [make_batch(task, rng, batch_size, corpus) for _ in range(EVAL_BATCHES)]
    parts = [[(inp[rows], tgt[rows]) for inp, tgt in batches] for rows in halves(batch_size)]
    scores = (runner.score(parts) if runner is not None
              else [_score(params, cfg, schedule, part) for part in parts])
    return sum(c for c, _ in scores) / sum(t for _, t in scores)
