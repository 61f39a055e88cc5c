"""The four benchmark workloads. Each one builds its inputs from the seed in
`setup`, runs one timed operation per `run_op` call, and checks that
operation's outputs in `check`, outside the timed interval.

An operation is the unit the end-to-end latency is taken over:
  train_copy     one `trainer.train` call (STEPS steps); latency is per step
  attn_long      causal then bidirectional forward+backward at n=4096
  decode_stream  one sequence of MAX_SEQ `decode_step` calls; latency is per token
  verify_suite   one pass over the verification commands
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _clock
from typing import Dict, List

import numpy as np

from ringskip import attention, checks, cli, decoder, model, neighborhood, perf, trainer
from ringskip.model import ModelConfig
from ringskip.neighborhood import AttentionConfig
from ringskip.numerics import Rng

# Tolerances of the acceptance gate (tests/test_acceptance.py); never looser.
ORACLE_TOL = 1e-10
GRAD_TOL = 1e-6
DECODE_TOL = 1e-8
TRAIN_ACC_FLOOR = 0.99


@dataclass
class OpResult:
    wall_s: float                 # timed seconds of the whole operation
    samples_s: List[float]        # latency samples, in the workload's unit
    items: int                    # tokens (or commands) completed
    output: object = None         # handed to check(), never timed
    parts_s: Dict[str, float] = field(default_factory=dict)
    net_s: float = 0.0            # the whole run_op call, less gauge passes in it
    calib_s: float = 0.0          # mean gauge pass seconds around the operation


class Workload:
    name = ""
    item_unit = "tokens"
    latency_unit = "op"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, k: int) -> OpResult:
        raise NotImplementedError

    def check(self, k: int, res: OpResult) -> List[str]:
        """Failure messages for operation k (empty when it is correct)."""
        return []

    def finish(self) -> List[str]:
        """Run-level checks after the last operation."""
        return []

    def counts(self) -> Dict[str, float]:
        """Exact work counts; identical on every run of the same code."""
        return {}

    def report(self, results: List[OpResult]) -> Dict[str, float]:
        """Workload-specific end-to-end figures for the printed report."""
        return {}

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures measured after the traced run (untimed)."""
        return {}


def percentile(values, q) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# train_copy
# ---------------------------------------------------------------------------


class TrainCopy(Workload):
    """`ringskip train --task copy` defaults, fixed step count, no early stop."""

    name = "train_copy"
    latency_unit = "train step"
    STEPS = 100

    def setup(self) -> None:
        att = AttentionConfig(d_model=64, n_heads=4, ring_k=2, skip_period=8)
        self.cfg = ModelConfig(layers=2, d_model=64, n_heads=4, d_ff=128,
                               vocab=16, max_seq=32, attention=att)
        self.task = trainer.TaskSpec(kind="copy_at_pi", vocab=16, seq_len=32, delay=8)
        self.tc = trainer.TrainConfig(steps=self.STEPS, batch_size=16,
                                      eval_interval=50, seed=self.seed,
                                      stop_accuracy=None)
        self.first_ckpt = None

    def run_op(self, k: int) -> OpResult:
        out = self.work_dir / f"train{k}"
        t0 = _clock()
        res = trainer.train(self.cfg, self.task, self.tc, out_dir=out)
        wall = _clock() - t0
        tokens = self.STEPS * self.tc.batch_size * self.task.seq_len
        return OpResult(wall, [wall / self.STEPS], tokens, (res, out))

    def check(self, k: int, res: OpResult) -> List[str]:
        result, out = res.output
        bad = []
        losses = [m["loss"] for m in result.metrics]
        if not np.isfinite(losses).all():
            bad.append(f"train op {k}: non-finite loss")
        if not result.final_accuracy >= TRAIN_ACC_FLOOR:
            bad.append(f"train op {k}: accuracy {result.final_accuracy:.4f} "
                       f"< floor {TRAIN_ACC_FLOOR}")
        ckpt = out / "model.ckpt"
        cfg, params, seed = trainer.load_checkpoint(ckpt)
        saved = model.flatten(result.params)
        loaded = model.flatten(params)
        if (cfg != self.cfg or seed != self.seed or saved.keys() != loaded.keys()
                or not all(np.array_equal(saved[n], loaded[n]) for n in saved)):
            bad.append(f"train op {k}: checkpoint does not round-trip bit-identically")
        blob = ckpt.read_bytes()
        if self.first_ckpt is None:
            self.first_ckpt = blob
        elif blob != self.first_ckpt:
            bad.append(f"train op {k}: checkpoint differs from op 0 (same seed)")
        self.final_accuracy = result.final_accuracy
        self.final_loss = losses[-1]
        shutil.rmtree(out, ignore_errors=True)
        res.output = None
        return bad

    def counts(self) -> Dict[str, float]:
        sched = neighborhood.gather_schedule(self.cfg.attention, self.task.seq_len)
        inp, _ = trainer.make_batch(self.task, Rng(self.seed), self.tc.batch_size)
        params = model.init_model(self.cfg, seed=self.seed)
        _, mcache = model.model_forward(inp, params, self.cfg, sched)
        attn = [b.attn for b in mcache.blocks]
        return {
            "neighborhood.slots_computed": self.task.seq_len * len(sched),
            "neighborhood.slots_valid": int(sum(m.valid.sum() for m in sched)),
            "attention.score_evals": sum(c.score_evals for c in attn),
            "attention.multiply_adds": sum(c.multiply_adds for c in attn),
        }

    def report(self, results: List[OpResult]) -> Dict[str, float]:
        wall = sum(r.net_s for r in results)
        return {
            "train.tokens_per_s": sum(r.items for r in results) / wall,
            "train.step_ms.p50_of_calls": 1e3 * percentile([r.samples_s[0] for r in results], 50),
            "train.final_accuracy": self.final_accuracy,
            "train.final_loss": self.final_loss,
        }


# ---------------------------------------------------------------------------
# attn_long
# ---------------------------------------------------------------------------


ATTN_CONFIGS = {
    "causal": AttentionConfig(d_model=64, n_heads=4, ring_k=4, skip_period=16,
                              causal=True),
    "bidir": AttentionConfig(d_model=64, n_heads=4, ring_k=4, skip_period=16,
                             causal=False, bidirectional_skip=True),
}


class AttnLong(Workload):
    """Sparse attention forward+backward at n=4096, B=2, causal and bidirectional."""

    name = "attn_long"
    latency_unit = "causal+bidir fwd+bwd"
    N, B, WINDOW = 4096, 2, 256

    def setup(self) -> None:
        self.cases = {}
        for i, (label, cfg) in enumerate(ATTN_CONFIGS.items()):
            rng = Rng(self.seed).spawn(i)
            proj, gate = checks.random_attention_params(rng, cfg.d_model, cfg.n_heads)
            x = rng.normal((self.B, self.N, cfg.d_model))
            d_out = rng.normal(x.shape)
            sched = neighborhood.gather_schedule(cfg, self.N)
            self.cases[label] = (cfg, proj, gate, x, d_out, sched)
        self.first = None
        self.count_cache = {}
        self.directional_rel_error = {}

    def run_op(self, k: int) -> OpResult:
        parts, outputs = {}, {}
        t_op = _clock()
        for label, (cfg, proj, gate, x, d_out, sched) in self.cases.items():
            t0 = _clock()
            out, cache = attention.pi_attention_forward(x, proj, gate, sched, cfg)
            t1 = _clock()
            grads = attention.pi_attention_backward(proj, gate, cache, d_out)
            t2 = _clock()
            parts[f"{label}.fwd"] = t1 - t0
            parts[f"{label}.bwd"] = t2 - t1
            outputs[label] = (out, grads, cache.score_evals, cache.multiply_adds)
        wall = _clock() - t_op
        return OpResult(wall, [wall], 2 * self.B * self.N, outputs, parts)

    def check(self, k: int, res: OpResult) -> List[str]:
        bad = []
        if self.first is None:
            self.first = res.output
            for label, (out, grads, evals, madds) in res.output.items():
                bad += self._check_oracle(label, out)
                bad += self._check_directional(label, grads)
                self.count_cache[label] = (evals, madds)
        else:
            for label, (out, grads, evals, madds) in res.output.items():
                out0, grads0, _, _ = self.first[label]
                same = np.array_equal(out, out0) and _tree_equal(grads, grads0)
                if not same:
                    bad.append(f"attn op {k} {label}: output differs from op 0 "
                               "on identical inputs")
                if (evals, madds) != self.count_cache[label]:
                    bad.append(f"attn op {k} {label}: work counters changed")
        res.output = None
        return bad

    def _check_oracle(self, label: str, out: np.ndarray) -> List[str]:
        cfg, proj, gate, x, _, _ = self.cases[label]
        n, w = self.N, self.WINDOW
        reach = max(cfg.ring_k, cfg.skip_period)
        mid = int(Rng(self.seed).spawn(50).integers(w, n - 2 * w))
        bad = []
        for w0 in (0, mid, n - w):
            w1 = w0 + w
            union = neighborhood.build_union(cfg, w)
            dense = attention.dense_oracle(x[:, w0:w1], proj, gate, union, cfg)
            lo = reach if w0 > 0 else 0
            hi = w - reach if w1 < n else w
            delta = float(np.abs(out[:, w0 + lo:w0 + hi] - dense[:, lo:hi]).max())
            if not delta < ORACLE_TOL:
                bad.append(f"attn {label}: rows {w0 + lo}..{w0 + hi} differ from "
                           f"dense_oracle by {delta:.3e} (tol {ORACLE_TOL})")
        return bad

    def _check_directional(self, label: str, grads) -> List[str]:
        """Central difference of sum(out * d_out) along a seeded joint
        direction over x, the projections and the gate."""
        cfg, proj, gate, x, d_out, sched = self.cases[label]
        d_x, g_proj, g_gate = grads
        rng = Rng(self.seed).spawn(60)
        params = {**{f"proj.{n}": a for n, a in model.flatten(proj).items()},
                  **{f"gate.{n}": a for n, a in model.flatten(gate).items()}}
        pgrads = {**{f"proj.{n}": a for n, a in model.flatten(g_proj).items()},
                  **{f"gate.{n}": a for n, a in model.flatten(g_gate).items()}}
        u = {n: rng.normal(a.shape) for n, a in params.items()}
        u_x = rng.normal(x.shape)
        norm = np.sqrt(sum(float((v * v).sum()) for v in u.values())
                       + float((u_x * u_x).sum()))
        analytic = (float((d_x * u_x).sum())
                    + sum(float((pgrads[n] * u[n]).sum()) for n in params)) / norm
        h = 1e-5

        def loss(sign: float) -> float:
            saved = {n: a.copy() for n, a in params.items()}
            for n, a in params.items():
                a += sign * h * u[n] / norm
            try:
                out, _ = attention.pi_attention_forward(
                    x + sign * h * u_x / norm, proj, gate, sched, cfg)
            finally:
                for n, a in params.items():
                    a[...] = saved[n]
            return float((out * d_out).sum())

        fd = (loss(1.0) - loss(-1.0)) / (2.0 * h)
        rel = abs(fd - analytic) / max(abs(analytic), 1e-300)
        self.directional_rel_error[label] = rel
        if not rel < GRAD_TOL:
            return [f"attn {label}: directional derivative relative error "
                    f"{rel:.3e} (tol {GRAD_TOL})"]
        return []

    def finish(self) -> List[str]:
        bad = []
        for label, (cfg, *_rest, sched) in self.cases.items():
            union_slots = neighborhood.count_score_slots(
                neighborhood.build_union(cfg, self.N))
            sched_slots = int(sum(m.valid.sum() for m in sched))
            evals = self.count_cache.get(label, (None,))[0]
            if not union_slots == sched_slots == evals:
                bad.append(f"attn {label}: valid slots disagree: union {union_slots}, "
                           f"schedule {sched_slots}, AttnCache {evals}")
        return bad

    def counts(self) -> Dict[str, float]:
        out = {}
        total_c = total_v = 0
        for label, (cfg, *_rest, sched) in self.cases.items():
            c = self.N * len(sched)
            v = int(sum(m.valid.sum() for m in sched))
            out[f"neighborhood.slots_computed.{label}"] = c
            out[f"neighborhood.slots_valid.{label}"] = v
            total_c, total_v = total_c + c, total_v + v
        out["neighborhood.slots_computed"] = total_c
        out["neighborhood.slots_valid"] = total_v
        out["attention.score_evals"] = sum(e for e, _ in self.count_cache.values())
        out["attention.multiply_adds"] = sum(m for _, m in self.count_cache.values())
        return out

    def report(self, results: List[OpResult]) -> Dict[str, float]:
        rep = {}
        for label in self.cases:
            fb = [r.parts_s[f"{label}.fwd"] + r.parts_s[f"{label}.bwd"] for r in results]
            rep[f"attn.{label}.fwd_bwd_ms.p50"] = 1e3 * percentile(fb, 50)
            rep[f"attn.{label}.fwd_ms.p50"] = 1e3 * percentile([r.parts_s[f"{label}.fwd"] for r in results], 50)
            rep[f"attn.{label}.bwd_ms.p50"] = 1e3 * percentile([r.parts_s[f"{label}.bwd"] for r in results], 50)
        rep["attn.tokens_per_s"] = sum(r.items for r in results) / sum(r.net_s for r in results)
        for label, rel in self.directional_rel_error.items():
            rep[f"attn.{label}.directional_rel_error"] = rel
        return rep

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Fit c1 and c2+c3 of `perf.cost_model_eval` to measured
        `pi_attention_forward` seconds over an (n, k) grid at d_h = 16.

        All rates are one setting (1e9), so the memory and activation terms
        are the same column n*d_h and only their sum c23 is identifiable.
        Predictions split c23 evenly over c2 and c3; they depend on the sum
        alone.
        """
        gamma = 1e9
        rows = []
        for n in (256, 512, 1024):
            for k in (1, 2, 4):
                cfg = AttentionConfig(d_model=64, n_heads=4, ring_k=k,
                                      skip_period=16, causal=True)
                rng = Rng(self.seed).spawn(100 + n + k)
                proj, gate = checks.random_attention_params(rng, 64, 4)
                x = rng.normal((self.B, n, 64))
                sched = neighborhood.gather_schedule(cfg, n)
                times = []
                for _ in range(5):
                    t0 = _clock()
                    attention.pi_attention_forward(x, proj, gate, sched, cfg)
                    times.append(_clock() - t0)
                rows.append((n, k, cfg.head_dim, float(np.median(times))))
        a = np.array([[n * k * dh / gamma, 2 * n * dh / gamma] for n, k, dh, _ in rows])
        y = np.array([s for *_, s in rows])
        (c1, c23_half), *_ = np.linalg.lstsq(a, y, rcond=None)
        c23 = 2.0 * c23_half
        if c1 > 0 and c23 > 0:
            cp = perf.CostParams(gamma_tc=gamma, gamma_hbm=gamma, gamma_net=gamma,
                                 gamma_act=gamma, c1=float(c1), c2=c23 / 2, c3=c23 / 2)
            pred = np.array([perf.cost_model_eval(cp, n, k, dh) for n, k, dh, _ in rows])
        else:
            pred = a @ np.array([c1, c23_half])
        resid = float(np.linalg.norm(pred - y) / np.linalg.norm(y))
        return {"perf.cost_fit.c1": float(c1), "perf.cost_fit.c23": float(c23),
                "perf.cost_fit.residual": resid}


def _tree_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_tree_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    fa, fb = model.flatten(a), model.flatten(b)
    return fa.keys() == fb.keys() and all(np.array_equal(fa[n], fb[n]) for n in fa)


# ---------------------------------------------------------------------------
# decode_stream
# ---------------------------------------------------------------------------


class DecodeStream(Workload):
    """One closed-loop client: seeded prompt, then greedy continuation to
    max_seq, one `decode_step` per token and one KVCache per sequence."""

    name = "decode_stream"
    latency_unit = "decoded token"
    PROMPT = 32

    def setup(self) -> None:
        att = AttentionConfig(d_model=64, n_heads=4, ring_k=4, skip_period=16,
                              causal=True)
        self.cfg = ModelConfig(layers=4, d_model=64, n_heads=4, d_ff=256,
                               vocab=64, max_seq=512, attention=att)
        self.params = model.init_model(self.cfg, seed=self.seed)
        self.prompt_rng = Rng(self.seed).spawn(3)
        self.rows_max = 0
        self.token_times_by_pos: List[List[float]] = []

    def run_op(self, k: int) -> OpResult:
        cfg, params = self.cfg, self.params
        prompt = self.prompt_rng.integers(0, cfg.vocab, (self.PROMPT,))
        cache = decoder.KVCache.empty(cfg.layers)
        tokens, logits_rows, times = [], [], []
        rows_max = 0
        logits = None
        for t in range(cfg.max_seq):
            t0 = _clock()
            tok = int(prompt[t]) if t < self.PROMPT else int(np.argmax(logits))
            logits = decoder.decode_step(params, cfg, cache, tok, t)
            times.append(_clock() - t0)
            tokens.append(tok)
            logits_rows.append(logits)
            rows_max = max(rows_max, max(len(layer.rows) for layer in cache.layers))
        return OpResult(sum(times), times, len(tokens),
                        (np.array(tokens), np.array(logits_rows), rows_max))

    def check(self, k: int, res: OpResult) -> List[str]:
        tokens, step_logits, rows_max = res.output
        res.output = None
        self.token_times_by_pos.append(res.samples_s)
        self.rows_max = max(self.rows_max, rows_max)
        full, _ = model.model_forward(tokens[None], self.params, self.cfg)
        delta = float(np.abs(step_logits - full[0]).max())
        bad = []
        if not delta < DECODE_TOL:
            bad.append(f"decode op {k}: stepwise logits differ from model_forward "
                       f"by {delta:.3e} (tol {DECODE_TOL})")
        att = self.cfg.attention
        expected = max(att.ring_k, att.skip_period) + 1
        if rows_max != expected:
            bad.append(f"decode op {k}: cache held {rows_max} rows per layer, "
                       f"expected max(k, pi)+1 = {expected}")
        return bad

    def counts(self) -> Dict[str, float]:
        return {"decoder.cache_rows_max": self.rows_max,
                "decoder.tokens_per_sequence": self.cfg.max_seq}

    def report(self, results: List[OpResult]) -> Dict[str, float]:
        toks = [s for r in results for s in r.samples_s]
        q = self.cfg.max_seq // 4
        early = [s for seq in self.token_times_by_pos for s in seq[:q]]
        late = [s for seq in self.token_times_by_pos for s in seq[-q:]]
        return {
            "decode.token_us.p50": 1e6 * percentile(toks, 50),
            "decode.token_us.p90": 1e6 * percentile(toks, 90),
            "decode.tokens_per_s": sum(r.items for r in results) / sum(r.net_s for r in results),
            "decoder.late_early_ratio": percentile(late, 50) / percentile(early, 50),
        }


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------


class VerifySuite(Workload):
    """The verification commands, in-process through `cli.main`.

    `grad-check` is run as `checks.run_stacked_grad_check(seed=0)` with the
    command's own pass rule (worst < 1e-6): `ringskip grad-check` raises
    TypeError while writing its summary (a numpy bool is not JSON
    serializable), and the gate holds only at the command's default seed 0.
    """

    name = "verify_suite"
    item_unit = "commands"
    latency_unit = "suite pass"

    def setup(self) -> None:
        self.commands = [
            ("oracle-check", ["oracle-check", "--grid", "full", "--seed", str(self.seed)]),
            ("grad-check", None),
            ("rf-bound", ["rf-bound"]),
            ("bench", ["bench"]),
            ("kl-check", ["kl-check"]),
        ]
        self.rows: Dict[str, int] = {}

    def run_op(self, k: int) -> OpResult:
        codes, parts = {}, {}
        out_root = self.work_dir / f"verify{k}"
        t_op = _clock()
        for name, argv in self.commands:
            t0 = _clock()
            if argv is None:
                errors = checks.run_stacked_grad_check(seed=0)
                codes[name] = 0 if max(errors.values()) < GRAD_TOL else 1
                self.rows[name] = len(errors)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[name] = cli.main(argv + ["--out", str(out_root / name)])
            parts[name] = _clock() - t0
        wall = _clock() - t_op
        return OpResult(wall, [wall], len(self.commands), (codes, out_root), parts)

    def check(self, k: int, res: OpResult) -> List[str]:
        codes, out_root = res.output
        res.output = None
        bad = [f"verify op {k}: {name} exited {rc}" for name, rc in codes.items() if rc != 0]
        for name, fname in (("oracle-check", "oracle_check.csv"), ("rf-bound", "rf_bound.csv"),
                            ("bench", "bench.csv"), ("kl-check", "kl_check.csv")):
            path = out_root / name / fname
            if path.exists():
                self.rows[name] = len(path.read_text().splitlines()) - 1
        shutil.rmtree(out_root, ignore_errors=True)
        return bad

    def counts(self) -> Dict[str, float]:
        return {f"verify.{name}.rows": n for name, n in sorted(self.rows.items())}

    def report(self, results: List[OpResult]) -> Dict[str, float]:
        rep = {"verify.wall_s": percentile([r.net_s for r in results], 50)}
        for name, _ in self.commands:
            rep[f"verify.{name}.s"] = percentile([r.parts_s[name] for r in results], 50)
        return rep


WORKLOADS = {cls.name: cls for cls in (TrainCopy, AttnLong, DecodeStream, VerifySuite)}

