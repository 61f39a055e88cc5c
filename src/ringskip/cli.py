"""Command-line entry point for every verification and experiment surface.

All tabular output is CSV with documented headers; configs are JSON. Every
run writes a manifest.json next to its outputs. CSV bodies are byte-identical
across reruns with the same seed (timestamps live only in the manifest).
Exit codes: 0 all asserted properties pass, 1 a property failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    oracle_grid,
    run_decode_check,
    run_kl_random_scores,
    run_oracle_check,
    run_stacked_grad_check,
)
from .model import ModelConfig
from .neighborhood import AttentionConfig, ConfigError, build_union, union_table_csv
from .perf import CostParams, cost_model_eval, fit_cost_constants, ring_simulate, work_report
from .rfield import reach_full, reach_restricted, restricted_bound, rf_report
from .trainer import TaskSpec, TrainConfig, load_checkpoint, train
from .decoder import generate
from .numerics import Rng


def _write_manifest(args, out_dir: Path, **telemetry) -> None:
    """Run record; wall-clock `telemetry` goes here, never into CSV bodies."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": getattr(args, "config", None),
        "seed": args.seed,
        "version": __version__,
        "out_dir": str(out_dir),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **telemetry,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path("runs") / args.command


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _attention_config(d: dict) -> AttentionConfig:
    cfg = AttentionConfig(**d)
    cfg.validate()
    return cfg


def _model_config(d: dict) -> ModelConfig:
    d = dict(d)
    d["attention"] = _attention_config(d["attention"])
    cfg = ModelConfig(**d)
    cfg.validate()
    return cfg


def cmd_oracle_check(args) -> int:
    grid = oracle_grid(args.grid)
    res = run_oracle_check(grid, seed=args.seed)
    out = _out_dir(args)
    _write_manifest(args, out)
    with open(out / "oracle_check.csv", "w") as f:
        f.write("n,k,pi,heads,causal,ablation,max_delta,ok\n")
        for r in res.rows:
            f.write(f"{r['n']},{r['k']},{r['pi']},{r['heads']},{r['causal']},"
                    f"{r['ablation']},{r['max_delta']:.3e},{r['ok']}\n")
    ok = res.max_delta < 1e-10
    summary = {"checked": res.checked, "max_delta": res.max_delta, "pass": ok}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"oracle-check: {res.checked} configs, max |delta| = {res.max_delta:.3e}"
          f" -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        cfg, n = res.worst
        print(f"first failing case: n={n} k={cfg.ring_k} pi={cfg.skip_period} "
              f"H={cfg.n_heads} causal={cfg.causal} ablation={cfg.ablation}")
    return 0 if ok else 1


def cmd_grad_check(args) -> int:
    errors = run_stacked_grad_check(seed=args.seed)
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    out = _out_dir(args)
    _write_manifest(args, out)
    with open(out / "grad_check.csv", "w") as f:
        f.write("tensor,max_rel_error\n")
        for name in sorted(errors):
            f.write(f"{name},{errors[name]:.6e}\n")
    ok = bool(worst < 1e-6)
    (out / "summary.json").write_text(json.dumps(
        {"worst_tensor": worst_name, "max_rel_error": worst, "pass": ok},
        indent=2) + "\n")
    print(f"grad-check: {len(errors)} tensors, worst {worst_name} = {worst:.3e}"
          f" -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_rf_bound(args) -> int:
    out = _out_dir(args)
    _write_manifest(args, out)
    if args.k is not None:
        k, pi, layers = args.k, args.pi, args.layers
        bound = restricted_bound(k, pi, layers)
        n = layers * (k + pi) + 2
        cfg = AttentionConfig(d_model=2, n_heads=1, ring_k=k, skip_period=pi,
                              causal=True)
        full = reach_full(cfg, n, n - 1, layers).leftward_extent()
        restricted = reach_restricted(cfg, n, n - 1, layers)
        csv = ("k,pi,layers,full_reach,restricted_reach,bound,"
               "bound_holds_restricted,bound_holds_full\n"
               f"{k},{pi},{layers},{full},{restricted},{bound},"
               f"{int(restricted <= bound)},{int(full <= bound)}\n")
        print(f"restricted={restricted}, bound={bound}, full={full}")
        ok = restricted <= bound
    else:
        csv = rf_report(range(1, 5), (2, 4, 8, 16), range(1, 11))
        rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
        ok = all(r[6] == "1" for r in rows)
        print(f"rf-bound: {len(rows)} grid points, restricted bound holds at "
              f"{'100%' if ok else 'SOME FAILED'}")
    (out / "rf_bound.csv").write_text(csv)
    return 0 if ok else 1


def cmd_train(args) -> int:
    defaults = {
        "model": {"layers": 2, "d_model": 64, "n_heads": 4, "d_ff": 128,
                  "vocab": 16, "max_seq": 32,
                  "attention": {"d_model": 64, "n_heads": 4, "ring_k": 2,
                                "skip_period": 8}},
        "task": {"vocab": 16, "seq_len": 32, "delay": 8},
        "train": {"steps": 3000, "batch_size": 16, "eval_interval": 50,
                  "stop_accuracy": 0.995},
    }
    raw = _load_json(args.config) if args.config else defaults
    cfg = _model_config(raw["model"])
    task = TaskSpec(kind={"copy": "copy_at_pi", "needle": "needle_retrieval",
                          "charlm": "char_lm"}[args.task], **raw["task"])
    tc = TrainConfig(seed=args.seed, **raw.get("train", {}))
    out = _out_dir(args)
    res = train(cfg, task, tc, out_dir=out)
    _write_manifest(args, out, tokens_per_sec=res.tokens_per_sec)
    last = res.metrics[-1]
    print(f"train: task={task.kind} steps_run={last['step'] + 1} "
          f"loss={last['loss']:.4f} accuracy={res.final_accuracy:.4f}")
    return 0


def cmd_decode(args) -> int:
    try:
        cfg, params, _ = load_checkpoint(Path(args.ckpt))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        prompt = [int(t) for t in args.prompt.split(",")]
    except ValueError:
        prompt = [b % cfg.vocab for b in args.prompt.encode("utf-8")]
    bad = [t for t in prompt if not 0 <= t < cfg.vocab]
    if bad:
        print(f"error: prompt token {bad[0]} outside the vocabulary "
              f"[0, {cfg.vocab})", file=sys.stderr)
        return 2
    if len(prompt) + args.steps > cfg.max_seq:
        print(f"error: prompt length {len(prompt)} + steps {args.steps} exceeds "
              f"max_seq {cfg.max_seq}", file=sys.stderr)
        return 2
    rng = Rng(args.seed)
    seq = generate(params, cfg, prompt, args.steps,
                   greedy=args.temp is None,
                   temperature=args.temp or 1.0, rng=rng)
    out = _out_dir(args)
    _write_manifest(args, out)
    (out / "tokens.csv").write_text(
        "position,token\n" + "".join(f"{i},{t}\n" for i, t in enumerate(seq)))
    print("decode:", ",".join(map(str, seq)))
    return 0


def cmd_bench(args) -> int:
    configs = []
    for n in (256, 512, 1024):
        for abl in ("full", "no_skip"):
            configs.append((AttentionConfig(d_model=16, n_heads=2, ring_k=args.k,
                                            skip_period=args.pi, causal=True,
                                            ablation=abl), n))
    csv = work_report(configs)
    out = _out_dir(args)
    _write_manifest(args, out)
    (out / "bench.csv").write_text(csv)
    rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
    ratios = [float(r[10]) for r in rows if r[10]]
    ok = all(1.9 <= x <= 2.1 for x in ratios)
    ok &= all(int(r[8]) <= int(r[9]) for r in rows)
    print(f"bench: {len(rows)} configs, doubling ratios "
          f"{['%.3f' % x for x in ratios]} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_simulate_ring(args) -> int:
    cfg = AttentionConfig(d_model=args.heads * args.d_h, n_heads=args.heads,
                          ring_k=args.k, skip_period=args.pi, causal=args.causal,
                          bidirectional_skip=not args.causal)
    cost = CostParams(gamma_tc=1e9, gamma_hbm=1e9, gamma_net=1e9, gamma_act=1e9)
    rep = ring_simulate(args.shards, args.n, cfg, args.batch, args.heads,
                        args.d_h, cost=cost)
    out = _out_dir(args)
    _write_manifest(args, out)
    with open(out / "messages.csv", "w") as f:
        f.write("stage,src,dst,elements\n")
        for m in rep.tallied_messages:
            f.write(f"{m.stage},{m.src},{m.dst},{m.elements}\n")
    summary = {"formula_elements": rep.formula_elements,
               "tallied_elements": rep.tallied_elements,
               "received_elements": rep.received_elements,
               "conserved": rep.tallied_elements == rep.received_elements,
               "makespan_seconds": rep.makespan}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"simulate-ring: shards={args.shards} tallied={rep.tallied_elements} "
          f"elements (closed-form figure {rep.formula_elements}; the two count "
          f"different things and are reported side by side)")
    return 0 if summary["conserved"] else 1


def cmd_cost_model(args) -> int:
    out = _out_dir(args)
    _write_manifest(args, out)
    cp = CostParams(gamma_tc=args.gamma, gamma_hbm=args.gamma,
                    gamma_net=args.gamma, gamma_act=args.gamma)
    if args.fit:
        rows = []
        with open(args.fit) as f:
            header = f.readline()
            for line in f:
                n, k, d_h, secs = line.strip().split(",")
                rows.append((int(n), int(k), int(d_h), float(secs)))
        c1, c2, c3, resid = fit_cost_constants(rows, cp)
        (out / "fit.csv").write_text(
            "c1,c2,c3,relative_residual\n"
            f"{c1:.12g},{c2:.12g},{c3:.12g},{resid:.6e}\n")
        print(f"cost-model fit: c1={c1:.6g} c2={c2:.6g} c3={c3:.6g} "
              f"residual={resid:.3e}")
    else:
        t = cost_model_eval(cp, args.n, args.k, args.d_h)
        (out / "eval.csv").write_text(
            "n,k,d_h,predicted_seconds\n"
            f"{args.n},{args.k},{args.d_h},{t:.17g}\n")
        print(f"cost-model: predicted {t:.6e} s for n={args.n} k={args.k} "
              f"d_h={args.d_h}")
    return 0


def cmd_kl_check(args) -> int:
    out = _out_dir(args)
    _write_manifest(args, out)
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    with open(out / "kl_check.csv", "w") as f:
        f.write("eps,mean_kl,max_kl\n")
        prev_mean = None
        monotone = True
        for eps in eps_list:
            mean_kl, max_kl = run_kl_random_scores(eps=eps, seeds=args.seeds)
            f.write(f"{eps:g},{mean_kl:.6e},{max_kl:.6e}\n")
            if prev_mean is not None and mean_kl > prev_mean + 1e-12:
                monotone = False
            prev_mean = mean_kl
    mean_ref, _ = run_kl_random_scores(eps=1e-4, seeds=args.seeds)
    ok = monotone and mean_ref < 2e-2
    print(f"kl-check: mean KL at eps=1e-4 is {mean_ref:.3e} (< 2e-2), "
          f"nonincreasing as eps shrinks: {monotone} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_validate_config(args) -> int:
    try:
        raw = _load_json(args.file)
        if "model" in raw:
            cfg = _model_config(raw["model"])
            att = cfg.attention
        elif "attention" in raw and "layers" in raw:
            cfg = _model_config(raw)
            att = cfg.attention
        else:
            att = _attention_config(raw.get("attention", raw))
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    _write_manifest(args, out)
    union = build_union(att, args.n)
    (out / "union.csv").write_text(union_table_csv(union))
    if att.skip_period <= att.ring_k and att.ablation not in ("no_skip", "no_ring"):
        print("note: skip stride falls inside the ring window; the overlapping "
              "slot is kept once as a RING member")
    print(f"validate-config: OK (union table for n={args.n} written)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringskip",
        description="Periodic sparse attention engine: verification and "
                    "experiment surfaces.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    # the same globals are accepted after the subcommand name; SUPPRESS keeps
    # the subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    for flag, typ in (("--seed", int), ("--config", str), ("--out", str)):
        common.add_argument(flag, type=typ, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)))

    s = sub.add_parser("oracle-check", help="sparse vs dense oracle over the config grid")
    s.add_argument("--grid", choices=("small", "full"), default="full")
    s.set_defaults(func=cmd_oracle_check)

    s = sub.add_parser("grad-check", help="finite-difference check through 2 stacked blocks")
    s.set_defaults(func=cmd_grad_check)

    s = sub.add_parser("rf-bound", help="receptive-field reach vs analytic bound")
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--pi", type=int, default=4)
    s.add_argument("--layers", type=int, default=4)
    s.set_defaults(func=cmd_rf_bound)

    s = sub.add_parser("train", help="train a toy model")
    s.add_argument("--task", choices=("copy", "needle", "charlm"), required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("decode", help="incremental generation from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--prompt", required=True)
    s.add_argument("--steps", type=int, default=16)
    g = s.add_mutually_exclusive_group()
    g.add_argument("--greedy", action="store_true", default=True)
    g.add_argument("--temp", type=float, default=None)
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("bench", help="work/memory ledgers vs complexity claims")
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--pi", type=int, default=16)
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("simulate-ring", help="virtual device-ring schedule simulation")
    s.add_argument("--shards", type=int, required=True)
    s.add_argument("--n", type=int, default=64)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--pi", type=int, default=8)
    s.add_argument("--batch", type=int, default=2)
    s.add_argument("--heads", type=int, default=4)
    s.add_argument("--d-h", type=int, default=8)
    s.add_argument("--causal", action=argparse.BooleanOptionalAction, default=True)
    s.set_defaults(func=cmd_simulate_ring)

    s = sub.add_parser("cost-model", help="latency model evaluation or constant fitting")
    s.add_argument("--fit", type=str, default=None,
                   help="CSV of n,k,d_h,seconds measurements")
    s.add_argument("--n", type=int, default=1024)
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--d-h", type=int, default=64)
    s.add_argument("--gamma", type=float, default=1e9)
    s.set_defaults(func=cmd_cost_model)

    s = sub.add_parser("kl-check", help="stabilization KL sweep")
    s.add_argument("--seeds", type=int, default=100)
    s.set_defaults(func=cmd_kl_check)

    s = sub.add_parser("validate-config", help="validate a JSON config, dump the union table")
    s.add_argument("file")
    s.add_argument("--n", type=int, default=16)
    s.set_defaults(func=cmd_validate_config)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
