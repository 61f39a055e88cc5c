"""Command-line entry point for every verification and experiment surface.

All tabular output is CSV with documented headers; configs are JSON. Each
command computes and prints, then `_write_outputs` writes all of its files, so
a command that exits 2 writes none: a manifest.json (command, seed, timestamp,
numpy and scipy versions, the BLAS thread variables and `threads`, the CPU
count of the `split` rule: 2, or 1 on a one-CPU host; `heap_kept`, whether a
large attention call has switched on `split.keep_heap`, and `minor_faults`,
this process's minor page faults over the command, None where the platform
does not count them; `train`, `oracle-check` and `grad-check` add
`sibling_peak_rss_mb`, the peak resident memory of the forked process that
ran their second part, for `grad-check` the largest over its seeds, None
when nothing was forked; this process's `minor_faults` do not count that
process's), the CSVs and summary.json. CSV bodies are byte-identical across
reruns with the same seed and BLAS thread count (times live only in the
manifest), on any number of CPUs: `train` splits each batch into two fixed
halves, runs the second in a forked sibling process on two CPUs, and adds
their gradients in a fixed order; `oracle-check` and each seed of
`grad-check` fork one sibling that runs a fixed set of the configs or
tensors, each of which is computed on its own; and attention splits only
steps that never sum over rows.
Exit codes: 0 all asserted properties pass, 1 a property failed, 2 usage,
configuration or file error (one `error:` line on stderr). A flag that the
command would ignore is a usage error: `--config` on any command but
`train`, `rf-bound`'s `--pi` or `--layers` without `--k`, and `cost-model`'s
`--n`, `--k`, `--d-h` or `--gamma` with `--fit`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import scipy

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import __version__
from .checks import (
    ORACLE_TOL,
    oracle_grid,
    run_kl_random_scores,
    run_oracle_check,
    run_stacked_grad_check,
)
from .neighborhood import AttentionConfig, ConfigError, build_union, from_dict, slot_layout
from .perf import (CostParams, WorkRow, cost_model_eval, fit_cost_constants, ring_simulate,
                   work_report)
from .rfield import RfRow, rf_report
from .split import heap_kept, threads
from .trainer import CONFIG_DEFAULTS, load_checkpoint, load_config, train
from .decoder import generate
from .numerics import Rng


# `grad-check` holds the gradient gate at this many consecutive seeds
GRAD_CHECK_SEEDS = 9
# read by the BLAS library when numpy loads; each manifest records their values
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the columns of a `cost-model --fit` file; its first line names them
FIT_HEADER = "n,k,d_h,seconds,gamma_tc,gamma_hbm,gamma_net,gamma_act"


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path("runs") / args.command


def _write_outputs(args, code: int, csvs: dict, summary: dict | None = None,
                   **telemetry) -> int:
    """Write manifest.json with the wall-clock `telemetry`, each CSV of `csvs`
    (name -> (header line, rows), each row's values joined by commas) and then
    summary.json when given. Returns the exit code `code`."""
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": getattr(args, "config", None),
        "seed": args.seed,
        "version": __version__,
        "out_dir": str(out),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads": threads(),
        "heap_kept": heap_kept(),
        "minor_faults": None if resource is None else _minor_faults() - args.start_faults,
        **telemetry,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name, (header, rows) in csvs.items():
        (out / name).write_text(header + "\n" + "".join(",".join(map(str, row)) + "\n"
                                                        for row in rows))
    if summary is not None:
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return code


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _load_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path}: not JSON ({exc})") from None


def cmd_oracle_check(args) -> int:
    grid = oracle_grid(args.grid)
    t0 = time.perf_counter()
    res = run_oracle_check(grid, seed=args.seed)
    sweep_seconds = time.perf_counter() - t0
    ok = res.max_delta < ORACLE_TOL
    print(f"oracle-check: {len(grid)} configs, max |delta| = {res.max_delta:.3e}"
          f" -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        cfg, n = res.worst
        print(f"first failing case: n={n} k={cfg.ring_k} pi={cfg.skip_period} "
              f"H={cfg.n_heads} causal={cfg.causal} ablation={cfg.ablation}")
    rows = [(n, cfg.ring_k, cfg.skip_period, cfg.n_heads, int(cfg.causal), cfg.ablation,
             f"{delta:.3e}", int(delta < ORACLE_TOL))
            for (cfg, n), delta in zip(grid, res.deltas)]
    return _write_outputs(
        args, 0 if ok else 1,
        {"oracle_check.csv": ("n,k,pi,heads,causal,ablation,max_delta,ok", rows)},
        {"checked": len(grid), "max_delta": res.max_delta, "pass": ok},
        footprints_built=res.footprints, sparse_calls=res.sparse_calls,
        dense_calls=res.dense_calls, sweep_seconds=sweep_seconds,
        sibling_peak_rss_mb=res.sibling_peak_rss_mb)


def cmd_grad_check(args) -> int:
    seeds = range(args.seed, args.seed + GRAD_CHECK_SEEDS)
    errors = {seed: run_stacked_grad_check(seed=seed) for seed in seeds}
    per_seed = [{"seed": seed, "worst_tensor": max(e, key=e.get),
                 "max_rel_error": max(e.values())} for seed, e in errors.items()]
    worst = max(per_seed, key=lambda r: r["max_rel_error"])
    ok = bool(worst["max_rel_error"] < 1e-6)
    peaks = [e.sibling_peak_rss_mb for e in errors.values() if e.sibling_peak_rss_mb is not None]
    print(f"grad-check: {len(errors[args.seed])} tensors at {len(seeds)} seeds, worst "
          f"{worst['worst_tensor']} = {worst['max_rel_error']:.3e} at seed {worst['seed']}"
          f" -> {'PASS' if ok else 'FAIL'}")
    rows = [(seed, name, f"{e[name]:.6e}") for seed, e in errors.items() for name in sorted(e)]
    return _write_outputs(
        args, 0 if ok else 1,
        {"grad_check.csv": ("seed,tensor,max_rel_error", rows)},
        {"worst_seed": worst["seed"], "worst_tensor": worst["worst_tensor"],
         "max_rel_error": worst["max_rel_error"], "pass": ok, "per_seed": per_seed},
        sibling_peak_rss_mb=max(peaks, default=None))


def cmd_rf_bound(args) -> int:
    if args.k is not None:
        rows = rf_report([args.k], [4 if args.pi is None else args.pi],
                         [4 if args.layers is None else args.layers])
        r = rows[0]
        print(f"restricted={r.restricted_reach}, bound={r.bound}, full={r.full_reach}")
        ok = bool(r.bound_holds_restricted)
    else:
        for name in ("pi", "layers"):
            if getattr(args, name) is not None:
                raise ConfigError(f"{name}: applies only with --k; without it rf-bound "
                                  f"runs its whole grid")
        rows = rf_report(range(1, 5), (2, 4, 8, 16), range(1, 11))
        ok = all(r.bound_holds_restricted for r in rows)
        print(f"rf-bound: {len(rows)} grid points, restricted bound holds at "
              f"{'100%' if ok else 'SOME FAILED'}")
    return _write_outputs(args, 0 if ok else 1, {"rf_bound.csv": (",".join(RfRow._fields), rows)})


def cmd_train(args) -> int:
    kind = {"copy": "copy_at_pi", "charlm": "char_lm"}[args.task]
    cfg, task, tc = load_config(_load_json(args.config) if args.config else {},
                                kind, args.seed)
    # `train` itself writes metrics.csv and model.ckpt, once its last step has run
    res = train(cfg, task, tc, out_dir=_out_dir(args))
    last = res.metrics[-1]
    print(f"train: task={task.kind} steps_run={last['step'] + 1} "
          f"loss={last['loss']:.4f} accuracy={res.final_accuracy:.4f}")
    return _write_outputs(args, 0, {}, tokens_per_sec=res.tokens_per_sec,
                          sibling_peak_rss_mb=res.sibling_peak_rss_mb)


def cmd_decode(args) -> int:
    cfg, params, _ = load_checkpoint(Path(args.ckpt))
    fields = args.prompt.split(",")
    # int() would also take spaces, digit-group underscores and a plus sign
    if not all(re.fullmatch(r"-?[0-9]+", t) for t in fields):
        raise ConfigError(f"prompt: expected comma-separated token ids, "
                          f"got {args.prompt!r}")
    prompt = [int(t) for t in fields]
    # generate rejects tokens outside the vocabulary, max_seq overruns, bad --steps/--temp
    t0 = time.perf_counter()
    seq = generate(params, cfg, prompt, args.steps, temperature=args.temp, rng=Rng(args.seed))
    # decode steps run per second: one per token of seq but the last sampled
    # one, whose logits generate would never read
    tokens_per_sec = (len(seq) - 1 if args.steps else len(seq)) / (time.perf_counter() - t0)
    print("decode:", ",".join(map(str, seq)))
    return _write_outputs(args, 0, {"tokens.csv": ("position,token", enumerate(seq))},
                          tokens_per_sec=tokens_per_sec)


def cmd_bench(args) -> int:
    configs = []
    for n in (256, 512, 1024):
        for abl in ("full", "no_skip"):
            configs.append((AttentionConfig(d_model=16, n_heads=2, ring_k=args.k,
                                            skip_period=args.pi, causal=True,
                                            ablation=abl), n))
    rows = work_report(configs)
    ratios = [r.doubling_ratio for r in rows if r.doubling_ratio is not None]
    ok = (all(1.9 <= x <= 2.1 for x in ratios)
          and all(r.stored_activation_elements <= r.activation_bound for r in rows))
    print(f"bench: {len(rows)} configs, doubling ratios "
          f"{['%.3f' % x for x in ratios]} -> {'PASS' if ok else 'FAIL'}")
    body = [r._replace(doubling_ratio="" if r.doubling_ratio is None
                       else f"{r.doubling_ratio:.6f}") for r in rows]
    return _write_outputs(args, 0 if ok else 1, {"bench.csv": (",".join(WorkRow._fields), body)})


def cmd_simulate_ring(args) -> int:
    for name, value in (("heads", args.heads), ("d_h", args.d_h)):
        if value < 1:
            raise ConfigError(f"{name}: must be >= 1, got {value}")
    cfg = AttentionConfig(d_model=args.heads * args.d_h, n_heads=args.heads,
                          ring_k=args.k, skip_period=args.pi, causal=args.causal,
                          bidirectional_skip=not args.causal)
    cost = CostParams(gamma_tc=1e9, gamma_hbm=1e9, gamma_net=1e9, gamma_act=1e9)
    rep = ring_simulate(args.shards, args.n, cfg, args.batch, cost=cost)
    conserved = rep.tallied_elements == rep.received_elements
    print(f"simulate-ring: shards={args.shards} tallied={rep.tallied_elements} "
          f"elements (closed-form figure {rep.formula_elements}; the two count "
          f"different things and are reported side by side)")
    rows = [(m.stage, m.src, m.dst, m.elements) for m in rep.tallied_messages]
    return _write_outputs(
        args, 0 if conserved else 1,
        {"messages.csv": ("stage,src,dst,elements", rows)},
        {"formula_elements": rep.formula_elements,
         "tallied_elements": rep.tallied_elements,
         "received_elements": rep.received_elements,
         "conserved": conserved,
         "makespan_seconds": rep.makespan})


# `cost-model`'s evaluation point and rate when their flags are omitted
COST_MODEL_DEFAULTS = {"n": 1024, "k": 4, "d_h": 64, "gamma": 1e9}


def cmd_cost_model(args) -> int:
    if args.fit:
        for name in COST_MODEL_DEFAULTS:
            if getattr(args, name) is not None:
                raise ConfigError(f"{name}: applies only to an evaluation; with --fit "
                                  f"cost-model fits the file's rows")
        try:
            with open(args.fit, encoding="utf-8") as f:
                lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.fit}: not UTF-8 text ({exc})") from None
        if not lines or lines[0].strip() != FIT_HEADER:
            raise ConfigError(f"{args.fit} line 1: expected the header {FIT_HEADER}")
        rows, cps = [], []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.strip().split(",")
            try:
                if len(fields) != 8:
                    raise ValueError
                n, k, d_h = (int(v) for v in fields[:3])
                secs, *gammas = (float(v) for v in fields[3:])
            except ValueError:
                raise ConfigError(f"{args.fit} line {lineno}: expected 8 fields "
                                  f"{FIT_HEADER}") from None
            try:
                cps.append(CostParams(*gammas))
            except ConfigError as exc:
                raise ConfigError(f"{args.fit} line {lineno}: {exc}") from None
            rows.append((n, k, d_h, secs))
        try:
            c1, c2, c3, resid = fit_cost_constants(rows, cps)
        except ValueError as exc:  # too few rows, or rates that do not separate c2 from c3
            raise ConfigError(f"{args.fit}: {exc}") from None
        print(f"cost-model fit: c1={c1:.6g} c2={c2:.6g} c3={c3:.6g} "
              f"residual={resid:.3e}")
        csvs = {"fit.csv": ("c1,c2,c3,relative_residual",
                            [(f"{c1:.12g}", f"{c2:.12g}", f"{c3:.12g}", f"{resid:.6e}")])}
    else:
        for name, default in COST_MODEL_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        cp = CostParams(gamma_tc=args.gamma, gamma_hbm=args.gamma,
                        gamma_net=args.gamma, gamma_act=args.gamma)
        t = cost_model_eval(cp, args.n, args.k, args.d_h)
        print(f"cost-model: predicted {t:.6e} s for n={args.n} k={args.k} "
              f"d_h={args.d_h}")
        csvs = {"eval.csv": ("n,k,d_h,predicted_seconds",
                             [(args.n, args.k, args.d_h, f"{t:.17g}")])}
    return _write_outputs(args, 0, csvs)


def cmd_kl_check(args) -> int:
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    kls = run_kl_random_scores(eps_list, seeds=args.seeds)
    means = [mean_kl for mean_kl, _ in kls]
    monotone = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    mean_ref = means[eps_list.index(1e-4)]
    ok = monotone and mean_ref < 2e-2
    print(f"kl-check: mean KL at eps=1e-4 is {mean_ref:.3e} (< 2e-2), "
          f"nonincreasing as eps shrinks: {monotone} -> "
          f"{'PASS' if ok else 'FAIL'}")
    rows = [(f"{eps:g}", f"{mean_kl:.6e}", f"{max_kl:.6e}")
            for eps, (mean_kl, max_kl) in zip(eps_list, kls)]
    return _write_outputs(args, 0 if ok else 1,
                          {"kl_check.csv": ("eps,mean_kl,max_kl", rows)})


def cmd_validate_config(args) -> int:
    raw = _load_json(args.file)
    if isinstance(raw, dict) and raw.keys() & CONFIG_DEFAULTS.keys():
        att = load_config(raw, "copy_at_pi", args.seed)[0].attention
    else:
        att = from_dict(AttentionConfig, raw, "attention")
    union = build_union(att, args.n)
    _, ring = slot_layout(att)
    if att.ablation != "no_skip" and ring.all():
        print("note: skip stride falls inside the ring window; the overlapping "
              "slot is kept once as a RING member")
    print(f"validate-config: OK (union table for n={args.n} written)")
    rows = [(i, e.offset, e.kind.value, int(e.valid))
            for i, row in enumerate(union.entries) for e in row]
    return _write_outputs(args, 0, {"union.csv": ("token,offset,kind,valid", rows)})


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

    s = sub.add_parser("grad-check", help="finite-difference check through 2 stacked "
                                          "blocks at seeds --seed ... --seed + 8")
    s.set_defaults(func=cmd_grad_check)

    s = sub.add_parser("rf-bound", help="receptive-field reach vs analytic bound")
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--pi", type=int, default=None)  # 4 when omitted; only with --k
    s.add_argument("--layers", type=int, default=None)  # 4 when omitted; only with --k
    s.set_defaults(func=cmd_rf_bound)

    s = sub.add_parser("train", help="train a toy model")
    s.add_argument("--task", choices=("copy", "charlm"), required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("decode", help="incremental generation from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--prompt", required=True)
    s.add_argument("--steps", type=int, default=16)
    s.add_argument("--temp", type=float, default=None)  # greedy when omitted
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
                   help=f"CSV of measurements: the header line {FIT_HEADER}, "
                        f"then one such row per measurement, each with its own rates")
    # None when omitted: COST_MODEL_DEFAULTS for an evaluation, refused with --fit
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--d-h", type=int, default=None)
    s.add_argument("--gamma", type=float, default=None,
                   help="the one rate for all four terms of an evaluation (not --fit)")
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
    args.start_faults = None if resource is None else _minor_faults()
    try:
        if args.seed < 0:  # PCG64 takes no negative seed
            raise ConfigError(f"seed: must be >= 0, got {args.seed}")
        if args.config is not None and args.command != "train":
            raise ConfigError(f"config: only train reads --config, not {args.command}")
        return args.func(args)
    # OSError: a path that cannot be read or written, such as a missing file, a
    # directory given as a file, or an --out that names an existing file
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
