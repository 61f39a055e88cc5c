#!/usr/bin/env python3
"""ringskip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ringskip checkout. The workload runs in a fresh worker
process whose BLAS thread count is pinned to BLAS_THREADS (never above
nproc) before numpy is imported; set-up is timed in that process and in
SETUP_PROBES more fresh processes, and the median is reported. The report
lists every figure by name and unit. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

Work counts must repeat exactly between runs of the same source; they are
kept in perfbench/out/counts.json, keyed by a hash of src/ringskip. Full
results of each run go to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
# one BLAS thread: the matrices are small (d=64), so on a 2-CPU host a second
# thread adds scheduling noise rather than speed
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def spawn(root: Path, env: dict, argv: list, timeout: float) -> dict:
    """Run one worker to completion and return its JSON result line."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(t0)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(path: Path, key: str, counts: dict) -> list:
    """Compare this run's counts with the first run of the same source."""
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key not in known:
        known[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [f"count {name}: {known[key].get(name)} on an earlier run, {counts.get(name)} now"
            for name in sorted(set(known[key]) | set(counts))
            if known[key].get(name) != counts.get(name)]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if args.seed < 0:
        return fail("--seed must be >= 0")
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "ringskip" / "__init__.py").is_file():
        return fail(f"no ringskip source under {root / 'src'}; run from a checkout root")
    if not spec_path.is_file():
        return fail(f"no BENCHMARK.json in {root}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(root / "src")
    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(work_dir)]
    probe = common + ["--seconds", "0", "--setup-only"]
    try:
        # half the set-up probes before the workload and half after, so they
        # sample the host at two moments some seconds apart
        setups = [spawn(root, env, probe, PROBE_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        res = spawn(root, env, common + ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace),
                                         "--spans-out", str(out_dir / f"spans-{args.workload}.jsonl")],
                    WORKER_TIMEOUT_S)
        setups += [res["setup_s"]] + [spawn(root, env, probe, PROBE_TIMEOUT_S)["setup_s"]
                                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = list(res["failures"])
    attempted, failed = res["attempted"], res["failed"]
    if res["counts_ok"]:
        mismatch = check_counts(out_dir / "counts.json",
                                f"{res['env']['source_sha256_16']}:{args.workload}",
                                res["counts"])
        failures += mismatch
        failed += bool(mismatch)

    samples, counts = res["samples_s"], res["counts"]
    # every figure is printed; BENCHMARK.json's end_to_end names the bounded ones
    figures = {
        "setup_s": (statistics.median(setups), "s"),
        "op_calib.p50": (res["op_calib"]["p50"], "calib"),
        "op_ms.p10": (res["op_ms"]["p10"], "ms"),
        "op_ms.p50": (res["op_ms"]["p50"], "ms"),
        "items_per_s": (res["items"] / res["timed_s"] if res["timed_s"] else 0.0,
                        f"{res['item_unit']}/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    per_layer = dict(res["trace"]["metrics"]) if args.trace else {}
    per_layer.update(counts)
    if counts.get("neighborhood.slots_computed"):
        per_layer["neighborhood.useful_slot_ratio"] = (
            counts["neighborhood.slots_valid"] / counts["neighborhood.slots_computed"])
    if "decoder.late_early_ratio" in res["report"]:
        per_layer["decoder.late_early_ratio"] = res["report"]["decoder.late_early_ratio"]
    per_layer["env.calib_ms"] = res["calib_ms"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"operation = one {res['latency_unit']}: {res['ops']} operations, "
          f"{len(samples)} latency samples, {res['timed_s']:.3f} s timed")
    for name, (val, unit) in figures.items():
        print(f"  {name:40s} {val:14.6g} {unit}")
    print(f"  {'setup_s samples':40s} " + " ".join(f"{s:.3f}" for s in setups)
          + f"  (imports {res['import_s']:.3f} s of the last)")
    if res["tail"]:
        q, val, beyond = res["tail"]
        print(f"  {'op_ms.p%d' % q:40s} {val:14.6g} ms  "
              f"({len(samples)} samples, {beyond} beyond)")
    else:
        print(f"  no percentile has ten samples beyond it ({len(samples)} samples)")
    for name, val in sorted(res["report"].items()):
        print(f"  {name:40s} {val:14.6g} {_unit(name)}")
    for name, val in sorted(counts.items()):
        print(f"  {name:40s} {val:14d} count")
    for label in ("", ".causal", ".bidir"):
        comp = counts.get("neighborhood.slots_computed" + label)
        if comp:
            valid = counts["neighborhood.slots_valid" + label]
            print(f"  {'neighborhood.useful_slot_ratio' + label:40s} {valid / comp:14.6f} "
                  f"count ratio ({valid} of {comp} slots)")
    print(f"  {'env.calib_ms':40s} {res['calib_ms']:14.6g} ms  "
          f"(median of {res['calib_samples']} calibrations)")
    if args.trace:
        tr = res["trace"]
        print(f"traced: {tr['ops']} operations, {tr['spans']} spans, wall {tr['wall_s']:.3f} s,"
              f" layer self time {tr['self_s_total']:.3f} s")
        for name, share in tr["shares"].items():
            print(f"  self share {name:40s} {100 * share:6.2f} %")
        idle = [m["name"] for m in wanted if m["name"] not in per_layer]
        for m in wanted:
            if m["name"] in per_layer:
                print(f"  {m['name']:40s} {per_layer[m['name']]:14.6g} {m['unit']}")
        if idle:
            print("  not called by this workload, reported as 0: " + ", ".join(idle))
            per_layer.update({name: 0 for name in idle})
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g}  ({failed} of {attempted})")
    for f in failures:
        print("FAILED: " + f.rstrip(), file=sys.stderr)

    source = per_layer if args.trace else {k: v for k, (v, _) in figures.items()}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "setup_samples_s": setups, "worker": res,
                    "figures": figures, "per_layer": per_layer}, indent=1, sort_keys=True))
    print(json.dumps(record))
    return 0


def _unit(name: str) -> str:
    for suffix, unit in (("tokens_per_s", "tokens/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_s", "s"), (".s", "s")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return ""


if __name__ == "__main__":
    sys.exit(main())
