"""One benchmark process: set up one workload, time its operations, check
every output, and print one JSON result line on stdout.

Started by run.py with the BLAS thread variables already in the environment,
so they are in force before numpy loads. `--setup-only` stops after set-up
and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (imports every ringskip module)
from workloads import percentile  # noqa: E402

T_IMPORTED = time.monotonic()

CHECK_OP = -2


def blas_threads_in_force():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ringskip").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment(root: Path, seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_force": blas_threads_in_force(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(root),
        "source_sha256_16": source_hash(root),
        "machine": platform.machine(),
    }


class Gauge:
    """Measures how fast the shared host runs right now, by timing passes of
    a fixed numpy kernel that does not touch ringskip.

    A pass (about 5 ms on a 2-vCPU x86_64 host) mixes the three kinds of work
    the workloads do: a small BLAS matmul with exp (dense compute), a Python
    loop of tiny vector ops (interpreter overhead) and a gather, scatter-add
    and row-wise dot over 1 MB arrays (indexing). Its arrays take about 4 MB,
    so it adds little to the worker's peak RSS.

    `between()` runs passes for SANDWICH_S between operations. `during()`
    also runs one pass every TICK_S while an operation runs, from a SIGALRM
    handler, so a long operation is gauged over its whole length; the
    seconds those passes took are kept in `in_op_s` and taken off the
    operation's time.
    """

    TICK_S = 0.15
    SANDWICH_S = 0.03

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((192, 192))
        self.w = rng.standard_normal((64, 64))
        self.vecs = [rng.standard_normal(64) for _ in range(8)]
        self.big = rng.standard_normal((8192, 16))
        self.idx = rng.integers(0, len(self.big), len(self.big))
        self.acc = np.zeros_like(self.big)
        self.passes: List[float] = []
        self.in_op_s = 0.0

    def _pass(self) -> float:
        t0 = time.perf_counter()
        float(np.exp((self.m @ self.m) * 1e-3).sum())
        for i in range(80):
            v = self.vecs[i % 8]
            h = np.tanh(v @ self.w)
            e = np.exp(h - h.max())
            e /= e.sum()
            (v - v.mean()) / np.sqrt(v.var() + 1e-5)
        g = self.big[self.idx]
        np.add.at(self.acc, self.idx, 0.5 * g)
        np.einsum("ij,ij->i", g, self.big)
        dt = time.perf_counter() - t0
        self.passes.append(dt)
        return dt

    def _tick(self, signum, frame) -> None:
        self.in_op_s += self._pass()

    def between(self) -> None:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.SANDWICH_S:
            self._pass()

    @contextlib.contextmanager
    def during(self, ticks: bool):
        if not ticks:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def run_ops(wl, budget_s, first_k, min_ops, tracer, gauge, results, failures):
    """Run operations until operations and gauge passes together have taken
    the budget; check each operation untimed.

    The gauge runs before the first operation, after each one, and (in an
    untraced run) during each one. An operation's `net_s` is the time of the
    `run_op` call less the passes run during it; its `calib_s` is the mean
    pass time from the end of the operation before it to the end of the
    gauge after it. Returns (operations attempted, operations failed)."""
    first = len(gauge.passes)
    gauge.between()
    spent = 0.0
    k = first_k
    walls = []
    failed = 0
    while True:
        if tracer is not None:
            tracer.op_id = k
        bad = []
        t0 = time.perf_counter()
        in_op = gauge.in_op_s
        try:
            with gauge.during(ticks=tracer is None):
                res = wl.run_op(k)
        except Exception:  # a broken operation is counted, and the run goes on
            bad.append(f"op {k} raised:\n{traceback.format_exc()}")
            res = None
        net = time.perf_counter() - t0 - (gauge.in_op_s - in_op)
        if tracer is not None:
            tracer.op_id = CHECK_OP
        after = len(gauge.passes)
        gauge.between()
        spent += time.perf_counter() - t0
        if res is not None:
            res.net_s = net
            res.calib_s = float(np.mean(gauge.passes[first:]))
            try:
                bad.extend(wl.check(k, res))
            except Exception:
                bad.append(f"check of op {k} raised:\n{traceback.format_exc()}")
            results.append(res)
            walls.append(net)
        first = after
        failures.extend(bad)
        failed += bool(bad)
        k += 1
        done = k - first_k
        if done >= 3 * max(min_ops, 1) and not results:
            break
        if done >= min_ops and walls and spent + float(np.median(walls)) > budget_s:
            break
    return done, failed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()

    root = Path.cwd()
    work_dir = Path(args.work_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = None
    if args.trace and not args.setup_only:
        tracer = tracing.Tracer()
        tracer.install()
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(root, args.seed)
    gauge = Gauge()
    results, failures = [], []
    if args.trace:
        # untraced half, then the same operations traced
        half = args.seconds / 2
        n_plain, f_plain = run_ops(wl, half, 0, 1, None, gauge, results, failures)
        plain = list(results)
        tracer.install()
        n_traced, f_traced = run_ops(wl, half, n_plain, 1, tracer, gauge, results, failures)
        tracer.uninstall()
        traced = results[len(plain):]
        ops, failed = n_plain + n_traced, f_plain + f_traced
    else:
        ops, failed = run_ops(wl, args.seconds, 0, 2, None, gauge, results, failures)
        plain, traced = results, []

    # two run-level checks: finish() and the count collection
    try:
        bad = wl.finish()
    except Exception:
        bad = [f"finish raised:\n{traceback.format_exc()}"]
    failures.extend(bad)
    failed += bool(bad)
    try:
        counts, counts_ok = wl.counts(), True
    except Exception:
        failures.append(f"counts raised:\n{traceback.format_exc()}")
        counts, counts_ok = {}, False
    failed += not counts_ok

    samples = [x for r in plain for x in r.samples_s]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "setup_s": setup_s,
        "import_s": T_IMPORTED - args.spawned_at,
        "calib_ms": 1e3 * float(np.median(gauge.passes)),
        "calib_samples": len(gauge.passes),
        "latency_unit": wl.latency_unit,
        "item_unit": wl.item_unit,
        "ops": ops,
        "attempted": ops + 2,
        "failed": failed,
        "failures": failures,
        "counts": counts,
        "counts_ok": counts_ok,
        "samples_s": samples,
        "op_ms": {f"p{q}": 1e3 * op_latency(plain, q) if plain else 0.0 for q in (10, 50)},
        "op_calib": {"p50": op_calib(plain) if plain else 0.0},
        "op_calib_each": [r.net_s / r.calib_s for r in plain],
        "tail": tail(samples),
        "timed_s": sum(r.net_s for r in plain),
        "items": sum(r.items for r in plain),
        "report": wl.report(plain) if plain else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["trace"] = trace_metrics(tracer, plain, traced, n_plain)
        result["trace"]["metrics"].update(wl.extra_layer_metrics())
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
    print(json.dumps(result))
    return 0


def trace_metrics(tracer, plain, traced, first_op) -> dict:
    """Per-layer figures from the traced operations (ops >= first_op)."""
    s = tracer.summary(first_op)
    n_ops = max(len(traced), 1)
    traced_wall = sum(r.wall_s for r in traced)
    m = {}
    for mod, fn in tracing.TRACED:
        name = f"{mod}.{fn}"
        m[f"{name}.self_ms"] = 1e3 * s.self_s.get(name, 0.0) / n_ops
        m[f"{name}.ms"] = 1e3 * s.incl_s.get(name, 0.0) / n_ops
        m[f"{name}.calls"] = s.calls.get(name, 0) / n_ops
    m["cli.self_ms"] = m.pop("cli.main.self_ms")
    m["neighborhood.gather_schedule.setup_ms"] = 1e3 * s.setup_incl_s.get(
        "neighborhood.gather_schedule", 0.0)

    steps = _train_steps(s)
    m["trainer.step_ms.p50"] = 1e3 * percentile(steps, 50)
    m["trainer.step_ms.p90"] = 1e3 * percentile(steps, 90)
    dec = s.self_per_call.get("decoder.decode_step", [])
    m["decoder.decode_step.self_us.p50"] = 1e6 * percentile(dec, 50)
    m["decoder.decode_step.self_us.p90"] = 1e6 * percentile(dec, 90)

    base = op_calib(plain) if plain else 0.0
    m["trace.overhead_ratio"] = (op_calib(traced) / base - 1.0
                                 if base > 0 and traced else 0.0)
    m["trace.residual_ratio"] = ((traced_wall - s.total_self_s) / traced_wall
                                 if traced_wall > 0 else 0.0)
    return {"metrics": m, "ops": len(traced), "wall_s": traced_wall,
            "spans": len(tracer), "self_s_total": s.total_self_s,
            "shares": s.shares()}


def tail(samples):
    """The highest of p50/p90/p99 with at least ten samples beyond it, as
    [q, latency ms, samples beyond], or None."""
    best = None
    for q in (50, 90, 99):
        beyond = int(len(samples) * (1 - q / 100))
        if beyond >= 10:
            best = [q, 1e3 * percentile(samples, q), beyond]
    return best


def op_calib(results) -> float:
    """Median over operations of the operation's seconds divided by the
    calibration seconds around it: latency in units of the calibration
    kernel, which cancels the host's slow swings in speed."""
    return float(np.median([r.net_s / r.calib_s for r in results]))


def op_latency(results, q) -> float:
    """Operation latency (s) at percentile q. An operation made of separately
    timed parts takes the sum of each part's percentile."""
    if results[0].parts_s:
        return sum(percentile([r.parts_s[k] for r in results], q) for k in results[0].parts_s)
    return percentile([x for r in results for x in r.samples_s], q)


def _train_steps(s) -> list:
    """Step time: start of make_batch to end of the adamw_step that follows,
    taken from the spans directly under each trainer.train span."""
    t = s.tracer
    starts = {}
    steps = []
    for i in s.span_indices("trainer.make_batch"):
        starts.setdefault(t.parents[i], []).append(t.starts[i])
    for i in s.span_indices("trainer.adamw_step"):
        pending = starts.get(t.parents[i])
        if pending:
            steps.append(t.ends[i] - pending.pop(0))
    return steps


if __name__ == "__main__":
    sys.exit(main())
