"""In-memory span tracer that wraps the public functions of the ringskip
modules from outside the package.

`Tracer.install()` rebinds every traced function in every loaded `ringskip.*`
module namespace that holds it (so `ringskip.model.block_forward`, the name
`model_forward` calls, is wrapped along with `ringskip.attention.block_forward`).
`uninstall()` restores the originals. Nothing in the package is edited.

A span is (name, start, end, parent span, workload operation id). Spans stay
in lists until the run ends. A function that calls itself directly (for
example `model.flatten`) records one span for the outermost call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

# (module, function) pairs traced; the span name is "<module>.<function>"
TRACED: Tuple[Tuple[str, str], ...] = (
    ("numerics", "softmax_row"),
    ("numerics", "gelu"),
    ("numerics", "grad_check"),
    ("neighborhood", "gather_schedule"),
    ("neighborhood", "build_union"),
    ("gate", "gate_forward"),
    ("gate", "gate_backward"),
    ("attention", "pi_attention_forward"),
    ("attention", "pi_attention_backward"),
    ("attention", "block_forward"),
    ("attention", "block_backward"),
    ("attention", "dense_oracle"),
    ("model", "model_forward"),
    ("model", "model_backward"),
    ("model", "flatten"),
    ("trainer", "train"),
    ("trainer", "make_batch"),
    ("trainer", "cross_entropy"),
    ("trainer", "clip_by_global_norm"),
    ("trainer", "adamw_step"),
    ("trainer", "evaluate"),
    ("trainer", "save_checkpoint"),
    ("decoder", "decode_step"),
    ("checks", "run_oracle_check"),
    ("checks", "run_stacked_grad_check"),
    ("rfield", "rf_report"),
    ("perf", "work_report"),
    ("cli", "main"),
)

SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.op_id = SETUP_OP
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and names[parent] == name:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(parent)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ringskip" or key.startswith("ringskip.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"ringskip.{mod_name}")
            if home is None:
                raise RuntimeError(f"ringskip.{mod_name} is not imported")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> List[float]:
        """Per-span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def summary(self, first_op: int = 0) -> "SpanSummary":
        return SpanSummary(self, first_op)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                    "end": self.ends[i], "parent": self.parents[i],
                                    "op": self.ops[i]}) + "\n")


class SpanSummary:
    """Aggregates of the spans that belong to workload operations >= first_op."""

    def __init__(self, tracer: Tracer, first_op: int) -> None:
        selfs = tracer.self_times()
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.self_per_call: Dict[str, List[float]] = {}
        self.setup_incl_s: Dict[str, float] = {}
        self.total_self_s = 0.0
        self.tracer = tracer
        self.first_op = first_op
        for i, name in enumerate(tracer.names):
            op = tracer.ops[i]
            dur = tracer.ends[i] - tracer.starts[i]
            if op == SETUP_OP:
                if tracer.parents[i] < 0:
                    self.setup_incl_s[name] = self.setup_incl_s.get(name, 0.0) + dur
                continue
            if op < first_op:
                continue
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_per_call.setdefault(name, []).append(selfs[i])
            self.total_self_s += selfs[i]

    def span_indices(self, name: str) -> List[int]:
        t = self.tracer
        return [i for i, n in enumerate(t.names)
                if n == name and t.ops[i] >= self.first_op]

    def shares(self) -> Dict[str, float]:
        total = self.total_self_s or 1.0
        return {k: v / total for k, v in sorted(self.self_s.items(),
                                                key=lambda kv: -kv[1])}

