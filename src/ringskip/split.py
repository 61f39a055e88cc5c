"""The one split rule for running a batch on both CPUs: its rows as two fixed
halves, rows [0, ⌈B/2⌉) on the calling thread and the rest on one worker
thread, results returned in half order for the caller to combine in a fixed
order. On a host that gives this process one CPU both halves run on the
caller, in the same order, so results depend on neither the CPU count nor
thread scheduling.

Splits do not nest: a call to `in_halves` made while either half of another
runs (on the caller or on the worker) runs its halves inline. So there is
never more than one worker thread, and the worker never waits on itself.
`trainer` splits each batch of a train step and of `evaluate`; `attention`
splits the row-local steps of each large forward and backward, and runs a
call whole where `can_split` is False.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures
from typing import Callable, List

# runs the second half; its one thread starts on the first submit
_WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="ringskip-half")
# `busy` is True on a thread while it runs a half
_STATE = threading.local()


def threads() -> int:
    """2 when a second half runs on the worker thread, 1 when the host gives
    this process one CPU and both halves run on the caller."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if (cpus or 1) >= 2 else 1


def can_split() -> bool:
    """True when `in_halves` called here would run a second half on the worker
    thread: the process may use two CPUs and this thread runs no half."""
    return threads() >= 2 and not getattr(_STATE, "busy", False)


def halves(size: int) -> List[slice]:
    """Rows [0, ⌈size/2⌉) and the rest; a half with no rows is left out."""
    cut = (size + 1) // 2
    return [slice(0, cut), slice(cut, size)][:2 if cut < size else 1]


def _as_half(fn: Callable, *args):
    _STATE.busy = True
    try:
        return fn(*args)
    finally:
        _STATE.busy = False


def in_halves(fn: Callable, parts: List[tuple]) -> list:
    """[fn(*part) for part in parts] for one or two parts. A second part runs
    on the worker thread while the caller runs the first, or after it on the
    caller when `threads()` is 1 or this call is made inside a half. An
    exception in either half is raised here, once both have finished."""
    if len(parts) < 2 or not can_split():
        return [fn(*part) for part in parts]
    pending = _WORKER.submit(_as_half, fn, *parts[1])
    try:
        head = _as_half(fn, *parts[0])
    finally:
        futures.wait([pending])
    return [head, pending.result()]
