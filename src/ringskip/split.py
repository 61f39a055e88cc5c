"""The one split rule for running a batch on both CPUs: its rows as two fixed
halves, rows [0, ⌈B/2⌉) and the rest, results combined by the caller in a
fixed order. `in_halves` runs the first half on the calling thread and the
second on one worker thread; on a host that gives this process one CPU both
halves run on the caller, in the same order, so results depend on neither
the CPU count nor thread scheduling.

Splits do not nest: a call to `in_halves` made while a half of another split
runs (marked by `one_half`) runs its halves inline. So there is never more
than one worker thread, and the worker never waits on itself. `attention`
splits the row-local steps of each large forward and backward, runs the
backward's whole-row sums as two concurrent jobs, and runs a call whole where
`can_split` is False. `trainer` cuts each train step and evaluation batch by
`halves` too, but runs its second half in a forked process, not on the
worker thread: at train sizes the two threads would spend the step handing
the interpreter lock back and forth. Both of its halves run inside
`one_half`, so the attention calls they make run inline.

A large attention call frees and reallocates tens of MB of arrays per call.
glibc hands blocks above its mmap threshold, and a heap top above its trim
threshold, back to the kernel, so each call would fault its memory in again.
`keep_heap`, called by every large attention call, makes the first one set
both thresholds so that freed memory stays in the process: the process then
stays at its high-water mark of resident memory, and `heap_kept` says whether
that happened. Small calls never call it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent import futures
from typing import Callable, List

# runs the second half; its one thread starts on the first submit
_WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="ringskip-half")
# `busy` is True on a thread while it runs a half
_STATE = threading.local()
# None until the first `keep_heap` call, then whether retention is on; it
# mirrors the C library's allocator settings, which are process-wide
_HEAP_KEPT = None
_HEAP_LOCK = threading.Lock()


def threads() -> int:
    """2 when a second half runs beside the first, 1 when the host gives this
    process one CPU and both halves run on the caller."""
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


@contextlib.contextmanager
def one_half():
    """Marks the calling thread as running one half of a split for the body of
    the `with`: a call to `in_halves` made inside runs its halves inline."""
    was = getattr(_STATE, "busy", False)
    _STATE.busy = True
    try:
        yield
    finally:
        _STATE.busy = was


def _as_half(fn: Callable, *args):
    with one_half():
        return fn(*args)


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


def keep_heap() -> None:
    """From the first call on, glibc keeps freed memory in the heap for reuse:
    M_MMAP_THRESHOLD (-3) goes to its largest value, 32 MiB, so blocks below it
    come from the heap, and M_TRIM_THRESHOLD (-1) to -1, never trim. Later
    calls do nothing. Where the C library has no `mallopt`, nothing changes."""
    global _HEAP_KEPT
    with _HEAP_LOCK:
        if _HEAP_KEPT is not None:
            return
        _HEAP_KEPT = False
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):
            return
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _HEAP_KEPT = bool(mallopt(-3, 32 << 20)) & bool(mallopt(-1, -1))


def heap_kept() -> bool:
    """True once `keep_heap` has switched retention on in this process."""
    return bool(_HEAP_KEPT)
