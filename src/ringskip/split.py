"""The one split rule for running work on both CPUs: a batch's rows as two
fixed halves, rows [0, ⌈B/2⌉) and the rest, or a list of jobs as two fixed
sets of near-equal static cost (`two_sets`), results combined by the caller
in a fixed order. On a host that gives this process one CPU both parts run on
the caller, in the same order, so results depend on neither the CPU count
nor thread or process scheduling.

The second part runs beside the first in one of two ways:
- `in_halves` runs it on one worker thread. That pays only where a few long
  calls release the interpreter lock: `attention` splits the row-local steps
  of each large forward and backward this way, runs the backward's whole-row
  sums as two concurrent jobs, and runs a call whole where `can_split` is
  False.
- `Sibling` runs it in a process forked from the caller, or, where
  `can_split` is False or the platform has no `os.fork`, on the caller
  after the first. Two processes, not two threads, where the work is many
  short numpy calls that hold the lock. Only the second part's arguments
  and its result cross the pipes; besides them, the sibling sees the
  caller's memory as it was at the fork, and shares with it only what the
  caller put in anonymous shared memory before the fork. Its three clients:
  `trainer`, whose sibling lives for a whole `train` call and runs the
  second half of each step and evaluation batch, and, through
  `in_two_sets`, one fork per call, `checks.run_oracle_check` (a set of its
  (n, causal) buckets) and `checks.run_stacked_grad_check` (a set of its
  tensors).

Splits do not nest: a part runs inside `one_half`, and a split asked for
there runs its parts inline. So there is never more than one worker thread
or one sibling at a time, the worker never waits on itself, and a sibling,
which has no worker thread, never submits to one.

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
import pickle
import threading
import traceback
from concurrent import futures
from typing import Callable, List, Optional, Sequence, Tuple

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
    """True when a split asked for here would run its second part beside the
    first: the process may use two CPUs and this thread runs no part."""
    return threads() >= 2 and not getattr(_STATE, "busy", False)


def halves(size: int) -> List[slice]:
    """Rows [0, ⌈size/2⌉) and the rest; a half with no rows is left out."""
    cut = (size + 1) // 2
    return [slice(0, cut), slice(cut, size)][:2 if cut < size else 1]


def row_views(tree, rows: slice):
    """The rows `rows` of every array of the dataclass `tree`, as one of its
    type: views, so writing them writes `tree`."""
    return type(tree)(*(a[rows] for a in vars(tree).values()))


def two_sets(costs: Sequence[float]) -> List[List[int]]:
    """The indices of `costs` as two sets of near-equal total cost: from the
    largest cost down, each index joins the set with the smaller total so
    far, the first on a tie. Each set is in ascending order; a set left
    empty is left out."""
    sets: List[List[int]] = [[], []]
    totals = [0.0, 0.0]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        j = totals.index(min(totals))
        sets[j].append(i)
        totals[j] += costs[i]
    return [sorted(part) for part in sets if part]


@contextlib.contextmanager
def one_half():
    """Marks the calling thread as running one half of a split for the body of
    the `with`: a split asked for inside runs its parts inline."""
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


class Sibling:
    """Runs `run(*part)` for the parts given to `parts`, the second of two in
    a process forked from the caller while the caller runs the first. The
    first call of `parts` with two parts forks, when `can_split()` held as
    the `Sibling` was built and the platform has `os.fork`; later calls
    reuse that sibling. Where nothing is forked, the caller runs both parts,
    in order, so the results are the same either way.

    Parts and results are pickled (`multiprocessing.connection`); `run`
    itself is not, so it may be a closure. An exception that `run` raises
    in the sibling is raised by `parts`, chained to the sibling's formatted
    traceback; one that does not survive pickling comes back as a
    RuntimeError naming it.

    A `with` block runs the caller inside `one_half`. The sibling runs
    inside it too, starts no thread, and exits when its command pipe ends.
    Leaving the block closes the pipes, reaps the sibling and keeps its
    peak resident memory in MB as `peak_rss_mb`, None when nothing was
    forked."""

    def __init__(self, run: Callable):
        self._run = run
        self._may_fork = can_split() and hasattr(os, "fork")
        self._pid: Optional[int] = None
        self._half = one_half()
        self.peak_rss_mb: Optional[float] = None

    def _fork(self) -> None:
        # imported here: only the commands that fork pay for it
        from multiprocessing.connection import Pipe
        commands_r, commands = Pipe(duplex=False)
        replies, replies_w = Pipe(duplex=False)
        try:
            pid = os.fork()
        except OSError:
            for end in (commands_r, commands, replies, replies_w):
                end.close()
            raise
        if pid == 0:
            code = 1
            try:
                commands.close()
                replies.close()
                with commands_r, replies_w, one_half():
                    self._serve(commands_r, replies_w)
                code = 0
            finally:
                os._exit(code)
        commands_r.close()
        replies_w.close()
        self._pid = pid
        self._commands, self._replies = commands, replies

    def _serve(self, commands, replies) -> None:
        """The sibling's loop until its command pipe ends: per part,
        (result, None), or the exception `run` raised and its formatted
        traceback, pickled whole before any of it is sent."""
        while True:
            try:
                part = commands.recv()
            except EOFError:
                return
            try:
                blob = pickle.dumps((self._run(*part), None))
            except Exception as exc:
                trace = traceback.format_exc()
                try:
                    blob = pickle.dumps((exc, trace))
                    pickle.loads(blob)
                except Exception:  # an exception that does not survive pickling
                    blob = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), trace))
            replies.send_bytes(blob)

    def parts(self, parts: List[tuple]) -> list:
        """[run(*part) for part in parts] for one or two parts. The sibling's
        reply is read even when the caller's part raises, so every call
        starts with the pipes empty."""
        if len(parts) == 2 and self._pid is None and self._may_fork:
            self._fork()
        if len(parts) < 2 or self._pid is None:
            return [self._run(*part) for part in parts]
        self._commands.send(parts[1])
        try:
            head = self._run(*parts[0])
        finally:
            try:
                reply, trace = pickle.loads(self._replies.recv_bytes())
            except EOFError:
                raise RuntimeError("the sibling process ended before its reply") from None
        if trace is not None:
            raise reply from RuntimeError(f"raised in the sibling process:\n{trace}")
        return [head, reply]

    def __enter__(self) -> "Sibling":
        self._half.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        """Leaves `one_half`, then ends and reaps the sibling, if there is
        one. A closed sibling runs nothing: it drops `run`, which may be a
        method of an object that holds the sibling, so that no cycle keeps
        that object and its arrays alive until the garbage collector runs."""
        self._half.__exit__(None, None, None)
        self._run = None
        if self._pid is not None:
            pid, self._pid = self._pid, None
            try:
                self._commands.close()
            finally:
                self._replies.close()
                self.peak_rss_mb = os.wait4(pid, 0)[2].ru_maxrss / 1024.0


def in_two_sets(fn: Callable[[int], object],
                costs: Sequence[float]) -> Tuple[list, Optional[float]]:
    """[fn(i) for i in range(len(costs))], and the peak resident memory in MB
    of the `Sibling` that ran a part of it, None when none was forked. The
    indices are cut by `two_sets`, and the sets run as the parts of one
    `Sibling`: only the second set's indices and its results pass through
    the pipes. An exception in either set is raised here once the sibling
    has been reaped."""
    sets = two_sets(costs)

    def run(chosen: List[int]) -> list:
        return [fn(i) for i in chosen]

    with Sibling(run) as sibling:
        found = sibling.parts([(chosen,) for chosen in sets])
    results: list = [None] * len(costs)
    for chosen, part in zip(sets, found):
        for i, result in zip(chosen, part):
            results[i] = result
    return results, sibling.peak_rss_mb


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
