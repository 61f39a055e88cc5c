"""Pin the BLAS to one thread before any test module imports numpy.

The suite's matrices are small, and on a multi-core host a second OpenBLAS
thread spends more on synchronisation than it saves (the stacked gradient
check runs about a third slower with it). A value already set in the
environment wins.

Also holds the session fixtures that several tests read.
"""

import json
import os
import time
from typing import List, NamedTuple

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class GradCheckRun(NamedTuple):
    exit_code: int
    summary: dict          # summary.json
    csv_rows: List[str]    # grad_check.csv lines, header first
    seconds: float         # wall time of the command


@pytest.fixture(scope="session")
def grad_check_run(tmp_path_factory) -> GradCheckRun:
    """`ringskip grad-check` at its default nine seeds, run once per session."""
    from ringskip.cli import main

    out = tmp_path_factory.mktemp("grad_check")
    t0 = time.perf_counter()
    code = main(["grad-check", "--out", str(out)])
    dt = time.perf_counter() - t0
    return GradCheckRun(code, json.loads((out / "summary.json").read_text()),
                        (out / "grad_check.csv").read_text().splitlines(), dt)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the `split` rule see k CPUs: on 1, both parts of every
    split run on the caller and nothing is forked."""
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
