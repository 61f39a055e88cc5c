"""Pin the BLAS to one thread before any test module imports numpy.

The suite's matrices are small, and on a multi-core host a second OpenBLAS
thread spends more on synchronisation than it saves (the stacked gradient
check runs about a third slower with it). A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
