"""Test-session setup.

OpenBLAS and OpenMP read their thread counts once, when numpy loads, so the
cap is set here, before any test module imports numpy. run_batch's worker
threads each call into BLAS; uncapped, every call would start its own team
of BLAS threads on top of them. A value set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
