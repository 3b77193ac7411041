"""Test-session setup.

OpenBLAS and OpenMP read their thread counts once, when numpy loads, so the
cap is set here, before any test module imports numpy. run_batch's worker
threads each call into BLAS; uncapped, every call would start its own team
of BLAS threads on top of them. A value set in the environment wins. The
variables come from the CLI, whose import loads no numpy.
"""

import os

from mimopam.cli import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
