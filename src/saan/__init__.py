"""Scale-aware attention network for crowd counting.

A self-contained package: numpy-backed tensor ops with hand-written
analytic gradients, density-map data tooling, the four-subnet model,
training/evaluation loops, and a command line front end.
"""

import os

# BLAS thread pools read these variables when numpy loads; every submodule
# imports numpy after this package body runs, so the cap is applied here.
_cap = os.environ.get("SAAN_THREADS")
if _cap:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

__version__ = "0.1.0"
