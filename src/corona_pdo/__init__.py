"""Numerical toolkit for pseudodifferential operators on discretized abelian groups.

Builds Op(f) from a symbol f(x, xi) on a sampled group/dual pair, and checks
spectral predictions (distance to the compacts, essential spectrum membership,
Fredholm sufficiency) against limsup-at-infinity functionals of the symbol.
The modules are the API: import from ``corona_pdo.groups``,
``corona_pdo.spectral`` and so on.
"""

import os as _os

from ._fork import thread_cap as _thread_cap

# BLAS pools read their thread caps at import time, so hand them ours before any
# submodule pulls in numpy.  Explicit per-library settings still win.
_cap = _thread_cap()
if _cap is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_cap))
