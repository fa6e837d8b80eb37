"""Numerical toolkit for pseudodifferential operators on discretized abelian groups.

Builds Op(f) from a symbol f(x, xi) on a sampled group/dual pair, and checks
spectral predictions (distance to the compacts, essential spectrum membership,
Fredholm sufficiency) against limsup-at-infinity functionals of the symbol.
The modules are the API: import from ``corona_pdo.groups``,
``corona_pdo.spectral`` and so on.
"""

import os as _os

# BLAS pools read their thread caps at import time, so translate ours before
# any submodule pulls in numpy.  Explicit per-library settings still win.
_cap = _os.environ.get("CORONA_PDO_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)
