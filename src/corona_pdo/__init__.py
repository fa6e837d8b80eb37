"""Numerical toolkit for pseudodifferential operators on discretized abelian groups.

Builds Op(f) from a symbol f(x, xi) on a sampled group/dual pair, and checks
spectral predictions (distance to the compacts, essential spectrum membership,
Fredholm sufficiency) against limsup-at-infinity functionals of the symbol.
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

from .groups import (
    GridError,
    GridFunction,
    GroupGrid,
    assert_dual_pair,
    pairing,
    pairing_phase,
    product_group,
    truncated_dual,
)
from .fourier import (
    PhaseFunction,
    convolve,
    fourier,
    inverse_fourier,
    partial_fourier_1,
    partial_fourier_2_inverse,
    transform_matrix,
)
from .symbols import (
    DualClosure,
    Symbol,
    SymbolError,
    TableSymbol,
    TensorSymbol,
    cesaro_mean,
    constant_symbol,
    multiplier_symbol,
    tensor_symbol,
    vanishing_oscillation_test,
)
from .asymptotics import (
    AsymptoticsError,
    FilterBase,
    SamplingSchedule,
    StandardBase,
    cluster_set,
    liminf_along,
    limsup_along,
)
from .pdo import (
    PdoError,
    diagram_check,
    frequency_section,
    hs_norm,
    op_matrix,
)
from .spectral import (
    SpectralError,
    TruncationSchedule,
    essential_norm_estimate,
    essential_spectrum_probe,
    fredholm_check,
    gohberg_verify,
    sigma_min,
)

__all__ = [
    "AsymptoticsError",
    "DualClosure",
    "FilterBase",
    "GridError",
    "GridFunction",
    "GroupGrid",
    "PdoError",
    "PhaseFunction",
    "SamplingSchedule",
    "SpectralError",
    "StandardBase",
    "Symbol",
    "SymbolError",
    "TableSymbol",
    "TensorSymbol",
    "TruncationSchedule",
    "assert_dual_pair",
    "cesaro_mean",
    "cluster_set",
    "constant_symbol",
    "convolve",
    "diagram_check",
    "essential_norm_estimate",
    "essential_spectrum_probe",
    "fourier",
    "fredholm_check",
    "frequency_section",
    "gohberg_verify",
    "hs_norm",
    "inverse_fourier",
    "liminf_along",
    "limsup_along",
    "multiplier_symbol",
    "op_matrix",
    "pairing",
    "pairing_phase",
    "partial_fourier_1",
    "partial_fourier_2_inverse",
    "product_group",
    "sigma_min",
    "tensor_symbol",
    "transform_matrix",
    "truncated_dual",
    "vanishing_oscillation_test",
]

__version__ = "0.1.0"
