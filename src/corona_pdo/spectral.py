"""Truncation ladders: essential-norm estimates, Weyl probes, Fredholm verdicts.

The frequency picture makes "behavior at infinity" a concrete matrix
question: compress the frequency-side operator onto the high-frequency
shell {|eta| > N/2} of a band-N truncation and watch singular values as N
grows.  The top shell singular value extrapolated in N^{-1/2} estimates
the distance to the compact operators; sigma_min of (shell - lambda) probes
whether lambda is approached by high-frequency almost-eigenvectors.

Every ladder section is built in band storage (``pdo.frequency_section``)
and its singular values are square roots of the eigenvalues of the banded
Gram matrix (S - lambda)^H (S - lambda), from direct LAPACK calls: all of
them for sigma_top and the windows, the smallest one for sigma_min.
Nothing iterates.  The squared values carry an absolute error of a few
eps ||S||^2, so sigma is good to about eps ||S||^2 / sigma, and to about
sqrt(eps) ||S|| as sigma -> 0.

All verdicts here are numerical evidence at desk scale, not proofs.  The
estimator ladder is heuristic in two places that the results report
explicitly: the N^{-1/2} extrapolation model, and quantile "windows" of
the shell spectrum that should plateau when the shell truly captures
asymptotic behavior.  High relative residual in the fit, or an estimate
above the symbol's sup bound (which bounds ||Op(f)||), marks the result
unreliable rather than silently smoothing it away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .asymptotics import (
    FilterBase,
    SamplingSchedule,
    StandardBase,
    fit_inverse_sqrt,
    fredholm_floor,
    gohberg_rhs_maxform,
    gohberg_rhs_minform,
)
from .groups import GroupGrid, truncated_dual
from .pdo import frequency_section
from .symbols import Symbol, vanishing_oscillation_test


class SpectralError(ValueError):
    """Raised for unusable truncation ladders."""


@dataclass(frozen=True)
class TruncationSchedule:
    """Band ladder: for band N the x grid is a torus on oversampling*N samples."""

    bands: tuple = (256, 512, 1024, 2048)
    oversampling: int = 4

    def __post_init__(self):
        bands = tuple(int(b) for b in self.bands)
        if len(bands) < 3:
            raise SpectralError("need at least 3 band sizes for extrapolation")
        if any(b < 4 for b in bands):
            raise SpectralError("bands must be integers >= 4")
        if any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
            raise SpectralError("bands must be strictly increasing")
        if int(self.oversampling) < 2:
            raise SpectralError("oversampling must be >= 2 (Nyquist)")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "oversampling", int(self.oversampling))

    def grids(self, band: int):
        xg = GroupGrid.torus(self.oversampling * band)
        return xg, truncated_dual(xg, band)


def _gram(band: np.ndarray, lam: complex = 0.0) -> np.ndarray:
    """Upper band storage of (S - lam)^H (S - lam) for S in band storage."""
    rows, n = band.shape
    if rows % 2 == 0:
        raise SpectralError("band storage needs equal lower and upper bandwidths")
    k = rows // 2
    if lam != 0:
        band = band.copy()
        band[k] -= lam
    w = min(2 * k, n - 1)
    gram = np.zeros((w + 1, n), dtype=complex)
    for d in range(w + 1):  # gram[j - d, j] = sum_i conj(S[i, j - d]) S[i, j]
        gram[w - d, d:] = np.einsum("ij,ij->j", band[d:, : n - d].conj(), band[: rows - d, d:])
    return gram


def singular_values(band: np.ndarray) -> np.ndarray:
    """All singular values, descending, of a square matrix in band storage.

    ``band`` is LAPACK general band storage ``band[K + a - b, b] = S[a, b]``
    (see ``pdo.frequency_section``); the values are square roots of the
    eigenvalues of the banded Gram matrix S^H S, from one LAPACK call.
    """
    ev = sla.eigvals_banded(_gram(band), lower=False)
    return np.sqrt(np.maximum(ev[::-1], 0.0))


def sigma_min(band: np.ndarray, lam: complex = 0.0) -> float:
    """Smallest singular value of S - lam, S in band storage, from the Gram matrix."""
    ev = sla.eigvals_banded(_gram(band, lam), lower=False, select="i", select_range=(0, 0))
    return float(np.sqrt(max(ev[0], 0.0)))


def shell_indices(xigrid: GroupGrid, threshold: float) -> np.ndarray:
    """Dual indices with |xi| > threshold (Euclidean on coordinates)."""
    r = np.linalg.norm(xigrid.coords, axis=1)
    return np.where(r > threshold)[0]


def _shell_section(symbol: Symbol, schedule: TruncationSchedule, band: int) -> np.ndarray:
    xg, xig = schedule.grids(band)
    idx = shell_indices(xig, band / 2)
    if len(idx) < 8:
        raise SpectralError(f"band {band} leaves a degenerate shell ({len(idx)} points)")
    return frequency_section(symbol.rebound(xg, xig), idx, banded=True)


@dataclass
class EssentialNormResult:
    bands: tuple
    shell_dims: tuple
    sigma_top: tuple
    windows: dict  # theta -> per-band quantile sigma
    estimate: float
    slope: float
    residual: float
    rel_residual: float
    reliable: bool
    notes: tuple

    def as_dict(self) -> dict:
        return {
            "bands": list(self.bands),
            "shell_dims": list(self.shell_dims),
            "sigma_top": list(self.sigma_top),
            "windows": {str(k): list(v) for k, v in self.windows.items()},
            "estimate": self.estimate,
            "slope": self.slope,
            "residual": self.residual,
            "rel_residual": self.rel_residual,
            "reliable": self.reliable,
            "notes": list(self.notes),
        }


def essential_norm_estimate(
    symbol: Symbol,
    schedule: TruncationSchedule | None = None,
    window_thetas: tuple = (0.5, 0.75, 0.9),
) -> EssentialNormResult:
    """Distance-to-compacts estimate from high-frequency shell compressions.

    Per band N: sigma_max of the shell section, then an a + b*N^{-1/2} fit;
    the extrapolated a (clamped at 0) is the estimate.  Quantile windows of
    the shell spectrum ride along as diagnostics: they should plateau across
    bands when the shell has stabilized, and a drifting window is a reason
    to distrust the fit, not data to average in.  A fit residual above 20%
    or an estimate above 1.05 * sup_bound marks the ladder unreliable.
    """
    schedule = schedule or TruncationSchedule()
    tops, dims, notes = [], [], []
    windows = {th: [] for th in window_thetas}
    for band in schedule.bands:
        s = singular_values(_shell_section(symbol, schedule, band))
        n = len(s)
        dims.append(n)
        tops.append(float(s[0]))
        for th in window_thetas:
            windows[th].append(float(s[min(int(th * n), n - 1)]))
    a, b, resid, rel = fit_inverse_sqrt(np.array(schedule.bands, dtype=float), np.array(tops))
    est = max(a, 0.0)
    if a < 0:
        notes.append("extrapolation clamped at 0")
    reliable = rel <= 0.2
    if not reliable:
        notes.append(f"fit residual {rel:.1%} exceeds 20%: ladder has not stabilized")
    # sup_bound bounds ||Op(f)|| for a tensor symbol, hence the distance to the compacts
    if est > 1.05 * symbol.sup_bound:
        reliable = False
        notes.append(
            f"estimate {est:.4g} exceeds 1.05 x sup_bound {symbol.sup_bound:.4g}, "
            "a bound on the operator norm: ladder has not converged"
        )
    return EssentialNormResult(
        bands=schedule.bands,
        shell_dims=tuple(dims),
        sigma_top=tuple(tops),
        windows=windows,
        estimate=float(est),
        slope=float(b),
        residual=float(resid),
        rel_residual=float(rel),
        reliable=reliable,
        notes=tuple(notes),
    )


@dataclass
class ProbeResult:
    lambdas: tuple
    bands: tuple
    sigma_min_table: tuple  # rows per lambda
    verdicts: tuple
    scale: float

    def as_dict(self) -> dict:
        return {
            "lambdas": [complex(l).real if complex(l).imag == 0 else str(complex(l)) for l in self.lambdas],
            "bands": list(self.bands),
            "sigma_min": [list(row) for row in self.sigma_min_table],
            "verdicts": list(self.verdicts),
            "scale": self.scale,
        }


def essential_spectrum_probe(
    symbol: Symbol,
    lambdas,
    schedule: TruncationSchedule | None = None,
    support_tol: float = 0.05,
) -> ProbeResult:
    """sigma_min((shell section) - lambda) trajectories across the band ladder.

    A trajectory ending below support_tol * sup|f| supports lambda being in
    the essential spectrum (high-frequency Weyl vectors exist at every
    scale); a stable plateau well above it is evidence against.  The
    supporting direction is the Weyl-type necessary condition only — for
    non-normal operators a high plateau never proves lambda is outside.
    Verdict labels are advisory; the numbers are in ``sigma_min_table``.
    """
    schedule = schedule or TruncationSchedule()
    lambdas = tuple(complex(l) for l in lambdas)
    table = np.empty((len(lambdas), len(schedule.bands)))
    for j, band in enumerate(schedule.bands):
        sect = _shell_section(symbol, schedule, band)
        for i, lam in enumerate(lambdas):
            table[i, j] = sigma_min(sect, lam=lam)
    scale = max(float(symbol.sup_bound), 1e-12)
    verdicts = []
    for i in range(len(lambdas)):
        traj = table[i]
        if traj[-1] < support_tol * scale:
            verdicts.append("supporting")
        elif traj[-1] > 5 * support_tol * scale and traj[-1] >= 0.8 * traj[-2]:
            # plateau = the finest two bands agree; coarse-band transients
            # above them are expected and do not count against stability
            verdicts.append("against")
        else:
            verdicts.append("inconclusive")
    return ProbeResult(
        lambdas=lambdas,
        bands=schedule.bands,
        sigma_min_table=tuple(tuple(row) for row in table),
        verdicts=tuple(verdicts),
        scale=scale,
    )


@dataclass
class FredholmResult:
    verdict: str  # FREDHOLM-SUFFICIENT | INCONCLUSIVE | NOT-FREDHOLM
    floor: float
    floor_x_index: int | None
    bands: tuple
    sigma_min_full: tuple
    corroborated: bool
    notes: tuple

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "floor": self.floor,
            "floor_x_index": self.floor_x_index,
            "bands": list(self.bands),
            "sigma_min_full": list(self.sigma_min_full),
            "corroborated": self.corroborated,
            "notes": list(self.notes),
        }


def fredholm_check(
    symbol: Symbol,
    base: FilterBase | None = None,
    schedule: TruncationSchedule | None = None,
    asym_schedule: SamplingSchedule | None = None,
    floor_tol: float = 1e-2,
    margin_factor: float = 0.5,
) -> FredholmResult:
    """Invertibility-modulo-compacts verdict.

    Non-compact x group: 0 always sits in the spectrum at infinity (the
    symbol algebra degenerates along x -> infinity), so the verdict is
    NOT-FREDHOLM with no computation.  Compact x group: the sufficient
    criterion is min over x of liminf |f(x, .)| > 0; full-band frequency
    sections corroborate (their sigma_min should stay above floor/2), but
    the verdict never rests on sections alone since finite truncation can
    pollute sigma_min in both directions.
    """
    notes = []
    if not symbol.xgrid.is_compact_kind:
        return FredholmResult(
            verdict="NOT-FREDHOLM",
            floor=0.0,
            floor_x_index=None,
            bands=(),
            sigma_min_full=(),
            corroborated=True,
            notes=("x group is non-compact: 0 lies in the spectrum at infinity",),
        )
    base = base or StandardBase(symbol.xigrid.ndim)
    floor, x_j = fredholm_floor(symbol, base, asym_schedule)
    schedule = schedule or TruncationSchedule()
    sigmas = []
    for band in schedule.bands:
        xg, xig = schedule.grids(band)
        sigmas.append(sigma_min(frequency_section(symbol.rebound(xg, xig), banded=True)))
    verdict = "FREDHOLM-SUFFICIENT" if floor > floor_tol else "INCONCLUSIVE"
    corroborated = True
    if verdict == "FREDHOLM-SUFFICIENT":
        corroborated = bool(min(sigmas) >= margin_factor * floor)
        if not corroborated:
            notes.append(
                "full-band sigma_min dips below the corroboration margin: the "
                "operator may vanish at finite frequencies even though the "
                "criterion holds at infinity"
            )
    else:
        notes.append(
            f"liminf floor {floor:.3g} is below {floor_tol:g}: criterion is "
            "sufficient-only, no conclusion"
        )
    return FredholmResult(
        verdict=verdict,
        floor=float(floor),
        floor_x_index=int(x_j),
        bands=schedule.bands,
        sigma_min_full=tuple(float(s) for s in sigmas),
        corroborated=corroborated,
        notes=tuple(notes),
    )


@dataclass
class GohbergReport:
    estimate: float
    rhs: float
    minform: float
    ratio: float | None  # None when rhs degenerates with a nonzero estimate
    ratio_band: tuple
    ratio_in_band: bool
    lower_bound_ok: bool
    vo_verdicts: tuple  # one per closure-backed tensor factor
    unreliable: bool
    violation: bool
    notes: tuple

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "rhs": self.rhs,
            "minform": self.minform,
            "ratio": self.ratio,
            "ratio_band": list(self.ratio_band),
            "ratio_in_band": self.ratio_in_band,
            "lower_bound_ok": self.lower_bound_ok,
            "vo_verdicts": list(self.vo_verdicts),
            "unreliable": self.unreliable,
            "violation": self.violation,
            "notes": list(self.notes),
        }


def gohberg_verify(
    symbol: Symbol,
    base: FilterBase | None = None,
    schedule: TruncationSchedule | None = None,
    asym_schedule: SamplingSchedule | None = None,
    ratio_band: tuple = (0.85, 1.15),
    zero_tol: float = 0.05,
    est_result: EssentialNormResult | None = None,
) -> GohbergReport:
    """Distance-to-compacts identity check: truncation ladder vs sampled limsup.

    Left side: essential_norm_estimate.  Right side: max over x of
    limsup |f(x, .)| along the base (and the min-over-x variant, whose value
    must stay below the estimate: the lower-bound half of the identity).
    Both sides tiny means ratio 1 by convention.  A degenerate rhs under a
    nonzero estimate, an out-of-band ratio, or a broken lower bound is a
    VIOLATION — unless the inputs disqualify themselves first: a failed
    vanishing-oscillation test on a tensor factor or an unreliable ladder
    marks the whole report UNRELIABLE, where the identity is simply not
    claimed and no violation is raised.  Pass ``est_result`` to reuse an
    already-computed ladder instead of rebuilding it.
    """
    base = base or StandardBase(symbol.xigrid.ndim)
    est_res = est_result or essential_norm_estimate(symbol, schedule)
    max_fit = gohberg_rhs_maxform(symbol, base, asym_schedule)
    minform, _ = gohberg_rhs_minform(symbol, base, asym_schedule)
    est, rhs = est_res.estimate, max_fit.value
    notes = list(est_res.notes)
    unreliable = not est_res.reliable

    vo_verdicts = []
    for _, psi in symbol.tensor_terms or ():
        prof = vanishing_oscillation_test(
            psi,
            shifts=np.eye(symbol.xigrid.ndim)[0][None, :] * np.array([[0.5], [1.0], [2.0]]),
            radii=np.logspace(2, 6, 9),
        )
        vo_verdicts.append(prof.verdict)
        if prof.verdict == "FAIL":
            unreliable = True
            notes.append(
                f"dual factor {psi.name or '?'} fails the vanishing-oscillation "
                "test: the distance identity is not expected to hold"
            )
    if symbol.tensor_terms is None:
        notes.append("tabulated symbol: no closure to run oscillation diagnostics on")

    tiny = 1e-10
    violation = False
    # rhs comes from an extrapolated fit and may sit slightly below zero
    if est < zero_tol and abs(rhs) < zero_tol:
        ratio = 1.0
        if est < tiny and abs(rhs) < tiny:
            notes.append("both sides below 1e-10: ratio 1 by convention")
        else:
            notes.append(
                f"both sides below {zero_tol:g} (compact regime): ratio 1 by convention"
            )
    elif abs(rhs) < zero_tol:
        ratio = None
        if not unreliable:
            violation = True
            notes.append(
                f"rhs degenerate but estimate {est:.3g} > {zero_tol:g}: VIOLATION"
            )
    else:
        ratio = float(est / rhs)
    ratio_in_band = ratio is not None and ratio_band[0] <= ratio <= ratio_band[1]
    lower_bound_ok = minform <= est * 1.05 + tiny
    if not unreliable:
        if ratio is not None and not ratio_in_band:
            violation = True
            notes.append(f"ratio {ratio:.4f} outside {list(ratio_band)}: VIOLATION")
        if not lower_bound_ok:
            violation = True
            notes.append(
                f"lower bound broken: minform {minform:.4f} > estimate {est:.4f}: VIOLATION"
            )
    return GohbergReport(
        estimate=float(est),
        rhs=float(rhs),
        minform=float(minform),
        ratio=ratio,
        ratio_band=tuple(ratio_band),
        ratio_in_band=ratio_in_band,
        lower_bound_ok=lower_bound_ok,
        vo_verdicts=tuple(vo_verdicts),
        unreliable=unreliable,
        violation=violation,
        notes=tuple(notes),
    )
