"""Deterministic low-discrepancy point generators for tail sampling.

Everything here is a pure function of (seed, sizes): additive Kronecker
sequences rather than pseudo-random draws, so repeated runs are bit-stable
and sups estimated on these nets are reproducible.  Direction sets always
include the coordinate axes; sups of anisotropic functions (decay along a
hyperplane, say) are attained on measure-zero direction sets that uniform
sampling would miss.
"""

from __future__ import annotations

import math

import numpy as np

# Largest radius a tail sample may reach.  float64 spacing there is about 1e-4, and
# it grows with the radius until unit shifts (xi + 0.5) and sines of it are noise.
MAX_RADIUS = 1e12

# square roots of primes: badly approximable irrationals for the recurrence
_ALPHAS = np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]))


def kronecker(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """(n, dim) points of an additive-recurrence sequence in [0,1)^dim."""
    if dim > len(_ALPHAS):
        raise ValueError(f"kronecker supports dim <= {len(_ALPHAS)}")
    k = np.arange(1, n + 1, dtype=float)[:, None] + float(seed % (1 << 20))
    return (k * _ALPHAS[None, :dim]) % 1.0


def log_radii(lo: float, hi: float, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform radii on a log scale in (lo, hi]."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    u = kronecker(n, 1, seed)[:, 0]
    return lo * np.exp(u * math.log(hi / lo))


def directions(n: int, dim: int, seed: int = 0, extra=None) -> np.ndarray:
    """About n unit vectors in R^dim, dim >= 2: +-axes, any ``extra`` rows, then a
    quasi-uniform fill of the sphere."""
    fixed = [np.eye(dim), -np.eye(dim)]
    if extra is not None:
        fixed.append(_unit_rows(np.atleast_2d(np.asarray(extra, dtype=float))))
    fixed = np.concatenate(fixed, axis=0)
    m = max(n - len(fixed), 0)
    if m == 0:
        return fixed
    if dim == 2:
        ang = 2 * np.pi * kronecker(m, 1, seed)[:, 0]
        fill = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif dim == 3:
        u = kronecker(m, 2, seed)
        z = 2 * u[:, 0] - 1
        ang = 2 * np.pi * u[:, 1]
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        fill = np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    else:
        # inverse-normal map keeps determinism for higher dimensions
        fill = _unit_rows(_norm_ppf(kronecker(m, dim, seed + 1)))
    return np.concatenate([fixed, fill], axis=0)


def annulus(lo: float, hi: float, dim: int, n: int, seed: int = 0,
            extra_directions=None) -> np.ndarray:
    """About n points with radius in (lo, hi]: radii x directions product net."""
    if dim == 1:
        r = log_radii(lo, hi, _radii_per_ray(n, 1), seed)
        return np.concatenate([r, -r])[:, None]
    return _product_net(lo, hi, n, seed, lambda k: directions(k, dim, seed, extra=extra_directions))


# -- the product-net rule the filter bases share; private, so that a tracer wrapping
# the public names here counts only the points that leave this module


def _fan_size(n: int) -> int:
    """Directions a net of about n points asks its fan for."""
    return max(int(math.sqrt(n)), 8)


def _product_net(lo: float, hi: float, n: int, seed: int, fan) -> np.ndarray:
    """Radii x directions net of about n points with radius in (lo, hi]: the unit
    rows fan(_fan_size(n)) times _radii_per_ray log radii drawn at seed + 7."""
    dirs = fan(_fan_size(n))
    r = log_radii(lo, hi, _radii_per_ray(n, dirs.shape[1], len(dirs)), seed + 7)
    return (r[None, :, None] * dirs[:, None, :]).reshape(-1, dirs.shape[1])


def _radii_per_ray(n: int, dim: int, rays: int | None = None) -> int:
    """Log radii per ray of a net of about n points: n/2 per sign in 1-d, else n
    over the rays (by default the fan size asked for)."""
    return max(n // 2, 1) if dim == 1 else max(n // (rays or _fan_size(n)), 4)


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """g with each nonzero row scaled to unit length."""
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return g / nrm


def _norm_ppf(u):
    # Acklam-style rational approximation; plenty for direction seeding
    u = np.clip(u, 1e-12, 1 - 1e-12)
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    out = np.empty_like(u)
    lo_m = u < 0.02425
    hi_m = u > 1 - 0.02425
    mid = ~(lo_m | hi_m)
    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
        out[mid] = q * num / den
    for mask, sign in ((lo_m, 1.0), (hi_m, -1.0)):
        if mask.any():
            q = np.sqrt(-2 * np.log(np.where(sign > 0, u[mask], 1 - u[mask])))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
            out[mask] = sign * num / den
    return out
