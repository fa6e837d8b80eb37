"""Deterministic low-discrepancy point generators for tail sampling.

Everything here is a pure function of (seed, sizes): additive Kronecker
sequences rather than pseudo-random draws, so repeated runs are bit-stable
and sups estimated on these nets are reproducible.  Every tail sample is a
product net: a fan of unit rows times log radii along each ray, streamed ray
by ray in blocks of whole rays times a run of radii (``_net_blocks``).  That
stream is the one sampler: a filter base reads it over its own fan
(``FilterBase.blocks``), the oscillation test over ``directions``, and no
sample is ever gathered into one array.  A closure evaluated on a block
returns its formula's dtype (``symbols.DualClosure``).  Direction sets always
include the coordinate axes; sups of anisotropic functions (decay along a
hyperplane, say) are attained on measure-zero direction sets that uniform
sampling would miss.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Largest radius a tail sample may reach.  float64 spacing there is about 1e-4, and
# it grows with the radius until unit shifts (xi + 0.5) and sines of it are noise.
MAX_RADIUS = 1e12

# square roots of primes: badly approximable irrationals for the recurrence
_ALPHAS = np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]))


def kronecker(n: int, dim: int, seed: int = 0, start: int = 0) -> np.ndarray:
    """(n, dim) points of an additive-recurrence sequence in [0,1)^dim: its
    points start + 1 .. start + n, each a function of its own index alone."""
    if dim > len(_ALPHAS):
        raise ValueError(f"kronecker supports dim <= {len(_ALPHAS)}")
    k = np.arange(start + 1, start + n + 1, dtype=float)[:, None] + float(seed % (1 << 20))
    x = k * _ALPHAS[None, :dim]
    # x > 0, where x - floor(x) is x % 1.0 bit for bit at a third of the cost; the
    # result takes the third buffer, as x % 1.0 did, so the heap peaks as before
    frac = np.floor(x)
    return np.subtract(x, frac, out=frac)


def log_radii(lo: float, hi: float, n: int, seed: int = 0, start: int = 0) -> np.ndarray:
    """n quasi-uniform radii on a log scale in (lo, hi]: the radii start ..
    start + n - 1 of the sequence, so that a run of it can be drawn alone."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    u = kronecker(n, 1, seed, start)[:, 0]  # in place: a tail sample's temporaries are its peak
    u *= math.log(hi / lo)
    return np.multiply(np.exp(u, out=u), lo, out=u)


def directions(n: int, dim: int, seed: int = 0, extra=None) -> np.ndarray:
    """About n unit vectors in R^dim: +-axes, any ``extra`` rows, then a
    quasi-uniform fill of the sphere.  In 1-d the two signs alone."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
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


# -- the product-net rule the filter bases share; private, so that a tracer wrapping
# the public names here counts only the points that leave this module


def _fan_size(n: int) -> int:
    """Directions a net of about n points asks its fan for."""
    return max(int(math.sqrt(n)), 8)


# points in one block of a streamed net (256 KB a coordinate): a block and the
# temporaries of a functional on it stay in cache
_BLOCK = 1 << 15


def _net_blocks(lo: float, hi: float, n: int, seed: int, fan):
    """Radii x directions net of about n points with radius in (lo, hi], as
    consecutive blocks of at most _BLOCK points: the unit rows fan(_fan_size(n))
    times _radii_per_ray log radii, ray by ray.  The radii are drawn at seed + 7
    when the rows have two or more columns, away from the fan's fill; a 1-d fan
    has no fill, and its radii are drawn at seed.  A ray's radii come in runs
    of at most _BLOCK, each drawn alone (once, if a ray has one run), and a
    block is up to _BLOCK // run whole rays times one run, written into one
    reused buffer: the next block overwrites it."""
    dirs = fan(_fan_size(n))
    rays, dim = dirs.shape
    per_ray = _radii_per_ray(n, rays)
    seed += 7 if dim > 1 else 0
    run = min(per_ray, _BLOCK)
    step = _BLOCK // run
    radii = functools.lru_cache(1)(lambda s: log_radii(lo, hi, min(run, per_ray - s), seed, s))
    buf = np.empty(step * run * dim)
    for chunk in np.split(dirs, range(step, rays, step)):
        for s in range(0, per_ray, run):
            r = radii(s)
            block = buf[: len(chunk) * len(r) * dim].reshape(len(chunk), len(r), dim)
            for j in range(dim):  # (ray, radius, coordinate)
                np.multiply.outer(chunk[:, j], r, out=block[:, :, j])
            yield block.reshape(-1, dim)


def _radii_per_ray(n: int, rays: int) -> int:
    """Log radii per ray of a net of about n points over a fan of ``rays`` rows."""
    return max(n // rays, 4)


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """g with each nonzero row scaled to unit length."""
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return g / nrm


def _norm_ppf(u):
    """Standard normal quantiles of u, clipped to [1e-12, 1 - 1e-12]."""
    from statistics import NormalDist  # 3.5 ms that ``import corona_pdo.cli`` need not pay

    return np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1 - 1e-12))
