"""At-infinity functionals sampled along filter bases.

A *filter base* stands in for "xi -> infinity along F": for every scale t it
produces sample points from the base element at that scale (radius > t, plus
whatever constraint the base adds: a shrinking cone, the complement of a
thickened set, or all of an intersection's); a base checks its datum when it
is built.  Scalar functionals (limsup, liminf)
sample over a geometric ladder of scales and extrapolate the per-scale
extremes with a + b / sqrt(t); field variants batch the fit over the x fiber.

A base is two rules: a ``fan`` of unit rows and a ``mask``.  Every base
samples product nets of ``sampling`` over its fan, and the ray polish
brackets a few radial gaps of that same net.  Direction fans always contain
the signed coordinate axes and the distinguished direction of a directional
base: sups of anisotropic functions are routinely attained on measure-zero
rays, and a fan that misses those rays under-reports the limsup no matter how
many points it spends.

A scale's sample streams: the net comes in consecutive blocks of at most
2^15 points (``sampling._net_blocks``), in the order of the whole net.  A
thickened complement or an intersection cuts its net, so it keeps the first n
points that its ``mask`` accepts, from up to 8 nets (``_MaskedBase``).  A
functional sees one block at a time, and a scale keeps only its running
extremum and its 6 best samples, the polish's candidate rays.  Ties go to the
lower sample index: a later sample enters only if it is strictly better.  So
a scale holds a block's worth of memory, whatever its budget.

Sampled sups are lower bounds for the true sups (sampled infs: upper bounds).
A golden-section search along the best rays, all rays of all scales at
once in numpy, closes most of the gap for smooth integrands.  It scores a
point only where the base's ``mask`` at the point's own scale accepts it, so
a polished extremum is still a value at a point of the base element and the
bound keeps its side.  Verdicts derived from these numbers are evidence, not
proofs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .sampling import MAX_RADIUS, _fan_size, _net_blocks, _norm_ppf, _radii_per_ray
from .sampling import _unit_rows, directions, kronecker
from .symbols import Symbol, SymbolError, ThickenedSet


class AsymptoticsError(ValueError):
    """Raised for unusable schedules or collapsing filter bases."""


DEFAULT_SCALES = (1e2, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class SamplingSchedule:
    """Geometric ladder of scales plus the per-scale sampling budget."""

    scales: tuple = DEFAULT_SCALES
    points_per_scale: int = 10000
    span: float = 10.0
    seed: int = 0

    def __post_init__(self):
        s = tuple(float(x) for x in self.scales)
        if not s or s[0] <= 0 or any(a >= b for a, b in zip(s, s[1:])):
            raise AsymptoticsError("scales must be positive and strictly increasing")
        if self.points_per_scale < 16:
            raise AsymptoticsError("need at least 16 points per scale")
        if not self.span > 1:
            raise AsymptoticsError(f"span must exceed 1, got {self.span:g}")
        top = s[-1] * self.span
        if top > MAX_RADIUS:
            raise AsymptoticsError(
                f"largest sampled radius {top:g} (scale x span) exceeds "
                f"{MAX_RADIUS:g}, beyond which float64 cannot resolve the tail"
            )
        object.__setattr__(self, "scales", s)


# -- filter bases -----------------------------------------------------------------


class FilterBase:
    """The base elements of a filter, as a fan of rays and a membership test.

    ``fan(k, t, seed)`` is about k unit rows, the rays sampled at scale t;
    ``blocks`` streams the product net over them with radii in (t, t * span],
    in consecutive blocks of points (``sampling._net_blocks``).  It is the only
    sampler: a caller reads each block before it asks for the next.
    ``mask(pts, t)`` is the element at scale t: every sample lies in it, and
    the ray polish scores no point outside it.
    """

    label = "base"
    dim = 1

    def fan(self, k: int, scale: float, seed: int) -> np.ndarray:
        raise NotImplementedError

    def blocks(self, scale: float, n: int, span: float, seed: int):
        return _net_blocks(scale, scale * span, n, seed, lambda k: self.fan(k, scale, seed))

    def mask(self, pts: np.ndarray, scale: float) -> np.ndarray:
        raise NotImplementedError


class StandardBase(FilterBase):
    """Complements of balls: |xi| > t."""

    def __init__(self, dim: int, extra_directions=None):
        self.dim = int(dim)
        self.extra_directions = extra_directions
        self.label = f"standard({self.dim}d)"

    def fan(self, k, scale, seed):
        return directions(k, self.dim, seed, self.extra_directions)

    def mask(self, pts, scale):
        return np.linalg.norm(pts, axis=1) > scale


class DirectionalBase(FilterBase):
    """Shrinking cones: |xi| > t and angle(xi, omega0) <= aperture_scale / t."""

    def __init__(self, omega0, aperture_scale: float = 1.0):
        w = np.asarray(omega0, dtype=float).reshape(-1)
        nw = np.linalg.norm(w)
        if nw == 0:
            raise AsymptoticsError("omega0 must be nonzero")
        self.omega0 = w / nw
        self.dim = len(w)
        self.aperture_scale = float(aperture_scale)
        self.label = f"directional({np.round(self.omega0, 6).tolist()})"
        if self.dim > 1:
            proj = np.eye(self.dim) - np.outer(self.omega0, self.omega0)
            u, _, _ = np.linalg.svd(proj)
            self._perp = u[:, : self.dim - 1].T  # orthonormal complement rows

    def fan(self, k, scale, seed):
        """omega0, then (beyond 1-d) k - 1 unit rows within aperture_scale / scale of it."""
        if self.dim == 1:
            return self.omega0[None, :]
        aperture = self.aperture_scale / scale
        u = kronecker(k - 1, 1, seed)[:, 0]
        if self.dim == 2:
            theta = aperture * (2 * u - 1)
            perp = np.tile(self._perp[0], (k - 1, 1))
        else:
            theta = aperture * u
            perp = _unit_rows(_norm_ppf(kronecker(k - 1, self.dim - 1, seed + 11)) @ self._perp)
        tilted = np.cos(theta)[:, None] * self.omega0[None, :] + np.sin(theta)[:, None] * perp
        return np.concatenate([self.omega0[None, :], tilted])

    def mask(self, pts, scale):
        rr = np.linalg.norm(pts, axis=1)
        safe = np.where(rr == 0, 1.0, rr)
        cosang = (pts @ self.omega0) / safe
        aperture = min(self.aperture_scale / scale, math.pi)  # past pi the cone is everything
        return (rr > scale) & (cosang >= math.cos(aperture) - 1e-12)


class _MaskedBase(FilterBase):
    """A base whose element cuts the net over its fan; the standard and
    directional fans lie inside their elements and keep the plain net."""

    def blocks(self, scale, n, span, seed):
        """The first n points that the mask keeps from up to 8 nets, one seed each;
        fewer than max(16, n // 100) mean the base is (nearly) empty."""
        nets = (FilterBase.blocks(self, scale, n, span, seed + 131 * r) for r in range(8))
        kept = total = 0
        for pts in itertools.chain.from_iterable(nets):
            total += len(pts)
            inside = pts[self.mask(pts, scale)][: n - kept]
            kept += len(inside)
            if len(inside):
                yield inside
            if kept == n:
                break
        if kept < max(16, n // 100):
            raise AsymptoticsError(
                f"filter base {self.label} is (nearly) empty at scale {scale:g}: "
                f"{kept} of {total} samples fall in its element"
            )


class ThickenedComplementBase(_MaskedBase):
    """Complements of thickenings of a closed set E that grow with the scale:
    dist(xi, E) > t."""

    def __init__(self, E: ThickenedSet):
        # a set whose unit thickening covers a probe annulus (say the whole dual)
        # leaves no neighborhood of infinity at any scale
        probe = StandardBase(E.dim).blocks(10.0, 512, 10.0, 3)
        if not any(np.any(E.distance(pts) > 1.0) for pts in probe):
            raise AsymptoticsError(
                f"thickened set {E.label!r} is degenerate: unit thickening covers the probe annulus"
            )
        self.E = E
        self.dim = E.dim
        self.label = f"ethick({E.label})"

    def fan(self, k, scale, seed):
        return directions(k, self.dim, seed)

    def mask(self, pts, scale):
        out = self.E.distance(pts) > scale
        far = np.flatnonzero(out)  # the radius only where the distance passes
        out[far] = np.linalg.norm(pts[far], axis=1) > scale
        return out


class IntersectionBase(_MaskedBase):
    """Pointwise intersection: the first part's fan, masked by every part."""

    def __init__(self, *parts):
        if not parts:
            raise AsymptoticsError("intersection of no bases")
        if len({p.dim for p in parts}) != 1:
            raise AsymptoticsError("intersection parts disagree on dimension")
        self.parts = parts
        self.dim = parts[0].dim
        self.label = "intersection(" + ", ".join(p.label for p in parts) + ")"

    def fan(self, k, scale, seed):
        return self.parts[0].fan(k, scale, seed)

    def mask(self, pts, scale):
        return np.all([p.mask(pts, scale) for p in self.parts], axis=0)


# -- extrapolation ------------------------------------------------------------------


def fit_inverse_sqrt(scales, values):
    """Least squares value(t) ~ a + b/sqrt(t), one fit per column of a
    (scales, k) array of values.

    Returns (a, b, max_residual, rel_residual), each a scalar for a 1-d
    ``values`` and a length-k array otherwise; a is the t -> infinity limit.
    One scale gives a = value and b = 0.
    """
    t = np.asarray(scales, dtype=float)
    y = np.asarray(values, dtype=float)
    A = np.stack([np.ones_like(t), t**-0.5], axis=1)
    if t.size == 1:  # lstsq would split y between a and b
        coef = np.stack([y[0], np.zeros_like(y[0])])
    else:
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = np.max(np.abs(A @ coef - y), axis=0)
    rel = resid / np.maximum(1e-12, np.max(np.abs(y), axis=0))
    return coef[0], coef[1], resid, rel


@dataclass
class AsymptoticFit:
    """Per-scale values and their a + b/sqrt(t) fit (``fit_inverse_sqrt``)."""

    label: str
    kind: str  # "sup" | "inf"
    scales: tuple
    per_scale: np.ndarray
    value: float  # extrapolated t -> infinity
    slope: float
    residual: float
    rel_residual: float

    @classmethod
    def of(cls, label: str, kind: str, scales, per_scale) -> AsymptoticFit:
        """The record of the values per_scale taken at scales, with their fit."""
        per_scale = np.asarray(per_scale, dtype=float)
        return cls(label, kind, scales, per_scale, *fit_inverse_sqrt(scales, per_scale))


def _polish_span(base: FilterBase, n: int, t: float, span: float) -> float:
    # geometric bracket over a few radial gaps of the base's net (its fan's length is seed-free)
    rays = len(base.fan(_fan_size(n), t, 0))
    return float(min(max(span ** (4.0 / _radii_per_ray(n, rays)), 1.001), span))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# candidate rays of the polish: the best samples of a scale
_RAYS = 6


class _Best:
    """The running max of a stream of value blocks, and the points of its
    _RAYS best samples.

    Ties go to the lower sample index: a later sample enters only if it is
    strictly better than the one it displaces, so a block is checked against
    the running sixth value with one comparison.  A NaN never enters, but it
    makes the max NaN, as ``np.max`` over the whole stream would.  No block is empty.
    """

    def __init__(self, dim: int):
        self.max = -np.inf
        self.vals = np.empty(0)  # best first, ties in sample order
        self.rays = np.empty((0, dim))

    def add(self, vals: np.ndarray, pts: np.ndarray) -> None:
        self.max = float(np.maximum(self.max, np.max(vals)))
        full = len(self.vals) == _RAYS
        new = np.flatnonzero(vals > self.vals[-1] if full else ~np.isnan(vals))
        if len(new) > _RAYS:  # above the _RAYS-th best value, then its first ties
            v = vals[new]
            kth = np.partition(v, len(v) - _RAYS)[len(v) - _RAYS]
            above = new[v > kth]
            new = np.concatenate([above, new[v == kth][: _RAYS - len(above)]])
        if len(new):
            merged = np.concatenate([self.vals, vals[new]])
            order = np.argsort(-merged, kind="stable")[:_RAYS]
            self.vals = merged[order]
            self.rays = np.concatenate([self.rays, pts[new]])[order]


def _polish(phi, base: FilterBase, sched: SamplingSchedule, bests: list, maximize: bool) -> list:
    """Each scale's extremum of phi, polished by golden-section search along
    its candidate rays.

    bests[k] is scale k's ``_Best``, with the sign of ``maximize`` applied to
    phi.  Each ray is searched over [r0/q, r0*q] around its radius r0 (q from
    ``_polish_span``) to a width of max(r0 * 1e-12, 1e-12).  A scale steps all
    its rays until each is that narrow, and every scale still stepping shares
    one call of phi per step, so phi must map each point on its own.  A point
    is masked at its own scale t: phi is called only at points that
    ``base.mask(., t)`` accepts, and a point outside scores as the worst value.
    A scale's best value at any of its own evaluated points wins, so its
    result never falls behind the sampled one.
    """
    s = 1.0 if maximize else -1.0
    ext = [b.max for b in bests]
    counts = [len(b.rays) for b in bests]  # no rays: every sample of the scale read NaN
    segs = [slice(a - n, a) for a, n in zip(itertools.accumulate(counts), counts)]
    live = [k for k, n in enumerate(counts) if n]
    rays = np.concatenate([b.rays for b in bests])
    radii = np.sqrt(np.add.reduce(rays * rays, axis=1))  # bit-equal to the row norm
    units = rays / radii[:, None]  # samples lie in the element, so radii > t > 0
    spans = [_polish_span(base, sched.points_per_scale, t, sched.span) for t in sched.scales]
    q = np.repeat(spans, counts)

    def f(r):
        x = r[:, None] * units
        inside = np.zeros(len(r), dtype=bool)
        for k in live:
            inside[segs[k]] = base.mask(x[segs[k]], sched.scales[k])
        out = np.full(len(r), -np.inf)
        if inside.any():
            out[inside] = s * phi(x[inside])
        for k in live:
            ext[k] = max(ext[k], float(out[segs[k]].max()))
        return out

    lo, hi = radii / q, radii * q
    tol = np.maximum(radii * 1e-12, 1e-12)
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while live := [k for k in live if (hi[segs[k]] - lo[segs[k]] > tol[segs[k]]).any()]:
        left = fc > fd  # the extremum sits in [lo, d]: c becomes the new d
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        x_old, f_old = np.where(left, c, d), np.where(left, fc, fd)
        x_new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f_new = f(x_new)
        c, fc = np.where(left, x_new, x_old), np.where(left, f_new, f_old)
        d, fd = np.where(left, x_old, x_new), np.where(left, f_old, f_new)
    return [s * e for e in ext]


def _samples(base: FilterBase, sched: SamplingSchedule):
    """(scale, the base's blocks of sample points there) for each scale of the
    schedule, one seed per scale."""
    for k, t in enumerate(sched.scales):
        yield t, base.blocks(t, sched.points_per_scale, sched.span, sched.seed + 977 * k)


def _along(phi, base: FilterBase, schedule: SamplingSchedule, maximize: bool) -> AsymptoticFit:
    """Extrapolated limsup (maximize) or liminf of the real functional phi
    along the filter base: per scale phi runs block by block over the sample,
    the extremum of each scale's best samples is polished along their rays,
    inside the base element, and the signed values are fitted."""
    bests = []
    for _, blocks in _samples(base, schedule):
        best = _Best(base.dim)
        for pts in blocks:
            vals = phi(pts)
            best.add(vals if maximize else -vals, pts)
        bests.append(best)
    exts = _polish(phi, base, schedule, bests, maximize)
    label, kind = ("limsup", "sup") if maximize else ("liminf", "inf")
    return AsymptoticFit.of(label, kind, schedule.scales, exts)


def limsup_along(phi, base: FilterBase, schedule: SamplingSchedule) -> AsymptoticFit:
    return _along(phi, base, schedule, True)


def liminf_along(phi, base: FilterBase, schedule: SamplingSchedule) -> AsymptoticFit:
    return _along(phi, base, schedule, False)


# -- per-fiber fields ----------------------------------------------------------------


def _x_subsample(n: int) -> np.ndarray:
    if n <= 512:
        return np.arange(n)
    return np.linspace(0, n - 1, 512).astype(int)  # strictly increasing: the step exceeds 1


# entries in one block of the fiber kernel (1 MB real, 2 MB complex): about 13
# fibers at a 10,000-point sample, so a block is read while it is still in cache
# (a real sum's two scratch blocks fit a 2 MB L2 together), and all 512 fibers at
# a polish step's at most 6 points per scale (30 on the default schedule)
_BLOCK_ENTRIES = 1 << 17


def _blocks(gammas: list, psis: list):
    """|sum_i gammas[i] (x) psis[i]| in blocks of rows: (rows, moduli) per block.

    gammas[i] holds gamma_i on the fibers and psis[i] the values of psi_i on
    the points.  The sum runs in the terms' own dtype: real when every gamma
    and psi is real, complex otherwise.  A block has _BLOCK_ENTRIES // points
    rows, and every block fills the same scratch arrays (term and sum, plus
    the modulus of a complex sum; a real sum takes its modulus in place), so a
    yielded block is overwritten by the next one.  The first term goes
    straight into the sum: a zero start would only change the sign of a zero,
    which |.| removes.
    """
    fibers, points = len(gammas[0]), len(psis[0])
    step = min(max(_BLOCK_ENTRIES // points, 1), fibers)  # a sample over the budget: 1 row
    total = np.empty((step, points), dtype=np.result_type(*gammas, *psis))
    term = np.empty_like(total)
    moduli = total if total.dtype == float else np.empty((step, points))
    for s in range(0, fibers, step):
        rows = slice(s, min(s + step, fibers))
        k = rows.stop - s
        out = np.multiply.outer(gammas[0][rows], psis[0], out=total[:k])
        for g, p in zip(gammas[1:], psis[1:]):
            out += np.multiply.outer(g[rows], p, out=term[:k])
        yield rows, np.abs(out, out=moduli[:k])


def modulus_field(
    symbol: Symbol,
    base: FilterBase,
    schedule: SamplingSchedule,
    maximize: bool = True,
):
    """Per-fiber limsup (maximize) or liminf of |f(x, .)| along the base.

    Returns (values, envelope) over a subsample of at most 512 fibers.  For
    the limsup, envelope is the fit of the limsup of max over x of
    |f(x, .)| (the Gohberg right-hand side; min of values is the lower
    bound); for the liminf it is None.  Single-term tensor symbols
    factor exactly.  The generic path takes both from one pass over each
    scale's sample blocks, evaluating each psi once per block and summing the
    terms in ``_blocks``.  It then polishes the envelope, and re-runs the
    3 fibers where the min over x is attained through ``_along`` (the sampled
    sup is a lower bound, so the reported min over x may sit slightly low).
    A symbol with no tensor terms (a table) has no values off the grid:
    SymbolError.
    """
    if symbol.xigrid.is_compact_kind:
        raise AsymptoticsError(
            "dual group grid is of compact kind: no neighborhood of infinity to sample"
        )
    x_indices = _x_subsample(symbol.xgrid.size)
    terms = symbol.tensor_terms
    if terms is not None and len(terms) == 1:
        g, psi = np.abs(terms[0][0]), terms[0][1]
        f = _along(lambda p: np.abs(psi(p)), base, schedule, maximize)
        envelope = None
        if maximize:  # scaled, not refitted: a refit of the scaled values rounds differently
            gmax = float(np.max(g))
            envelope = replace(
                f, label="maxform", per_scale=gmax * f.per_scale, value=gmax * f.value,
                slope=gmax * f.slope, residual=gmax * f.residual,
            )
        return g[x_indices] * f.value, envelope

    if terms is None:
        raise SymbolError("symbol is tabulated only; off-grid evaluation undefined")
    gammas = [g[x_indices] for g, _ in terms]

    def psi_values(p):  # each psi once per point set, in the kernel's dtype: the blocks share them
        vals = [psi(p) for _, psi in terms]
        dt = np.result_type(*gammas, *vals)
        return [v.astype(dt, copy=False) for v in vals]

    def top(p):
        return np.max([v.max(axis=0) for _, v in _blocks(gammas, psi_values(p))], axis=0)

    per_scale, bests = [], []
    for _, blocks in _samples(base, schedule):
        ext = np.full(len(x_indices), -np.inf if maximize else np.inf)
        best = _Best(base.dim)
        for pts in blocks:
            env = np.zeros(len(pts))
            for rows, vals in _blocks(gammas, psi_values(pts)):
                if maximize:
                    np.maximum(ext[rows], vals.max(axis=1), out=ext[rows])
                    np.maximum(env, vals.max(axis=0), out=env)
                else:
                    np.minimum(ext[rows], vals.min(axis=1), out=ext[rows])
            if maximize:
                best.add(env, pts)
        bests.append(best)
        per_scale.append(ext)
    values = fit_inverse_sqrt(schedule.scales, np.array(per_scale))[0]
    for j in np.argsort(values)[:3]:
        phi = lambda p, _j=j: next(_blocks([g[_j : _j + 1] for g in gammas], psi_values(p)))[1][0]
        values[j] = _along(phi, base, schedule, maximize).value
    envelope = None
    if maximize:
        sups = _polish(top, base, schedule, bests, True)
        envelope = AsymptoticFit.of("maxform", "sup", schedule.scales, sups)
    return values, envelope
