"""Symbols f(x, xi) and the function-class diagnostics attached to them.

A :class:`Symbol` is bound to a grid pair (X, Xi) and materializes as a
table, a plain (X.size, Xi.size) array; closure-backed symbols can in
addition be evaluated at dual points far beyond the grid band, which is what
every at-infinity functional needs (the tail behaviour of f is simply not
present in a finite table).

The built-in families cover the behaviours the spectral experiments probe:

* tensor products gamma(x) * psi(xi), the workhorse (multiplication times
  convolution on the operator side);
* radial waves sin(beta(|xi|)) with beta' -> 0: bounded oscillating symbols
  whose oscillation dies out at infinity ("vanishing oscillation");
* directional decay exp(-|<xi, omega>|): decay in a cone, none globally;
* compactly-concentrated and Cesaro-null families for the smaller ideals.

Verdicts produced here (oscillation PASS/FAIL, Cesaro membership) are
advisory diagnostics: they sample tails, they do not prove membership.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .groups import GroupGrid, assert_dual_pair
from .sampling import _BLOCK, MAX_RADIUS, _net_blocks, directions


class SymbolError(ValueError):
    """Raised for ill-posed symbol constructions or evaluations."""


def _pts2d(pts) -> np.ndarray:
    p = np.asarray(pts, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    return p


def _radial(pts2d) -> np.ndarray:
    return np.linalg.norm(pts2d, axis=1)


# -- dual-variable closures ----------------------------------------------------


@dataclass
class DualClosure:
    """A function of the dual variable, evaluable at arbitrary points.

    ``fun`` maps an (n, d) float array to n values, and a call returns them in
    the dtype ``fun`` gives (float64 for the real families, cast by a consumer
    that needs complex).  ``sup_bound`` bounds |psi|; built-ins keep it tight.
    """

    fun: object
    sup_bound: float
    name: str = ""

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.fun(_pts2d(pts)))


def constant_closure(value: complex) -> DualClosure:
    c = complex(value)
    return DualClosure(lambda p: np.full(len(p), c), abs(c), f"const({c})")


def power_wave(alpha: float) -> DualClosure:
    """Radial wave psi(xi) = sin(|xi|^alpha); oscillation dies out iff alpha < 1.

    |psi(xi + z) - psi(xi)| is at most |z| times the sup of alpha r^(alpha-1)
    for r between |xi| and |xi + z|, which tends to 0 exactly when alpha < 1.
    """
    return DualClosure(lambda p: np.sin(_radial(p) ** alpha), 1.0, f"sin(|xi|^{alpha})")


def sqrt_wave() -> DualClosure:
    return power_wave(0.5)


def shifted_wave(offset: float, alpha: float = 0.5) -> DualClosure:
    """offset + sin(|xi|^alpha); stays away from zero when offset > 1."""
    base = power_wave(alpha)
    return DualClosure(
        lambda p: offset + base(p), abs(offset) + 1.0, f"{offset}+sin(|xi|^{alpha})"
    )


def inverse_decay(power: float = 1.0) -> DualClosure:
    """psi(xi) = 1/(1+|xi|)^power: vanishes at infinity in every direction."""
    return DualClosure(lambda p: 1.0 / (1.0 + _radial(p)) ** power, 1.0, f"(1+|xi|)^-{power}")


def directional_decay_symbol(omega0, rate: float = 1.0) -> DualClosure:
    """psi(xi) = exp(-rate*|<xi, omega0>|): decays inside cones around
    +-omega0, constant 1 on the orthogonal hyperplane."""
    w = np.asarray(omega0, dtype=float)
    n = np.linalg.norm(w)
    if n == 0:
        raise SymbolError("omega0 must be a nonzero direction")
    w = w / n
    fun = lambda p: np.exp(-rate * np.abs(_pts2d(p) @ w))
    return DualClosure(fun, 1.0, f"exp(-{rate}|<xi,omega0>|)")


def dyadic_indicator() -> DualClosure:
    """Indicator of the union of [2^k, 2^k + k], k >= 1, on the positive axis.

    The union has full upper gaps; its Cesaro means over balls decay like
    (log n)^2 / n.
    """

    def fun(p):
        x = _pts2d(p)[:, 0]
        out = np.zeros(len(x))
        pos = x >= 2.0
        if pos.any():
            k = np.floor(np.log2(x[pos])).astype(int)
            out[pos] = (x[pos] <= 2.0**k + k).astype(float)
        return out

    return DualClosure(fun, 1.0, "indicator(U[2^k, 2^k+k])")


# -- x-variable profiles ---------------------------------------------------------


def cos_profile(offset: float = 2.0, amplitude: float = 1.0, frequency: int = 1):
    """gamma(x) = offset + amplitude*cos(2*pi*frequency*x) on torus coordinates."""

    def fun(coords):
        x = _pts2d(coords)[:, 0]
        return offset + amplitude * np.cos(2 * np.pi * frequency * x)

    return fun


def const_profile(value: complex = 1.0):
    def fun(coords):
        return np.full(len(_pts2d(coords)), complex(value))

    return fun


def values_profile(data):
    """gamma given by its values at the points of one x grid, in grid order."""
    vals = np.asarray(data, dtype=complex).reshape(-1)
    return lambda coords: vals


# -- symbols ---------------------------------------------------------------------


class Symbol:
    """Base: a two-variable symbol bound to a grid pair."""

    def __init__(self, xgrid: GroupGrid, xigrid: GroupGrid):
        assert_dual_pair(xgrid, xigrid)
        self.xgrid = xgrid
        self.xigrid = xigrid

    tensor_terms = None  # (gamma on the x grid, psi closure) pairs; a table has none

    @property
    def sup_bound(self) -> float:
        raise NotImplementedError

    def table(self) -> np.ndarray:
        """The (xgrid.size, xigrid.size) array of f on the grid pair, fresh: the
        caller may overwrite it."""
        raise NotImplementedError

    def rebound(self, xgrid: GroupGrid, xigrid: GroupGrid) -> "Symbol":
        raise SymbolError("symbol is tabulated only; cannot rebind to new grids")


class TensorSymbol(Symbol):
    """Finite sum of tensor terms gamma_i(x) * psi_i(xi).

    Each gamma is a function of the x coordinates (``cos_profile``,
    ``const_profile``, ``values_profile``), called on the grid's coordinates;
    it must give one value per grid point, and its values keep the dtype it
    returns (``cos_profile`` real, ``const_profile`` and ``values_profile``
    complex), so an all-real symbol stays real where its terms are summed.
    So the symbol rebinds to any grid pair by calling its gammas there.
    """

    def __init__(self, xgrid, xigrid, terms):
        super().__init__(xgrid, xigrid)
        self.terms = list(terms)  # (gamma, psi) pairs: rebound calls each gamma again
        self.tensor_terms = []
        for gamma, psi in self.terms:
            if not isinstance(psi, DualClosure):
                raise SymbolError("psi factor must be a DualClosure")
            gvals = np.asarray(gamma(xgrid.coords)).reshape(-1)
            if gvals.size != xgrid.size:
                raise SymbolError(f"gamma gives {gvals.size} values on {xgrid.size} x points")
            self.tensor_terms.append((gvals, psi))

    @property
    def sup_bound(self) -> float:
        return float(sum(np.max(np.abs(gv)) * psi.sup_bound for gv, psi in self.tensor_terms))

    def table(self) -> np.ndarray:
        vals = np.zeros((self.xgrid.size, self.xigrid.size), dtype=complex)
        for gv, psi in self.tensor_terms:
            vals += np.outer(gv, psi(self.xigrid.coords))
        return vals

    def rebound(self, xgrid, xigrid) -> "TensorSymbol":
        return TensorSymbol(xgrid, xigrid, self.terms)


class TableSymbol(Symbol):
    """Symbol given by a dense table only: no off-grid evaluation."""

    def __init__(self, xgrid, xigrid, values):
        super().__init__(xgrid, xigrid)
        self.values = np.asarray(values, dtype=complex).reshape(
            xgrid.size, xigrid.size
        )

    @property
    def sup_bound(self) -> float:
        return float(np.max(np.abs(self.values)))

    def table(self) -> np.ndarray:
        return self.values.copy()


def tensor_symbol(gamma, psi: DualClosure, xgrid: GroupGrid, xigrid: GroupGrid) -> TensorSymbol:
    return TensorSymbol(xgrid, xigrid, [(gamma, psi)])


def multiplier_symbol(psi: DualClosure, xgrid: GroupGrid, xigrid: GroupGrid) -> TensorSymbol:
    """x-independent symbol f(x, xi) = psi(xi) (a Fourier multiplier)."""
    return TensorSymbol(xgrid, xigrid, [(const_profile(1.0), psi)])


# -- oscillation diagnostics -----------------------------------------------------


@dataclass
class OscillationProfile:
    """Sampled translation-oscillation sup: osc[i, j] = sup over |xi| >= radii[j]
    of |psi(xi + shifts[i]) - psi(xi)| (non-increasing in R; 0 where no sample
    reaches radii[j])."""

    shifts: np.ndarray
    radii: np.ndarray
    osc: np.ndarray
    tol: float
    verdict: str  # "PASS" | "FAIL"


# Acceptance-level default: sin(|xi|^0.75) must PASS at R_max = 1e6, and its
# true osc(1, 1e6) is 0.75e6^(-1/4) ~ 2.4e-2, so the gate sits above that.
OSCILLATION_TOL = 3e-2
# the default probe: radii 1e2..1e6 and, from vo_shifts, shifts 0.5, 1, 2 on the first axis
VO_RADII = np.logspace(2, 6, 9)


def vo_shifts(dim: int) -> np.ndarray:
    return np.eye(dim)[:1] * [[0.5], [1.0], [2.0]]


def vanishing_oscillation_test(psi: DualClosure, shifts, radii, seed: int) -> OscillationProfile:
    """Estimate osc(shift, R) by dense tail sampling and return a verdict.

    The tail |xi| in [radii[0], 10 radii[-1]] gets 20000 samples, streamed in
    blocks into a running max per shift and radius (a NaN makes it NaN).
    PASS means every tested shift has sampled oscillation <= OSCILLATION_TOL
    at the largest radius.  The sampled sup is a lower bound for the true
    sup, so PASS is advisory while FAIL is hard evidence.
    """
    shifts = _pts2d(shifts)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] <= 0:
        raise SymbolError("radii must be positive")
    top = radii[-1] * 10.0
    if top > MAX_RADIUS:
        raise SymbolError(
            f"largest sampled radius {top:g} (10 x the largest radius) exceeds "
            f"{MAX_RADIUS:g}, beyond which float64 cannot resolve the shifts"
        )
    osc = np.zeros((len(shifts), len(radii)))
    fan = lambda k: directions(k, shifts.shape[1], seed)
    for pts in _net_blocks(radii[0], top, 20000, seed, fan):
        reach = np.linalg.norm(pts, axis=1) >= radii[:, None]  # (radius, sample)
        here = psi(pts)
        for i, z in enumerate(shifts):
            diff = np.abs(psi(pts + z[None, :]) - here)  # >= 0, so 0 masks a sample out
            np.maximum(osc[i], np.where(reach, diff, 0.0).max(axis=1), out=osc[i])
    verdict = "PASS" if np.all(osc[:, -1] <= OSCILLATION_TOL) else "FAIL"
    return OscillationProfile(shifts, radii, osc, OSCILLATION_TOL, verdict)


# -- Cesaro means -----------------------------------------------------------------


@dataclass
class CesaroResult:
    labels: list
    means: np.ndarray
    measures: np.ndarray
    verdict: bool  # True = means tend to zero (tail-slope test)
    tail_slope: float


def cesaro_mean(psi: DualClosure, grid: GroupGrid, radii) -> CesaroResult:
    """Means m_n = integral over the ball B_n of |psi| / measure(B_n), for the
    balls |xi| <= radii[n] of the grid, plus a verdict (tail slope of log m_n
    against log measure) on whether m_n -> 0.  The radii are two at least and
    strictly increasing, and the grid must hold every ball whole: on
    ``truncated_integers(B)`` a radius is at most B - 1.

    The grid is streamed in blocks of ``sampling._BLOCK`` points; memory does
    not grow with the grid.  Each point's |psi| and count go into the bin of
    its smallest ball, and a cumulative sum over the bins gives every ball's
    sum and count.
    """
    radii = list(radii)
    if len(radii) < 2:
        raise SymbolError(f"need at least two ball radii for a tail slope, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise SymbolError(f"ball radii must be strictly increasing, got {radii}")
    # the ball |xi| <= R is whole when -R and R lie within every axis's coordinates
    first, last = grid._coords_at([0, grid.size - 1])
    reach = float(min(-first.max(), last.min()))
    k = next((k for k, rad in enumerate(radii) if rad > reach), None)
    if k is not None:
        raise SymbolError(
            f"ball {k} (radius {radii[k]}) is clipped by the grid, which holds "
            f"every ball up to radius {reach:.15g}"
        )
    edges, bins = np.asarray(radii, dtype=float), len(radii) + 1  # the last bin: outside
    sums, counts = np.zeros(bins), np.zeros(bins, dtype=np.int64)
    for start in range(0, grid.size, _BLOCK):
        pts = grid._coords_at(np.arange(start, min(start + _BLOCK, grid.size)))
        ball = np.searchsorted(edges, np.linalg.norm(pts, axis=1))  # first radius >= |xi|
        sums += np.bincount(ball, np.abs(psi(pts)), bins)
        counts += np.bincount(ball, minlength=bins)
    sums, counts = np.cumsum(sums[:-1]), np.cumsum(counts[:-1])
    w = grid.weight_per_point
    means, measures = [], []
    for k, rad in enumerate(radii):
        if counts[k] == 0:
            raise SymbolError(f"ball {k} (radius {rad}) holds no grid point")
        measures.append(w * int(counts[k]))
        means.append(w * float(sums[k]) / measures[-1])
    means = np.array(means)
    measures = np.array(measures)
    tail = slice(max(len(means) - 4, 0), len(means))
    with np.errstate(divide="ignore"):
        y = np.log(np.maximum(means[tail], 1e-300))
        x = np.log(measures[tail])
    slope = float(np.polyfit(x, y, 1)[0])
    verdict = bool(slope < -0.1 or means[-1] < 1e-12)
    return CesaroResult([float(x) for x in radii], means, measures, verdict, slope)


# -- thickened sets for the non-syndetic family -----------------------------------


@dataclass
class ThickenedSet:
    """A closed set E in the dual with a distance function."""

    distance: object  # (n, d) points -> distances (n,)
    dim: int
    label: str


def halfline_set(a: float = 0.0) -> ThickenedSet:
    def dist(pts):
        return np.maximum(_pts2d(pts)[:, 0] - a, 0.0)

    return ThickenedSet(dist, 1, f"(-inf,{a}]")


def parabola_graph() -> ThickenedSet:
    """E = {(t, t^2)} in R^2; distance from the real roots of the stationarity cubic.

    The foot t of a nearest point to (a, b) solves t^3 + (1/2 - b) t - a/2 = 0.
    Cardano gives the root where it is the only real one; inside the evolute
    (a, b) = (-4s^3, 1/2 + 3s^2) the trigonometric form gives all three.  Each
    candidate gets two Newton steps and the nearest one wins; every candidate
    is a point of E, so a spurious one can only lose.
    """

    def dist(pts):
        p = _pts2d(pts)
        a, b = p[:, 0], p[:, 1]
        lin = 0.5 - b  # t^3 + lin t - 2 h = 0 with h = a / 4
        h = a / 4
        disc = h**2 + (lin / 3) ** 3
        # the cusp (0, 1/2) has disc = lin = 0 and stays with Cardano (u = 0, t = 0)
        three = (disc <= 0) & (lin < 0)
        # a never-zero sign: with np.sign, a = 0 would zero the Cardano term
        sgn = np.where(h >= 0, 1.0, -1.0)
        u = np.cbrt(h + sgn * np.sqrt(np.maximum(disc, 0.0)))
        nz = u != 0
        one = np.where(nz, u - lin / (3 * np.where(nz, u, 1.0)), 0.0)
        m = np.sqrt(np.maximum(-lin / 3, 0.0))
        m3 = np.where(three, m**3, 1.0)
        ang = np.arccos(np.clip(h / m3, -1.0, 1.0)) / 3
        roots = 2 * m[:, None] * np.cos(ang[:, None] - (2 * np.pi / 3) * np.arange(3))
        t = np.where(three[:, None], roots, one[:, None])
        aa, c = a[:, None], (1 - 2 * b)[:, None]
        for _ in range(2):
            fp = 6 * t**2 + c
            ok = fp != 0
            t = t - np.where(ok, (2 * t**3 + c * t - aa) / np.where(ok, fp, 1.0), 0.0)
        return np.sqrt(np.min((t - aa) ** 2 + (t**2 - b[:, None]) ** 2, axis=1))

    ts = ThickenedSet(dist, 2, "graph(t->t^2)")
    ts.parametrize = lambda t: np.stack([t, np.asarray(t) ** 2], axis=1)
    return ts


# -- CSV tables --------------------------------------------------------------------


def load_symbol_csv(path, xgrid: GroupGrid, xigrid: GroupGrid) -> TableSymbol:
    vals = np.zeros((xgrid.size, xigrid.size), dtype=complex)
    seen = np.zeros(vals.shape, dtype=bool)
    try:
        fh = open(path, newline="", errors="replace")  # a bad byte fails to parse on its line
    except OSError as e:
        raise SymbolError(f"cannot read symbol CSV {path!r}: {e.strerror}") from e
    with fh:
        rd = csv.reader(fh)
        header = next(rd, [])  # an empty file has no header line
        if [h.strip() for h in header[:4]] != ["x_index", "xi_index", "re", "im"]:
            raise SymbolError(f"symbol CSV {path!r} must have header x_index,xi_index,re,im")
        for row in rd:
            if not row:
                continue
            where = f"symbol CSV {path!r} line {rd.line_num}"
            try:
                i, k, re, im = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            except (ValueError, IndexError):
                raise SymbolError(f"{where}: expected x_index,xi_index,re,im, got {row}") from None
            if not np.isfinite((re, im)).all():  # a NaN would reach the eigensolvers
                raise SymbolError(f"{where}: re and im must be finite, got {row}")
            if not (0 <= i < xgrid.size and 0 <= k < xigrid.size):
                raise SymbolError(f"{where}: index ({i},{k}) outside the grid pair")
            vals.real[i, k], vals.imag[i, k] = re, im  # each part as written, -0.0 included
            seen[i, k] = True
    if not seen.all():
        raise SymbolError("symbol CSV does not cover the full grid pair")
    return TableSymbol(xgrid, xigrid, vals)
