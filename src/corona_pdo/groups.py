"""Discretized locally compact abelian groups and their duals.

A :class:`GroupGrid` is a finite sampling of one of four one-dimensional
group kinds, or a finite product of such factors:

``finite_cyclic(N)``
    Z_N with counting measure (weight 1 per point); self-dual with the
    dual carrying weight 1/N.
``torus(M)``
    M equispaced samples of [0, 1) with total Haar mass 1 (weight 1/M);
    dual is ``truncated_integers(M/2)``.
``truncated_integers(B)``
    the integers -B..B-1 with counting measure; stands in for Z.
``line(step, extent)``
    a centered uniform grid on the real line with weight = step; dual is
    ``line(1/extent, 1/step)``.

The duality pairing is fixed as exp(2*pi*i * x.xi) (with the extra 1/N in
the exponent for the cyclic kind, where coordinates are integers).  Points
are always addressed by index; group products and inverses are index
arithmetic with wrap-around, which is exact for the pairings above because
dual frequencies are integer multiples of the wrap period.

One label rule covers all four kinds: point j of a factor carries the
integer label ``offset + j``, and a factor with n points paired against one
with m points is Z_L with L = max(n, m), labels a and b pairing as
exp(2*pi*i * a*b / L).  The coordinate is the label itself (cyclic,
truncated integers), the label / n (torus) or the label * step (line).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

COMPACT_KINDS = ("finite_cyclic", "torus")


class GridError(ValueError):
    """Raised for malformed grids or incompatible grid pairs."""


@dataclass(frozen=True)
class Factor:
    """One 1-d group factor: sampled points, uniform Haar weight, pairing scale.

    ``phase_scale`` is the factor that multiplies x*xi inside the pairing
    exponent; 1/N for the cyclic kind (integer coordinates), 1 otherwise.
    ``offset`` is the integer label of point 0 (point j has label offset + j).
    """

    kind: str
    n: int
    weight: float
    phase_scale: float
    params: tuple
    offset: int

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only sample coordinates, built on first use (FFT routes need none)."""
        pts = self._coords(np.arange(self.offset, self.offset + self.n, dtype=float))
        pts.flags.writeable = False
        return pts

    def _coords(self, labels: np.ndarray) -> np.ndarray:
        """Coordinates of a float array of integer labels, written over it: the
        label (cyclic, truncated integers), the label / n (torus) or the label
        * step (line)."""
        if self.kind == "torus":
            labels /= self.n
        elif self.kind == "line":
            labels *= self.params[0]
        return labels


def _cyclic_factor(n: int, weight: float = 1.0) -> Factor:
    if n < 1:
        raise GridError(f"finite_cyclic needs n >= 1, got {n}")
    return Factor("finite_cyclic", n, float(weight), 1.0 / n, (n, float(weight)), 0)


def _torus_factor(m: int) -> Factor:
    # m even so the canonical dual band m/2 makes the transform square/unitary
    if m < 2 or m % 2:
        raise GridError(f"torus needs an even sample count >= 2, got {m}")
    return Factor("torus", m, 1.0 / m, 1.0, (m,), 0)


def _integers_factor(band: int) -> Factor:
    if band < 1:
        raise GridError(f"truncated_integers needs band >= 1, got {band}")
    return Factor("truncated_integers", 2 * band, 1.0, 1.0, (band,), -band)


def _line_factor(step: float, extent: float) -> Factor:
    if step <= 0 or extent <= 0:
        raise GridError("line grid needs positive step and extent")
    ratio = extent / step
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise GridError(
            f"line grid extent/step must be a positive integer, got {ratio!r}"
        )
    return Factor("line", n, float(step), 1.0, (float(step), float(extent)), -(n // 2))


def _dual_factor(f: Factor) -> Factor:
    if f.kind == "finite_cyclic":
        n, w = f.params
        return _cyclic_factor(n, 1.0 / (n * w))
    if f.kind == "torus":
        return _integers_factor(f.params[0] // 2)
    if f.kind == "truncated_integers":
        return _torus_factor(2 * f.params[0])
    step, extent = f.params
    return _line_factor(1.0 / extent, 1.0 / step)


class GroupGrid:
    """A product of sampled group factors, addressed by flat row-major index."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise GridError("empty product group")
        self.factors = factors
        self.shape = tuple(f.n for f in factors)
        self.size = math.prod(self.shape)
        if self.size > np.iinfo(np.intp).max:
            raise GridError(
                f"{self!r} has about 10^{int(math.log10(self.size))} points, "
                "more than an array index can address"
            )
        self.ndim = len(factors)
        self.weight_per_point = float(np.prod([f.weight for f in factors]))
        self._coords = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def finite_cyclic(n: int, weight: float = 1.0) -> "GroupGrid":
        return GroupGrid([_cyclic_factor(n, weight)])

    @staticmethod
    def torus(samples: int) -> "GroupGrid":
        return GroupGrid([_torus_factor(samples)])

    @staticmethod
    def truncated_integers(band: int) -> "GroupGrid":
        return GroupGrid([_integers_factor(band)])

    @staticmethod
    def line(step: float, extent: float) -> "GroupGrid":
        return GroupGrid([_line_factor(step, extent)])

    # -- basic structure ---------------------------------------------------

    @property
    def coords(self) -> np.ndarray:
        """(size, ndim) point coordinates, row-major; a read-only view in 1-d."""
        if self.ndim == 1:
            return self.factors[0].points[:, None]
        if self._coords is None:
            self._coords = self._coords_at(np.arange(self.size))
        return self._coords

    def _coords_at(self, idx) -> np.ndarray:
        """(len(idx), ndim) coordinates of the flat indices ``idx`` by the
        factors' label rule: ``coords[idx]`` without building ``coords``."""
        axes = zip(self.factors, self.unravel(idx))
        return np.stack([f._coords((f.offset + i).astype(float)) for f, i in axes], axis=1)

    @property
    def is_compact_kind(self) -> bool:
        return all(f.kind in COMPACT_KINDS for f in self.factors)

    @property
    def is_finite_kind(self) -> bool:
        """True when the grid is an exact finite group (cyclic factors only)."""
        return all(f.kind == "finite_cyclic" for f in self.factors)

    def norm(self, values) -> float:
        """Haar-weighted L2 norm of ``values``, one per grid point."""
        a = np.abs(values)
        a *= a
        return float(np.sqrt(self.weight_per_point * np.sum(a)))

    def dual(self) -> "GroupGrid":
        return GroupGrid([_dual_factor(f) for f in self.factors])

    def __eq__(self, other):
        return isinstance(other, GroupGrid) and self.factors == other.factors

    def __repr__(self):
        inner = ",".join(f.kind + str(f.params) for f in self.factors)
        return f"GroupGrid[{inner}]"

    # -- index arithmetic ----------------------------------------------------
    # Group ops act on labels; indices are labels shifted by the per-factor
    # origin -offset (the index of label 0) and wrap modulo the cardinality.
    # For every dual pair built here the wrap period is invisible to the
    # pairing (frequencies are multiples of 1/period), so the wrap is exact,
    # not an approximation.

    def unravel(self, idx):
        return np.unravel_index(np.asarray(idx), self.shape)

    def _origins(self):
        return tuple(-f.offset for f in self.factors)

    def sub_indices(self, i, j):
        """Index of x_i * x_j^{-1} (broadcasting over i, j)."""
        mi = self.unravel(i)
        mj = self.unravel(j)
        diff = tuple(
            (a - b + o) % n
            for a, b, o, n in zip(mi, mj, self._origins(), self.shape)
        )
        return np.ravel_multi_index(diff, self.shape)


def product_group(*grids: GroupGrid) -> GroupGrid:
    """Concatenate grids into one product grid (lexicographic indexing)."""
    factors = []
    for g in grids:
        factors.extend(g.factors)
    return GroupGrid(factors)


# -- duality pairing ---------------------------------------------------------


def assert_dual_pair(xgrid: GroupGrid, xigrid: GroupGrid) -> None:
    """Check that xigrid samples the dual of xgrid (band truncation allowed).

    The torus dual may carry any band <= samples/2 (Nyquist); other kinds
    must match the canonical dual exactly.
    """
    if xgrid.ndim != xigrid.ndim:
        raise GridError(
            f"grid pair mismatch: {xgrid.ndim} vs {xigrid.ndim} factors"
        )
    for k, (f, g) in enumerate(zip(xgrid.factors, xigrid.factors)):
        want = _dual_factor(f)
        if g.kind != want.kind:
            raise GridError(
                f"factor {k}: dual of {f.kind} is {want.kind}, got {g.kind}"
            )
        if f.kind == "torus":
            band = g.params[0]
            if band > f.params[0] // 2:
                raise GridError(
                    f"factor {k}: band {band} exceeds Nyquist {f.params[0] // 2}"
                )
        elif g.kind == "line":
            ws, we = want.params
            gs, ge = g.params
            if not (math.isclose(ws, gs, rel_tol=1e-9) and math.isclose(we, ge, rel_tol=1e-9)):
                raise GridError(f"factor {k}: line dual must be step={ws}, extent={we}")
        elif want.params[:1] != g.params[:1]:
            raise GridError(f"factor {k}: size mismatch {want.params} vs {g.params}")


def pairing_phase(xgrid: GroupGrid, xigrid: GroupGrid, x_coords, xi_coords):
    """Pairing phase in turns: pairing = exp(2*pi*i * phase).

    Coordinates are (n, ndim) arrays (or (ndim,) for single points);
    broadcasting applies across leading axes.
    """
    x = np.atleast_2d(np.asarray(x_coords, dtype=float))
    xi = np.atleast_2d(np.asarray(xi_coords, dtype=float))
    scales = np.array([f.phase_scale for f in xgrid.factors])
    return np.squeeze((x * xi * scales).sum(axis=-1))


def truncated_dual(xgrid: GroupGrid, band: int) -> GroupGrid:
    """Dual grid of a 1-d torus, truncated to |xi| < band (band <= Nyquist)."""
    if xgrid.ndim != 1 or xgrid.factors[0].kind != "torus":
        raise GridError("truncated_dual expects a 1-d torus grid")
    m = xgrid.factors[0].params[0]
    if band > m // 2:
        raise GridError(f"band {band} exceeds Nyquist {m // 2}")
    return GroupGrid.truncated_integers(band)
