"""Fourier analysis/synthesis between a grid and its dual, plus partial
transforms of two-variable tables.

Conventions (fixed throughout):

    (F u)(xi)   = sum_x  w_x  conj(<x, xi>) u(x)        -- analysis
    (Finv v)(x) = sum_xi w_xi <x, xi> v(xi)             -- synthesis

with <x, xi> = exp(2*pi*i*x.xi) and the correlated Haar weights chosen in
:mod:`corona_pdo.groups`, so that F is unitary (Plancherel) whenever the
dual carries the full band, and exact on band-limited data otherwise.

The transforms take one FFT route for every factor (exact, not an
approximation, since the pairings are discrete characters).  The dense
matrices ``transform_matrix`` and ``inverse_transform_matrix`` are built
from float coordinates instead of labels: they are the independent oracle
for that route and serve small exact work.  The two agree to 1e-12 by
property test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GridError, GridFunction, GroupGrid, assert_dual_pair


def _scatter(vals, bins, n, axis):
    out_shape = list(vals.shape)
    out_shape[axis] = n
    out = np.zeros(out_shape, dtype=complex)
    moved = np.moveaxis(out, axis, -1)
    moved[..., bins] = np.moveaxis(np.asarray(vals, dtype=complex), axis, -1)
    return out


def _axis(vals, fac, out_fac, axis, forward):
    """Analysis (``forward``) or synthesis along one factor, ``fac`` -> ``out_fac``.

    Both factors are Z_L with L = max(fac.n, out_fac.n) on the labels of
    :mod:`corona_pdo.groups`; ``out_fac`` may be a finer torus than the
    canonical dual (synthesis of a band-limited function on more sample
    points), which stays exact.  Labels scatter into an FFT of length L and
    the output labels are gathered from it.
    """
    L = max(fac.n, out_fac.n)
    if fac.offset or fac.n != L:
        vals = _scatter(vals, (np.arange(fac.n) + fac.offset) % L, L, axis)
    if forward:
        out = np.fft.fft(vals, axis=axis)
    else:
        out = np.fft.ifft(vals, axis=axis, norm="forward")
    out *= fac.weight
    if out_fac.offset or out_fac.n != L:
        out = np.take(out, (np.arange(out_fac.n) + out_fac.offset) % L, axis=axis)
    return out


def _run_axes(values, in_grid, out_grid, first_axis, forward):
    for k, (fac, ofac) in enumerate(zip(in_grid.factors, out_grid.factors)):
        values = _axis(values, fac, ofac, first_axis + k, forward)
    return values


# -- whole-grid transforms ----------------------------------------------------


def fourier(u: GridFunction, out_grid: GroupGrid | None = None) -> GridFunction:
    """Analysis transform of ``u`` onto ``out_grid`` (default: canonical dual)."""
    out = out_grid if out_grid is not None else u.grid.dual()
    assert_dual_pair(u.grid, out)
    vals = u.values.reshape(u.grid.shape)
    vals = _run_axes(vals, u.grid, out, 0, forward=True)
    return GridFunction(out, vals.reshape(-1))


def inverse_fourier(v: GridFunction, out_grid: GroupGrid | None = None) -> GridFunction:
    """Synthesis transform of ``v`` (living on a dual grid) onto ``out_grid``."""
    out = out_grid if out_grid is not None else v.grid.dual()
    assert_dual_pair(out, v.grid)
    vals = v.values.reshape(v.grid.shape)
    vals = _run_axes(vals, v.grid, out, 0, forward=False)
    return GridFunction(out, vals.reshape(-1))


def _character_table(rows: GroupGrid, cols: GroupGrid, xgrid: GroupGrid, turn, weight) -> np.ndarray:
    """weight * exp(turn * pairing phase) on rows x cols.  The phase is summed
    factor by factor in place, rounding as ``pairing_phase`` does up to 7
    factors, without its (rows, cols, ndim) temporary."""
    d = xgrid.ndim
    z = np.zeros(rows.shape + cols.shape, dtype=complex)
    for k, (fr, fc, fx) in enumerate(zip(rows.factors, cols.factors, xgrid.factors)):
        part = np.multiply.outer(fr.points, fc.points)
        part *= fx.phase_scale
        shape = [1] * (2 * d)
        shape[k], shape[d + k] = fr.n, fc.n
        z.real += part.reshape(shape)
    z *= turn
    np.exp(z, out=z)
    z *= weight
    return z.reshape(rows.size, cols.size)


def transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid) -> np.ndarray:
    """Dense analysis matrix F with F[k, j] = w_j * conj(<x_j, xi_k>)."""
    assert_dual_pair(xgrid, xigrid)
    return _character_table(xigrid, xgrid, xgrid, -2j * np.pi, xgrid.weight_per_point)


def inverse_transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid) -> np.ndarray:
    """Dense synthesis matrix G with G[j, k] = w_xi_k * <x_j, xi_k>."""
    assert_dual_pair(xgrid, xigrid)
    return _character_table(xgrid, xigrid, xgrid, 2j * np.pi, xigrid.weight_per_point)


def convolve(u: GridFunction, v: GridFunction) -> GridFunction:
    """Group convolution (u*v)(x) = sum_y w_y u(y) v(x y^-1).

    Definitional quadratic-cost sum via index arithmetic; serves as the
    independent oracle for the FFT product identity.
    """
    if u.grid.descriptor() != v.grid.descriptor():
        raise GridError("convolve needs both functions on the same grid")
    g = u.grid
    idx = g.sub_indices(np.arange(g.size)[:, None], np.arange(g.size)[None, :])
    return GridFunction(g, g.weight_per_point * (v.values[idx] @ u.values))


# -- two-variable tables -------------------------------------------------------


@dataclass
class PhaseFunction:
    """Table of a two-variable function on xgrid x xigrid (rows x columns)."""

    xgrid: GroupGrid
    xigrid: GroupGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(
            self.xgrid.size, self.xigrid.size
        )
        self.values = v

    def hs_norm(self) -> float:
        w = self.xgrid.weight_per_point * self.xigrid.weight_per_point
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))


def partial_fourier_1(g: PhaseFunction, out_grid: GroupGrid | None = None) -> PhaseFunction:
    """Analysis in the first variable: (F1 g)(eta, xi) = sum_x w conj(<x,eta>) g(x, xi)."""
    out = out_grid if out_grid is not None else g.xgrid.dual()
    assert_dual_pair(g.xgrid, out)
    vals = g.values.reshape(*g.xgrid.shape, g.xigrid.size)
    vals = _run_axes(vals, g.xgrid, out, 0, forward=True)
    return PhaseFunction(out, g.xigrid, vals.reshape(out.size, g.xigrid.size))


def partial_fourier_2_inverse(g: PhaseFunction, out_grid: GroupGrid | None = None) -> PhaseFunction:
    """Synthesis in the second variable: kern(x, z) = sum_xi w <z,xi> g(x, xi).

    With ``out_grid = g.xgrid`` this produces the integral kernel table of
    the operator with symbol table ``g``.
    """
    out = out_grid if out_grid is not None else g.xigrid.dual()
    assert_dual_pair(out, g.xigrid)
    vals = g.values.reshape(g.xgrid.size, *g.xigrid.shape)
    vals = _run_axes(vals, g.xigrid, out, 1, forward=False)
    return PhaseFunction(g.xgrid, out, vals.reshape(g.xgrid.size, out.size))
