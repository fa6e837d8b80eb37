"""Fourier analysis/synthesis between a grid and its dual, plus partial
transforms of two-variable tables.

Conventions (fixed throughout):

    (F u)(xi)   = sum_x  w_x  conj(<x, xi>) u(x)        -- analysis
    (Finv v)(x) = sum_xi w_xi <x, xi> v(xi)             -- synthesis

with <x, xi> = exp(2*pi*i*x.xi) and the correlated Haar weights chosen in
:mod:`corona_pdo.groups`, so that F is unitary (Plancherel) whenever the
dual carries the full band, and exact on band-limited data otherwise.

Every transform has two routes: an FFT route (used by default; exact, not
an approximation, since the pairings are discrete characters) and a dense
DFT-matrix route used as an independent cross-check and for small exact
work.  The two agree to 1e-12 by property test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GridError, GridFunction, GroupGrid, assert_dual_pair


def _along(vec, axis, ndim):
    shape = [1] * ndim
    shape[axis] = len(vec)
    return vec.reshape(shape)


def _scatter(vals, bins, n, axis):
    out_shape = list(vals.shape)
    out_shape[axis] = n
    out = np.zeros(out_shape, dtype=complex)
    moved = np.moveaxis(out, axis, -1)
    moved[..., bins] = np.moveaxis(np.asarray(vals, dtype=complex), axis, -1)
    return out


def _axis_forward(vals, fac, out_fac, axis):
    """Analysis along one factor: primal factor ``fac`` -> dual ``out_fac``."""
    vals = np.asarray(vals, dtype=complex)
    if fac.kind == "finite_cyclic":
        out = np.fft.fft(vals, axis=axis)
        out *= fac.weight
        return out
    if fac.kind == "torus":
        full = np.fft.fft(vals, axis=axis) * fac.weight
        bins = out_fac.points.astype(int) % fac.n
        return np.take(full, bins, axis=axis)
    if fac.kind == "truncated_integers":
        bins = fac.points.astype(int) % fac.n
        emb = _scatter(vals, bins, fac.n, axis)
        return fac.weight * np.fft.fft(emb, axis=axis)
    if fac.kind == "line":
        n, j0, k0 = fac.n, fac.n // 2, out_fac.n // 2
        full = np.fft.fft(vals, axis=axis)
        gather = (np.arange(n) - k0) % n
        out = np.take(full, gather, axis=axis)
        phase = fac.weight * np.exp(2j * np.pi * j0 * (np.arange(n) - k0) / n)
        return out * _along(phase, axis, out.ndim)
    raise GridError(f"cannot transform factor kind {fac.kind!r}")


def _axis_inverse(vals, fac, out_fac, axis):
    """Synthesis along one factor: dual factor ``fac`` -> primal ``out_fac``.

    ``out_fac`` may be a finer torus than the canonical dual (synthesis of a
    band-limited function on more sample points); this stays exact.
    """
    vals = np.asarray(vals, dtype=complex)
    if fac.kind == "finite_cyclic":
        out = np.fft.ifft(vals, axis=axis)
        out *= fac.weight * fac.n
        return out
    if fac.kind == "truncated_integers":
        m = out_fac.n
        bins = fac.points.astype(int) % m
        emb = _scatter(vals, bins, m, axis)
        return fac.weight * m * np.fft.ifft(emb, axis=axis)
    if fac.kind == "torus":
        full = fac.weight * fac.n * np.fft.ifft(vals, axis=axis)
        bins = out_fac.points.astype(int) % fac.n
        return np.take(full, bins, axis=axis)
    if fac.kind == "line":
        n, k0, j0 = fac.n, fac.n // 2, out_fac.n // 2
        full = n * np.fft.ifft(vals, axis=axis)
        gather = (np.arange(n) - j0) % n
        out = np.take(full, gather, axis=axis)
        phase = fac.weight * np.exp(-2j * np.pi * k0 * (np.arange(n) - j0) / n)
        return out * _along(phase, axis, out.ndim)
    raise GridError(f"cannot transform factor kind {fac.kind!r}")


def _run_axes(values, in_grid, out_grid, first_axis, forward):
    step = _axis_forward if forward else _axis_inverse
    for k, (fac, ofac) in enumerate(zip(in_grid.factors, out_grid.factors)):
        values = step(values, fac, ofac, first_axis + k)
    return values


# -- whole-grid transforms ----------------------------------------------------


def fourier(u: GridFunction, out_grid: GroupGrid | None = None, method: str = "auto") -> GridFunction:
    """Analysis transform of ``u`` onto ``out_grid`` (default: canonical dual)."""
    out = out_grid if out_grid is not None else u.grid.dual()
    assert_dual_pair(u.grid, out)
    if method == "dense":
        return GridFunction(out, transform_matrix(u.grid, out) @ u.values)
    vals = u.values.reshape(u.grid.shape)
    vals = _run_axes(vals, u.grid, out, 0, forward=True)
    return GridFunction(out, vals.reshape(-1))


def inverse_fourier(v: GridFunction, out_grid: GroupGrid | None = None, method: str = "auto") -> GridFunction:
    """Synthesis transform of ``v`` (living on a dual grid) onto ``out_grid``."""
    out = out_grid if out_grid is not None else v.grid.dual()
    assert_dual_pair(out, v.grid)
    if method == "dense":
        return GridFunction(out, inverse_transform_matrix(out, v.grid) @ v.values)
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


def transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid | None = None) -> np.ndarray:
    """Dense analysis matrix F with F[k, j] = w_j * conj(<x_j, xi_k>)."""
    xi = xigrid if xigrid is not None else xgrid.dual()
    assert_dual_pair(xgrid, xi)
    return _character_table(xi, xgrid, xgrid, -2j * np.pi, xgrid.weight_per_point)


def inverse_transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid | None = None) -> np.ndarray:
    """Dense synthesis matrix G with G[j, k] = w_xi_k * <x_j, xi_k>."""
    xi = xigrid if xigrid is not None else xgrid.dual()
    assert_dual_pair(xgrid, xi)
    return _character_table(xgrid, xi, xgrid, 2j * np.pi, xi.weight_per_point)


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
