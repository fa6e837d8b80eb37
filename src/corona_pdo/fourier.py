"""Fourier analysis/synthesis between a grid and its dual, on plain arrays.

A function on a grid is a NumPy array indexed by the grid's flat point
index; a two-variable table on X x Xi is an (X.size, Xi.size) array.  The
grid travels next to the array.  ``fourier`` acts on axis 0, the x variable
of a table; ``inverse_fourier`` takes an ``axis``, which is 1 for the dual
variable of a table.

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

Buffers: a transform writes its FFTs into the arrays it made itself (the
complex copy of a real input, a scatter's array, an earlier factor's
output), and into the caller's array only when called with
``overwrite=True`` (named after scipy.fft's ``overwrite_x``).  The caller's
array then holds unspecified values, and the result may share its memory.
The default leaves it untouched.  In-place and out-of-place FFTs give
bit-identical values (property test).
"""

from __future__ import annotations

import numpy as np

from .groups import GroupGrid, assert_dual_pair


def _scatter(vals, bins, n, axis):
    out_shape = list(vals.shape)
    out_shape[axis] = n
    out = np.zeros(out_shape, dtype=complex)
    moved = np.moveaxis(out, axis, -1)
    moved[..., bins] = np.moveaxis(np.asarray(vals, dtype=complex), axis, -1)
    return out


def _axis(vals, fac, out_fac, axis, forward, own):
    """Analysis (``forward``) or synthesis along one factor, ``fac`` -> ``out_fac``.

    Both factors are Z_L with L = max(fac.n, out_fac.n) on the labels of
    :mod:`corona_pdo.groups`; ``out_fac`` may be a finer torus than the
    canonical dual (synthesis of a band-limited function on more sample
    points), which stays exact.  Labels scatter into an FFT of length L and
    the output labels are gathered from it.  The FFT writes over ``vals`` when
    ``own`` allows it, and over the scatter's array always.
    """
    L = max(fac.n, out_fac.n)
    if fac.offset or fac.n != L:
        vals = _scatter(vals, (np.arange(fac.n) + fac.offset) % L, L, axis)
        own = True
    out = vals if own else None
    if forward:
        out = np.fft.fft(vals, axis=axis, out=out)
    else:
        out = np.fft.ifft(vals, axis=axis, norm="forward", out=out)
    out *= fac.weight
    if out_fac.offset or out_fac.n != L:
        out = np.take(out, (np.arange(out_fac.n) + out_fac.offset) % L, axis=axis)
    return out


def _transform(values, grid, out_grid, axis, forward, overwrite):
    """Transform ``values`` along ``axis``, whose entries are the points of ``grid``."""
    vals = np.asarray(values, dtype=complex)
    own = overwrite or vals is not values  # a converted copy is ours to overwrite
    lead, trail = vals.shape[:axis], vals.shape[axis + 1:]
    vals = vals.reshape(lead + grid.shape + trail)
    for k, (fac, ofac) in enumerate(zip(grid.factors, out_grid.factors)):
        vals = _axis(vals, fac, ofac, axis + k, forward, own)
        own = True  # every later factor reads the array the previous one made
    return vals.reshape(lead + (out_grid.size,) + trail)


def fourier(values, grid: GroupGrid, out_grid=None, overwrite=False) -> np.ndarray:
    """Analysis transform of ``values`` on ``grid`` onto ``out_grid`` (default:
    canonical dual), along axis 0: the x variable of a table.  With
    ``overwrite=True`` the FFT may reuse ``values``' memory."""
    out = out_grid if out_grid is not None else grid.dual()
    assert_dual_pair(grid, out)
    return _transform(values, grid, out, 0, forward=True, overwrite=overwrite)


def inverse_fourier(values, grid: GroupGrid, out_grid=None, axis=0, overwrite=False) -> np.ndarray:
    """Synthesis transform of ``values`` on the dual grid ``grid`` onto ``out_grid``.
    With ``overwrite=True`` the FFT may reuse ``values``' memory."""
    out = out_grid if out_grid is not None else grid.dual()
    assert_dual_pair(out, grid)
    return _transform(values, grid, out, axis, forward=False, overwrite=overwrite)


def _character_table(
    rows: GroupGrid, cols: GroupGrid, xgrid: GroupGrid, turn, weight, block=slice(None)
) -> np.ndarray:
    """weight * exp(turn * pairing phase) on the rows ``block`` (a slice of the
    flat indices of ``rows``) x cols.  The phase is summed factor by factor in
    place, rounding as ``pairing_phase`` does up to 7 factors, without its
    (rows, cols, ndim) temporary."""
    labels = np.unravel_index(np.arange(rows.size)[block], rows.shape)
    m, d = len(labels[0]), xgrid.ndim
    z = np.zeros((m,) + cols.shape, dtype=complex)
    for k, (fr, fc, fx) in enumerate(zip(rows.factors, cols.factors, xgrid.factors)):
        part = np.multiply.outer(fr.points[labels[k]], fc.points)
        part *= fx.phase_scale
        shape = [1] * (1 + d)
        shape[0], shape[1 + k] = m, fc.n
        z.real += part.reshape(shape)
    z *= turn
    np.exp(z, out=z)
    z *= weight
    return z.reshape(m, cols.size)


def transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid, rows=slice(None)) -> np.ndarray:
    """Dense analysis matrix F with F[k, j] = w_j * conj(<x_j, xi_k>), or its
    rows ``rows`` (a slice)."""
    assert_dual_pair(xgrid, xigrid)
    return _character_table(xigrid, xgrid, xgrid, -2j * np.pi, xgrid.weight_per_point, rows)


def inverse_transform_matrix(xgrid: GroupGrid, xigrid: GroupGrid) -> np.ndarray:
    """Dense synthesis matrix G with G[j, k] = w_xi_k * <x_j, xi_k>."""
    assert_dual_pair(xgrid, xigrid)
    return _character_table(xgrid, xigrid, xgrid, 2j * np.pi, xigrid.weight_per_point)


def convolve(u: np.ndarray, v: np.ndarray, grid: GroupGrid) -> np.ndarray:
    """Group convolution (u*v)(x) = sum_y w_y u(y) v(x y^-1) on ``grid``.

    Definitional quadratic-cost sum via index arithmetic; serves as the
    independent oracle for the FFT product identity.
    """
    idx = grid.sub_indices(np.arange(grid.size)[:, None], np.arange(grid.size)[None, :])
    return grid.weight_per_point * (v[idx] @ u)
