"""Operators Op(f) from two-variable symbols, plus their frequency pictures.

Construction is kernel-first: the symbol table is synthesized in its second
variable to the integral kernel kern(x, z), and

    matrix[x, y] = w_y * kern(x, x y^{-1}).

On the frequency side the same operator is a twisted convolution

    S[xi, eta] = w^_eta * (F1 f)(xi - eta, eta)

acting on Fourier coefficients; ``diagram_check`` verifies that the two
pictures are conjugate by the discrete transform pair to near machine
precision on finite cyclic grids.  A sampled torus operator with the full
Nyquist band has exactly the same matrix as the corresponding finite cyclic
operator (the Haar weights swap between the two pictures and cancel), which
is what makes frequency-side truncation analysis legitimate for sampled
symbols.

Operator matrices are dense and size-capped: this is a desk-scale
verification tool, not a solver.  Frequency sections of tensor symbols on a
1-d grid also come in LAPACK band storage: S = T(gamma^) diag(psi) is a
Toeplitz-times-diagonal matrix whose bandwidth is the largest Fourier mode of
gamma, so the truncation ladders never form the n x n array.
"""

from __future__ import annotations

import numpy as np

from .fourier import (
    fourier,
    inverse_transform_matrix,
    partial_fourier_1,
    partial_fourier_2_inverse,
    transform_matrix,
)
from .groups import GridFunction, GroupGrid
from .symbols import Symbol

DENSE_CAP = 4096
# banded sections drop gamma^ modes worth at most this fraction of sup|f|
BAND_TOL = 1e-13


class PdoError(ValueError):
    """Raised for unbuildable operators (size, grid kind, misuse)."""


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise PdoError(
            f"{what} needs a dense {n} x {n} array; cap is {cap} "
            "(pass a larger cap explicitly if the memory is really there)"
        )


def op_matrix(symbol: Symbol, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of Op(f) on l2 of the x grid (kernel route)."""
    xg = symbol.xgrid
    _check_cap(xg.size, cap, "op_matrix")
    kern = partial_fourier_2_inverse(symbol.table(), out_grid=xg)
    rows = np.arange(xg.size)
    sub = xg.sub_indices(rows[:, None], rows[None, :])  # x y^{-1}
    return kern.values[rows[:, None], sub] * xg.weight_per_point


# -- frequency picture ---------------------------------------------------------------


def _embed_dual_indices(xigrid: GroupGrid, omega: GroupGrid) -> np.ndarray:
    """Indices of the (possibly truncated) dual grid's points inside the full dual."""
    embeds = []
    for fx, fo in zip(xigrid.factors, omega.factors):
        step = fo.points[1] - fo.points[0] if fo.n > 1 else 1.0
        e = np.round((fx.points - fo.points[0]) / step).astype(int)
        if np.any(e < 0) or np.any(e >= fo.n) or not np.allclose(
            fo.points[e], fx.points, atol=1e-12
        ):
            raise PdoError("dual grid does not embed in the full dual of the x grid")
        embeds.append(e)
    multi = np.unravel_index(np.arange(xigrid.size), xigrid.shape)
    return np.ravel_multi_index(
        tuple(embeds[d][m] for d, m in enumerate(multi)), omega.shape
    )


def frequency_section(
    symbol: Symbol,
    indices=None,
    cap: int = 6000,
    prefer_tensor: bool = True,
    banded: bool = False,
) -> np.ndarray:
    """Square frequency-side section S[a, b] = w^ * (F1 f)(xi_a - eta_b, eta_b).

    ``indices`` picks the rows/columns (defaults to the whole dual grid); the
    difference xi_a - eta_b wraps inside the full dual of the x grid, which is
    exact because dual frequencies are multiples of the wrap period.

    ``banded=True`` (tensor symbols on a 1-d grid) returns the section in
    LAPACK general band storage ``ab[K + a - b, b] = S[a, b]``, shape
    (2K + 1, n), without the ``cap``.  K is the smallest bandwidth with
    w^ * sum_i sup|psi_i| * (gamma_i^ mass beyond mode K) <= BAND_TOL *
    sup_bound.  That sum bounds every row and column sum of the dropped
    entries, hence their norm, so by Weyl's inequality no singular value
    moves further.  Indices that do not increase keep every entry.
    """
    xig = symbol.xigrid
    if indices is None:
        indices = np.arange(xig.size)
    indices = np.asarray(indices, dtype=int)
    omega = symbol.xgrid.dual()
    embed = _embed_dual_indices(xig, omega)[indices]
    what = xig.weight_per_point
    terms = symbol.tensor_terms
    if banded:
        if terms is None or omega.ndim != 1:
            raise PdoError("band storage needs a tensor symbol on a 1-d grid")
        return _band_section(symbol, xig.coords[indices], embed, omega) * what
    _check_cap(len(indices), cap, "frequency_section")
    sub = omega.sub_indices(embed[:, None], embed[None, :])
    if prefer_tensor and terms is not None:
        S = np.zeros((len(indices), len(indices)), dtype=complex)
        psi_cols = xig.coords[indices]
        for gv, psi in terms:
            gh = fourier(GridFunction(symbol.xgrid, gv)).values
            S += gh[sub] * psi(psi_cols)[None, :]
        return S * what
    psi1 = partial_fourier_1(symbol.table())
    return psi1.values[sub, indices[None, :]] * what


def _band_section(symbol, cols, embed, omega) -> np.ndarray:
    """Band storage of sum_i gamma_i^(xi_a - eta_b) psi_i(eta_b), before w^."""
    n, period = len(embed), omega.size
    origin = int(np.argmin(np.abs(omega.coords[:, 0])))
    wrap = np.arange(period)
    wrap = np.minimum(wrap, period - wrap)  # mode distance of each rolled bin
    hats, psis, tail = [], [], 0.0
    for gv, psi in symbol.tensor_terms:
        gh = np.roll(fourier(GridFunction(symbol.xgrid, gv)).values, -origin)
        pv = psi(cols)
        mass = np.bincount(wrap, weights=np.abs(gh))
        beyond = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # mass past distance k
        tail = tail + np.max(np.abs(pv), initial=0.0) * beyond
        hats.append(gh)
        psis.append(pv)
    k = int(np.argmax(tail * symbol.xigrid.weight_per_point <= BAND_TOL * symbol.sup_bound))
    # an entry outside the band is a dropped mode only when positions order modes
    ordered = np.all(np.diff(embed) > 0) and embed[-1] - embed[0] < period - k
    k = min(k, n - 1) if ordered else n - 1
    b = np.arange(n)
    a = b[None, :] + np.arange(-k, k + 1)[:, None]
    inside = (a >= 0) & (a < n)
    diff = (embed[np.clip(a, 0, n - 1)] - embed[None, :]) % period
    ab = np.zeros((2 * k + 1, n), dtype=complex)
    for gh, pv in zip(hats, psis):
        ab += gh[diff] * pv[None, :]
    return np.where(inside, ab, 0.0)


def diagram_check(symbol: Symbol) -> float:
    """Relative spectral-norm gap between the kernel route and F^-1 S F.

    Exact (up to roundoff) on finite cyclic grids, where the dual is the whole
    group and no truncation is involved.
    """
    xg = symbol.xgrid
    if not xg.is_finite_kind:
        raise PdoError("diagram check compares full transforms: finite cyclic only")
    M = op_matrix(symbol)
    S = frequency_section(symbol, cap=DENSE_CAP)
    F = transform_matrix(xg, symbol.xigrid)
    Fi = inverse_transform_matrix(xg, symbol.xigrid)
    num = float(np.linalg.norm(Fi @ S @ F - M, 2))
    den = max(float(np.linalg.norm(M, 2)), 1e-300)
    return num / den


# -- simple named operators ------------------------------------------------------------


def multiplication_operator(xgrid: GroupGrid, gamma_values) -> np.ndarray:
    g = np.asarray(gamma_values, dtype=complex).reshape(-1)
    if g.size != xgrid.size:
        raise PdoError("multiplier values do not match the grid")
    return np.diag(g)


def convolution_operator(xgrid: GroupGrid, xigrid: GroupGrid, psi_values) -> np.ndarray:
    """Fourier multiplier as a dense matrix: G diag(psi) F."""
    p = np.asarray(psi_values, dtype=complex).reshape(-1)
    if p.size != xigrid.size:
        raise PdoError("multiplier values do not match the dual grid")
    F = transform_matrix(xgrid, xigrid)
    G = inverse_transform_matrix(xgrid, xigrid)
    return G @ (p[:, None] * F)


def hs_norm(matrix: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(sum (w_x / w_y) |matrix[x,y]|^2).

    Grid weights are uniform across points, so the ratio is 1 and this is
    the Frobenius norm; kept as a named function because equality with the
    symbol's L2 norm is one of the exact identities the tests pin down.
    """
    return float(np.linalg.norm(matrix, "fro"))


# -- file formats ------------------------------------------------------------------------


_BIN_MAGIC = b"PDOM\x00\x01"


def save_matrix_bin(matrix: np.ndarray, path) -> None:
    """Little-endian flat binary: magic, rows/cols as u64, row-major re/im f64 pairs."""
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    inter = np.empty((m.shape[0], m.shape[1], 2), dtype="<f8")
    inter[..., 0] = m.real
    inter[..., 1] = m.imag
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(np.array(m.shape, dtype="<u8").tobytes())
        fh.write(inter.tobytes())


def load_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise PdoError("not an operator matrix file (bad magic)")
        rows, cols = np.frombuffer(fh.read(16), dtype="<u8")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != 2 * rows * cols:
        raise PdoError("operator matrix file is truncated")
    data = data.reshape(int(rows), int(cols), 2)
    return (data[..., 0] + 1j * data[..., 1]).astype(np.complex128)


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    with open(path, "w", newline="") as fh:
        fh.write("row,col,re,im\n")
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                fh.write(f"{i},{j},{float(m[i, j].real)!r},{float(m[i, j].imag)!r}\n")


def load_matrix_csv(path) -> np.ndarray:
    rows, cols, re, im = [], [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "row,col,re,im":
            raise PdoError("operator CSV must have header row,col,re,im")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b, c, d = line.split(",")
            rows.append(int(a))
            cols.append(int(b))
            re.append(float(c))
            im.append(float(d))
    if not rows:
        raise PdoError("operator CSV is empty")
    out = np.zeros((max(rows) + 1, max(cols) + 1), dtype=np.complex128)
    out[rows, cols] = np.array(re) + 1j * np.array(im)
    return out
