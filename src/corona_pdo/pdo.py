"""Operators Op(f) from two-variable symbols, plus their frequency pictures.

Construction is kernel-first: the symbol table, a plain (X.size, Xi.size)
array, is synthesized in its second variable (``inverse_fourier`` along
axis 1) to the integral kernel kern(x, z), and

    matrix[x, y] = w_y * kern(x, x y^{-1}).

On the frequency side the same operator is a twisted convolution

    S[xi, eta] = w^_eta * (F1 f)(xi - eta, eta)

acting on Fourier coefficients, with F1 the analysis transform in the first
variable (``fourier`` along axis 0); ``diagram_check`` verifies that the two
pictures are conjugate by the discrete transform pair to near machine
precision on finite cyclic grids.  A sampled torus operator with the full
Nyquist band has exactly the same matrix as the corresponding finite cyclic
operator (the Haar weights swap between the two pictures and cancel), which
is what makes frequency-side truncation analysis legitimate for sampled
symbols.

Operator matrices and unbanded sections are dense, at most DENSE_CAP a side:
this is a desk-scale verification tool, not a solver.  A dense section comes
from the FFT of the symbol's table, whatever the symbol.  Frequency sections
of tensor symbols on a 1-d grid also come in LAPACK band storage, built from
the tensor terms: S = T(gamma^) diag(psi) is a Toeplitz-times-diagonal matrix
whose bandwidth is the largest Fourier mode of gamma, so the truncation
ladders never form the n x n array.  Both routes take xi_a - eta_b by the
dual's group law, ``sub_indices``.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import fourier, inverse_fourier, inverse_transform_matrix, transform_matrix
from .groups import GroupGrid
from .symbols import Symbol

DENSE_CAP = 4096
# banded sections drop gamma^ modes worth at most this fraction of sup|f|
BAND_TOL = 1e-13


class PdoError(ValueError):
    """Raised for unbuildable operators (size, grid kind, misuse)."""


def _check_cap(n: int, what: str) -> None:
    if n > DENSE_CAP:
        raise PdoError(f"{what} needs a dense {n} x {n} array; the cap is {DENSE_CAP}")


def op_matrix(symbol: Symbol) -> np.ndarray:
    """Dense matrix of Op(f) on l2 of the x grid (kernel route)."""
    xg = symbol.xgrid
    _check_cap(xg.size, "op_matrix")
    kern = inverse_fourier(symbol.table(), symbol.xigrid, xg, axis=1, overwrite=True)
    rows = np.arange(xg.size)
    sub = xg.sub_indices(rows[:, None], rows[None, :])  # x y^{-1}
    return kern[rows[:, None], sub] * xg.weight_per_point


# -- frequency picture ---------------------------------------------------------------


def _embed_dual_indices(xigrid: GroupGrid, omega: GroupGrid) -> np.ndarray:
    """Indices of the (possibly truncated) dual grid's points inside the full dual.

    A label sits ``fx.offset - fo.offset`` further along each axis of the full
    dual; the Symbol's dual-pair check already made it fit.
    """
    pairs = zip(xigrid.factors, omega.factors)
    embeds = [np.arange(fx.n) + (fx.offset - fo.offset) for fx, fo in pairs]
    multi = np.unravel_index(np.arange(xigrid.size), xigrid.shape)
    return np.ravel_multi_index(
        tuple(embeds[d][m] for d, m in enumerate(multi)), omega.shape
    )


def frequency_section(symbol: Symbol, indices=None, banded: bool = False) -> np.ndarray:
    """Square frequency-side section S[a, b] = w^ * (F1 f)(xi_a - eta_b, eta_b).

    ``indices`` picks the rows/columns (defaults to the whole dual grid); the
    difference xi_a - eta_b wraps inside the full dual of the x grid, which is
    exact because dual frequencies are multiples of the wrap period.  The
    dense section transforms the symbol's table.

    ``banded=True`` (tensor symbols on a 1-d grid) returns the section in
    LAPACK general band storage ``ab[K + a - b, b] = S[a, b]``, shape
    (2K + 1, n), from the tensor terms and without the dense cap.  K is the
    smallest bandwidth with w^ * sum_i sup|psi_i| * (gamma_i^ mass beyond
    mode K) <= BAND_TOL * sup_bound.  That sum bounds every row and column
    sum of the dropped entries, hence their norm, so by Weyl's inequality no
    singular value moves further.  Indices that do not increase keep every
    entry.
    """
    xig = symbol.xigrid
    if indices is None:
        indices = np.arange(xig.size)
    indices = np.asarray(indices, dtype=int)
    omega = symbol.xgrid.dual()
    embed = _embed_dual_indices(xig, omega)[indices]
    what = xig.weight_per_point
    if banded:
        if symbol.tensor_terms is None or omega.ndim != 1:
            raise PdoError("band storage needs a tensor symbol on a 1-d grid")
        return _band_section(symbol, xig.coords[indices], embed, omega) * what
    _check_cap(len(indices), "frequency_section")
    sub = omega.sub_indices(embed[:, None], embed[None, :])
    psi1 = fourier(symbol.table(), symbol.xgrid, overwrite=True)
    return psi1[sub, indices[None, :]] * what


def _band_section(symbol, cols, embed, omega) -> np.ndarray:
    """Band storage of sum_i gamma_i^(xi_a - eta_b) psi_i(eta_b), before w^."""
    n, period = len(embed), omega.size
    wrap = (np.arange(period) + omega.factors[0].offset) % period
    wrap = np.minimum(wrap, period - wrap)  # mode distance of each bin's label
    hats, psis, tail = [], [], 0.0
    for gv, psi in symbol.tensor_terms:
        gh = fourier(gv, symbol.xgrid)
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
    diff = omega.sub_indices(embed[np.clip(a, 0, n - 1)], embed[None, :])
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
    # each factor is freed once used, and the difference before M's norm
    D = inverse_transform_matrix(xg, symbol.xigrid) @ frequency_section(symbol)
    D = D @ transform_matrix(xg, symbol.xigrid)
    D -= M
    num = _spectral_norm(D)
    del D
    den = max(_spectral_norm(M), 1e-300)
    return num / den


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of the complex matrix ``a`` from the top
    eigenvalue of a^H a: no SVD, and squaring costs accuracy only in the
    smallest singular values.

    The Gram is taken of 2^-e a, e the exponent that brings the largest
    |entry| into [1/2, 1), so it cannot overflow; the scaling is exact, and
    the norm is scaled back by 2^e.  ``a`` is scaled in place, so it is
    overwritten.
    """
    peak = float(np.abs(a).max())
    if not math.isfinite(peak):
        raise PdoError("matrix has non-finite entries (nan, inf or overflow)")
    e = math.frexp(peak)[1]
    for part in (a.real, a.imag):
        np.ldexp(part, -e, out=part)
    top = float(np.linalg.eigvalsh(a.conj().T @ a)[-1])
    return math.ldexp(math.sqrt(top), e) if top > 0.0 else 0.0


# -- simple named operators ------------------------------------------------------------


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
    m = np.ascontiguousarray(matrix, dtype="<c16")  # a complex entry is its re/im pair
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(np.array(m.shape, dtype="<u8").tobytes())
        fh.write(m.data)


def load_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise PdoError("not an operator matrix file (bad magic)")
        rows, cols = (int(k) for k in np.frombuffer(fh.read(16), dtype="<u8"))
        data = np.fromfile(fh, dtype=np.uint8)  # the rest of the file, writable
    if data.size != 16 * rows * cols:
        raise PdoError("operator matrix file is truncated")
    return data.view("<c16").reshape(rows, cols)


def _csv_lines(m: np.ndarray, start: int, stop: int):
    """The CSV lines of rows start..stop-1 of ``m``, one ASCII block per row."""
    heads = [f",{j}," for j in range(m.shape[1])]
    for i in range(start, stop):  # per row: a whole-matrix tolist costs ~36 MB at n=768
        cells = zip(heads, m[i].real.tolist(), m[i].imag.tolist())
        yield "".join([f"{i}{head}{re!r},{im!r}\n" for head, re, im in cells]).encode()


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write ``matrix`` as CSV: the header ``row,col,re,im``, then one line
    ``i,j,re,im`` per entry in row-major order, each float as its ``repr``.

    The rows are cut into one contiguous part per usable core, at most
    ``CORONA_PDO_THREADS`` parts when it is set and at most one per row.  This
    process formats the first part and a forked child each other part, which
    hands its bytes back through a pipe; the parts are written in row order,
    so no byte depends on the part count.  The fork is safe because a child
    only formats floats (no import, no BLAS, no output) and always leaves
    through ``os._exit``.  Every child is reaped, also when this process's own
    part raises, and a child that fails is an ``OSError``.
    """
    import os  # local: importing pdo loads nothing more

    m = np.asarray(matrix, dtype=np.complex128)
    rows = m.shape[0]
    # the usable cores; one part where there is no affinity mask (Windows has no fork)
    parts = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    cap = os.environ.get("CORONA_PDO_THREADS", "")
    if cap.isdigit():
        parts = min(parts, int(cap))
    parts = max(1, min(parts, rows))
    bounds = [rows * k // parts for k in range(parts + 1)]
    children, reads = [], []  # (pid, first row) of each child; the read end of its pipe
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:  # the child: format every row before a write can block, then leave
                code = 1
                try:
                    # hold no read end (its own is the last one), so that when this
                    # process stops reading, the child's write fails instead of blocking
                    for fd in reads:
                        os.close(fd)
                    blocks = list(_csv_lines(m, lo, hi))
                    with open(w, "wb") as pipe:
                        pipe.writelines(blocks)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, lo))
        with open(path, "wb") as fh:
            fh.write(b"row,col,re,im\n")
            fh.writelines(_csv_lines(m, 0, bounds[1]))
            for r in reads:
                while chunk := os.read(r, 1 << 20):
                    fh.write(chunk)
    finally:
        for r in reads:
            os.close(r)  # the only read end: a child still writing stops on the broken pipe
        codes = [(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), lo) for pid, lo in children]
    for code, lo in codes:
        if code:
            raise OSError(f"{path}: the process formatting rows from {lo} exited with status {code}")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by ``save_matrix_csv``.

    Every line after the header is ``row,col,re,im``: two non-negative integer
    indices and two floats.  The largest indices set the shape, and each of
    its cells must appear exactly once.  Anything else is a ``PdoError`` that
    names the file and the line (or, for a missing cell, the cell).
    """
    rows, cols, re, im = [], [], [], []
    with open(path) as fh:
        if fh.readline().strip() != "row,col,re,im":
            raise PdoError(f"{path}: operator CSV must have header row,col,re,im")
        for k, line in enumerate(fh, start=2):
            try:
                a, b, c, d = line.split(",")
                i, j, x, y = int(a), int(b), float(c), float(d)
            except ValueError:
                raise PdoError(f"{path}, line {k}: not row,col,re,im: {line.strip()!r}") from None
            if i < 0 or j < 0:
                raise PdoError(f"{path}, line {k}: negative index in {line.strip()!r}")
            rows.append(i)
            cols.append(j)
            re.append(x)
            im.append(y)
    if not rows:
        raise PdoError(f"{path}: operator CSV is empty")
    shape = (max(rows) + 1, max(cols) + 1)
    if len(rows) != shape[0] * shape[1] or np.bincount(
        np.asarray(rows) * shape[1] + cols, minlength=len(rows)
    ).max() > 1:
        _cell_error(path, rows, cols, shape)
    out = np.zeros(shape, dtype=np.complex128)
    out.real[rows, cols] = re
    out.imag[rows, cols] = im
    return out


def _cell_error(path, rows, cols, shape):
    """Raise for the first repeated line, else for the first missing cell."""
    seen = set()
    for k, cell in enumerate(zip(rows, cols)):
        if cell in seen:
            raise PdoError(f"{path}, line {k + 2}: cell {cell} appears again")
        seen.add(cell)
    flat = sorted(i * shape[1] + j for i, j in seen)
    gap = next((k for k, f in enumerate(flat) if k != f), len(flat))
    cell = divmod(gap, shape[1])
    raise PdoError(f"{path}: no line for cell {cell} of the {shape[0]} x {shape[1]} matrix")
