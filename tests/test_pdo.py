"""Operator construction: frozen kernels, exact identities, route agreement."""

import math
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from corona_pdo import pdo
from corona_pdo.groups import GroupGrid, product_group
from corona_pdo.pdo import (
    PdoError,
    _spectral_norm,
    convolution_operator,
    diagram_check,
    frequency_section,
    hs_norm,
    load_matrix_bin,
    load_matrix_csv,
    op_matrix,
    save_matrix_bin,
    save_matrix_csv,
)
from corona_pdo.symbols import (
    TableSymbol,
    constant_closure,
    multiplier_symbol,
    power_wave,
    sqrt_wave,
    tensor_symbol,
    values_profile,
)


def _cyclic_pair(n):
    xg = GroupGrid.finite_cyclic(n)
    return xg, xg.dual()


# -- frozen kernel-route matrix -------------------------------------------------------


def test_two_point_group_matrix_frozen():
    # by hand on the 2-point group: kern(x, z) = (1/2) * sum_k (-1)^{zk} f(x, k)
    # kern(0, .) = ((1+2)/2, (1-2)/2), kern(1, .) = ((3+4)/2, (3-4)/2)
    # matrix[x, y] = kern(x, (x - y) mod 2)
    xg, xig = _cyclic_pair(2)
    f = TableSymbol(xg, xig, np.array([[1.0, 2.0], [3.0, 4.0]]))
    want = np.array([[1.5, -0.5], [-0.5, 3.5]])
    assert np.allclose(op_matrix(f), want, atol=1e-14)


def test_constant_symbol_gives_scaled_identity():
    c = 2.5 - 1.0j
    for xg in (GroupGrid.finite_cyclic(8), GroupGrid.torus(8)):
        f = multiplier_symbol(constant_closure(c), xg, xg.dual())
        assert np.allclose(op_matrix(f), c * np.eye(xg.size), atol=1e-12)


def test_pure_multiplication_is_diagonal():
    xg, xig = _cyclic_pair(8)
    rng = np.random.default_rng(5)
    gamma = rng.standard_normal(8)
    f = tensor_symbol(values_profile(gamma), constant_closure(1.0), xg, xig)
    assert np.allclose(op_matrix(f), np.diag(gamma), atol=1e-12)


def test_unit_multiplier_is_identity():
    xg, xig = _cyclic_pair(8)
    f = multiplier_symbol(constant_closure(1.0), xg, xig)
    assert np.allclose(op_matrix(f), np.eye(8), atol=1e-12)


def test_fourier_multiplier_is_circulant_and_matches_conjugation_route():
    xg, xig = _cyclic_pair(4)
    rng = np.random.default_rng(11)
    psi_vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = TableSymbol(xg, xig, np.tile(psi_vals, (4, 1)))
    m = op_matrix(f)
    # x-independent symbol commutes with translations
    for i in range(4):
        for j in range(4):
            assert abs(m[i, j] - m[(i + 1) % 4, (j + 1) % 4]) < 1e-12
    assert np.allclose(m, convolution_operator(xg, xig, psi_vals), atol=1e-12)


def test_frequency_matrix_of_multiplier_is_diagonal():
    xg, xig = _cyclic_pair(4)
    rng = np.random.default_rng(12)
    psi_vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = TableSymbol(xg, xig, np.tile(psi_vals, (4, 1)))
    assert np.allclose(frequency_section(f), np.diag(psi_vals), atol=1e-12)


# -- exact identities ------------------------------------------------------------------


def _table_norm(f):
    """L2 norm of the symbol table on X x Xi, the Hilbert-Schmidt norm of Op(f)."""
    return product_group(f.xgrid, f.xigrid).norm(f.table())


def test_hilbert_schmidt_isometry_random_table():
    xg, xig = _cyclic_pair(8)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = TableSymbol(xg, xig, vals)
    assert abs(hs_norm(op_matrix(f)) - _table_norm(f)) < 1e-10


def test_hilbert_schmidt_isometry_sampled_torus():
    xg = GroupGrid.torus(16)
    f = tensor_symbol(
        values_profile(2.0 + np.cos(2 * np.pi * xg.coords[:, 0])), sqrt_wave(), xg, xg.dual()
    )
    assert abs(hs_norm(op_matrix(f)) - _table_norm(f)) < 1e-10


def test_real_multiplier_gives_hermitian_matrix():
    xg, xig = _cyclic_pair(8)
    f = multiplier_symbol(power_wave(0.5), xg, xig)
    m = op_matrix(f)
    assert np.allclose(m, m.conj().T, atol=1e-12)


def test_diagram_commutes_random_table():
    xg, xig = _cyclic_pair(12)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert diagram_check(TableSymbol(xg, xig, vals)) < 1e-10


def test_diagram_commutes_tensor():
    xg, xig = _cyclic_pair(64)
    gamma = 2.0 + np.cos(2 * np.pi * np.arange(64) / 64)
    f = tensor_symbol(values_profile(gamma), sqrt_wave(), xg, xig)
    assert diagram_check(f) < 1e-10


def test_diagram_check_rejects_sampled_grids():
    xg = GroupGrid.torus(8)
    with pytest.raises(PdoError):
        diagram_check(multiplier_symbol(constant_closure(1.0), xg, xg.dual()))


# -- sampled torus vs exact cyclic group ------------------------------------------------


def test_full_band_torus_matrix_equals_cyclic_matrix():
    # same characters, weights swap sides; dual index m <-> residue (m - 4) mod 8
    rng = np.random.default_rng(19)
    vals_torus = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    tg = GroupGrid.torus(8)
    zg = GroupGrid.finite_cyclic(8)
    m_torus = op_matrix(TableSymbol(tg, tg.dual(), vals_torus))
    m_cyclic = op_matrix(
        TableSymbol(zg, zg.dual(), np.roll(vals_torus, -4, axis=1))
    )
    assert np.allclose(m_torus, m_cyclic, atol=1e-13)


# -- frequency sections ---------------------------------------------------------------------


def test_frequency_section_subsets_agree():
    xg = GroupGrid.torus(32)
    xig = GroupGrid.truncated_integers(8)
    f = tensor_symbol(
        values_profile(1.0 + 0.5 * np.sin(2 * np.pi * xg.coords[:, 0])), sqrt_wave(), xg, xig
    )
    full = frequency_section(f)
    idx = np.array([0, 3, 7, 12, 15])
    sect = frequency_section(f, idx)
    assert np.allclose(sect, full[np.ix_(idx, idx)], atol=1e-13)


def _unband(band):
    k, n = band.shape[0] // 2, band.shape[1]
    dense = np.zeros((n, n), dtype=complex)
    for o in range(-k, k + 1):
        cols = np.arange(max(0, -o), min(n, n - o))
        dense[cols + o, cols] = band[k + o, cols]
    return dense


def test_banded_section_matches_dense():
    xg = GroupGrid.torus(64)
    xig = GroupGrid.truncated_integers(16)
    f = tensor_symbol(lambda c: 2.0 + np.cos(2 * np.pi * c[:, 0]) + 0j, sqrt_wave(), xg, xig)
    shell = np.where(np.abs(xig.coords[:, 0]) > 8)[0]
    for idx in (None, shell):
        dense = frequency_section(f, idx)
        band = frequency_section(f, idx, banded=True)
        # gamma has modes 0 and +-1: bandwidth 1; the terms' route against the table's
        assert band.shape == (3, dense.shape[0])
        assert np.max(np.abs(_unband(band) - dense)) < 1e-13
    # multipliers are exactly diagonal
    m = frequency_section(multiplier_symbol(sqrt_wave(), xg, xig), banded=True)
    assert m.shape == (1, xig.size)
    # positions that do not order the modes keep every entry
    perm = np.array([5, 0, 9, 3, 17])
    band = frequency_section(f, perm, banded=True)
    assert band.shape == (9, 5)
    assert np.allclose(_unband(band), frequency_section(f, perm), atol=1e-15)
    with pytest.raises(PdoError):
        frequency_section(TableSymbol(xg, xig, f.table()), banded=True)


# -- guards, file formats -----------------------------------------------------------


def test_dense_caps_raise(monkeypatch):
    xg, xig = _cyclic_pair(8)
    f = multiplier_symbol(constant_closure(1.0), xg, xig)
    monkeypatch.setattr(pdo, "DENSE_CAP", 4)
    with pytest.raises(PdoError):
        op_matrix(f)
    with pytest.raises(PdoError):
        frequency_section(f)


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m.real[0, :3] = [np.inf, -np.inf, np.nan]
    m.imag[1, 1:4] = [np.inf, -np.inf, np.nan]
    p = tmp_path / "op.bin"
    save_matrix_bin(m, p)
    back = load_matrix_bin(p)
    assert back.dtype == m.dtype and back.shape == m.shape
    assert back.tobytes() == m.tobytes()  # every float, non-finite ones included
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(PdoError):
        load_matrix_bin(bad)
    trunc = tmp_path / "short.bin"
    trunc.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(PdoError):
        load_matrix_bin(trunc)


def test_matrix_binary_bytes_match_interleaved_writer(tmp_path):
    # the file is the complex buffer itself: the same bytes as re/im pairs written
    # from an (n, n, 2) float array, signed zeros, nans, infinities and subnormals too
    specials = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e16, 0.5]
    full = np.empty((len(specials), len(specials)), dtype=complex)
    full.real, full.imag = np.meshgrid(specials, specials)  # every (re, im) pairing
    for m in (full, full[:, 1:].T, full.real):  # contiguous, strided, real
        inter = np.empty(m.shape + (2,), dtype="<f8")
        inter[..., 0], inter[..., 1] = m.real, np.imag(m)
        p = tmp_path / "op.bin"
        save_matrix_bin(m, p)
        shape = np.array(m.shape, dtype="<u8").tobytes()
        assert p.read_bytes() == b"PDOM\x00\x01" + shape + inter.tobytes()
        back = load_matrix_bin(p)
        assert back.flags.writeable and back.tobytes() == inter.tobytes()


def test_operator_routes_leave_a_table_symbol_untouched():
    # op_matrix and frequency_section transform symbol.table() in place
    xg, xig = _cyclic_pair(8)
    rng = np.random.default_rng(53)
    f = TableSymbol(xg, xig, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    kept = f.values.copy()
    op_matrix(f)
    frequency_section(f)
    assert diagram_check(f) < 1e-12
    assert np.array_equal(f.values, kept)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m.real[0, :3] = [np.inf, -np.inf, np.nan]
    m.imag[1, 1:4] = [np.inf, -np.inf, np.nan]
    p = tmp_path / "op.csv"
    save_matrix_csv(m, p)
    back = load_matrix_csv(p)
    assert back.dtype == m.dtype and back.shape == m.shape
    assert back.tobytes() == m.tobytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(PdoError):
        load_matrix_csv(bad)


def _special_matrix():
    m = np.empty((3, 4), dtype=np.complex128)
    m.real = [[-0.0, 1e-300, 1e16, np.nan], [np.inf, 3.0, -7.25e-5, 0.1], [1 / 3, -0.0, 1.5, 2.0]]
    m.imag = [[0.0, -2.5, 0.1, 0.0], [-np.inf, 0.0, 1e300, 0.2], [-0.0, 5e-324, np.nan, -1e16]]
    return m


def _per_entry_csv(m) -> bytes:
    # the per-entry writer this format was defined by, as the oracle
    lines = ["row,col,re,im\n"]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            lines.append(f"{i},{j},{float(m[i, j].real)!r},{float(m[i, j].imag)!r}\n")
    return "".join(lines).encode()


def test_matrix_csv_bytes_match_per_entry_format(tmp_path):
    m = _special_matrix()
    p = tmp_path / "op.csv"
    save_matrix_csv(m, p)
    assert p.read_bytes() == _per_entry_csv(m)
    assert load_matrix_csv(p).tobytes() == m.tobytes()


@pytest.fixture
def parts(monkeypatch):
    """Set the writer's part count (8 cores capped by CORONA_PDO_THREADS) and
    list the forks it makes."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    def cap(k):
        monkeypatch.setenv("CORONA_PDO_THREADS", str(k))
        return forks

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "fork", counted)
    return cap


def _random_matrix(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize(
    "m",
    [_special_matrix(), _random_matrix(1, 5), _random_matrix(5, 1), _random_matrix(7, 3)],
    ids=["special-3x4", "1x5", "5x1", "7x3"],
)
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_matrix_csv_bytes_do_not_depend_on_the_part_count(tmp_path, parts, m, count):
    # more parts than rows: one part per row
    forks = parts(count)
    p = tmp_path / "op.csv"
    save_matrix_csv(m, p)
    assert len(forks) == min(count, m.shape[0]) - 1
    assert p.read_bytes() == _per_entry_csv(m)
    assert load_matrix_csv(p).tobytes() == m.tobytes()


def test_failed_csv_part_raises_and_leaves_no_child(tmp_path, parts, monkeypatch):
    # a part's exception comes back as itself, whichever process formatted it,
    # and no file is opened
    lines = pdo._csv_lines
    m = np.arange(12, dtype=complex).reshape(6, 2)

    def failing(own):
        def fail(m, start, stop):
            if (stop == len(m)) == own:  # this process formats the last part
                raise RuntimeError(f"part from row {start} failed")
            return lines(m, start, stop)

        return fail

    parts(3)
    for own, first in ((False, 0), (True, 4)):  # the forked children fail at rows 0 and 2
        monkeypatch.setattr(pdo, "_csv_lines", failing(own))
        with pytest.raises(RuntimeError, match=f"^part from row {first} failed$"):
            save_matrix_csv(m, tmp_path / "op.csv")
        assert not (tmp_path / "op.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# a writer that fails (its own part raises, or the path is a directory) while a
# child's part is far larger than a pipe buffer (64 KiB; each part here is about
# 300 KB), run in a fresh process
_FAILED_WRITER = """
import os, sys
import numpy as np
from corona_pdo import pdo

os.sched_getaffinity = lambda pid: {0, 1}
os.environ["CORONA_PDO_THREADS"] = "2"
lines = pdo._csv_lines


def failing(m, start, stop):
    if stop == len(m):  # the last part, which this process formats
        raise OSError("own part failed")
    return lines(m, start, stop)


if sys.argv[2] == "own-part":
    pdo._csv_lines = failing
try:
    pdo.save_matrix_csv(np.arange(16000.0).reshape(400, 40) / 3, sys.argv[1])
except OSError as exc:
    print(type(exc).__name__)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
"""


@pytest.mark.parametrize("failure", ["own-part", "path-is-a-directory"])
def test_failed_writer_does_not_wait_for_a_blocked_child(tmp_path, failure):
    path = tmp_path / "op.csv"
    if failure == "path-is-a-directory":
        path.mkdir()
    argv = [sys.executable, "-c", _FAILED_WRITER, str(path), failure]
    # its own session, so a child left blocked can be killed with it
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the writer waited for a child blocked on its pipe")
    assert proc.returncode == 0 and err == b""
    error = b"IsADirectoryError" if failure == "path-is-a-directory" else b"OSError"
    assert out.splitlines() == [error, b"no child"]


@pytest.mark.parametrize(
    "body, where",
    [
        ("-1,0,5.0,0.0\n", "line 2: negative index"),
        ("0,0,1.0\n", "line 2: not row,col,re,im"),
        ("0,0,1.0,x\n", "line 2: not row,col,re,im"),
        ("0,0,1.0,0.0\n\n", "line 3: not row,col,re,im"),
        ("0,0,1.0,0.0\n0,1,1.0,0.0\n1,1,1.0,0.0\n", "no line for cell (1, 0) of the 2 x 2"),
        ("0,0,1.0,0.0\n0,0,2.0,0.0\n", "line 3: cell (0, 0) appears again"),
        ("0,0,1.0,0.0\n0,1,1.0,0.0\n1,0,1.0,0.0\n0,1,3.0,0.0\n", "line 5: cell (0, 1) appears again"),
        ("", "operator CSV is empty"),
    ],
    ids=["negative", "short", "not-a-number", "blank", "missing", "repeated", "repeated-once", "empty"],
)
def test_matrix_csv_loader_names_the_bad_line(tmp_path, body, where):
    p = tmp_path / "op.csv"
    p.write_text("row,col,re,im\n" + body)
    with pytest.raises(PdoError, match=re.escape(str(p)) + ".*" + re.escape(where)):
        load_matrix_csv(p)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        assert _spectral_norm(a.copy()) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    rank1 = np.outer(rng.standard_normal(64), rng.standard_normal(64) + 1j)
    assert _spectral_norm(rank1.copy()) == pytest.approx(np.linalg.norm(rank1, 2), rel=1e-12)
    zero = _spectral_norm(np.zeros((8, 8), dtype=complex))
    assert zero == 0.0 and not math.isnan(zero) and math.copysign(1.0, zero) == 1.0
