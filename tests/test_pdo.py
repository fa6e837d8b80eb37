"""Operator construction: frozen kernels, exact identities, route agreement."""

import numpy as np
import pytest

from corona_pdo.groups import GroupGrid, truncated_dual
from corona_pdo.pdo import (
    PdoError,
    convolution_operator,
    diagram_check,
    frequency_section,
    hs_norm,
    load_matrix_bin,
    load_matrix_csv,
    multiplication_operator,
    op_matrix,
    save_matrix_bin,
    save_matrix_csv,
)
from corona_pdo.symbols import (
    TableSymbol,
    constant_closure,
    constant_symbol,
    multiplier_symbol,
    power_wave,
    sqrt_wave,
    tensor_symbol,
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
        f = constant_symbol(c, xg, xg.dual())
        assert np.allclose(op_matrix(f), c * np.eye(xg.size), atol=1e-12)


def test_pure_multiplication_is_diagonal():
    xg, xig = _cyclic_pair(8)
    rng = np.random.default_rng(5)
    gamma = rng.standard_normal(8)
    f = tensor_symbol(gamma, constant_closure(1.0), xg, xig)
    assert np.allclose(op_matrix(f), np.diag(gamma), atol=1e-12)
    assert np.allclose(multiplication_operator(xg, gamma), np.diag(gamma))


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


def test_hilbert_schmidt_isometry_random_table():
    xg, xig = _cyclic_pair(8)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = TableSymbol(xg, xig, vals)
    assert abs(hs_norm(op_matrix(f)) - f.table().hs_norm()) < 1e-10


def test_hilbert_schmidt_isometry_sampled_torus():
    xg = GroupGrid.torus(16)
    f = tensor_symbol(
        2.0 + np.cos(2 * np.pi * xg.coords[:, 0]), sqrt_wave(), xg, xg.dual()
    )
    assert abs(hs_norm(op_matrix(f)) - f.table().hs_norm()) < 1e-10


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
    f = tensor_symbol(gamma, sqrt_wave(), xg, xig)
    assert diagram_check(f) < 1e-10


def test_diagram_check_rejects_sampled_grids():
    xg = GroupGrid.torus(8)
    with pytest.raises(PdoError):
        diagram_check(constant_symbol(1.0, xg, xg.dual()))


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


def test_frequency_section_routes_and_subsets_agree():
    xg = GroupGrid.torus(32)
    xig = truncated_dual(xg, 8)
    f = tensor_symbol(
        1.0 + 0.5 * np.sin(2 * np.pi * xg.coords[:, 0]), sqrt_wave(), xg, xig
    )
    full_t = frequency_section(f, prefer_tensor=True)
    full_g = frequency_section(f, prefer_tensor=False)
    assert np.allclose(full_t, full_g, atol=1e-12)
    idx = np.array([0, 3, 7, 12, 15])
    sect = frequency_section(f, idx)
    assert np.allclose(sect, full_t[np.ix_(idx, idx)], atol=1e-13)


def _unband(band):
    k, n = band.shape[0] // 2, band.shape[1]
    dense = np.zeros((n, n), dtype=complex)
    for o in range(-k, k + 1):
        cols = np.arange(max(0, -o), min(n, n - o))
        dense[cols + o, cols] = band[k + o, cols]
    return dense


def test_banded_section_matches_dense():
    xg = GroupGrid.torus(64)
    xig = truncated_dual(xg, 16)
    f = tensor_symbol(lambda c: 2.0 + np.cos(2 * np.pi * c[:, 0]) + 0j, sqrt_wave(), xg, xig)
    shell = np.where(np.abs(xig.coords[:, 0]) > 8)[0]
    for idx in (None, shell):
        dense = frequency_section(f, idx)
        band = frequency_section(f, idx, banded=True)
        # gamma has modes 0 and +-1: bandwidth 1, the band entries bit for bit
        assert band.shape == (3, dense.shape[0])
        assert np.array_equal(_unband(band)[np.abs(dense) > 1e-12], dense[np.abs(dense) > 1e-12])
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
        frequency_section(TableSymbol(xg, xig, f.table().values), banded=True)


# -- guards, file formats -----------------------------------------------------------


def test_dense_caps_raise():
    xg, xig = _cyclic_pair(8)
    f = constant_symbol(1.0, xg, xig)
    with pytest.raises(PdoError):
        op_matrix(f, cap=4)
    with pytest.raises(PdoError):
        frequency_section(f, cap=4)


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    p = tmp_path / "op.bin"
    save_matrix_bin(m, p)
    assert np.array_equal(load_matrix_bin(p), m)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(PdoError):
        load_matrix_bin(bad)
    trunc = tmp_path / "short.bin"
    trunc.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(PdoError):
        load_matrix_bin(trunc)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = tmp_path / "op.csv"
    save_matrix_csv(m, p)
    assert np.array_equal(load_matrix_csv(p), m)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(PdoError):
        load_matrix_csv(bad)
