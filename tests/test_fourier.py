import numpy as np
import pytest

from corona_pdo.groups import GridFunction, GroupGrid, pairing_phase, product_group, truncated_dual
from corona_pdo.fourier import (
    PhaseFunction,
    convolve,
    fourier,
    inverse_fourier,
    inverse_transform_matrix,
    partial_fourier_1,
    partial_fourier_2_inverse,
    transform_matrix,
)


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))


def test_z2_frozen_values():
    g = GroupGrid.finite_cyclic(2)
    delta = GridFunction(g, [1.0, 0.0])
    assert np.allclose(fourier(delta).values, [1.0, 1.0], atol=1e-15)
    const = GridFunction(g, [1.0, 1.0])
    assert np.allclose(fourier(const).values, [2.0, 0.0], atol=1e-15)
    # synthesis back
    back = inverse_fourier(fourier(const))
    assert np.allclose(back.values, const.values, atol=1e-14)


def test_round_trip_and_plancherel_finite_cyclic():
    for n in (4, 8, 12, 27, 64):
        g = GroupGrid.finite_cyclic(n)
        u = _rand(g, n)
        uh = fourier(u)
        assert abs(uh.norm() - u.norm()) <= 1e-12 * u.norm()
        back = inverse_fourier(uh)
        assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_fft_path_matches_dense_matrix():
    # the dense DFT matrix is the independent oracle for the FFT route
    grids = [
        GroupGrid.finite_cyclic(16),
        GroupGrid.finite_cyclic(12),  # not a power of two
        GroupGrid.torus(16),
        GroupGrid.truncated_integers(8),
        GroupGrid.line(0.5, 8.0),
        product_group(GroupGrid.finite_cyclic(4), GroupGrid.finite_cyclic(6)),
    ]
    for k, g in enumerate(grids):
        u = _rand(g, 100 + k)
        a = fourier(u).values
        b = fourier(u, method="dense").values
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))
        v = GridFunction(g.dual(), a)
        c = inverse_fourier(v).values
        d = inverse_fourier(v, method="dense").values
        assert np.max(np.abs(c - d)) < 1e-12 * max(1.0, np.max(np.abs(c)))


def test_line_grid_round_trip_and_plancherel():
    g = GroupGrid.line(0.25, 16.0)
    u = _rand(g, 5)
    uh = fourier(u)
    assert abs(uh.norm() - u.norm()) <= 1e-12 * u.norm()
    back = inverse_fourier(uh)
    assert np.max(np.abs(back.values - u.values)) < 1e-11


def test_torus_band_limited_round_trip():
    # exactness on band-limited data for a truncated dual (band < Nyquist)
    g = GroupGrid.torus(256)
    xi = truncated_dual(g, 64)
    rng = np.random.default_rng(42)
    spec = GridFunction(xi, rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size))
    u = inverse_fourier(spec, out_grid=g)
    spec2 = fourier(u, out_grid=xi)
    assert np.max(np.abs(spec2.values - spec.values)) < 1e-10
    # Plancherel across the pair
    assert abs(u.norm() - spec.norm()) < 1e-10 * spec.norm()


def test_full_band_torus_transform_is_unitary():
    g = GroupGrid.torus(32)
    u = _rand(g, 7)
    uh = fourier(u)
    assert abs(uh.norm() - u.norm()) <= 1e-12 * u.norm()
    assert np.max(np.abs(inverse_fourier(uh).values - u.values)) < 1e-12


def test_convolution_theorem_on_finite_cyclic():
    for n in (8, 15):
        g = GroupGrid.finite_cyclic(n)
        u = _rand(g, n + 1)
        v = _rand(g, n + 2)
        w = convolve(u, v)  # definitional quadratic sum
        lhs = fourier(w).values
        rhs = fourier(u).values * fourier(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_convolution_by_delta_is_identity():
    g = GroupGrid.finite_cyclic(10)
    u = _rand(g, 3)
    delta = GridFunction(g, np.eye(10)[0])
    w = convolve(u, delta)
    assert np.allclose(w.values, u.values, atol=1e-13)


def test_partial_fourier_1_tensor_factorization():
    # F1 acts only on the first variable: tensor tables factor through it
    X = GroupGrid.finite_cyclic(8)
    Xi = X.dual()
    rng = np.random.default_rng(17)
    gamma = GridFunction(X, rng.normal(size=8) + 1j * rng.normal(size=8))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    table = PhaseFunction(X, Xi, np.outer(gamma.values, psi))
    out = partial_fourier_1(table)
    expected = np.outer(fourier(gamma).values, psi)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_kernel_of_constant_symbol_is_delta_row():
    # f == 1 on Z_N: kern(x, z) = sum_xi (1/N) <z, xi> = indicator(z == 0)
    N = 8
    X = GroupGrid.finite_cyclic(N)
    table = PhaseFunction(X, X.dual(), np.ones((N, N)))
    kern = partial_fourier_2_inverse(table, out_grid=X)
    expected = np.tile(np.eye(N)[0], (N, 1))
    assert np.max(np.abs(kern.values - expected)) < 1e-13


def test_kernel_synthesis_onto_finer_grid():
    # band-N symbol synthesized on M=4N torus samples, against the dense route
    M, B = 32, 8
    X = GroupGrid.torus(M)
    Xi = truncated_dual(X, B)
    rng = np.random.default_rng(31)
    table = PhaseFunction(
        X, Xi, rng.normal(size=(M, 2 * B)) + 1j * rng.normal(size=(M, 2 * B))
    )
    kern = partial_fourier_2_inverse(table, out_grid=X)
    G = inverse_transform_matrix(X, Xi)  # (M, 2B) synthesis matrix
    expected = table.values @ G.T
    assert np.max(np.abs(kern.values - expected)) < 1e-12


def test_dense_matrices_are_mutual_inverses_on_full_pairs():
    for g in [GroupGrid.finite_cyclic(9), GroupGrid.torus(16), GroupGrid.line(0.5, 4.0)]:
        F = transform_matrix(g)
        G = inverse_transform_matrix(g)
        assert np.max(np.abs(G @ F - np.eye(g.size))) < 1e-11


def _pairing_phase_matrices(xg, xi):
    """The dense matrices as one (n, n, ndim) pairing_phase table: the oracle."""
    ph = pairing_phase(xg, xi, xg.coords[None, :, :], xi.coords[:, None, :]).reshape(xi.size, xg.size)
    F = xg.weight_per_point * np.exp(-2j * np.pi * ph)
    ph = pairing_phase(xg, xi, xg.coords[:, None, :], xi.coords[None, :, :]).reshape(xg.size, xi.size)
    G = xi.weight_per_point * np.exp(2j * np.pi * ph)
    return F, G


@pytest.mark.parametrize(
    "xg, xi",
    [
        (GroupGrid.finite_cyclic(12), None),
        (GroupGrid.torus(16), GroupGrid.truncated_integers(5)),
        (product_group(GroupGrid.finite_cyclic(8), GroupGrid.finite_cyclic(16)), None),
        (
            product_group(GroupGrid.finite_cyclic(3), GroupGrid.torus(6), GroupGrid.line(0.5, 3.0)),
            None,
        ),
    ],
)
def test_dense_matrices_equal_pairing_phase_formula(xg, xi):
    xi = xi if xi is not None else xg.dual()
    F, G = _pairing_phase_matrices(xg, xi)
    assert np.array_equal(transform_matrix(xg, xi), F)
    assert np.array_equal(inverse_transform_matrix(xg, xi), G)


def test_phase_function_hs_norm():
    X = GroupGrid.finite_cyclic(4)
    table = PhaseFunction(X, X.dual(), np.ones((4, 4)))
    # weights 1 and 1/4: norm^2 = (1/4)*16 = 4
    assert table.hs_norm() == pytest.approx(2.0)
