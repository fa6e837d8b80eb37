import numpy as np
import pytest

from corona_pdo.groups import GroupGrid, pairing_phase, product_group
from corona_pdo.fourier import (
    convolve,
    fourier,
    inverse_fourier,
    inverse_transform_matrix,
    transform_matrix,
)
from corona_pdo.pdo import diagram_check, hs_norm, op_matrix
from corona_pdo.symbols import TableSymbol


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)


def test_z2_frozen_values():
    g = GroupGrid.finite_cyclic(2)
    delta = np.array([1.0, 0.0])
    assert np.allclose(fourier(delta, g), [1.0, 1.0], atol=1e-15)
    const = np.array([1.0, 1.0])
    assert np.allclose(fourier(const, g), [2.0, 0.0], atol=1e-15)
    # synthesis back
    back = inverse_fourier(fourier(const, g), g.dual())
    assert np.allclose(back, const, atol=1e-14)


def test_round_trip_and_plancherel_finite_cyclic():
    for n in (4, 8, 12, 27, 64):
        g = GroupGrid.finite_cyclic(n)
        u = _rand(g, n)
        uh = fourier(u, g)
        assert abs(g.dual().norm(uh) - g.norm(u)) <= 1e-12 * g.norm(u)
        back = inverse_fourier(uh, g.dual())
        assert np.max(np.abs(back - u)) < 1e-12


def _factor_pair(kind, a, b):
    """(x grid, dual grid) of one factor; ``b`` is the weight, the dual band or the line size."""
    if kind == "finite_cyclic":
        x = GroupGrid.finite_cyclic(a, b)
    elif kind == "torus":  # a band below Nyquist truncates the dual
        x = GroupGrid.torus(2 * a)
        return x, GroupGrid.truncated_integers(min(a, b))
    elif kind == "truncated_integers":
        x = GroupGrid.truncated_integers(a)
    else:
        x = GroupGrid.line(a, a * b)
    return x, x.dual()


def _factor_specs(st):
    """Strategy for the ``_factor_pair`` arguments of one factor of every kind."""
    return st.one_of(
        st.tuples(st.just("finite_cyclic"), st.integers(1, 7), st.sampled_from([1.0, 0.3, 2.5])),
        st.tuples(st.just("torus"), st.integers(1, 4), st.integers(1, 4)),
        st.tuples(st.just("truncated_integers"), st.integers(1, 3), st.just(0)),
        st.tuples(st.just("line"), st.sampled_from([0.25, 0.5, 2.0]), st.integers(1, 7)),
    )


def test_fft_path_matches_dense_matrix():
    # the dense DFT matrices, built from float coordinates, are the independent oracle;
    # Plancherel, the HS isometry and the diagram identity hold on the same grids
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    factor = _factor_specs(st)

    def close(fast, dense):
        return np.max(np.abs(fast - dense)) <= 1e-12 * max(np.max(np.abs(dense)), 1e-300)

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(st.lists(factor, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    @hypothesis.example([("line", 0.5, 15)], 1)  # odd size: extent 7.5
    @hypothesis.example([("finite_cyclic", 12, 0.3)], 2)  # not a power of two, weighted
    @hypothesis.example([("torus", 8, 3)], 3)  # band 3 < Nyquist 8: synthesis onto a finer torus
    @hypothesis.example([("finite_cyclic", 3, 0.3), ("torus", 3, 1), ("line", 0.5, 5)], 4)
    def check(specs, seed):
        pairs = [_factor_pair(*spec) for spec in specs]
        xg = product_group(*[x for x, _ in pairs])
        xi = product_group(*[x for _, x in pairs])
        for g in (xg, xi):
            assert np.all(g.coords[g.sub_indices(0, 0)] == 0)
        F, G = transform_matrix(xg, xi), inverse_transform_matrix(xg, xi)
        u, v = _rand(xg, seed), _rand(xi, seed + 1)
        assert close(fourier(u, xg, xi), F @ u)
        assert close(inverse_fourier(v, xi, xg), G @ v)
        shape = (xg.size, xi.size)
        rng = np.random.default_rng(seed)
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert close(fourier(table, xg, xi), F @ table)
        assert close(inverse_fourier(table, xi, xg, axis=1), table @ G.T)
        if xi == xg.dual():
            assert abs(xi.norm(fourier(u, xg, xi)) - xg.norm(u)) <= 1e-12 * xg.norm(u)
        f = TableSymbol(xg, xi, table)
        table_norm = np.sqrt(xg.weight_per_point * xi.weight_per_point) * np.linalg.norm(table)
        assert abs(hs_norm(op_matrix(f)) - table_norm) <= 1e-12 * table_norm
        if xg.is_finite_kind:
            assert diagram_check(f) < 1e-10

    check()


def test_in_place_transforms_are_bit_equal():
    # overwrite=True may reuse the input's memory and must not change one bit of the
    # result; the default must leave the caller's array as it was
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def bits(a):
        return a.view(np.uint64)

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(st.lists(_factor_specs(st), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    @hypothesis.example([("finite_cyclic", 12, 0.3)], 1)  # the transform runs in place
    @hypothesis.example([("torus", 8, 3)], 2)  # truncated dual: gather, then a finer torus
    @hypothesis.example([("line", 0.5, 15)], 3)  # offset labels: scatter first
    @hypothesis.example([("finite_cyclic", 3, 0.3), ("torus", 3, 1), ("line", 0.5, 5)], 4)
    def check(specs, seed):
        pairs = [_factor_pair(*spec) for spec in specs]
        xg = product_group(*[x for x, _ in pairs])
        xi = product_group(*[x for _, x in pairs])
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(xg.size, xi.size)) + 1j * rng.normal(size=(xg.size, xi.size))
        runs = [
            (fourier, _rand(xg, seed), (xg, xi), {}),
            (inverse_fourier, _rand(xi, seed + 1), (xi, xg), {}),
            (fourier, table, (xg, xi), {}),
            (inverse_fourier, table, (xi, xg), {"axis": 1}),
        ]
        for transform, a, grids, kw in runs:
            kept = a.copy()
            ref = transform(a, *grids, **kw)
            assert np.array_equal(bits(a), bits(kept))
            scratch = a.copy()
            got = transform(scratch, *grids, overwrite=True, **kw)
            assert np.array_equal(bits(got), bits(ref))
            if all(spec[0] == "finite_cyclic" for spec in specs):  # no scatter, no gather
                assert np.shares_memory(got, scratch)

    check()


def test_line_grid_round_trip_and_plancherel():
    g = GroupGrid.line(0.25, 16.0)
    u = _rand(g, 5)
    uh = fourier(u, g)
    assert abs(g.dual().norm(uh) - g.norm(u)) <= 1e-12 * g.norm(u)
    back = inverse_fourier(uh, g.dual())
    assert np.max(np.abs(back - u)) < 1e-11


def test_torus_band_limited_round_trip():
    # exactness on band-limited data for a truncated dual (band < Nyquist)
    g = GroupGrid.torus(256)
    xi = GroupGrid.truncated_integers(64)
    rng = np.random.default_rng(42)
    spec = rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size)
    u = inverse_fourier(spec, xi, out_grid=g)
    spec2 = fourier(u, g, out_grid=xi)
    assert np.max(np.abs(spec2 - spec)) < 1e-10
    # Plancherel across the pair
    assert abs(g.norm(u) - xi.norm(spec)) < 1e-10 * xi.norm(spec)


def test_full_band_torus_transform_is_unitary():
    g = GroupGrid.torus(32)
    u = _rand(g, 7)
    uh = fourier(u, g)
    assert abs(g.dual().norm(uh) - g.norm(u)) <= 1e-12 * g.norm(u)
    assert np.max(np.abs(inverse_fourier(uh, g.dual()) - u)) < 1e-12


def test_convolution_theorem_on_finite_cyclic():
    for n in (8, 15):
        g = GroupGrid.finite_cyclic(n)
        u = _rand(g, n + 1)
        v = _rand(g, n + 2)
        w = convolve(u, v, g)  # definitional quadratic sum
        lhs = fourier(w, g)
        rhs = fourier(u, g) * fourier(v, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_convolution_by_delta_is_identity():
    g = GroupGrid.finite_cyclic(10)
    u = _rand(g, 3)
    delta = np.eye(10)[0]
    w = convolve(u, delta, g)
    assert np.allclose(w, u, atol=1e-13)


def test_x_axis_fourier_tensor_factorization():
    # axis 0 transforms only the first variable: tensor tables factor through it
    X = GroupGrid.finite_cyclic(8)
    rng = np.random.default_rng(17)
    gamma = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    table = np.outer(gamma, psi)
    out = fourier(table, X)
    expected = np.outer(fourier(gamma, X), psi)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_kernel_of_constant_symbol_is_delta_row():
    # f == 1 on Z_N: kern(x, z) = sum_xi (1/N) <z, xi> = indicator(z == 0)
    N = 8
    X = GroupGrid.finite_cyclic(N)
    table = np.ones((N, N))
    kern = inverse_fourier(table, X.dual(), out_grid=X, axis=1)
    expected = np.tile(np.eye(N)[0], (N, 1))
    assert np.max(np.abs(kern - expected)) < 1e-13


def test_kernel_synthesis_onto_finer_grid():
    # band-N symbol synthesized on M=4N torus samples, against the dense route
    M, B = 32, 8
    X = GroupGrid.torus(M)
    Xi = GroupGrid.truncated_integers(B)
    rng = np.random.default_rng(31)
    table = rng.normal(size=(M, 2 * B)) + 1j * rng.normal(size=(M, 2 * B))
    kern = inverse_fourier(table, Xi, out_grid=X, axis=1)
    G = inverse_transform_matrix(X, Xi)  # (M, 2B) synthesis matrix
    expected = table @ G.T
    assert np.max(np.abs(kern - expected)) < 1e-12


def test_dense_matrices_are_mutual_inverses_on_full_pairs():
    for g in [GroupGrid.finite_cyclic(9), GroupGrid.torus(16), GroupGrid.line(0.5, 4.0)]:
        F = transform_matrix(g, g.dual())
        G = inverse_transform_matrix(g, g.dual())
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
    for rows in (slice(0, 5), slice(5, xi.size - 1), slice(xi.size - 1, xi.size + 4)):
        assert np.array_equal(transform_matrix(xg, xi, rows), F[rows])  # rows across factors


def test_phase_function_hs_norm():
    X = GroupGrid.finite_cyclic(4)
    phase_space = product_group(X, X.dual())
    # weights 1 and 1/4: norm^2 = (1/4)*16 = 4
    assert phase_space.norm(np.ones((4, 4))) == pytest.approx(2.0)
