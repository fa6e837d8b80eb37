"""Symbol families and their tail diagnostics.

Frozen quantities used as fixed points below:
  * dyadic indicator on [-64, 64] (integer grid): 21 member points of 129;
  * full-strength wave sin(|xi|): translation-by-1 oscillation 2*sin(1/2);
  * parabola distances: dist((0,2)) = sqrt(7)/2, dist((0,-1)) = 1.
"""

import tracemalloc

import numpy as np
import pytest

from corona_pdo.asymptotics import SamplingSchedule, StandardBase, modulus_field
from corona_pdo.cli import _SYMBOL, symbol_from_config
from corona_pdo.groups import GroupGrid, product_group
from corona_pdo.pdo import frequency_section
from corona_pdo.sampling import _net_blocks, directions
from corona_pdo.symbols import (
    DualClosure,
    SymbolError,
    TensorSymbol,
    cesaro_mean,
    const_profile,
    constant_closure,
    cos_profile,
    directional_decay_symbol,
    dyadic_indicator,
    halfline_set,
    inverse_decay,
    load_symbol_csv,
    multiplier_symbol,
    parabola_graph,
    power_wave,
    shifted_wave,
    sqrt_wave,
    tensor_symbol,
    values_profile,
    vanishing_oscillation_test,
)

RADII = np.logspace(2, 6, 9)


def _tail(lo, hi, dim, n, seed):
    """The radii x directions net of about n points in (lo, hi], in one array."""
    blocks = _net_blocks(lo, hi, n, seed, lambda k: directions(k, dim, seed))
    return np.concatenate([b.copy() for b in blocks])


# -- tensor / table symbols --


def test_tensor_table_is_outer_product():
    xg = GroupGrid.torus(8)
    xig = xg.dual()
    f = tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), xg, xig)
    g = 2.0 + np.cos(2 * np.pi * xg.coords[:, 0])
    p = np.sin(np.sqrt(np.abs(xig.coords[:, 0])))
    assert np.allclose(f.table(), np.outer(g, p), atol=1e-14)
    assert f.sup_bound == pytest.approx(3.0)


def test_tensor_rebound_to_finer_grids():
    f = tensor_symbol(
        cos_profile(), sqrt_wave(), GroupGrid.torus(8), GroupGrid.truncated_integers(2)
    )
    fine_x = GroupGrid.torus(32)
    fine_xi = GroupGrid.truncated_integers(8)
    g = f.rebound(fine_x, fine_xi)
    direct = tensor_symbol(cos_profile(), sqrt_wave(), fine_x, fine_xi)
    assert np.allclose(g.table(), direct.table(), atol=1e-14)


def test_values_gamma_cannot_rebind_to_new_grid():
    xg = GroupGrid.finite_cyclic(4)
    xig = xg.dual()
    f = tensor_symbol(values_profile([1.0, 2.0, 3.0, 4.0]), constant_closure(1.0), xg, xig)
    same = f.rebound(xg, xig)
    assert np.array_equal(same.table(), f.table())
    assert np.array_equal(f.table()[:, 0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(SymbolError, match="gamma gives 4 values on 8 x points"):
        f.rebound(GroupGrid.finite_cyclic(8), GroupGrid.finite_cyclic(8).dual())


def test_every_gamma_must_fit_its_grid():
    # a function of x is checked like a values profile: one value per grid point
    xg = GroupGrid.finite_cyclic(4)
    with pytest.raises(SymbolError, match="gamma gives 3 values on 4 x points"):
        tensor_symbol(lambda coords: np.ones(3), sqrt_wave(), xg, xg.dual())


def test_multiplier_and_constant_tables():
    xg = GroupGrid.finite_cyclic(4)
    xig = xg.dual()
    m = multiplier_symbol(inverse_decay(1.0), xg, xig)
    expect = 1.0 / (1.0 + np.abs(xig.coords[:, 0]))
    assert np.allclose(m.table(), np.tile(expect, (4, 1)))
    c = multiplier_symbol(constant_closure(2 + 1j), xg, xig)
    assert np.allclose(c.table(), (2 + 1j) * np.ones((4, 4)))


def test_psi_must_be_dual_closure():
    xg = GroupGrid.finite_cyclic(4)
    with pytest.raises(SymbolError):
        TensorSymbol(xg, xg.dual(), [(const_profile(1.0), np.sin)])


# -- oscillation at infinity --


def test_slow_wave_oscillation_passes_and_obeys_derivative_bound():
    for alpha in (0.25, 0.5, 0.75):
        prof = vanishing_oscillation_test(power_wave(alpha), [[1.0]], RADII, seed=0)
        assert prof.verdict == "PASS"
        # mean value bound: osc(1, R) <= alpha * (R-1)^(alpha-1)
        bound = alpha * (RADII - 1.0) ** (alpha - 1.0)
        assert np.all(prof.osc[0] <= bound * 1.0001)
        assert np.all(np.diff(prof.osc[0]) <= 1e-15)  # sups over shrinking tails


def test_sampled_oscillation_not_degenerate():
    prof = vanishing_oscillation_test(power_wave(0.5), [[1.0]], RADII, seed=0)
    # true sup at R=100 is ~0.05; the sampler must see a solid fraction
    assert prof.osc[0, 0] >= 0.015


def test_full_strength_wave_fails():
    prof = vanishing_oscillation_test(power_wave(1.0), [[1.0]], RADII, seed=0)
    assert prof.verdict == "FAIL"
    assert 0.93 <= prof.osc[0, -1] <= 2 * np.sin(0.5) + 1e-12


def test_mean_value_bound_for_all_shifts():
    radii = np.logspace(2, 5, 7)
    shifts = [[0.5], [1.0], [2.0]]
    for alpha in (0.25, 0.5, 0.75):
        prof = vanishing_oscillation_test(power_wave(alpha), shifts, radii, seed=0)
        for i, (z,) in enumerate(shifts):
            bound = z * alpha * (radii - z) ** (alpha - 1.0)
            assert np.all(prof.osc[i] <= bound * 1.0001)


def test_oscillation_bad_radii():
    with pytest.raises(SymbolError):
        vanishing_oscillation_test(sqrt_wave(), [[1.0]], [0.0, 10.0], seed=0)


def _sorted_suffix_osc(psi, shifts, radii, seed):
    """osc from the whole tail in one array: sorted by radius, then suffix maxima."""
    shifts = np.asarray(shifts, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    pts = _tail(radii[0], radii[-1] * 10.0, shifts.shape[1], 20000, seed)
    r = np.linalg.norm(pts, axis=1)
    order = np.argsort(r)
    pts, r = pts[order], r[order]
    osc = np.zeros((len(shifts), len(radii)))
    for i, z in enumerate(shifts):
        diff = np.abs(psi(pts + z[None, :]) - psi(pts))
        suffix = np.maximum.accumulate(diff[::-1])[::-1]
        idx = np.searchsorted(r, radii, side="left")
        osc[i] = [suffix[k] if k < len(suffix) else 0.0 for k in idx]
    return osc


def _nan_band(p):
    """sin |xi|^0.75, undefined (NaN) for 1e3 < |xi| < 3e3."""
    r = np.linalg.norm(p, axis=1)
    return np.where((r > 1e3) & (r < 3e3), np.nan, np.sin(r**0.75))


@pytest.mark.parametrize(
    "psi, shifts, seed",
    [
        (power_wave(0.75), [[0.5], [1.0], [2.0], [-3.0]], 0),
        (sqrt_wave(), [[1.0]], 9),
        (directional_decay_symbol([1.0, 2.0], 0.01), [[0.5, 0.0], [0.0, 1.0], [1.0, -1.0]], 4),
        (power_wave(0.9), [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]], 2),
        (DualClosure(_nan_band, 1.0, "nan band"), [[0.5], [2.0]], 1),
    ],
    ids=["pow-1d", "sqrt-1d", "dirdecay-2d", "pow-3d", "nan-band-1d"],
)
def test_streamed_oscillation_is_the_sorted_suffix_formula(psi, shifts, seed):
    prof = vanishing_oscillation_test(psi, shifts, RADII[::-1], seed)  # radii in any order
    want = _sorted_suffix_osc(psi, shifts, RADII, seed)
    assert prof.osc.tobytes() == want.tobytes()
    if psi.name == "nan band":  # NaN up to radius 3e3, a number beyond
        assert np.isnan(prof.osc[:, RADII < 3e3]).all()
        assert np.isfinite(prof.osc[:, RADII > 3e3]).all()


def _complex_cast(psi):
    return DualClosure(lambda p: psi.fun(p).astype(complex), psi.sup_bound, psi.name)


_REAL_FAMILIES = {
    "sqrt": sqrt_wave(),
    "pow": power_wave(0.75),
    "shifted": shifted_wave(2.0, 0.25),
    "inv": inverse_decay(2.0),
    "indicator": dyadic_indicator(),
    "dirdecay": directional_decay_symbol([1.0, 1.0], 0.5),
}


def _same(a, b):
    """Bit-identical arrays: dtype, shape and every byte (signed zeros and NaNs too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_fit(a, b):
    if a is None or b is None:
        return a is b
    return all(_same(getattr(a, k), getattr(b, k)) for k in ("per_scale", "value", "slope", "residual"))


@pytest.mark.parametrize("name", list(_REAL_FAMILIES))
def test_a_complex_cast_of_a_real_family_changes_no_bit(name):
    psi = _REAL_FAMILIES[name]
    dim = 2 if name == "dirdecay" else 1
    pts = _tail(1.0, 1e4, dim, 400, seed=3)
    assert psi(pts).dtype == np.float64
    assert cos_profile()(pts).dtype == np.float64
    assert constant_closure(1 + 2j)(pts).dtype == np.complex128
    wide = _complex_cast(psi)
    assert wide(pts).dtype == np.complex128
    xg = GroupGrid.torus(32) if dim == 1 else product_group(GroupGrid.torus(8), GroupGrid.torus(8))
    xig = GroupGrid.truncated_integers(8) if dim == 1 else xg.dual()
    gammas = (cos_profile(2.0), cos_profile(0.0, 0.5, 3))
    cast_gamma = lambda g: lambda c: g(c).astype(complex)
    for terms in ([(gammas[0], psi)], [(gammas[0], psi), (gammas[1], psi)]):
        f = TensorSymbol(xg, xig, terms)
        g = TensorSymbol(xg, xig, [(cast_gamma(gam), _complex_cast(q)) for gam, q in terms])
        assert _same(f.table(), g.table())
        assert _same(frequency_section(f), frequency_section(g))
        if dim == 1:
            assert _same(frequency_section(f, banded=True), frequency_section(g, banded=True))
        sched = SamplingSchedule(scales=(1e2, 1e3), points_per_scale=300, seed=2)
        for maximize in (True, False):
            (fv, fenv), (gv, genv) = (
                modulus_field(h, StandardBase(dim), sched, maximize) for h in (f, g)
            )
            assert _same(fv, gv) and _same_fit(fenv, genv)
    # every ball whole: -65..64 holds |xi| <= 64, the 2-d dual (-4..3)^2 holds |xi| <= 3
    radii = [4, 16, 64] if dim == 1 else [1, 2, 3]
    grid = GroupGrid.truncated_integers(65) if dim == 1 else xg.dual()
    assert _same(cesaro_mean(psi, grid, radii).means, cesaro_mean(wide, grid, radii).means)
    shifts = np.eye(dim)[:1] * [[0.5], [1.0], [2.0]]
    ours, theirs = (vanishing_oscillation_test(q, shifts, RADII, seed=1) for q in (psi, wide))
    assert _same(ours.osc, theirs.osc) and ours.verdict == theirs.verdict


# -- directional decay --


def test_directional_decay_values_and_axis_sup():
    psi = directional_decay_symbol([0.0, 1.0])
    assert psi(np.array([[50.0, 0.0]]))[0] == 1.0  # orthogonal axis: exact 1
    assert psi(np.array([[3.0, 4.0]]))[0] == pytest.approx(np.exp(-4.0), rel=1e-14)
    pts = _tail(100.0, 1000.0, 2, 400, seed=0)
    # +-e1 lies in every direction fan, so the sup over the net is exactly 1
    assert np.abs(psi(pts)).max() == 1.0
    along = psi(np.array([[0.0, 200.0], [0.0, -200.0]]))
    assert np.allclose(np.abs(along), np.exp(-200.0))


def test_directional_decay_rejects_zero_direction():
    with pytest.raises(SymbolError):
        directional_decay_symbol([0.0, 0.0])


# -- Cesaro means --


def test_dyadic_indicator_pointwise():
    psi = dyadic_indicator()
    pts = np.array(
        [[1.5], [2.0], [3.0], [3.5], [5.0], [7.0], [64.0], [70.0], [71.0], [-5.0]]
    )
    assert psi(pts).real.tolist() == [0, 1, 1, 0, 1, 0, 1, 1, 0, 0]


def test_cesaro_means_match_exact_counts():
    grid = GroupGrid.truncated_integers(128)
    radii = [4, 8, 16, 32, 64]
    res = cesaro_mean(dyadic_indicator(), grid, radii)
    members = set()
    for k in range(1, 8):
        members.update(range(2**k, 2**k + k + 1))
    for rad, mean, meas in zip(radii, res.means, res.measures):
        count = sum(1 for m in members if m <= rad)
        assert meas == pytest.approx(2 * rad + 1)
        assert mean == pytest.approx(count / (2 * rad + 1), abs=1e-14)
    assert res.means[-1] == pytest.approx(21 / 129, abs=1e-14)
    assert res.verdict


def test_cesaro_constant_and_zero():
    grid, radii = GroupGrid.truncated_integers(64), [8, 16, 32]
    one = cesaro_mean(constant_closure(1.0), grid, radii)
    assert np.allclose(one.means, 1.0)
    assert not one.verdict
    zero = cesaro_mean(constant_closure(0.0), grid, radii)
    assert np.allclose(zero.means, 0.0)
    assert zero.verdict


def test_cesaro_means_match_tabulated_values():
    grid = GroupGrid.truncated_integers(32)
    vals = np.abs(dyadic_indicator()(grid.coords))
    r = np.linalg.norm(grid.coords, axis=1)
    means = [vals[r <= rad].mean() for rad in (4, 16)]  # unit weights: the plain average
    assert np.allclose(cesaro_mean(dyadic_indicator(), grid, [4, 16]).means, means)


def _whole_array_means(psi, grid, radii):
    """The Cesaro means over the whole grid at once: one mask per ball."""
    r = np.linalg.norm(grid.coords, axis=1)
    vals = np.abs(psi(grid.coords))
    w = grid.weight_per_point
    return np.array([w * float(vals[r <= rad].sum()) / (w * int((r <= rad).sum())) for rad in radii])


@pytest.mark.parametrize(
    "grid, radii",
    [
        # labels -131072..131071 in 8 blocks: 0 and +-32768 start one, so the
        # balls of radius 32768 and 65536 end on block edges
        (GroupGrid.truncated_integers(2**17), [16, 1000, 32767, 32768, 65535, 65536, 131071]),
        # 600 x 300 points in 6 blocks, each ending inside a row
        (product_group(GroupGrid.torus(600), GroupGrid.torus(300)).dual(), [10, 50, 100, 149]),
    ],
    ids=["band-2^17", "2-d-dual"],
)
def test_streamed_cesaro_means_equal_the_whole_array_means(grid, radii):
    for psi in (dyadic_indicator(), constant_closure(1.0)):
        assert _same(cesaro_mean(psi, grid, radii).means, _whole_array_means(psi, grid, radii))
    wave = sqrt_wave()
    got, want = cesaro_mean(wave, grid, radii).means, _whole_array_means(wave, grid, radii)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_cesaro_mean_memory_does_not_grow_with_the_grid():
    grid, psi = GroupGrid.truncated_integers(2**18), dyadic_indicator()
    radii = [2**k for k in range(4, 18)]
    tracemalloc.start()
    try:
        cesaro_mean(psi, grid, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the 524,288 float coordinates alone take 4 MB


def test_exhaustion_must_nest_and_have_mass():
    grid = GroupGrid.truncated_integers(16)
    with pytest.raises(SymbolError, match="increasing"):
        cesaro_mean(constant_closure(1.0), grid, [8, 4])
    with pytest.raises(SymbolError, match="no grid point"):
        cesaro_mean(constant_closure(1.0), grid, [-1, 4])


@pytest.mark.parametrize(
    "grid, radii, match",
    [
        # equal radii once made polyfit's RankWarning and a "means -> 0" verdict
        (GroupGrid.truncated_integers(64), [16, 16], "strictly increasing"),
        # so did two balls past the grid's edge, both the whole grid
        (GroupGrid.truncated_integers(64), [100, 1000], r"ball 0 \(radius 100\) is clipped"),
        # -64..63 misses +64
        (GroupGrid.truncated_integers(64), [16, 64], r"ball 1 \(radius 64\) is clipped.* 63$"),
        # the 2-d dual (-4..3) x (-2..1) holds balls up to radius 1
        (product_group(GroupGrid.torus(8), GroupGrid.torus(4)).dual(), [1, 2], r"ball 1 .* 1$"),
        # the line -4, -3.5, ..., 3.5 holds balls up to radius 3.5
        (GroupGrid.line(0.5, 8.0), [1.0, 3.5, 3.75], r"ball 2 \(radius 3.75\) .* 3.5$"),
    ],
    ids=["equal", "both-past-the-edge", "top-past-the-edge", "2-d", "line"],
)
def test_cesaro_rejects_radii_that_do_not_grow_or_leave_the_grid(grid, radii, match):
    with pytest.raises(SymbolError, match=match):
        cesaro_mean(dyadic_indicator(), grid, radii)


@pytest.mark.parametrize("radii", [[], [16]])
def test_cesaro_slope_needs_two_balls(radii):
    # one ball has no tail slope: it must not read as a flat one (slope 0, verdict False)
    grid = GroupGrid.truncated_integers(31)
    with pytest.raises(SymbolError, match="at least two ball radii"):
        cesaro_mean(dyadic_indicator(), grid, radii)


# -- thickened sets --


def test_halfline_distance():
    E = halfline_set(0.0)
    assert E.distance(np.array([[-3.0], [5.0]])).tolist() == [0.0, 5.0]


def test_parabola_distance_frozen_points():
    E = parabola_graph()
    d = E.distance(np.array([[0.0, 2.0], [0.0, -1.0], [2.0, 4.0]]))
    assert d[0] == pytest.approx(np.sqrt(7.0) / 2.0, abs=1e-9)
    assert d[1] == pytest.approx(1.0, abs=1e-12)
    assert d[2] == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(E.parametrize(np.array([1.0, 2.0])), [[1.0, 1.0], [2.0, 4.0]])


def _parabola_distance_oracle(a: float, b: float) -> float:
    # every root of the stationarity cubic, Newton-polished; each candidate is
    # a point of the graph, so the minimum over a superset of the feet is exact
    best = np.inf
    for t in np.roots([1.0, 0.0, 0.5 - b, -a / 2]).real:
        for _ in range(8):
            fp = 6 * t**2 + 1 - 2 * b
            if fp == 0:
                break
            t -= (2 * t**3 + (1 - 2 * b) * t - a) / fp
        best = min(best, float(np.hypot(t - a, t * t - b)))
    return best


def test_parabola_distance_matches_root_oracle():
    E = parabola_graph()
    rng = np.random.default_rng(11)
    s = rng.uniform(-3.0, 3.0, 40)
    t = np.linspace(-40.0, 40.0, 81)
    normal = np.stack([-2.0 * t, np.ones_like(t)], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    curve = np.stack([t, t * t], axis=1)
    pts = np.concatenate(
        [
            [[0.0, 2.0], [-0.0, 2.0], [0.0, -1.0], [-0.0, -1.0], [0.0, 0.5], [0.0, 0.0]],
            np.stack([np.zeros(9), np.linspace(-1e4, 1e4, 9)], axis=1),  # the axis
            np.stack([-4 * s**3, 0.5 + 3 * s**2], axis=1),  # on the evolute
            np.stack(  # inside the evolute: three real roots
                [rng.uniform(-1, 1, 40) * (4 * np.abs(s) ** 3), 0.5 + 3 * s**2 + 5], axis=1
            ),
            np.stack([s, s * s], axis=1),  # on the graph
            *[curve + k * normal for k in (-8, -4, -2, -1, 1, 2, 4, 8)],  # pescado offsets
            _tail(1e2, 1e4, 2, 2000, seed=5),
            _tail(0.9e4, 1e4, 2, 500, seed=6),
        ]
    )
    d = E.distance(pts)
    ref = np.array([_parabola_distance_oracle(a, b) for a, b in pts])
    assert np.all(np.abs(d - ref) <= 1e-12 * np.maximum(ref, 1.0))
    inside = (0.5 - pts[:, 1] < 0) & ((pts[:, 0] / 4) ** 2 + ((0.5 - pts[:, 1]) / 3) ** 3 < 0)
    assert inside.sum() >= 40  # the three-root branch is exercised
    below = curve - 4 * normal  # the convex side sits at distance exactly s
    assert np.allclose(E.distance(below), 4.0, rtol=0, atol=1e-12)


# -- IO, config --


def test_misc_closure_values():
    assert inverse_decay(1.0)(np.array([[3.0]]))[0] == pytest.approx(0.25)
    s = shifted_wave(2.0)
    assert s(np.array([[0.0]]))[0] == pytest.approx(2.0)
    assert s.sup_bound == pytest.approx(3.0)


def test_symbol_csv_round_trip(tmp_path):
    xg = GroupGrid.finite_cyclic(3)
    xig = xg.dual()
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "sym.csv"
    rows = [f"{i},{k},{float(v.real)!r},{float(v.imag)!r}\n" for (i, k), v in np.ndenumerate(vals)]
    path.write_text("x_index,xi_index,re,im\n" + "".join(rows))
    g = load_symbol_csv(path, xg, xig)
    assert np.array_equal(g.values, vals)  # repr round-trips floats exactly


def test_symbol_csv_keeps_signed_zeros(tmp_path):
    # each part is stored as written: re + 1j * im would turn a -0.0 real part into 0.0
    xg = GroupGrid.finite_cyclic(2)
    path = tmp_path / "zeros.csv"
    cells = ["-0.0,0.0", "0.0,-0.0", "-0.0,-0.0", "0.0,0.0"]
    rows = [f"{i},{k},{cell}\n" for (i, k), cell in zip(np.ndindex(2, 2), cells)]
    path.write_text("x_index,xi_index,re,im\n" + "".join(rows))
    g = load_symbol_csv(path, xg, xg.dual())
    assert np.signbit(g.values.real).ravel().tolist() == [True, False, True, False]
    assert np.signbit(g.values.imag).ravel().tolist() == [False, True, True, False]


def test_symbol_csv_rejects_bad_header_gaps_and_oob(tmp_path):
    xg = GroupGrid.finite_cyclic(2)
    xig = xg.dual()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n0,0,1,0\n")
    with pytest.raises(SymbolError):
        load_symbol_csv(bad, xg, xig)
    gap = tmp_path / "gap.csv"
    gap.write_text("x_index,xi_index,re,im\n0,0,1.0,0.0\n")
    with pytest.raises(SymbolError):
        load_symbol_csv(gap, xg, xig)
    oob = tmp_path / "oob.csv"
    oob.write_text("x_index,xi_index,re,im\n9,0,1.0,0.0\n")
    with pytest.raises(SymbolError):
        load_symbol_csv(oob, xg, xig)


def test_tensor_symbol_keeps_each_gamma_dtype():
    # a real gamma stays real, so an all-real symbol sums in float64 off the grid
    xg = GroupGrid.finite_cyclic(4)
    specs = [
        ({"profile": "cos-offset"}, np.float64),
        ({"profile": "values", "data": [1, 2, 3, 4]}, np.complex128),
        ({"profile": "const", "value": 2}, np.complex128),
    ]
    for gamma, dtype in specs:
        spec = _SYMBOL({"family": "tensor", "gamma": gamma, "psi": "vo:sqrt"}, "symbol")
        f = symbol_from_config(spec, xg, xg.dual())
        assert f.tensor_terms[0][0].dtype == dtype
        assert f.rebound(xg, xg.dual()).tensor_terms[0][0].dtype == dtype


def test_gamma_values_profile():
    xg = GroupGrid.finite_cyclic(4)
    spec = {
        "family": "tensor",
        "gamma": {"profile": "values", "data": [1, 2, 3, 4]},
        "psi": {"family": "const", "value": 1.0},
    }
    f = symbol_from_config(
        _SYMBOL(spec, "symbol"),
        xg,
        xg.dual(),
    )
    assert np.allclose(f.table(), np.outer([1, 2, 3, 4], np.ones(4)))
