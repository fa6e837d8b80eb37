"""Truncation ladders: estimator calibration cases with known answers."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import svds

from corona_pdo.asymptotics import SamplingSchedule
from corona_pdo.groups import GroupGrid
from corona_pdo.pdo import frequency_section
from corona_pdo.spectral import (
    EssentialNormResult,
    SpectralError,
    TruncationSchedule,
    essential_norm_estimate,
    essential_spectrum_probe,
    fredholm_check,
    gohberg_verify,
    shell_indices,
    sigma_min,
    singular_values,
)
from corona_pdo.symbols import (
    DualClosure,
    TensorSymbol,
    const_profile,
    constant_closure,
    cos_profile,
    constant_symbol,
    dyadic_indicator,
    inverse_decay,
    multiplier_symbol,
    power_wave,
    shifted_wave,
    sqrt_wave,
    tensor_symbol,
)

ASYM = SamplingSchedule(points_per_scale=4000)


def _flagship(schedule):
    xg, xig = schedule.grids(schedule.bands[0])
    return tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), xg, xig)


def _multiplier(psi, schedule):
    xg, xig = schedule.grids(schedule.bands[0])
    return multiplier_symbol(psi, xg, xig)


def test_schedule_validation_and_grids():
    with pytest.raises(SpectralError):
        TruncationSchedule(bands=(32, 64, 16))
    with pytest.raises(SpectralError):
        TruncationSchedule(bands=(2, 4, 8))
    with pytest.raises(SpectralError):
        TruncationSchedule(bands=(16, 32))  # extrapolation needs >= 3 sizes
    with pytest.raises(SpectralError):
        TruncationSchedule(bands=(16, 32, 64), oversampling=1)
    xg, xig = TruncationSchedule(bands=(8, 16, 32)).grids(8)
    assert xg.descriptor() == GroupGrid.torus(32).descriptor()
    assert xig.descriptor() == GroupGrid.truncated_integers(8).descriptor()


def test_shell_indices_cover_outer_band():
    xig = GroupGrid.truncated_integers(8)
    idx = shell_indices(xig, 4.0)
    assert len(idx) == 7
    assert np.all(np.abs(xig.coords[idx, 0]) > 4)


def _band(m, k=None):
    """General band storage band[k + a - b, b] = m[a, b] of a square matrix."""
    n = m.shape[0]
    k = n - 1 if k is None else k
    band = np.zeros((2 * k + 1, n), dtype=complex)
    for o in range(-k, k + 1):
        cols = np.arange(max(0, -o), min(n, n - o))
        band[k + o, cols] = m[cols + o, cols]
    return band


def test_singular_values_of_diagonal():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    s = singular_values(d[None, :])
    assert np.allclose(s, [3.0, 2.0, 1.0, 0.5], atol=1e-14)
    assert np.allclose(singular_values(np.ones((1, 8))), 1.0, atol=1e-15)
    # zero off-diagonals stored explicitly give the same values
    assert np.allclose(singular_values(_band(np.diag(d))), s, atol=1e-14)


def test_singular_values_dense_matches_iterative_and_eig_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    dense = sla.svdvals(m)
    assert np.allclose(singular_values(_band(m)), dense, atol=1e-9)
    # brute-force oracle through the Gram spectrum
    gram = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0)))[::-1]
    assert np.allclose(dense, gram, atol=1e-9)
    # Lanczos on the matvec as a second, iterative route to the top three
    it = np.sort(svds(m, k=3, return_singular_vectors=False))[::-1]
    assert np.allclose(it, dense[:3], rtol=1e-8, atol=1e-10)
    # a genuinely banded matrix: tridiagonal Toeplitz
    t = np.diag(np.full(40, 2.0)) + np.diag(np.full(39, 1.0), 1) + np.diag(np.full(39, 0.5), -1)
    assert np.allclose(singular_values(_band(t, 1)), sla.svdvals(t), atol=1e-12)


def test_sigma_min_banded_matches_dense():
    rng = np.random.default_rng(2)
    n = 300
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    vals = np.concatenate([[0.2], np.linspace(0.4, 3.0, n - 1)])
    a = (q1 * vals) @ q2.conj().T
    band = _band(a)
    assert abs(sigma_min(band) - 0.2) < 1e-10
    for lam in (0.5, 0.3 - 1.2j):
        dense = sla.svdvals(a - lam * np.eye(n))[-1]
        assert abs(sigma_min(band, lam=lam) - dense) < 1e-10


def test_sigma_min_singular_matrix_reports_zero():
    rng = np.random.default_rng(3)
    a = np.outer(rng.standard_normal(10), rng.standard_normal(10)) + 0j
    assert sigma_min(_band(a)) < 1e-12
    # an exactly zero diagonal entry of a diagonal matrix is exact
    assert sigma_min(np.array([[2.0, 0.0, -1.0]])) == 0.0


PSIS = [
    sqrt_wave(),
    power_wave(1.0),
    shifted_wave(2.0),
    inverse_decay(),
    dyadic_indicator(),
    constant_closure(1.5 - 0.5j),
]


def _gram_close(got, dense, i):
    """Banded value against ``dense[i]``, dense svdvals (descending) of the same matrix.

    The banded route takes square roots of Gram eigenvalues, which carry an
    absolute error of a few eps ||S||^2: about eps ||S||^2 / sigma in sigma,
    and about sqrt(eps) ||S|| as sigma -> 0.
    """
    return abs(got**2 - dense[i] ** 2) <= 64 * np.finfo(float).eps * dense[0] ** 2


def test_banded_route_matches_dense_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    level = st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)
    gammas = st.builds(const_profile, level) | st.builds(
        cos_profile, st.floats(-3.0, 3.0), level, st.integers(1, 6)
    )
    terms = st.lists(st.tuples(gammas, st.sampled_from(PSIS)), min_size=1, max_size=2)
    lams = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(terms, st.sampled_from([16, 24, 32]), st.sampled_from([2, 4]), lams)
    def check(terms, start, oversampling, lam):
        sched = TruncationSchedule(bands=(start, 2 * start, 4 * start), oversampling=oversampling)
        f = TensorSymbol(*sched.grids(start), terms)
        est = essential_norm_estimate(f, sched)
        probe = essential_spectrum_probe(f, [lam.real, lam], sched)
        for j, band in enumerate(sched.bands):
            xg, xig = sched.grids(band)
            fb = f.rebound(xg, xig)
            sect = frequency_section(fb, shell_indices(xig, band / 2))
            n = sect.shape[0]
            s = sla.svdvals(sect)
            assert abs(est.sigma_top[j] - s[0]) <= 1e-9 * f.sup_bound
            for th, traj in est.windows.items():
                assert _gram_close(traj[j], s, min(int(th * n), n - 1))
            for row, z in zip(probe.sigma_min_table, probe.lambdas):
                shifted = sla.svdvals(sect - z * np.eye(n))
                assert _gram_close(row[j], shifted, -1)
            full = sla.svdvals(frequency_section(fb))
            assert _gram_close(sigma_min(frequency_section(fb, banded=True)), full, -1)

    check()


def test_sigma_min_clustered_spectrum_matches_dense_reference():
    # dense svdvals of the flagship's band-2048 shell section minus lambda, copied
    # from perfbench/weyl_reference.json; the spectrum clusters near each lambda
    reference = {-1.5: 0.003823725077158904, 4.0: 1.011016358359657}
    sched = TruncationSchedule()
    xg, xig = sched.grids(2048)
    f = tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), xg, xig)
    band = frequency_section(f, shell_indices(xig, 1024), banded=True)
    assert band.shape == (3, 2047)
    for lam, dense in reference.items():
        assert abs(sigma_min(band, lam=lam) - dense) < 1e-10


def test_band_storage_must_be_odd():
    with pytest.raises(SpectralError):
        singular_values(np.ones((2, 5)))


def test_constant_multiplier_estimates_its_modulus_exactly():
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _multiplier(DualClosure(lambda p: np.full(len(p), 2.0 + 0j), 2.0, "const2"), sched)
    res = essential_norm_estimate(f, sched)
    assert isinstance(res, EssentialNormResult)
    assert np.allclose(res.sigma_top, 2.0, atol=1e-9)
    assert abs(res.estimate - 2.0) < 1e-9
    assert res.reliable
    for traj in res.windows.values():
        assert np.allclose(traj, 2.0, atol=1e-9)


def test_fast_decaying_perturbation_is_invisible():
    # 1 + 5*exp(-|xi|) deviates from 1 only at frequencies the shell discards
    sched = TruncationSchedule(bands=(16, 32, 64))
    psi = DualClosure(
        lambda p: 1.0 + 5.0 * np.exp(-np.linalg.norm(p, axis=1)), 6.0, "one-plus-spike"
    )
    res = essential_norm_estimate(_multiplier(psi, sched), sched)
    assert np.allclose(res.sigma_top, 1.0, atol=1e-3)
    assert abs(res.estimate - 1.0) < 1e-2
    for traj in res.windows.values():
        assert np.allclose(traj, 1.0, atol=1e-3)


def test_flagship_estimate_small_ladder():
    sched = TruncationSchedule(bands=(64, 128, 256))
    res = essential_norm_estimate(_flagship(sched), sched)
    # compressions sit under sup|f| = 3 and should already be close
    assert all(t <= 3.0 + 1e-9 for t in res.sigma_top)
    assert all(t >= 2.5 for t in res.sigma_top)
    assert 2.4 <= res.estimate <= 3.6


def test_compact_symbol_estimate_collapses():
    sched = TruncationSchedule(bands=(32, 64, 128))
    res = essential_norm_estimate(_multiplier(inverse_decay(), sched), sched)
    assert res.sigma_top[0] < 0.07
    assert res.sigma_top[-1] < res.sigma_top[0]
    assert res.estimate <= 0.01
    assert "extrapolation clamped at 0" in res.notes


def test_probe_separates_inside_from_outside():
    sched = TruncationSchedule(bands=(32, 64, 128))
    res = essential_spectrum_probe(_flagship(sched), [0.0, 4.5], sched)
    inside, outside = res.sigma_min_table
    assert inside[-1] < 0.3
    assert outside[-1] > 0.75
    assert res.verdicts[1] == "against"
    assert res.scale == 3.0


def test_probe_constant_symbol_both_directions():
    # normal-operator calibration: (Op - c) = 0 while dist(c+1, spectrum) = 1
    sched = TruncationSchedule(bands=(16, 32, 64))
    xg, xig = sched.grids(16)
    f = constant_symbol(2.0, xg, xig)
    res = essential_spectrum_probe(f, [2.0, 3.0], sched)
    on, off = res.sigma_min_table
    assert max(on) < 1e-12
    assert min(off) > 1.0 - 1e-12
    assert res.verdicts == ("supporting", "against")


def test_probe_is_deterministic():
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _flagship(sched)
    a = essential_spectrum_probe(f, [0.0, 4.0], sched)
    b = essential_spectrum_probe(f, [0.0, 4.0], sched)
    assert a.sigma_min_table == b.sigma_min_table
    assert a.verdicts == b.verdicts


def test_fredholm_sufficient_on_torus():
    sched = TruncationSchedule(bands=(16, 32, 64))
    res = fredholm_check(_multiplier(shifted_wave(2.0), sched), schedule=sched, asym_schedule=ASYM)
    assert res.verdict == "FREDHOLM-SUFFICIENT"
    assert abs(res.floor - 1.0) < 2e-2
    assert all(s > 0.5 for s in res.sigma_min_full)
    assert res.corroborated


def test_fredholm_inconclusive_when_floor_vanishes():
    sched = TruncationSchedule(bands=(16, 32, 64))
    res = fredholm_check(_multiplier(shifted_wave(1.0), sched), schedule=sched, asym_schedule=ASYM)
    assert res.verdict == "INCONCLUSIVE"
    assert res.floor < 0.05
    assert any("sufficient-only" in n for n in res.notes)


def test_fredholm_noncompact_x_short_circuits():
    xg = GroupGrid.line(0.5, 8.0)
    res = fredholm_check(constant_symbol(1.0, xg, xg.dual()))
    assert res.verdict == "NOT-FREDHOLM"
    assert res.bands == ()
    assert res.sigma_min_full == ()
    assert any("non-compact" in n for n in res.notes)


def test_gohberg_compact_symbol_agrees_by_convention():
    sched = TruncationSchedule(bands=(32, 64, 128))
    rep = gohberg_verify(
        _multiplier(inverse_decay(), sched), schedule=sched, asym_schedule=ASYM
    )
    assert rep.estimate < 0.05
    assert rep.rhs < 0.05
    assert rep.ratio == 1.0
    assert rep.ratio_in_band
    assert rep.lower_bound_ok
    assert not rep.violation
    assert any("compact regime" in n for n in rep.notes)


def test_gohberg_flagship_ratio_lands_in_band():
    sched = TruncationSchedule(bands=(64, 128, 256))
    rep = gohberg_verify(_flagship(sched), schedule=sched, asym_schedule=ASYM)
    assert abs(rep.rhs - 3.0) < 2e-2
    assert abs(rep.minform - 1.0) < 2e-2
    assert rep.ratio is not None
    assert 0.85 <= rep.ratio <= 1.15
    assert rep.ratio_in_band
    assert rep.lower_bound_ok
    assert not rep.violation
    assert all(v == "PASS" for v in rep.vo_verdicts)


def test_gohberg_non_vanishing_oscillation_flags_unreliable():
    # psi = |xi| drifts without bound: the comparison formula is out of scope
    sched = TruncationSchedule(bands=(16, 32, 64))
    rep = gohberg_verify(
        _multiplier(power_wave(1.0), sched), schedule=sched, asym_schedule=ASYM
    )
    assert "FAIL" in rep.vo_verdicts
    assert rep.unreliable
    assert not rep.violation


def test_result_dicts_are_json_shaped():
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _multiplier(shifted_wave(2.0), sched)
    d1 = essential_norm_estimate(f, sched).as_dict()
    d2 = essential_spectrum_probe(f, [0.0], sched).as_dict()
    d3 = fredholm_check(f, schedule=sched, asym_schedule=ASYM).as_dict()
    d4 = gohberg_verify(f, schedule=sched, asym_schedule=ASYM).as_dict()
    import json

    for d in (d1, d2, d3, d4):
        json.dumps(d)
