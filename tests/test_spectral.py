"""Truncation ladders: estimator calibration cases with known answers."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import svds

from corona_pdo import asymptotics, spectral
from corona_pdo.asymptotics import (
    DirectionalBase,
    SamplingSchedule,
    StandardBase,
    ThickenedComplementBase,
)
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
    sigma_top,
)
from corona_pdo.symbols import (
    DualClosure,
    TensorSymbol,
    const_profile,
    constant_closure,
    cos_profile,
    dyadic_indicator,
    halfline_set,
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
    assert xg == GroupGrid.torus(32)
    assert xig == GroupGrid.truncated_integers(8)


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


def test_sigma_top_and_min_of_diagonal():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.isclose(sigma_top(d[None, :]), 3.0, atol=1e-14)
    assert np.isclose(sigma_min(d[None, :]), 0.5, atol=1e-14)
    assert np.isclose(sigma_top(np.ones((1, 8))), 1.0, atol=1e-15)
    assert np.isclose(sigma_min(np.ones((1, 8))), 1.0, atol=1e-15)
    # zero off-diagonals stored explicitly give the same values
    assert np.isclose(sigma_top(_band(np.diag(d))), 3.0, atol=1e-14)
    assert np.isclose(sigma_min(_band(np.diag(d))), 0.5, atol=1e-14)


def test_sigma_top_and_min_match_dense_and_eig_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    dense = sla.svdvals(m)
    assert np.isclose(sigma_top(_band(m)), dense[0], atol=1e-9)
    assert np.isclose(sigma_min(_band(m)), dense[-1], atol=1e-9)
    # brute-force oracle through the Gram spectrum
    gram = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0)))[::-1]
    assert np.allclose(dense, gram, atol=1e-9)
    # Lanczos on the matvec as a second, iterative route to the top three
    it = np.sort(svds(m, k=3, return_singular_vectors=False))[::-1]
    assert np.allclose(it, dense[:3], rtol=1e-8, atol=1e-10)
    # a genuinely banded matrix: tridiagonal Toeplitz
    t = np.diag(np.full(40, 2.0)) + np.diag(np.full(39, 1.0), 1) + np.diag(np.full(39, 0.5), -1)
    dense = sla.svdvals(t)
    assert np.isclose(sigma_top(_band(t, 1)), dense[0], atol=1e-12)
    assert np.isclose(sigma_min(_band(t, 1)), dense[-1], atol=1e-12)


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
    assert sigma_min(np.zeros((3, 6))) == 0.0
    assert sigma_top(np.zeros((3, 6))) == 0.0
    # |lam|^2 = 2.1e-314 is subnormal: unscaled, the Gram matrix loses digits and
    # the bisection's width 8 eps ||G|| underflows to 0, so it never stops
    tiny = 1.4484547181762245e-157
    assert sigma_min(np.zeros((3, 6)), lam=-tiny) == pytest.approx(tiny, rel=1e-12)
    assert sigma_top(np.full((1, 4), 3e-160)) == pytest.approx(3e-160, rel=1e-12)
    assert sigma_min(np.zeros((3, 6)), lam=5e-324) == 5e-324


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
def test_non_finite_section_raises(bad):
    band = _band(np.diag(np.full(6, 2.0)) + np.diag(np.ones(5), 1), 1)
    band[1, 3] = bad
    with pytest.raises(SpectralError):
        sigma_min(band)
    with pytest.raises(SpectralError):
        sigma_min(band, lam=0.5j)
    with pytest.raises(SpectralError):
        sigma_top(band)
    # a finite section whose Gram matrix overflows is no better
    with pytest.raises(SpectralError):
        sigma_top(np.full((1, 4), 1e200))


def test_each_value_costs_at_most_64_factorisations(monkeypatch):
    calls = []
    zpbtrf = spectral._zpbtrf()

    def counted(*args, **kwargs):
        calls.append(1)
        return zpbtrf(*args, **kwargs)

    monkeypatch.setattr(spectral, "_zpbtrf", lambda: counted)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    band = _band(np.triu(np.tril(m, 4), -4), 4)
    for value in (lambda: sigma_top(band), lambda: sigma_min(band), lambda: sigma_min(band, 1 - 2j)):
        calls.clear()
        value()
        assert 0 < len(calls) <= 64


@pytest.mark.parametrize("shift", [40.0, 0.5], ids=["definite", "indefinite"])
def test_extension_zpbtrf_matches_scipy_linalg(shift):
    # the routine loaded from scipy's LAPACK extension alone is the public one
    from scipy.linalg.lapack import zpbtrf

    rng = np.random.default_rng(7)
    ab = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
    ab[2] = shift + rng.standard_normal(300)  # Hermitian: real diagonal
    ours, info = spectral._zpbtrf()(np.asfortranarray(ab))
    theirs, their_info = zpbtrf(np.asfortranarray(ab))
    assert info == their_info and (info == 0) == (shift > 1)
    assert ours.tobytes() == theirs.tobytes()


def test_missing_lapack_extension_is_a_spectral_error(monkeypatch, tmp_path):
    # a scipy whose linalg holds no _flapack: the run ends in [error], not a traceback
    class NoLinalg:
        submodule_search_locations = [str(tmp_path)]

    monkeypatch.setattr(spectral.importlib.util, "find_spec", lambda name: NoLinalg)
    with pytest.raises(SpectralError, match=r"scipy \S+ has no LAPACK extension"):
        spectral._zpbtrf.__wrapped__()


PSIS = [
    sqrt_wave(),
    power_wave(1.0),
    shifted_wave(2.0),
    inverse_decay(),
    dyadic_indicator(),
    constant_closure(1.5 - 0.5j),
]


def _gram_close(got, dense, i, oracle_err=False):
    """Banded value against ``dense[i]``, dense svdvals (descending) of the same matrix.

    The banded route takes square roots of Gram eigenvalues, which carry an
    absolute error of a few eps ||S||^2: about eps ||S||^2 / sigma in sigma,
    and about sqrt(eps) ||S|| as sigma -> 0.  ``oracle_err`` adds the dense
    oracle's own error, a few eps ||S|| in sigma (LAPACK's SVD bound) and so
    2 sigma eps ||S|| in sigma^2: on an 11 x 11 one-sided shell minus lambda
    with sigma_min = 0.9 ||S||, svdvals read sigma_min^2 82 eps ||S||^2 above a
    40-digit reference, the banded route 3 eps ||S||^2 below it.
    """
    tol = 64 * np.finfo(float).eps * dense[0] * (dense[0] + 2 * dense[i] * oracle_err)
    return abs(got**2 - dense[i] ** 2) <= tol


def test_banded_route_matches_dense_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    level = st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)
    gammas = st.builds(const_profile, level) | st.builds(
        cos_profile, st.floats(-3.0, 3.0), level, st.integers(1, 6)
    )
    terms = st.lists(st.tuples(gammas, st.sampled_from(PSIS)), min_size=1, max_size=2)
    lams = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)

    # a half-line thickened at scale t keeps both sides of |xi| > t while t < 12
    bases = [StandardBase(1), DirectionalBase([1]), DirectionalBase([-1]),
             ThickenedComplementBase(halfline_set(-24.0))]

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(
        terms, st.sampled_from([16, 24, 32]), st.sampled_from([2, 4]), lams, st.sampled_from(bases)
    )
    def check(terms, start, oversampling, lam, base):
        sched = TruncationSchedule(bands=(start, 2 * start, 4 * start), oversampling=oversampling)
        # [1]'s element at band 16 holds 7 points, fewer than a ladder accepts
        hypothesis.assume(base.mask(sched.grids(start)[1].coords, start / 2).sum() >= 8)
        f = TensorSymbol(*sched.grids(start), terms)
        est = essential_norm_estimate(f, sched, base)
        probe = essential_spectrum_probe(f, [lam.real, lam], sched, base)
        for j, band in enumerate(sched.bands):
            xg, xig = sched.grids(band)
            fb = f.rebound(xg, xig)
            shell = np.flatnonzero(base.mask(xig.coords, band / 2))
            sect = frequency_section(fb, shell)
            n = sect.shape[0]
            s = sla.svdvals(sect)
            assert abs(est.fit.per_scale[j] - s[0]) <= 1e-9 * f.sup_bound
            assert _gram_close(sigma_top(frequency_section(fb, shell, banded=True)), s, 0)
            for row, z in zip(probe.sigma_min_table, [lam.real, lam]):
                shifted = sla.svdvals(sect - z * np.eye(n))
                assert _gram_close(row[j], shifted, -1, oracle_err=True)
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
        sigma_top(np.ones((2, 5)))
    with pytest.raises(SpectralError):
        sigma_min(np.ones((2, 5)))


def test_constant_multiplier_estimates_its_modulus_exactly():
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _multiplier(DualClosure(lambda p: np.full(len(p), 2.0 + 0j), 2.0, "const2"), sched)
    res = essential_norm_estimate(f, sched, StandardBase(1))
    assert isinstance(res, EssentialNormResult)
    assert np.allclose(res.fit.per_scale, 2.0, atol=1e-9)
    assert abs(res.value - 2.0) < 1e-9
    assert res.reliable


def test_fast_decaying_perturbation_is_invisible():
    # 1 + 5*exp(-|xi|) deviates from 1 only at frequencies the shell discards
    sched = TruncationSchedule(bands=(16, 32, 64))
    psi = DualClosure(
        lambda p: 1.0 + 5.0 * np.exp(-np.linalg.norm(p, axis=1)), 6.0, "one-plus-spike"
    )
    res = essential_norm_estimate(_multiplier(psi, sched), sched, StandardBase(1))
    assert np.allclose(res.fit.per_scale, 1.0, atol=1e-3)
    assert abs(res.value - 1.0) < 1e-2


def test_flagship_estimate_small_ladder():
    sched = TruncationSchedule(bands=(64, 128, 256))
    res = essential_norm_estimate(_flagship(sched), sched, StandardBase(1))
    # compressions sit under sup|f| = 3 and should already be close
    assert all(t <= 3.0 + 1e-9 for t in res.fit.per_scale)
    assert all(t >= 2.5 for t in res.fit.per_scale)
    assert 2.4 <= res.value <= 3.6


def test_compact_symbol_estimate_collapses():
    sched = TruncationSchedule(bands=(32, 64, 128))
    res = essential_norm_estimate(_multiplier(inverse_decay(), sched), sched, StandardBase(1))
    assert res.fit.per_scale[0] < 0.07
    assert res.fit.per_scale[-1] < res.fit.per_scale[0]
    assert res.value <= 0.01
    assert "extrapolation clamped at 0" in res.notes


def test_probe_separates_inside_from_outside():
    sched = TruncationSchedule(bands=(32, 64, 128))
    res = essential_spectrum_probe(_flagship(sched), [0.0, 4.5], sched, StandardBase(1))
    inside, outside = res.sigma_min_table
    assert inside[-1] < 0.3
    assert outside[-1] > 0.75
    assert res.verdicts[1] == "against"
    assert res.scale == 3.0


def test_probe_constant_symbol_both_directions():
    # normal-operator calibration: (Op - c) = 0 while dist(c+1, spectrum) = 1
    sched = TruncationSchedule(bands=(16, 32, 64))
    xg, xig = sched.grids(16)
    f = multiplier_symbol(constant_closure(2.0), xg, xig)
    res = essential_spectrum_probe(f, [2.0, 3.0], sched, StandardBase(1))
    on, off = res.sigma_min_table
    assert max(on) < 1e-12
    assert min(off) > 1.0 - 1e-12
    assert res.verdicts == ("supporting", "against")


def test_probe_is_deterministic():
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _flagship(sched)
    a = essential_spectrum_probe(f, [0.0, 4.0], sched, StandardBase(1))
    b = essential_spectrum_probe(f, [0.0, 4.0], sched, StandardBase(1))
    assert a.sigma_min_table == b.sigma_min_table
    assert a.verdicts == b.verdicts


def test_fredholm_sufficient_on_torus():
    sched = TruncationSchedule(bands=(16, 32, 64))
    res = fredholm_check(_multiplier(shifted_wave(2.0), sched), StandardBase(1), sched, ASYM)
    assert res.verdict == "FREDHOLM-SUFFICIENT"
    assert abs(res.floor - 1.0) < 2e-2
    assert all(s > 0.5 for s in res.sigma_min_full)
    assert res.corroborated


def test_fredholm_inconclusive_when_floor_vanishes():
    sched = TruncationSchedule(bands=(16, 32, 64))
    res = fredholm_check(_multiplier(shifted_wave(1.0), sched), StandardBase(1), sched, ASYM)
    assert res.verdict == "INCONCLUSIVE"
    assert res.floor < 0.05
    assert any("sufficient-only" in n for n in res.notes)


def test_fredholm_noncompact_x_short_circuits():
    # no ladder runs: Op(1) is the identity, on a dual of non-compact and of compact kind
    for xg in (GroupGrid.line(0.5, 8.0), GroupGrid.truncated_integers(32)):
        res = fredholm_check(
            multiplier_symbol(constant_closure(1.0), xg, xg.dual()),
            StandardBase(1),
            TruncationSchedule(),
            ASYM,
        )
        assert res.verdict == "FREDHOLM-SUFFICIENT"
        assert res.floor == 1.0
        assert res.sigma_min_full == () and res.notes == ()
    # sin sqrt|xi| vanishes at xi = 0: psi(D) is not invertible
    res = fredholm_check(
        multiplier_symbol(sqrt_wave(), xg, xg.dual()), StandardBase(1), TruncationSchedule(), ASYM
    )
    assert res.verdict == "NOT-FREDHOLM" and res.floor == 0.0
    # 1.005 + sin sqrt|xi| keeps a floor of 0.005 at infinity: under floor_tol, not 0
    line = GroupGrid.line(0.5, 8.0)
    f = multiplier_symbol(shifted_wave(1.005), line, line.dual())
    res = fredholm_check(f, StandardBase(1), TruncationSchedule(), ASYM)
    assert res.verdict == "INCONCLUSIVE" and abs(res.floor - 0.005) < 1e-3
    # (1 - tanh(xi/4))/2 vanishes at +infinity only: a base whose cone misses
    # +infinity must not lift the floor, since invertibility needs the whole dual
    step = DualClosure(lambda p: (1 - np.tanh(p[:, 0] / 4)) / 2, 1.0, "step")
    f = multiplier_symbol(step, line, line.dual())
    for base in (StandardBase(1), DirectionalBase([1]), DirectionalBase([-1])):
        res = fredholm_check(f, base, TruncationSchedule(), ASYM)
        assert res.verdict == "NOT-FREDHOLM" and res.floor == 0.0
    # an x-varying symbol may degenerate as x -> infinity, beyond the window
    f = tensor_symbol(lambda c: 2.0 + np.tanh(c[:, 0]) + 0j, constant_closure(1.0), xg, xg.dual())
    res = fredholm_check(f, StandardBase(1), TruncationSchedule(), ASYM)
    assert res.verdict == "INCONCLUSIVE" and res.floor is None
    assert res.sigma_min_full == ()
    assert any("cannot see x -> infinity" in n for n in res.notes)


def test_gohberg_compact_symbol_agrees_by_convention():
    sched = TruncationSchedule(bands=(32, 64, 128))
    f = _multiplier(inverse_decay(), sched)
    _, rep = gohberg_verify(f, sched, StandardBase(1), ASYM)
    assert rep.estimate < 0.05
    assert rep.rhs < 0.05
    assert rep.ratio == 1.0
    assert rep.ratio_in_band
    assert rep.lower_bound_ok
    assert not rep.violation
    assert any("compact regime" in n for n in rep.notes)


def test_gohberg_flagship_ratio_lands_in_band():
    sched = TruncationSchedule(bands=(64, 128, 256))
    f = _flagship(sched)
    _, rep = gohberg_verify(f, sched, StandardBase(1), ASYM)
    assert abs(rep.rhs - 3.0) < 2e-2
    assert abs(rep.minform - 1.0) < 2e-2
    assert rep.ratio is not None
    assert 0.85 <= rep.ratio <= 1.15
    assert rep.ratio_in_band
    assert rep.lower_bound_ok
    assert not rep.violation
    assert all(v == "PASS" for v in rep.vo_verdicts)


def test_gohberg_vo_certificate_follows_the_sampling_seed(monkeypatch):
    seeds, vo = [], spectral.vanishing_oscillation_test

    def recording(psi, shifts, radii, seed=None):
        seeds.append(seed)
        return vo(psi, shifts, radii, seed=0 if seed is None else seed)

    monkeypatch.setattr(spectral, "vanishing_oscillation_test", recording)
    sched = TruncationSchedule(bands=(16, 32, 64))
    gohberg_verify(_flagship(sched), sched, StandardBase(1), SamplingSchedule(seed=7))
    assert seeds == [7]


def test_ladder_follows_the_base_of_a_one_sided_symbol():
    # 1 (x) (1 - tanh(xi/4))/2 vanishes at +infinity only: with the ladder on
    # |eta| > N/2 whatever the base, [1] read estimate 1 against rhs 0
    step = DualClosure(lambda p: (1 - np.tanh(p[:, 0] / 4)) / 2, 1.0, "step")
    sched = TruncationSchedule()
    f = multiplier_symbol(step, *sched.grids(sched.bands[0]))
    for base, value, supported in [
        (DirectionalBase([1]), 0.0, ["supporting", "against"]),
        (DirectionalBase([-1]), 1.0, ["against", "supporting"]),
        (StandardBase(1), 1.0, ["supporting", "supporting"]),
    ]:
        _, rep = gohberg_verify(f, sched, base, ASYM)
        assert rep.vo_verdicts == ("PASS",) and not rep.unreliable and not rep.violation
        assert abs(rep.estimate - value) < 1e-9 and abs(rep.rhs - value) < 1e-6
        probe = essential_spectrum_probe(f, [0.0, 1.0, 0.5], sched, base)
        assert list(probe.verdicts) == [*supported, "against"]


def test_ladder_at_round_off_reads_reliable():
    # along [1] the rungs of the step read 6.8e-8, 7.7e-15 and 0: a residual of
    # 27% of the largest rung, but all of them below the sqrt(eps) resolution
    step = DualClosure(lambda p: (1 - np.tanh(p[:, 0] / 4)) / 2, 1.0, "step")
    sched = TruncationSchedule(bands=(64, 128, 256))
    f = multiplier_symbol(step, *sched.grids(sched.bands[0]))
    est, rep = gohberg_verify(f, sched, DirectionalBase([1]), ASYM)
    assert est.reliable and not rep.unreliable and not rep.violation and rep.ratio == 1.0
    assert "both sides below 1e-10: ratio 1 by convention" in rep.notes
    assert max(est.fit.per_scale) < 1e-7 and est.fit.rel_residual > 0.2
    assert any("rungs at round-off" in n for n in est.notes)  # explains the printed residual


def test_gohberg_non_vanishing_oscillation_flags_unreliable():
    # psi = |xi| drifts without bound: the comparison formula is out of scope
    sched = TruncationSchedule(bands=(16, 32, 64))
    f = _multiplier(power_wave(1.0), sched)
    _, rep = gohberg_verify(f, sched, StandardBase(1), ASYM)
    assert "FAIL" in rep.vo_verdicts
    assert rep.unreliable
    assert not rep.violation


def test_gohberg_verify_evaluates_each_sampled_pair_about_once(monkeypatch):
    # the rhs and the min-form lower bound share one sampling pass over |f|; one
    # process, so that every kernel block is counted here
    monkeypatch.setenv("CORONA_PDO_THREADS", "1")
    sched = TruncationSchedule(bands=(16, 32, 64))
    xg, xig = sched.grids(sched.bands[0])
    terms = [(cos_profile(2.0, 1.0), sqrt_wave()), (cos_profile(0.0, 0.5, 5), sqrt_wave())]
    f = TensorSymbol(xg, xig, terms)
    evaluated, kernel = [], asymptotics._blocks

    def counted(gammas, psis):  # the (fiber, point) pairs of every block the kernel yields
        for rows, vals in kernel(gammas, psis):
            evaluated.append(vals.size)
            yield rows, vals

    monkeypatch.setattr(asymptotics, "_blocks", counted)
    gohberg_verify(f, sched, StandardBase(1), ASYM)
    pairs = xg.size * len(ASYM.scales) * ASYM.points_per_scale
    assert pairs <= sum(evaluated) < 1.5 * pairs
