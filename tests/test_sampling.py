"""Determinism and coverage checks for the low-discrepancy generators."""

import numpy as np
import pytest

from corona_pdo.sampling import (
    _ALPHAS,
    _net_blocks,
    _norm_ppf,
    _radii_per_ray,
    directions,
    kronecker,
    log_radii,
)


def _gather(blocks):
    """A stream of net blocks in one array (each block is a reused buffer)."""
    return np.concatenate([b.copy() for b in blocks])


def test_kronecker_deterministic_and_in_unit_box():
    a = kronecker(1000, 3, seed=5)
    assert np.array_equal(a, kronecker(1000, 3, seed=5))
    assert a.shape == (1000, 3)
    assert np.all((a >= 0) & (a < 1))
    assert not np.array_equal(a, kronecker(1000, 3, seed=6))


def test_kronecker_equidistribution_rough():
    a = kronecker(4000, 1)[:, 0]
    # additive recurrence: mean converges to 1/2 fast
    assert abs(a.mean() - 0.5) < 5e-3


def test_kronecker_dim_cap():
    with pytest.raises(ValueError):
        kronecker(10, 9)


def test_log_radii_window_and_spread():
    r = log_radii(100.0, 1e6, 500, seed=2)
    assert np.all((r > 100.0) & (r <= 1e6))
    assert np.array_equal(r, log_radii(100.0, 1e6, 500, seed=2))
    hist, _ = np.histogram(np.log10(r), bins=4, range=(2, 6))
    assert hist.min() > 0.15 * 500 / 4  # every decade gets samples
    with pytest.raises(ValueError):
        log_radii(10.0, 10.0, 5)


def test_directions_include_signed_axes():
    d = directions(64, 3, seed=0)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    for axis in np.concatenate([np.eye(3), -np.eye(3)]):
        assert np.any(np.all(d == axis[None, :], axis=1))


def test_directions_include_extra_rows_normalized():
    d = directions(16, 2, extra=[[3.0, 4.0]])
    assert np.any(np.all(np.abs(d - np.array([0.6, 0.8])) < 1e-15, axis=1))


def test_annulus_radius_window():
    pts = _gather(_net_blocks(10.0, 1e4, 900, 1, lambda k: directions(k, 2, 1)))
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r > 10.0 - 1e-9) & (r <= 1e4 * (1 + 1e-12)))


def test_annulus_dim_one_signs():
    pts = _gather(_net_blocks(1.0, 100.0, 40, 0, lambda k: directions(k, 1)))
    assert pts.shape[1] == 1
    assert np.any(pts > 0) and np.any(pts < 0)


def test_norm_ppf_matches_known_quantiles():
    q = _norm_ppf(np.array([0.5, 0.975, 0.0, 1.0]))
    # 0 and 1 clip to 1e-12 and 1 - 1e-12; in float64 the latter leaves a tail of 0.99998e-12
    known = [0.0, 1.959963984540054, -7.034483825301131, 7.034486910047836]
    assert np.allclose(q, known, rtol=1e-12, atol=1e-15)


def test_kernels_are_bit_equal_to_their_reference_forms():
    # x - floor(x) for x % 1.0, and one product net buffer filled column by column
    for n, dim, seed in ((10**5, 1, 0), (5000, 2, 977 * 3), (1000, 8, (1 << 20) + 5)):
        k = np.arange(1, n + 1, dtype=float)[:, None] + float(seed % (1 << 20))
        assert np.array_equal(kronecker(n, dim, seed), (k * _ALPHAS[None, :dim]) % 1.0)
    for dim in (1, 3):
        dirs = directions(40, dim, seed=1)
        r = log_radii(10.0, 1e4, _radii_per_ray(1600, len(dirs)), 2 + (7 if dim > 1 else 0))
        want = (r[None, :, None] * dirs[:, None, :]).reshape(-1, dim)
        assert np.array_equal(_gather(_net_blocks(10.0, 1e4, 1600, 2, lambda k: dirs)), want)
