"""Limsup/liminf extrapolation, filter bases, and per-fiber modulus fields.

Oracles:
  * sin(sqrt|xi|) has standard limsup 1 and liminf -1; 2+sin has liminf 1;
  * exp(-|xi_2|) has standard limsup 1 (attained on the xi_1 axis only) and
    directional limsup ~ 0 along e2;
  * a two-point a + b/sqrt(t) fit is solvable by hand.
"""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from corona_pdo import asymptotics, sampling
from corona_pdo.asymptotics import (
    DEFAULT_SCALES,
    AsymptoticsError,
    DirectionalBase,
    IntersectionBase,
    SamplingSchedule,
    StandardBase,
    ThickenedComplementBase,
    _blocks,
    _polish_span,
    _samples,
    fit_inverse_sqrt,
    liminf_along,
    limsup_along,
    modulus_field,
)
from corona_pdo.groups import GroupGrid
from corona_pdo.sampling import _fan_size, _radii_per_ray, log_radii
from corona_pdo.symbols import (
    DualClosure,
    SymbolError,
    TableSymbol,
    TensorSymbol,
    ThickenedSet,
    const_profile,
    constant_closure,
    cos_profile,
    directional_decay_symbol,
    halfline_set,
    inverse_decay,
    multiplier_symbol,
    parabola_graph,
    shifted_wave,
    sqrt_wave,
    tensor_symbol,
    values_profile,
)

SCHED = SamplingSchedule()
SMALL = SamplingSchedule(scales=(1e2, 1e3, 1e4), points_per_scale=256)


def _flagship():
    xg = GroupGrid.torus(64)
    return tensor_symbol(cos_profile(2.0), sqrt_wave(), xg, GroupGrid.truncated_integers(16))


def _two_term():
    """The flagship split as (1 + 0.5 cos 2 pi x) x psi, twice: the same
    symbol with two terms, which reaches the generic (non-factored) route."""
    f = _flagship()
    half = (cos_profile(1.0, 0.5), sqrt_wave())
    return TensorSymbol(f.xgrid, f.xigrid, [half, half])


def _gather(blocks):
    """A stream of sample blocks in one array (each block is a reused buffer)."""
    return np.concatenate([b.copy() for b in blocks])


# -- fits and schedules --


def test_fit_inverse_sqrt_exact_two_points():
    # a + b/10 = 1.1, a + b/20 = 1.05  =>  a = 1, b = 1
    a, b, res, rel = fit_inverse_sqrt([100.0, 400.0], [1.1, 1.05])
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-11)
    assert res <= 1e-12 and rel <= 1e-12


def test_schedule_validation():
    with pytest.raises(AsymptoticsError):
        SamplingSchedule(scales=(1e3, 1e2))
    with pytest.raises(AsymptoticsError):
        SamplingSchedule(scales=())
    with pytest.raises(AsymptoticsError):
        SamplingSchedule(points_per_scale=4)
    assert SamplingSchedule(scales=[10, 100]).scales == (10.0, 100.0)
    SamplingSchedule(scales=(1e11,))  # largest sampled radius 1e12: the bound itself
    with pytest.raises(AsymptoticsError):
        SamplingSchedule(scales=(1e11,), span=10.5)
    # radii (t, t * span] are empty unless span > 1: rejected here, not in the first sample
    for span in (0.5, 1.0, float("nan")):
        with pytest.raises(AsymptoticsError, match="span must exceed 1"):
            SamplingSchedule(span=span)


# -- scalar limsup / liminf --


def test_standard_limsup_slow_wave_is_one():
    psi = sqrt_wave()
    fit = limsup_along(lambda p: np.real(psi(p)), StandardBase(1), SCHED)
    assert fit.value == pytest.approx(1.0, abs=1e-3)
    assert np.all(fit.per_scale <= 1.0 + 1e-9)
    assert fit.kind == "sup"


def test_standard_limsup_constant_is_exact():
    fit = limsup_along(lambda p: np.ones(len(p)), StandardBase(2), SCHED)
    assert fit.value == pytest.approx(1.0, abs=1e-12)
    assert fit.residual <= 1e-12


def test_standard_limsup_of_decay_is_zero():
    psi = inverse_decay(1.0)
    fit = limsup_along(lambda p: np.abs(psi(p)), StandardBase(1), SCHED)
    assert abs(fit.value) <= 1e-3


def test_directional_vs_standard_for_axis_decay():
    psi = directional_decay_symbol([0.0, 1.0])
    phi = lambda p: np.abs(psi(p))
    along = limsup_along(phi, DirectionalBase([0.0, 1.0]), SCHED)
    std = limsup_along(phi, StandardBase(2), SCHED)
    ortho = limsup_along(phi, DirectionalBase([1.0, 0.0]), SCHED)
    assert along.value <= 1e-3
    assert std.value == pytest.approx(1.0, abs=1e-3)  # axis rays carry the sup
    assert ortho.value == pytest.approx(1.0, abs=1e-3)


def test_liminf_shifted_wave():
    psi = shifted_wave(2.0)
    fit = liminf_along(lambda p: np.abs(psi(p)), StandardBase(1), SCHED)
    assert fit.kind == "inf"
    assert fit.value == pytest.approx(1.0, abs=1e-2)
    assert np.all(fit.per_scale >= 1.0 - 1e-9)


def test_liminf_of_zero_is_positive_zero():
    fit = liminf_along(lambda p: np.zeros(len(p)), StandardBase(1), SMALL)
    assert np.all(fit.per_scale == 0.0)
    for x in (fit.value, fit.slope):
        assert x == 0.0 and math.copysign(1.0, x) == 1.0


def test_liminf_is_the_negated_limsup_of_the_negation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coef = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    rate = st.floats(0.05, 2.0)

    @hypothesis.settings(max_examples=10, deadline=None, database=None)
    @hypothesis.given(
        coef, coef, rate, rate, coef,
        st.sampled_from([StandardBase(1), DirectionalBase([-1]), StandardBase(2)]),
    )
    def check(a, b, w, decay, c, base):
        def phi(p):
            r = np.linalg.norm(p, axis=1)
            return a * np.sin(w * np.sqrt(r)) + b * np.exp(-decay * np.abs(p[:, 0])) + c

        lo = liminf_along(phi, base, SMALL)
        hi = limsup_along(lambda p: -phi(p), base, SMALL)
        assert (lo.label, lo.kind, lo.scales) == ("liminf", "inf", hi.scales)
        # == leaves only the sign of a zero free
        assert np.array_equal(lo.per_scale, -hi.per_scale)
        assert (lo.value, lo.slope) == (-hi.value, -hi.slope)
        assert (lo.residual, lo.rel_residual) == (hi.residual, hi.rel_residual)

    check()


def test_limsup_deterministic():
    psi = sqrt_wave()
    phi = lambda p: np.real(psi(p))
    f1 = limsup_along(phi, StandardBase(1), SCHED)
    f2 = limsup_along(phi, StandardBase(1), SCHED)
    assert np.array_equal(f1.per_scale, f2.per_scale)
    assert f1.value == f2.value


# -- thickened-complement and intersection bases --


def test_ethick_halfline_excises_negative_axis():
    base = ThickenedComplementBase(halfline_set(0.0))
    neg = lambda p: (p[:, 0] < 0).astype(float)
    std = limsup_along(neg, StandardBase(1), SCHED)
    eth = limsup_along(neg, base, SCHED)
    assert std.value == pytest.approx(1.0, abs=1e-12)
    assert eth.value == pytest.approx(0.0, abs=1e-12)


def test_degenerate_thickening_rejected():
    E = halfline_set(0.0)
    assert ThickenedComplementBase(E).E is E
    whole = ThickenedSet(lambda p: np.zeros(len(p)), 1, "everything")
    with pytest.raises(AsymptoticsError, match="degenerate"):
        ThickenedComplementBase(whole)


def _empty(label):
    """The one emptiness error of the bases that cut their net, at scale 100."""
    return re.escape(f"filter base {label} is (nearly) empty at scale 100: 0 of ") + r"\d+ samples"


def test_ethick_empty_raises():
    # distance |xi|/20 clears the unit probe beyond radius 20, but never reaches the scale
    wide = ThickenedSet(lambda p: np.linalg.norm(p, axis=1) / 20, 1, "wide")
    base = ThickenedComplementBase(wide)
    with pytest.raises(AsymptoticsError, match=_empty("ethick(wide)")):
        list(base.blocks(100.0, 1000, 10.0, 0))


def test_ethick_mask_is_both_tests():
    # the radius is tested only where the distance passes: E = (-inf, -50] passes (50, 100]
    for E in (halfline_set(3.0), halfline_set(-50.0), parabola_graph()):
        pts = _gather(StandardBase(E.dim).blocks(30.0, 4000, 1e3 / 30.0, 2))
        want = (np.linalg.norm(pts, axis=1) > 100.0) & (E.distance(pts) > 100.0)
        assert np.array_equal(ThickenedComplementBase(E).mask(pts, 100.0), want)


def test_ethick_parabola_kills_distance_decay():
    E = parabola_graph()
    base = ThickenedComplementBase(E)
    phi = lambda p: np.exp(-E.distance(p))
    sched = SamplingSchedule(scales=(1e2, 1e3), points_per_scale=2000)
    fit = limsup_along(phi, base, sched)
    assert fit.value <= 1e-3


def test_intersection_base_masks_and_guards():
    base = IntersectionBase(StandardBase(1), DirectionalBase([1.0]))
    pts = _gather(base.blocks(100.0, 2000, 10.0, 0))
    assert np.all(pts[:, 0] > 0)
    assert len(pts) == 2000  # the whole budget, from a second net: one net gives 1000
    with pytest.raises(AsymptoticsError):
        IntersectionBase()
    with pytest.raises(AsymptoticsError):
        IntersectionBase(StandardBase(1), StandardBase(2))


def test_intersection_of_disjoint_cones_is_empty():
    b = IntersectionBase(DirectionalBase([1.0, 0.0]), DirectionalBase([-1.0, 0.0]))
    with pytest.raises(AsymptoticsError, match=_empty(b.label)):
        list(b.blocks(100.0, 2000, 10.0, 0))


# -- ray polish --


def _sampled_maxima(phi, base, sched):
    return [float(np.max(phi(_gather(blocks)))) for _, blocks in _samples(base, sched)]


@pytest.mark.parametrize(
    "base",
    [
        StandardBase(1),
        StandardBase(2, extra_directions=[[1.0, 1.0]]),
        DirectionalBase([1.0]),
        DirectionalBase([1.0, 2.0]),
        ThickenedComplementBase(halfline_set(0.0)),
        IntersectionBase(StandardBase(1), DirectionalBase([1.0])),
    ],
    ids=["standard-1d", "standard-2d-extra", "directional-1d", "directional-2d",
         "ethick-halfline", "standard-and-directional"],
)
def test_polished_sup_never_leaves_the_element(base):
    # (1 + |xi|)^-1 peaks at the inner edge |xi| = t of each of these elements, so a
    # polish that scored a point inside the ball would read above 1 / (1 + t)
    phi = lambda p: 1.0 / (1.0 + np.linalg.norm(p, axis=1))
    raw = np.array(_sampled_maxima(phi, base, SCHED))
    fit = limsup_along(phi, base, SCHED)
    exact = 1.0 / (1.0 + np.array(SCHED.scales))
    assert np.all(fit.per_scale >= raw * (1 - 1e-12))
    assert np.all(fit.per_scale <= exact * (1 + 1e-12))


@pytest.mark.parametrize(
    "base, n",
    [
        (StandardBase(1), 40),
        (StandardBase(2, extra_directions=[[1.0, 1.0]]), 900),
        (StandardBase(8), 64),  # 16 signed axes against a fan size of 8
        (DirectionalBase([1.0]), 40),  # one ray: 40 radii, not 20
        (DirectionalBase([1.0, 2.0]), 900),
        (DirectionalBase([1.0, 2.0, 2.0]), 900),
        # an aperture past pi at t = 100: the fan wraps, and the cone is everything
        (DirectionalBase([1.0, 2.0], aperture_scale=400.0), 4000),
        (DirectionalBase([1.0, 2.0, 2.0], aperture_scale=400.0), 4000),
        (ThickenedComplementBase(halfline_set(0.0)), 40),
        (IntersectionBase(StandardBase(1), DirectionalBase([1.0])), 40),
    ],
    ids=["standard-1d", "standard-2d-extra", "standard-8d", "directional-1d",
         "directional-2d", "directional-3d", "directional-2d-wide", "directional-3d-wide",
         "ethick-halfline", "standard-and-directional"],
)
def test_net_and_bracket_read_one_fan(base, n):
    # the polish brackets 4 radial gaps of the net the base samples: both count its fan
    t, span = 100.0, 10.0
    rays = len(base.fan(_fan_size(n), t, 3))
    per_ray = _radii_per_ray(n, rays)
    pts = _gather(base.blocks(t, n, span, 3))
    assert np.all(base.mask(pts, t))
    if isinstance(base, (StandardBase, DirectionalBase)):  # no rejection: a pure net
        assert len(pts) == rays * per_ray
    assert _polish_span(base, n, t, span) == min(max(span ** (4 / per_ray), 1.001), span)


# -- the block stream --


def _whole_net(t, span, n, seed, base):
    """The product net in one array, as the bases drew it before they streamed."""
    dirs = base.fan(_fan_size(n), t, seed)
    r = log_radii(t, t * span, _radii_per_ray(n, len(dirs)), seed + (7 if base.dim > 1 else 0))
    return (r[None, :, None] * dirs[:, None, :]).reshape(-1, base.dim)


def _whole_sample(base, t, n, span, seed):
    """The sample in one array: whole nets, and for a base that cuts its net the
    first n points its mask keeps from up to 8 of them, as before the stream."""
    if not isinstance(base, (ThickenedComplementBase, IntersectionBase)):
        return _whole_net(t, span, n, seed, base)
    kept = []
    for round_ in range(8):
        pts = _whole_net(t, span, n, seed + 131 * round_, base)
        kept.append(pts[base.mask(pts, t)])
        if sum(len(k) for k in kept) >= n:
            break
    return np.concatenate(kept)[:n]


@pytest.mark.parametrize(
    "base",
    [
        StandardBase(1),  # two rays of 50,000 radii: each ray in runs
        StandardBase(2),  # 316 rays of 316 radii: 103 whole rays a block
        StandardBase(3, extra_directions=[[1.0, 1.0, 0.0]]),
        DirectionalBase([1.0]),
        DirectionalBase([1.0, 2.0]),
        # (-inf, 50] rejects the radii up to 150: the third net's first block crosses n
        ThickenedComplementBase(halfline_set(50.0)),
        IntersectionBase(StandardBase(1), DirectionalBase([1.0])),
    ],
    ids=["standard-1d", "standard-2d", "standard-3d-extra", "directional-1d", "directional-2d",
         "ethick-halfline", "standard-and-directional"],
)
def test_blocks_are_the_whole_sample(base):
    t, n, span, seed = 100.0, 100_000, 10.0, 977
    blocks = [b.copy() for b in base.blocks(t, n, span, seed)]
    # no block is empty (``_Best.add`` takes one for granted) and none exceeds 2^15 points
    assert len(blocks) > 1 and sampling._BLOCK == 1 << 15
    assert all(0 < len(b) <= sampling._BLOCK for b in blocks)
    whole = _whole_sample(base, t, n, span, seed)
    assert np.array_equal(np.concatenate(blocks), whole)
    if isinstance(base, (ThickenedComplementBase, IntersectionBase)):  # both fill the budget
        assert len(whole) == n
    if isinstance(base, ThickenedComplementBase):
        first = next(asymptotics.FilterBase.blocks(base, t, n, span, seed + 131 * 2))
        assert 0 < len(blocks[-1]) < np.count_nonzero(base.mask(first, t))


def _stable_best(vals, k=6):
    """Indices of the k largest non-NaN values, ties to the lower index: a stable sort."""
    idx = np.flatnonzero(~np.isnan(vals))
    return idx[np.argsort(-vals[idx], kind="stable")][:k]


@pytest.mark.parametrize("data", ["ties", "floats", "all-equal", "nan"])
def test_best_samples_match_a_stable_sort(data):
    rng = np.random.default_rng(11)
    for trial in range(20):
        m = int(rng.integers(1, 3000))
        vals = {
            "ties": lambda: rng.integers(0, 4, m).astype(float),  # every sixth value is tied
            "floats": lambda: np.round(rng.standard_normal(m), 2),
            "all-equal": lambda: np.full(m, -0.5),
            "nan": lambda: np.where(rng.random(m) < 0.5, np.nan, rng.integers(0, 3, m)),
        }[data]()
        pts = np.arange(m, dtype=float)[:, None]  # a sample's point is its index
        best = asymptotics._Best(1)
        cuts = np.unique(rng.integers(0, m, int(rng.integers(0, 12))))
        cuts = cuts[cuts > 0]  # blocks are never empty: no base yields an empty one
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, m]):
            best.add(vals[lo:hi], pts[lo:hi])
        assert np.array_equal(best.rays[:, 0], _stable_best(vals))
        assert np.array_equal(best.max, np.max(vals), equal_nan=True)


def test_limsup_streams_in_a_few_megabytes():
    # 10^6 points a scale: the whole 1-d net alone would hold 8 MB
    sched = SamplingSchedule(scales=(1e2, 1e3), points_per_scale=10**6)
    phi = lambda p: np.abs(np.sin(np.sqrt(np.abs(p[:, 0]))))
    limsup_along(phi, StandardBase(1), sched)  # lazy imports and caches first
    tracemalloc.start()
    try:
        fit = limsup_along(phi, StandardBase(1), sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(fit.per_scale > 1 - 1e-9)
    assert peak < 4 * 2**20


def test_intersection_with_thickening_polishes():
    psi = sqrt_wave()
    phi = lambda p: np.abs(psi(p))
    base = IntersectionBase(StandardBase(1), ThickenedComplementBase(halfline_set(0.0)))
    fit = limsup_along(phi, base, SCHED)
    assert np.all(fit.per_scale >= _sampled_maxima(phi, base, SCHED))
    assert np.all(fit.per_scale <= 1.0)
    # liminf |sin sqrt|xi|| = 0 on the half-line too: the polish lands on the zeros
    floor = max(liminf_along(phi, base, SCHED).value, 0.0)
    assert floor <= 1e-9


def test_standard_base_polishes_sampled_maxima():
    psi = sqrt_wave()
    phi = lambda p: np.real(psi(p))
    raw = np.array(_sampled_maxima(phi, StandardBase(1), SCHED))
    fit = limsup_along(phi, StandardBase(1), SCHED)
    assert np.all(fit.per_scale >= raw) and np.any(fit.per_scale > raw)
    assert np.all(np.abs(fit.per_scale - 1.0) <= 1e-12)  # sup of sin is 1


def test_liminf_floor_flagship_reaches_the_zeros():
    # liminf |sin sqrt|xi|| = 0: the polish lands on the zeros of the kink
    floor = max(modulus_field(_flagship(), StandardBase(1), SCHED, maximize=False)[0].min(), 0.0)
    assert 0.0 <= floor <= 1e-9


def test_field_on_a_large_x_grid_loads_no_masked_arrays(tmp_path):
    # the 512-fiber subsample of a 1024-point x grid needs no np.unique (numpy.ma)
    cfg = tmp_path / "gohberg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "task": "gohberg", "group": {"kind": "torus", "samples": 1024},
        "symbol": {"family": "tensor", "terms": [
            {"gamma": {"profile": "cos-offset"}, "psi": "vo:sqrt"},
            {"gamma": {"profile": "cos-offset", "offset": 0.0, "frequency": 5}, "psi": "vo:sqrt"},
        ]},
        "schedule": {"bands": [32, 64, 128]}, "asym": {"scales": [100, 1000], "points_per_scale": 500},
    }))
    code = (
        "import sys; from corona_pdo import cli; "
        f"code = cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_polish_loads_no_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, numpy as np; "
            "from corona_pdo.asymptotics import SamplingSchedule, StandardBase, limsup_along; "
            "limsup_along(lambda p: np.sin(p[:, 0]), StandardBase(1), "
            "SamplingSchedule(scales=(1e2, 1e3), points_per_scale=64)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()  # bit for bit: a zero's sign counts


@pytest.mark.parametrize(
    "base",
    [
        StandardBase(1),
        DirectionalBase([1.0, 2.0]),
        ThickenedComplementBase(halfline_set(0.0)),
        ThickenedComplementBase(parabola_graph()),
    ],
    ids=["standard", "directional", "ethick-halfline", "ethick-parabola"],
)
def test_each_scale_polishes_as_if_alone(base, monkeypatch):
    # every scale steps in one shared polish loop, yet stops and scores as it would
    # alone: the same values, from the same number of evaluated points.  Below radius
    # 1 the search's width floor is absolute, so the small scales take fewer steps.
    # One process, so that phi counts every point here
    monkeypatch.setenv("CORONA_PDO_THREADS", "1")
    sizes = []

    def phi(p):
        sizes.append(len(p))
        return np.sin(np.sqrt(np.linalg.norm(p, axis=1))) + 0.3 * np.cos(p[:, -1] / 5)

    for scales in (DEFAULT_SCALES, (1e-3, 1e-2, 1e-1, 1e1)):
        sched = SamplingSchedule(scales, points_per_scale=500, seed=7)
        for along in (limsup_along, liminf_along):
            sizes.clear()
            full = along(phi, base, sched)
            points = sum(sizes)
            for k, t in enumerate(sched.scales):
                alone = replace(sched, scales=(t,), seed=sched.seed + 977 * k)
                assert _bits(along(phi, base, alone).per_scale) == _bits(full.per_scale[k])
            assert sum(sizes) == 2 * points


@pytest.mark.parametrize(
    "base",
    [
        StandardBase(1),
        DirectionalBase([1.0]),
        ThickenedComplementBase(halfline_set(0.0)),
        IntersectionBase(StandardBase(1), ThickenedComplementBase(halfline_set(0.0))),
    ],
    ids=["standard", "directional", "ethick", "intersection"],
)
def test_scales_scan_alike_in_one_process_or_two(base, monkeypatch):
    # the scales split between this process and a forked child: the same bits
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sched = SamplingSchedule(scales=(1e2, 1e3, 1e4), points_per_scale=500, seed=3)
    phi = lambda p: np.sin(np.sqrt(np.abs(p[:, 0]))) + 0.3 * np.cos(p[:, 0] / 5)
    real = _two_term()
    half = real.terms[0]
    complex_ = TensorSymbol(real.xgrid, real.xigrid, [half, (const_profile(0.5 + 0.5j), sqrt_wave())])
    fits = lambda f: [f.per_scale, f.value, f.slope, f.residual, f.rel_residual]
    runs = []
    for cap in ("1", "2"):
        monkeypatch.setenv("CORONA_PDO_THREADS", cap)
        forks.clear()
        got = fits(limsup_along(phi, base, sched)) + fits(liminf_along(phi, base, sched))
        for f in (real, complex_):
            vals, env = modulus_field(f, base, sched)
            got += [vals, *fits(env), modulus_field(f, base, sched, maximize=False)[0]]
        # a field scans once and re-runs 3 fibers through _along: 4 forks
        assert len(forks) == (0 if cap == "1" else 2 + 2 * 2 * 4)
        runs.append([_bits(x) for x in got])
    assert runs[0] == runs[1]


# -- per-fiber fields and Gohberg right-hand sides --


def test_gohberg_forms_flagship():
    f = _flagship()
    vals, mx = modulus_field(f, StandardBase(1), SCHED)
    mn = vals.min()
    assert mx.value == pytest.approx(3.0, abs=3e-3)
    assert mn == pytest.approx(1.0, abs=1e-2)
    assert mn <= mx.value + 1e-3
    # generic (non-factorized) routes agree with the tensor fast paths
    vals2, mx2 = modulus_field(_two_term(), StandardBase(1), SCHED)
    assert mx2.value == pytest.approx(mx.value, abs=2e-3)
    assert vals2.min() == pytest.approx(mn, abs=2e-2)


def test_liminf_floor_values():
    xg = GroupGrid.torus(64)
    xig = GroupGrid.truncated_integers(16)
    floor = lambda psi: max(
        modulus_field(multiplier_symbol(psi, xg, xig), StandardBase(1), SCHED, False)[0].min(),
        0.0,
    )
    away, near = floor(shifted_wave(2.0)), floor(shifted_wave(1.0))
    assert away == pytest.approx(1.0, abs=1e-2)
    assert near <= 1e-2


def test_modulus_field_generic_matches_tensor():
    f = _flagship()
    tensor_vals, _ = modulus_field(f, StandardBase(1), SCHED)
    generic_vals, _ = modulus_field(_two_term(), StandardBase(1), SCHED)
    assert tensor_vals.shape == generic_vals.shape
    assert np.allclose(tensor_vals, generic_vals, atol=2e-2)


def test_one_scale_field_keeps_each_fiber_value():
    # one scale: the fit is the sampled value itself, on the factored and the generic path
    sched = SamplingSchedule(scales=(100.0,), points_per_scale=500)
    xg = GroupGrid.torus(64)
    xig = GroupGrid.truncated_integers(16)
    one = TensorSymbol(xg, xig, [(cos_profile(2.0), constant_closure(1.0))])
    two = TensorSymbol(
        xg, xig, [(cos_profile(2.0), constant_closure(1.0)), (const_profile(0.0), sqrt_wave())]
    )
    for base in (StandardBase(1), ThickenedComplementBase(halfline_set(0.0))):
        for maximize in (True, False):
            np.testing.assert_allclose(
                modulus_field(two, base, sched, maximize)[0],
                modulus_field(one, base, sched, maximize)[0],
                rtol=1e-12,
            )


def test_real_terms_sum_as_their_complex_twins():
    # a real symbol's kernel sums in float64; the same numbers as complex gammas give
    # the same moduli, so the field and the envelope match bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scale = st.sampled_from([1.0, 1e150, 1e-150])
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]), st.builds(lambda v, s: v * s, st.floats(-2.0, 2.0), scale)
    )
    xg = GroupGrid.torus(16)
    xig = xg.dual()
    psis = [sqrt_wave(), shifted_wave(1.5), inverse_decay()]

    @hypothesis.settings(max_examples=10, deadline=None, database=None)
    @hypothesis.given(st.lists(st.lists(entry, min_size=16, max_size=16), min_size=2, max_size=3))
    def check(rows):
        data = [np.array(row) for row in rows]
        real = TensorSymbol(xg, xig, [(lambda c, d=d: d, p) for d, p in zip(data, psis)])
        twin = TensorSymbol(xg, xig, [(values_profile(d), p) for d, p in zip(data, psis)])
        for maximize in (True, False):
            vals, env = modulus_field(real, StandardBase(1), SMALL, maximize)
            twin_vals, twin_env = modulus_field(twin, StandardBase(1), SMALL, maximize)
            np.testing.assert_array_equal(vals, twin_vals)
            if maximize:
                for field in ("per_scale", "value", "slope", "residual", "rel_residual"):
                    np.testing.assert_array_equal(getattr(env, field), getattr(twin_env, field))
            else:
                assert env is None and twin_env is None

    check()


def test_compact_dual_rejected():
    xg = GroupGrid.truncated_integers(8)
    f = multiplier_symbol(constant_closure(1.0), xg, xg.dual())
    with pytest.raises(AsymptoticsError):
        modulus_field(f, StandardBase(1), SCHED)


# -- the fiber kernel --


def _grid_blocks(f, idx):
    """The kernel's moduli of f on the fibers idx times the dual grid, copied block by block."""
    gammas = [g[idx] for g, _ in f.tensor_terms]
    psis = [psi(f.xigrid.coords) for _, psi in f.tensor_terms]
    out, seen = np.full((len(idx), f.xigrid.size), np.nan), []
    for rows, vals in _blocks(gammas, psis):  # each block is overwritten by the next
        out[rows] = vals
        seen.append((rows.start, rows.stop))
    return out, seen


def test_blocks_match_table_on_grid():
    xg = GroupGrid.torus(8)
    xig = xg.dual()
    idx = np.array([0, 3, 5])
    two = [(cos_profile(), sqrt_wave()), (cos_profile(0.0, 0.5, 3), shifted_wave(1.5))]
    for f in (tensor_symbol(cos_profile(), sqrt_wave(), xg, xig), TensorSymbol(xg, xig, two)):
        vals, seen = _grid_blocks(f, idx)
        assert seen == [(0, 3)]
        np.testing.assert_array_equal(vals, np.abs(f.table()[idx]))  # the same sums


def test_blocks_cover_a_partial_last_block(monkeypatch):
    # 3 rows a block over 8 fibers: blocks of 3, 3 and 2 rows
    xg = GroupGrid.torus(8)
    xig = xg.dual()
    terms = [(cos_profile(), sqrt_wave()), (cos_profile(0.0, 0.5, 3), inverse_decay())]
    f = TensorSymbol(xg, xig, terms)
    monkeypatch.setattr(asymptotics, "_BLOCK_ENTRIES", 3 * xig.size)
    vals, seen = _grid_blocks(f, np.arange(8))
    assert seen == [(0, 3), (3, 6), (6, 8)]
    np.testing.assert_array_equal(vals, np.abs(f.table()))


def test_table_symbol_field_requires_closure():
    xg = GroupGrid.torus(4)
    t = TableSymbol(xg, xg.dual(), np.arange(16.0).reshape(4, 4))
    assert t.sup_bound == 15.0
    for maximize in (True, False):
        with pytest.raises(SymbolError, match="tabulated only; off-grid evaluation undefined"):
            modulus_field(t, StandardBase(1), SCHED, maximize)


def _counted(psi: DualClosure, sizes: list) -> DualClosure:
    def fun(p):
        sizes.append(len(p))
        return psi.fun(p)

    return DualClosure(fun, psi.sup_bound, psi.name)


@pytest.mark.parametrize("maximize", [True, False], ids=["limsup", "liminf"])
def test_field_evaluates_each_psi_once_per_block(monkeypatch, maximize):
    # 128 fibers, more than one fiber block at a sample block; 4 sample blocks a scale.
    # The field pass and the re-polish of each of the 3 lowest fibers read every
    # sample block once; the polish asks for at most 6 points per scale in one call.
    # One process, so that every evaluation is counted here
    monkeypatch.setenv("CORONA_PDO_THREADS", "1")
    monkeypatch.setattr(sampling, "_BLOCK", 512)
    xg = GroupGrid.torus(128)
    sched = SamplingSchedule(scales=(1e2, 1e3, 1e4), points_per_scale=2000)
    first, second = [], []
    terms = [
        (cos_profile(2.0, 1.0), _counted(sqrt_wave(), first)),
        (cos_profile(0.0, 0.5, 5), _counted(shifted_wave(1.5), second)),
    ]
    f = TensorSymbol(xg, GroupGrid.truncated_integers(16), terms)
    modulus_field(f, StandardBase(1), sched, maximize)
    blocks = [len(pts) for _, scale in _samples(StandardBase(1), sched) for pts in scale]
    assert blocks == [512, 488, 512, 488] * 3
    for sizes in (first, second):
        assert [n for n in sizes if n > 6 * len(sched.scales)] == blocks * 4
