"""Acceptance gate: one test per contract criterion, at the stated tolerances.

``pytest -v tests/test_acceptance.py`` yields one PASSED/FAILED line per
criterion; each test also prints ``[accept] criterion k (...): PASS|FAIL``
with the failing checks spelled out, so ``-s`` reads as a checklist.  The
expensive truncation ladders are shared through module-scope fixtures.
Expected wall time is a few minutes, dominated by the Weyl probe and the
full-band Fredholm sections at band 2048.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from corona_pdo.asymptotics import (
    DirectionalBase,
    SamplingSchedule,
    StandardBase,
    limsup_along,
    modulus_field,
)
from corona_pdo.cli import main
from corona_pdo.fourier import fourier
from corona_pdo.groups import GroupGrid, product_group
from corona_pdo.pdo import (
    convolution_operator,
    diagram_check,
    hs_norm,
    op_matrix,
)
from corona_pdo.spectral import (
    TruncationSchedule,
    essential_norm_estimate,
    essential_spectrum_probe,
    fredholm_check,
)
from corona_pdo.symbols import (
    TableSymbol,
    cesaro_mean,
    cos_profile,
    dyadic_indicator,
    inverse_decay,
    multiplier_symbol,
    power_wave,
    shifted_wave,
    sqrt_wave,
    tensor_symbol,
    vanishing_oscillation_test,
)

LADDER = TruncationSchedule()  # (256, 512, 1024, 2048), x = torus on 4N samples


def _verdict(num: int, label: str, checks) -> None:
    bad = [name for name, ok in checks if not ok]
    state = "PASS" if not bad else "FAIL: " + "; ".join(bad)
    print(f"[accept] criterion {num} ({label}): {state}")
    assert not bad, f"criterion {num} ({label}) {state}"


def _flagship(xg, xig):
    return tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), xg, xig)


@pytest.fixture(scope="module")
def flagship():
    xg, xig = LADDER.grids(LADDER.bands[0])
    return _flagship(xg, xig)


@pytest.fixture(scope="module")
def flagship_estimate(flagship):
    return essential_norm_estimate(flagship, LADDER, StandardBase(1))


PROBE_LAMBDAS = (-3.0, -1.5, 0.0, 1.5, 3.0, 4.0)


@pytest.fixture(scope="module")
def flagship_probe(flagship):
    return essential_spectrum_probe(flagship, PROBE_LAMBDAS, LADDER, StandardBase(1))


def test_criterion_1_exact_identities():
    t0 = time.time()
    checks = []
    for n in (4, 8, 16, 64):
        xg = GroupGrid.finite_cyclic(n)
        xig = xg.dual()
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = fourier(u, xg, xig)
        planch = abs(xg.norm(u) ** 2 - xig.norm(v) ** 2) / xg.norm(u) ** 2
        checks.append((f"plancherel N={n}: {planch:.2e}", planch <= 1e-10))

        vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        table = TableSymbol(xg, xig, vals)
        hs_gap = abs(hs_norm(op_matrix(table)) - product_group(xg, xig).norm(vals))
        checks.append((f"hs isometry N={n}: {hs_gap:.2e}", hs_gap <= 1e-10))

        resid = diagram_check(table)
        checks.append((f"diagram N={n}: {resid:.2e}", resid <= 1e-10))

        gamma = cos_profile(2.0, 1.0)(xg.coords)
        psi = sqrt_wave()
        split = np.diag(gamma) @ convolution_operator(xg, xig, psi(xig.coords))
        gap = float(np.max(np.abs(op_matrix(_flagship(xg, xig)) - split)))
        checks.append((f"Op(gamma x psi) factorization N={n}: {gap:.2e}", gap <= 1e-10))
    elapsed = time.time() - t0
    checks.append((f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0))
    _verdict(1, "exact identities on cyclic groups", checks)


def test_criterion_2_distance_identity(flagship, flagship_estimate):
    est = flagship_estimate.value
    rhs = modulus_field(flagship, StandardBase(1), SamplingSchedule())[1].value
    _verdict(
        2,
        "distance estimate vs sampled tail sup",
        [
            (f"estimate {est:.4f} in [2.55, 3.45]", 2.55 <= est <= 3.45),
            (f"rhs {rhs:.4f} = 3.0 +- 1e-2", abs(rhs - 3.0) <= 1e-2),
        ],
    )


def test_criterion_3_lower_bound(flagship, flagship_estimate):
    est = flagship_estimate.value
    mn = modulus_field(flagship, StandardBase(1), SamplingSchedule())[0].min()
    _verdict(
        3,
        "min-form lower bound",
        [
            (f"minform {mn:.4f} = 1.0 +- 1e-2", abs(mn - 1.0) <= 1e-2),
            (f"estimate {est:.4f} >= 0.95*minform", est >= 0.95 * mn),
        ],
    )


def test_criterion_4_compact_degeneration():
    xg, xig = LADDER.grids(LADDER.bands[0])
    f = tensor_symbol(cos_profile(2.0, 1.0), inverse_decay(), xg, xig)
    res = essential_norm_estimate(f, LADDER, StandardBase(1))
    _verdict(
        4,
        "decaying frequency factor collapses the distance",
        [(f"estimate {res.value:.2e} <= 0.05 at band 2048", res.value <= 0.05)],
    )


def test_criterion_5_weyl_probe(flagship_probe):
    checks = []
    for lam, traj in zip(PROBE_LAMBDAS, flagship_probe.sigma_min_table):
        if lam in (-3.0, -1.5, 0.0, 1.5, 3.0):
            checks.append(
                (f"sigma_min(lam={lam:g}) final {traj[-1]:.3f} < 0.15", traj[-1] < 0.15)
            )
        else:  # lam = 4, outside the predicted interval [-3, 3]
            plateau = min(traj[-2], traj[-1])
            checks.append(
                (f"sigma_min(lam=4) last two {traj[-2]:.3f},{traj[-1]:.3f} > 0.5", plateau > 0.5)
            )
    _verdict(5, "probe matches the predicted value set [-3, 3]", checks)


def test_criterion_6_fredholm_criterion():
    xg, xig = LADDER.grids(LADDER.bands[0])
    away = fredholm_check(
        multiplier_symbol(shifted_wave(2.0), xg, xig), StandardBase(1), LADDER, SamplingSchedule()
    )
    line = GroupGrid.line(0.5, 8.0)
    noncompact = fredholm_check(
        multiplier_symbol(sqrt_wave(), line, line.dual()), StandardBase(1), LADDER, SamplingSchedule()
    )
    _verdict(
        6,
        "invertibility-modulo-compacts verdicts",
        [
            (f"verdict {away.verdict}", away.verdict == "FREDHOLM-SUFFICIENT"),
            (
                "sigma_min(T_N) > 0.5 for all N: "
                + ",".join(f"{s:.3f}" for s in away.sigma_min_full),
                all(s > 0.5 for s in away.sigma_min_full),
            ),
            (f"noncompact verdict {noncompact.verdict}", noncompact.verdict == "NOT-FREDHOLM"),
            ("noncompact verdict skips sections", noncompact.sigma_min_full == ()),
        ],
    )


def test_criterion_7_filter_base_functionals():
    sched = SamplingSchedule()
    wave = limsup_along(sqrt_wave(), StandardBase(1), sched).value
    ribbon = lambda p: np.exp(-np.abs(p[:, 1]))
    along = limsup_along(ribbon, DirectionalBase([0.0, 1.0]), sched).value
    broad = limsup_along(ribbon, StandardBase(2), sched).value
    grid = GroupGrid.truncated_integers(4097)  # -4097..4096 holds the top ball whole
    radii = [2**k for k in range(4, 13)]
    ces = cesaro_mean(dyadic_indicator(), grid, radii)
    roofed = all(
        m <= 2.0 * np.log2(r) ** 2 / r for r, m in zip(radii, ces.means) if r >= 64
    )
    _verdict(
        7,
        "filter-base limsup functionals",
        [
            (f"standard limsup of the wave {wave:.5f} = 1 +- 1e-3", abs(wave - 1.0) <= 1e-3),
            (f"directional limsup of exp(-|xi_2|) {along:.2e} <= 1e-3", along <= 1e-3),
            (f"standard limsup of exp(-|xi_2|) {broad:.5f} = 1 +- 1e-3", abs(broad - 1.0) <= 1e-3),
            (f"cesaro means under 2*(log2 n)^2/n roof from n=64", roofed),
        ],
    )


def test_criterion_8_oscillation_diagnostics():
    radii = np.logspace(2, 6, 9)
    checks = []
    for alpha in (0.25, 0.5, 0.75):
        prof = vanishing_oscillation_test(power_wave(alpha), [1.0], radii, seed=0)
        bound = 1.1 * alpha * radii ** (alpha - 1.0)
        checks.append((f"alpha={alpha} verdict {prof.verdict}", prof.verdict == "PASS"))
        checks.append(
            (
                f"alpha={alpha} osc(1,R) <= 1.1*alpha*R^(alpha-1)",
                bool(np.all(prof.osc[0] <= bound)),
            )
        )
    full = vanishing_oscillation_test(power_wave(1.0), [1.0], radii, seed=0)
    checks.append((f"alpha=1 verdict {full.verdict}", full.verdict == "FAIL"))
    _verdict(8, "translation-oscillation certificates", checks)


def test_criterion_9_determinism(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:sepavar",
        "seed": 42,
        "schedule": {"bands": [32, 64, 128]},
        "asym": {"points_per_scale": 2000},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    codes = [
        main(["run", "--config", str(cfg), "--out", str(tmp_path / sub)])
        for sub in ("a", "b")
    ]
    keep = lambda p: [l for l in p.read_text().splitlines() if "timestamp" not in l]
    reports_equal = keep(tmp_path / "a" / "report.json") == keep(
        tmp_path / "b" / "report.json"
    )
    xg, xig = LADDER.grids(LADDER.bands[0])
    f = _flagship(xg, xig)
    sched = SamplingSchedule(points_per_scale=2000)
    rhs = [modulus_field(f, StandardBase(1), sched)[1].value for _ in range(2)]
    osc = [vanishing_oscillation_test(sqrt_wave(), [1.0], np.logspace(2, 6, 5), seed=0) for _ in range(2)]
    same_osc = all(
        np.array_equal(getattr(osc[0], field.name), getattr(osc[1], field.name))
        for field in dataclasses.fields(osc[0])
    )
    _verdict(
        9,
        "fixed seed reproduces reports bit for bit",
        [
            (f"both runs exit 0 (got {codes})", codes == [0, 0]),
            ("reports identical modulo timestamp", reports_equal),
            ("sampled sup identical across runs", rhs[0] == rhs[1]),
            ("oscillation profile identical across runs", same_osc),
        ],
    )
