"""The four benchmark workloads: CLI configs drawn from a seed, the
correctness checks the paper predicts for their reports, and the accuracy
metrics read from them.

Each workload is a list of ``corona_pdo.cli run`` invocations.  Checks return
``(name, ok)`` pairs; a check whose report is missing or malformed fails
instead of raising, so a broken run shows up in ``failed_frac``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Error metrics read any value below this as the floor itself, so that a
# roundoff-level change is never a regression.  Workloads that compute no
# such quantity report the floor as well.
ERROR_FLOOR = 1e-6

# Paper prediction for the distance to the compacts: sup|gamma| times
# limsup |sin sqrt|xi||, which is 1.
SEPAVAR_ESS_NORM = 3.0
PROBE_ESS_NORM = 3.5

TWO_TERM_SYMBOL = {
    "family": "tensor",
    "terms": [
        {"gamma": {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0}, "psi": "vo:sqrt"},
        {
            "gamma": {"profile": "cos-offset", "offset": 0.0, "amplitude": 0.5, "frequency": 5},
            "psi": "vo:sqrt",
        },
    ],
}
FLAGSHIP_SYMBOL = {
    "family": "tensor",
    "gamma": {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0},
    "psi": "vo:sqrt",
}

SEPAVAR_SUPPORTING = (-3.0, -1.5, 0.0, 1.5, 3.0)
SEPAVAR_AGAINST = (4.0,)
APPROX_TOL = 0.05


def _cfg(task: str, seed: int, **extra) -> dict:
    return {"schema": 1, "task": task, "seed": seed, **extra}


# -- configs ------------------------------------------------------------------------


def probe_lambdas(seed: int) -> list:
    """12 probe points whose verdict is unambiguous, as (lambda, class).

    Real values inside [-3, 3] sit inside the predicted essential spectrum
    [-3.5, 3.5]; real values beyond +-5 and off-axis values more than 1.1
    from the real line are at least 1.1 away from it.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(4):
        out.append((round(rng.uniform(-3.0, 3.0), 4), "supporting"))
    for _ in range(4):
        out.append((round(rng.choice((-1, 1)) * rng.uniform(5.0, 7.0), 4), "against"))
    for _ in range(4):
        x = rng.uniform(-3.0, 3.0)
        y = rng.choice((-1, 1)) * rng.uniform(1.1, 2.0)
        out.append((f"{x:.4f}{y:+.4f}j", "against"))
    return out


def _configs_sepavar_ladder(seed):
    return {"sepavar": _cfg("examples:sepavar", seed)}


def _configs_probe_scan(seed):
    schedule = {"bands": [128, 256, 512, 1024], "oversampling": 4}
    lambdas = [lam for lam, _ in probe_lambdas(seed)]
    return {
        "probe": _cfg(
            "spectrum-probe", seed, symbol=TWO_TERM_SYMBOL, schedule=schedule, lambdas=lambdas
        ),
        "gohberg": _cfg("gohberg", seed, symbol=TWO_TERM_SYMBOL, schedule=schedule),
    }


def _configs_limsup_sampling(seed):
    return {
        "stoskan": _cfg("examples:stoskan", seed, asym={"points_per_scale": 2000000}),
        "rradial": _cfg("examples:rradial", seed, asym={"points_per_scale": 1000000}),
        "pescado": _cfg("examples:pescado", seed, asym={"points_per_scale": 20000}),
        "cesaro": _cfg("examples:cesaro", seed, band=1048576),
    }


def _configs_operator_io(seed):
    cyclic = lambda n: {"kind": "finite_cyclic", "n": n}
    return {
        "selftest_1d": _cfg("fourier-selftest", seed, group=cyclic(2**22)),
        "selftest_2d": _cfg(
            "fourier-selftest", seed, group={"kind": "product", "factors": [cyclic(32), cyclic(64)]}
        ),
        "build_op": _cfg(
            "build-op", seed, group=cyclic(768), symbol=FLAGSHIP_SYMBOL, matrix_format="both"
        ),
        "diagram_1d": _cfg("diagram-check", seed, group=cyclic(1024), symbol=FLAGSHIP_SYMBOL),
        "diagram_2d": _cfg(
            "diagram-check",
            seed,
            group={"kind": "product", "factors": [cyclic(16), cyclic(16)]},
            symbol="vo:sqrt",
        ),
    }


# -- checks ---------------------------------------------------------------------------


class Checks:
    """Collects (name, ok) results; any lookup error in a check is a failure."""

    _ERRORS = (KeyError, TypeError, IndexError, ValueError, OSError)

    def __init__(self):
        self.results = []

    def check(self, name: str, fn) -> None:
        try:
            ok = bool(fn())
        except self._ERRORS:
            ok = False
        self.results.append((name, ok))


def _weyl_verdicts(report) -> dict:
    return {str(w["lambda"]): w["verdict"] for w in report["results"]["weyl"]}


def _lambda_key(lam) -> str:
    # the CLI writes real lambdas as floats and complex ones as str(complex)
    z = complex(lam)
    return str(z.real) if z.imag == 0 else str(z)


def _check_sepavar_ladder(reports, dirs, seed, c: Checks):
    res = lambda: reports["sepavar"]["results"]
    c.check("ratio in band", lambda: res()["gohberg"]["ratio_in_band"] is True)
    c.check("lower bound holds", lambda: res()["gohberg"]["lower_bound_ok"] is True)
    for lam in SEPAVAR_SUPPORTING:
        c.check(
            f"lambda={lam} supporting",
            lambda lam=lam: _weyl_verdicts(reports["sepavar"])[_lambda_key(lam)] == "supporting",
        )
    for lam in SEPAVAR_AGAINST:
        c.check(
            f"lambda={lam} against",
            lambda lam=lam: _weyl_verdicts(reports["sepavar"])[_lambda_key(lam)] == "against",
        )
    # liminf |sin sqrt| = 0, so the sufficient-only criterion cannot conclude
    c.check("fredholm inconclusive", lambda: res()["fredholm"]["verdict"] == "INCONCLUSIVE")


def _check_probe_scan(reports, dirs, seed, c: Checks):
    for lam, cls in probe_lambdas(seed):
        c.check(
            f"lambda={lam} {cls}",
            lambda lam=lam, cls=cls: _weyl_verdicts(reports["probe"])[_lambda_key(lam)] == cls,
        )
    c.check(
        "ratio in band",
        lambda: reports["gohberg"]["results"]["gohberg"]["ratio_in_band"] is True,
    )


def _approx(value, target) -> bool:
    return abs(float(value) - target) <= APPROX_TOL


def _check_limsup_sampling(reports, dirs, seed, c: Checks):
    sto = lambda: reports["stoskan"]["results"]
    rad = lambda: reports["rradial"]["results"]
    pes = lambda: reports["pescado"]["results"]
    c.check("stoskan standard limsup ~ 1", lambda: _approx(sto()["standard_limsup"]["value"], 1.0))
    c.check("stoskan one-sided limsup ~ 0", lambda: _approx(sto()["onesided_limsup"]["value"], 0.0))
    c.check("stoskan slow wave PASS", lambda: sto()["slow_wave_oscillation"]["verdict"] == "PASS")
    c.check("rradial standard limsup ~ 1", lambda: _approx(rad()["standard_limsup"]["value"], 1.0))
    c.check(
        "rradial directional limsup ~ 0",
        lambda: _approx(rad()["directional_limsup"]["value"], 0.0),
    )
    c.check(
        "rradial flattening limsup ~ 0",
        lambda: _approx(rad()["cone_flattening_limsup"]["value"], 0.0),
    )
    c.check(
        "pescado complement limsup ~ 0",
        lambda: _approx(pes()["complement_limsup"]["value"], 0.0),
    )
    c.check("pescado on-set sup ~ 1", lambda: _approx(pes()["on_set_sup"], 1.0))

    def convex_side_decays():
        sups = [o["sup_convex_side"] for o in pes()["normal_offset_sups"]]
        return len(sups) >= 2 and all(b < a for a, b in zip(sups, sups[1:])) and sups[-1] < 1e-2

    c.check("pescado convex-side sup decays", convex_side_decays)
    c.check("cesaro roof respected", lambda: reports["cesaro"]["results"]["roof_respected"] is True)


def _check_operator_io(reports, dirs, seed, c: Checks):
    from corona_pdo.pdo import hs_norm, load_matrix_bin, load_matrix_csv

    for label in ("selftest_1d", "selftest_2d"):
        res = lambda label=label: reports[label]["results"]
        c.check(
            f"{label} plancherel within tolerance",
            lambda res=res: res()["plancherel_defect"] <= res()["tolerance"],
        )
        c.check(
            f"{label} roundtrip within tolerance",
            lambda res=res: res()["roundtrip_defect"] <= res()["tolerance"],
        )
    c.check(
        "selftest_2d matrix agreement within tolerance",
        lambda: reports["selftest_2d"]["results"]["matrix_agreement"]
        <= reports["selftest_2d"]["results"]["tolerance"],
    )
    for label in ("diagram_1d", "diagram_2d"):
        c.check(
            f"{label} residual within tolerance",
            lambda label=label: reports[label]["results"]["residual"]
            <= reports[label]["results"]["tolerance"],
        )
    build = lambda: reports["build_op"]["results"]
    for name, loader in (("operator.bin", load_matrix_bin), ("operator.csv", load_matrix_csv)):

        def reloads(name=name, loader=loader):
            m = loader(dirs["build_op"] / name)
            expected = build()["hs_norm"]
            return list(m.shape) == build()["shape"] and abs(hs_norm(m) - expected) <= 1e-12 * expected

        c.check(f"{name} reloads to the report's hs_norm", reloads)


# -- accuracy -------------------------------------------------------------------------


def weyl_reference() -> dict:
    return json.loads((HERE / "weyl_reference.json").read_text())


def _floored(value: float) -> float:
    return max(float(value), ERROR_FLOOR)


def _ess_norm_rel_err(report, predicted: float) -> float:
    value = report["results"]["ess_norm"]["value"]
    return _floored(abs(value - predicted) / predicted)


def _accuracy_sepavar_ladder(reports) -> dict:
    rep = reports["sepavar"]
    ref = weyl_reference()
    top = {str(w["lambda"]): w["traj"][-1] for w in rep["results"]["weyl"]}
    errs = [
        abs(top[_lambda_key(lam)] - s) / ref["sup_abs_f"]
        for lam, s in zip(ref["lambdas"], ref["sigma_min"])
    ]
    return {
        "ess_norm_rel_err": _ess_norm_rel_err(rep, SEPAVAR_ESS_NORM),
        "weyl_abs_err": _floored(max(errs)),
    }


def _accuracy_probe_scan(reports) -> dict:
    return {
        "ess_norm_rel_err": _ess_norm_rel_err(reports["gohberg"], PROBE_ESS_NORM),
        "weyl_abs_err": ERROR_FLOOR,
    }


def _accuracy_none(reports) -> dict:
    return {"ess_norm_rel_err": ERROR_FLOOR, "weyl_abs_err": ERROR_FLOOR}


class Workload:
    def __init__(self, name, configs, check, accuracy):
        self.name = name
        self.configs = configs
        self._check = check
        self.accuracy = accuracy

    def check(self, reports: dict, dirs: dict, seed: int) -> list:
        c = Checks()
        self._check(reports, dirs, seed, c)
        return c.results


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sepavar_ladder", _configs_sepavar_ladder, _check_sepavar_ladder, _accuracy_sepavar_ladder),
        Workload("probe_scan", _configs_probe_scan, _check_probe_scan, _accuracy_probe_scan),
        Workload("limsup_sampling", _configs_limsup_sampling, _check_limsup_sampling, _accuracy_none),
        Workload("operator_io", _configs_operator_io, _check_operator_io, _accuracy_none),
    )
}


def failed_frac(checks) -> float:
    """Failed checks over checks attempted; no checks at all is a failure."""
    if not checks:
        return 1.0
    return sum(1 for _, ok in checks if not ok) / len(checks)
