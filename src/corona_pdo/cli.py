"""Config-driven experiment runner: one JSON config in, one JSON report out.

Every invocation runs a single task from an ExperimentConfig document and
writes ``report.json`` plus task-specific CSV tables into the output
directory.  Exit codes: 0 on success (advisory UNRELIABLE flags print a
warning but do not fail the run), 1 on usage or config errors, 2 when a
computed contract violation is present in the report — the distance-identity
ratio leaving its acceptance band, and nothing else, is what "violation"
means here.

Reports are deterministic for a fixed seed: rerunning the same config
produces byte-identical JSON except for the ``meta.timestamp`` field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import (
    AsymptoticsError,
    DirectionalBase,
    SamplingSchedule,
    StandardBase,
    ThickenedComplementBase,
    base_from_config,
    liminf_along,
    limsup_along,
)
from .fourier import fourier, inverse_fourier, transform_matrix
from .groups import GridError, GridFunction, GroupGrid, truncated_dual
from .pdo import (
    PdoError,
    diagram_check,
    hs_norm,
    op_matrix,
    save_matrix_bin,
    save_matrix_csv,
)
from .spectral import (
    SpectralError,
    TruncationSchedule,
    essential_norm_estimate,
    essential_spectrum_probe,
    fredholm_check,
    gohberg_verify,
)
from .symbols import (
    DualClosure,
    SymbolError,
    ball_exhaustion,
    cesaro_mean,
    cos_profile,
    directional_decay_symbol,
    dyadic_indicator,
    halfline_set,
    parabola_graph,
    psi_from_config,
    sqrt_wave,
    symbol_from_config,
    syndetic_thickening_filter_data,
    tensor_symbol,
    vanishing_oscillation_test,
)

TASKS = (
    "fourier-selftest",
    "build-op",
    "diagram-check",
    "gohberg",
    "spectrum-probe",
    "fredholm",
    "asymptotics",
)

# preset name -> one-line description for list-examples
EXAMPLES = {
    "stoskan": "one-sided ideal on R: vanishing at +inf only, plus a slow-wave oscillation certificate",
    "rradial": "directional-at-infinity ideal on R^2/R^3: decay inside a cone that the standard base misses",
    "pescado": "non-syndetic parabola graph in R^2: vanishing off the thickened set, sup 1 on the set",
    "cesaro": "density ideal on Z: dyadic block indicator with Cesaro means -> 0",
    "sepavar": "separated-variables flagship: full ladder, distance identity, spectrum probe, Fredholm",
}


class CliError(ValueError):
    pass


# config/construction failures from any module are usage errors (exit 1)
_CONFIG_ERRORS = (
    CliError,
    AsymptoticsError,
    GridError,
    PdoError,
    SpectralError,
    SymbolError,
)


@dataclass
class ExperimentConfig:
    """One experiment: what to run, on which grids, and where to write."""

    task: str
    seed: int = 0
    group: dict | None = None
    band: int | None = None
    symbol: object | None = None
    base: object | None = None
    schedule: dict | None = None
    asym: dict | None = None
    lambdas: tuple = ()
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "."
    matrix_format: str = "bin"
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_mapping(doc) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object")
        if doc.get("schema") != 1:
            raise CliError(f"unsupported config schema {doc.get('schema')!r} (expected 1)")
        task = doc.get("task")
        if not isinstance(task, str) or not task:
            raise CliError("config needs a non-empty 'task' string")
        if task.startswith("examples:"):
            name = task.split(":", 1)[1]
            if name not in EXAMPLES:
                raise CliError(
                    f"unknown example preset {name!r}; see 'corona-pdo list-examples'"
                )
        elif task not in TASKS:
            raise CliError(f"unknown task {task!r}")
        cfg = ExperimentConfig(
            task=task,
            seed=int(doc.get("seed", 0)),
            group=doc.get("group"),
            band=doc.get("band"),
            symbol=doc.get("symbol"),
            base=doc.get("base"),
            schedule=doc.get("schedule"),
            asym=doc.get("asym"),
            lambdas=tuple(doc.get("lambdas", ())),
            tolerances=dict(doc.get("tolerances", {})),
            out_dir=str(doc.get("out_dir", ".")),
            matrix_format=str(doc.get("matrix_format", "bin")),
            raw=doc,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Task-specific required fields, checked before any computation."""
        needs_group = self.task in ("fourier-selftest", "build-op", "diagram-check")
        needs_symbol = self.task in (
            "build-op",
            "diagram-check",
            "gohberg",
            "spectrum-probe",
            "fredholm",
        )
        if needs_group and self.group is None:
            raise CliError(f"task {self.task!r} needs a 'group' descriptor")
        if needs_symbol and self.symbol is None:
            raise CliError(f"task {self.task!r} needs a 'symbol' spec")
        if self.task == "spectrum-probe" and not self.lambdas:
            raise CliError("task 'spectrum-probe' needs a non-empty 'lambdas' list")
        if self.task == "asymptotics" and self.raw.get("psi") is None:
            raise CliError("task 'asymptotics' needs a 'psi' closure spec")
        if self.matrix_format not in ("bin", "csv", "both"):
            raise CliError(f"matrix_format must be bin/csv/both, got {self.matrix_format!r}")

    # -- resolved pieces ---------------------------------------------------

    def truncation_schedule(self) -> TruncationSchedule:
        spec = dict(self.schedule or {})
        if "bands" in spec:
            spec["bands"] = tuple(spec["bands"])
        return TruncationSchedule(**spec)

    def sampling_schedule(self) -> SamplingSchedule:
        spec = dict(self.asym or {})
        if "scales" in spec:
            spec["scales"] = tuple(spec["scales"])
        spec.setdefault("seed", self.seed)
        return SamplingSchedule(**spec)

    def grids(self):
        """(x grid, dual grid) from the group descriptor, or the schedule's
        base rung when no explicit group is configured."""
        if self.group is not None:
            xg = GroupGrid.from_descriptor(self.group)
            xig = truncated_dual(xg, int(self.band)) if self.band else xg.dual()
            return xg, xig
        sched = self.truncation_schedule()
        return sched.grids(sched.bands[0])

    def tol(self, key: str, default):
        return self.tolerances.get(key, default)


# -- report plumbing -------------------------------------------------------------


def _symbol_id(symbol) -> str:
    terms = symbol.tensor_terms
    if terms is None:
        return "table"
    names = []
    for gv, psi in terms:
        gmax = float(np.max(np.abs(gv)))
        names.append(f"gamma(sup={gmax:g}) x {psi.name or 'psi'}")
    return " + ".join(names)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(c) for c in row])


def _cell(c):
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, (np.floating, np.integer)):
        return repr(float(c))
    return c


def _flags(warnings=(), violation=False, unreliable=False) -> dict:
    return {
        "violation": bool(violation),
        "unreliable": bool(unreliable),
        "warnings": list(warnings),
    }


def _sigma_table_csv(est) -> tuple:
    header = ["band", "shell_dim", "sigma_top"] + [
        f"window_{th}" for th in est.windows
    ]
    rows = []
    for i, band in enumerate(est.bands):
        row = [band, est.shell_dims[i], est.sigma_top[i]]
        row += [est.windows[th][i] for th in est.windows]
        rows.append(row)
    return header, rows


def _fit_csv_rows(fits: dict) -> tuple:
    scales = None
    for f in fits.values():
        scales = f.scales
        break
    header = ["scale"] + [f"sup_{k}" for k in fits]
    rows = []
    for i, t in enumerate(scales):
        rows.append([t] + [f.per_scale[i] for f in fits.values()])
    return header, rows


# -- plain tasks -------------------------------------------------------------------


def _task_fourier_selftest(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    rng = np.random.default_rng(cfg.seed)
    u = GridFunction(xg, rng.standard_normal(xg.size) + 1j * rng.standard_normal(xg.size))
    v = fourier(u, xig)
    w = inverse_fourier(v, xg)
    nu = u.norm()
    plancherel = abs(nu**2 - v.norm() ** 2) / nu**2
    roundtrip = GridFunction(xg, w.values - u.values).norm() / nu
    results = {
        "group": xg.descriptor(),
        "dual": xig.descriptor(),
        "size": xg.size,
        "plancherel_defect": float(plancherel),
        "roundtrip_defect": float(roundtrip),
    }
    if xg.is_finite_kind and xg.size <= 2048:
        F = transform_matrix(xg, xig)
        gap = np.linalg.norm(F @ u.values - v.values) / np.linalg.norm(v.values)
        results["matrix_agreement"] = float(gap)
    tol = float(cfg.tol("plancherel", 1e-10))
    results["tolerance"] = tol
    bad = plancherel > tol or roundtrip > tol
    flags = _flags(["transform self-test exceeded tolerance"] if bad else [], violation=bad)
    print(f"[run] fourier-selftest on {xg.size} points: plancherel {plancherel:.3e}")
    return results, flags, {}


def _build_symbol(cfg: ExperimentConfig, xg, xig):
    if cfg.symbol is None:
        raise CliError("missing 'symbol' spec")
    return symbol_from_config(cfg.symbol, xg, xig)


def _task_build_op(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    f = _build_symbol(cfg, xg, xig)
    m = op_matrix(f)
    files = []
    if cfg.matrix_format in ("bin", "both"):
        files.append(("operator.bin", save_matrix_bin))
    if cfg.matrix_format in ("csv", "both"):
        files.append(("operator.csv", save_matrix_csv))
    results = {
        "symbol_id": _symbol_id(f),
        "group": xg.descriptor(),
        "dual": xig.descriptor(),
        "shape": list(m.shape),
        "hs_norm": hs_norm(m),
        "files": [name for name, _ in files],
    }
    print(f"[run] build-op: {m.shape[0]}x{m.shape[1]} matrix, hs norm {results['hs_norm']:.6g}")
    return results, _flags(), {"_matrices": [(name, saver, m) for name, saver in files]}


def _task_diagram_check(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    f = _build_symbol(cfg, xg, xig)
    residual = diagram_check(f)
    tol = float(cfg.tol("diagram", 1e-10))
    results = {
        "symbol_id": _symbol_id(f),
        "group": xg.descriptor(),
        "residual": float(residual),
        "tolerance": tol,
        "pass": bool(residual <= tol),
    }
    flags = _flags(
        [] if residual <= tol else [f"diagram residual {residual:.3e} > {tol:g}"],
        violation=residual > tol,
    )
    print(f"[run] diagram-check: residual {residual:.3e} (tol {tol:g})")
    return results, flags, {}


def _spectral_inputs(cfg: ExperimentConfig, symbol=None):
    sched = cfg.truncation_schedule()
    f = symbol if symbol is not None else _build_symbol(cfg, *cfg.grids())
    base = base_from_config(cfg.base, f.xigrid.ndim)
    return f, sched, base


def _schedule_block(sched: TruncationSchedule) -> dict:
    return {"bands": list(sched.bands), "oversampling": sched.oversampling}


def _task_gohberg(cfg: ExperimentConfig, symbol=None):
    f, sched, base = _spectral_inputs(cfg, symbol)
    asym = cfg.sampling_schedule()
    est = essential_norm_estimate(f, sched)
    rep = gohberg_verify(
        f,
        base,
        sched,
        asym,
        ratio_band=tuple(cfg.tol("ratio_band", (0.85, 1.15))),
        zero_tol=float(cfg.tol("zero_tol", 0.05)),
        est_result=est,
    )
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": _schedule_block(sched),
        "base": base.label,
        "sigma_tables": {"top": list(est.sigma_top), "windows": est.as_dict()["windows"]},
        "ess_norm": {
            "value": est.estimate,
            "fit": {
                "slope": est.slope,
                "residual": est.residual,
                "rel_residual": est.rel_residual,
            },
            "flag": "ok" if est.reliable else "unreliable",
        },
        "gohberg": rep.as_dict(),
    }
    warnings = list(rep.notes)
    if rep.unreliable:
        warnings.append("report is UNRELIABLE: the identity is not claimed for this input")
    flags = _flags(warnings, violation=rep.violation, unreliable=rep.unreliable)
    header, rows = _sigma_table_csv(est)
    ratio_txt = "n/a" if rep.ratio is None else f"{rep.ratio:.4f}"
    print(
        f"[run] gohberg: estimate {rep.estimate:.6g}, rhs {rep.rhs:.6g}, ratio {ratio_txt}"
    )
    return results, flags, {"sigma_by_band.csv": (header, rows)}


def _task_spectrum_probe(cfg: ExperimentConfig, symbol=None, lambdas=None):
    f, sched, _ = _spectral_inputs(cfg, symbol)
    probe = essential_spectrum_probe(
        f,
        cfg.lambdas if lambdas is None else lambdas,
        sched,
        support_tol=float(cfg.tol("support_tol", 0.05)),
    )
    weyl = [
        {"lambda": lam.real if lam.imag == 0 else str(lam), "traj": list(traj), "verdict": v}
        for lam, traj, v in zip(probe.lambdas, probe.sigma_min_table, probe.verdicts)
    ]
    rows = [
        [w["lambda"], band, s] for w in weyl for band, s in zip(probe.bands, w["traj"])
    ]
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": _schedule_block(sched),
        "scale": probe.scale,
        "weyl": weyl,
    }
    counts = {v: probe.verdicts.count(v) for v in sorted(set(probe.verdicts))}
    print(f"[run] spectrum-probe over {len(probe.lambdas)} points: {counts}")
    return results, _flags(), {"sigma_by_band.csv": (["lambda", "band", "sigma_min"], rows)}


def _task_fredholm(cfg: ExperimentConfig, symbol=None):
    f, sched, base = _spectral_inputs(cfg, symbol)
    res = fredholm_check(
        f,
        base,
        sched,
        cfg.sampling_schedule(),
        floor_tol=float(cfg.tol("floor_tol", 1e-2)),
        margin_factor=float(cfg.tol("margin_factor", 0.5)),
    )
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": _schedule_block(sched),
        "fredholm": {
            "verdict": res.verdict,
            "c": res.floor,
            "sigma_min_traj": list(res.sigma_min_full),
            "corroborated": res.corroborated,
            "notes": list(res.notes),
        },
    }
    rows = [[band, s] for band, s in zip(res.bands, res.sigma_min_full)]
    print(f"[run] fredholm: {res.verdict} (floor {res.floor:.6g})")
    return results, _flags(res.notes), {"sigma_by_band.csv": (["band", "sigma_min"], rows)}


def _task_asymptotics(cfg: ExperimentConfig):
    psi = psi_from_config(cfg.raw["psi"])
    dim = int(cfg.raw.get("dim", 1))
    base = base_from_config(cfg.base, dim)
    asym = cfg.sampling_schedule()
    polish = not isinstance(base, ThickenedComplementBase)
    phi = lambda p: np.abs(psi(p))
    hi = limsup_along(phi, base, asym, polish=polish)
    lo = liminf_along(phi, base, asym, polish=polish)
    results = {
        "psi": psi.name,
        "base": base.label,
        "limsup": hi.as_dict(),
        "liminf": lo.as_dict(),
    }
    vo_spec = cfg.raw.get("vo")
    if vo_spec:
        shifts = vo_spec.get("shifts") if isinstance(vo_spec, dict) else None
        radii = vo_spec.get("radii") if isinstance(vo_spec, dict) else None
        if shifts is None:
            shifts = (np.eye(dim)[0][None, :] * np.array([[0.5], [1.0], [2.0]])).tolist()
        if radii is None:
            radii = np.logspace(2, 6, 9).tolist()
        prof = vanishing_oscillation_test(psi, shifts, radii, seed=cfg.seed)
        results["vo"] = prof.as_dict()
    header, rows = _fit_csv_rows({"limsup": hi, "liminf": lo})
    print(f"[run] asymptotics: limsup {hi.value:.6g}, liminf {lo.value:.6g} along {base.label}")
    return results, _flags(), {"sups_by_scale.csv": (header, rows)}


# -- example presets ---------------------------------------------------------------


def _example_stoskan(cfg: ExperimentConfig):
    # ideal on R: functions vanishing toward +inf only (no condition at -inf)
    asym = cfg.sampling_schedule()
    phi = DualClosure(
        lambda p: np.exp(-np.maximum(p[:, 0], 0.0)).astype(complex),
        1.0,
        "exp(-max(xi,0))",
    )
    mod = lambda p: np.abs(phi(p))
    std = limsup_along(mod, StandardBase(1), asym)
    plus_base = ThickenedComplementBase(syndetic_thickening_filter_data(halfline_set(0.0)))
    one_sided = limsup_along(mod, plus_base, asym, polish=False)
    # slow wave sin(sqrt|xi|): the beta' -> 0 membership certificate
    prof = vanishing_oscillation_test(
        sqrt_wave(), [[0.5], [1.0], [2.0]], np.logspace(2, 6, 9), seed=cfg.seed
    )
    results = {
        "preset": "stoskan",
        "function": phi.name,
        "standard_limsup": std.as_dict(),
        "onesided_limsup": one_sided.as_dict(),
        "slow_wave_oscillation": prof.as_dict(),
    }
    header, rows = _fit_csv_rows({"standard": std, "onesided": one_sided})
    print(
        f"[run] stoskan: standard limsup {std.value:.4f}, "
        f"one-sided limsup {one_sided.value:.2e}, slow wave {prof.verdict}"
    )
    return results, _flags(), {"sups_by_scale.csv": (header, rows)}


def _example_rradial(cfg: ExperimentConfig):
    asym = cfg.sampling_schedule()
    psi = directional_decay_symbol([0.0, 1.0])
    mod = lambda p: np.abs(psi(p))
    along = limsup_along(mod, DirectionalBase([0.0, 1.0]), asym)
    std = limsup_along(mod, StandardBase(2), asym)
    ortho = limsup_along(mod, DirectionalBase([1.0, 0.0]), asym)

    # 3-d cone-flattening: psi3 -> 1 along omega0 = (1,0,0), so |1 - psi3|
    # vanishes directionally even though psi3 has no limit at infinity
    def psi3(p):
        x1 = np.maximum(p[:, 0], 1.0)
        return np.cos(x1**-2.0 * np.cos(p[:, 1] + p[:, 2]))

    flat = limsup_along(
        lambda p: np.abs(1.0 - psi3(p)), DirectionalBase([1.0, 0.0, 0.0]), asym
    )
    results = {
        "preset": "rradial",
        "function": psi.name,
        "directional_limsup": along.as_dict(),
        "standard_limsup": std.as_dict(),
        "orthogonal_limsup": ortho.as_dict(),
        "cone_flattening_limsup": flat.as_dict(),
    }
    header, rows = _fit_csv_rows(
        {"directional": along, "standard": std, "orthogonal": ortho, "flattening": flat}
    )
    print(
        f"[run] rradial: directional {along.value:.2e} vs standard {std.value:.4f}; "
        f"cone flattening {flat.value:.2e}"
    )
    return results, _flags(), {"sups_by_scale.csv": (header, rows)}


def _example_pescado(cfg: ExperimentConfig):
    E = syndetic_thickening_filter_data(parabola_graph())
    phi = lambda p: np.exp(-E.distance(p))
    # the parametric distance scan is the cost center: keep scales desk-sized
    spec = dict(cfg.asym or {})
    spec.setdefault("scales", (1e2, 1e3))
    spec.setdefault("points_per_scale", 2000)
    spec.setdefault("seed", cfg.seed)
    spec["scales"] = tuple(spec["scales"])
    asym = SamplingSchedule(**spec)
    off_set = limsup_along(phi, ThickenedComplementBase(E), asym, polish=False)
    t = np.linspace(-40.0, 40.0, 2001)
    on_set_sup = float(np.max(phi(E.parametrize(t))))
    # unit normals (-2t, 1)/sqrt(1+4t^2); +s points into the epigraph, -s
    # into the convex side below the graph
    normal = np.stack([-2.0 * t, np.ones_like(t)], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    offsets = []
    for s in (1.0, 2.0, 4.0, 8.0):
        below = float(np.max(phi(E.parametrize(t) - s * normal)))
        above = float(np.max(phi(E.parametrize(t) + s * normal)))
        offsets.append({"s": s, "sup_convex_side": below, "sup_concave_side": above})
    results = {
        "preset": "pescado",
        "set": E.label,
        "function": "exp(-dist(xi, E))",
        "complement_limsup": off_set.as_dict(),
        "on_set_sup": on_set_sup,
        "normal_offset_sups": offsets,
        "note": (
            "convex-side offsets sit at distance exactly s, so their sup decays; "
            "concave-side rays re-cross the graph near t = s/2 (the evolute), so "
            "a distance-only function keeps sup ~ 1 there and the raw normal "
            "envelope is a sufficient test, not a membership test"
        ),
    }
    rows = [[o["s"], o["sup_convex_side"], o["sup_concave_side"]] for o in offsets]
    print(
        f"[run] pescado: on-set sup {on_set_sup:.4f}, off-thickening limsup "
        f"{off_set.value:.2e}, convex-side sup at s=8: "
        f"{offsets[-1]['sup_convex_side']:.2e}"
    )
    return results, _flags(), {
        "sups_by_scale.csv": (["scale", "sup_complement"], list(zip(off_set.scales, off_set.per_scale))),
        "normal_offsets.csv": (["s", "sup_convex_side", "sup_concave_side"], rows),
    }


def _example_cesaro(cfg: ExperimentConfig):
    band = int(cfg.band or 4096)
    grid = GroupGrid.truncated_integers(band)
    radii = [2**k for k in range(4, band.bit_length()) if 2**k <= band]
    res = cesaro_mean(dyadic_indicator(), ball_exhaustion(grid, radii))
    # upper gaps give means ~ (log2 n)^2 / (4n); 2(log2 n)^2/n is a safe roof
    bound_rows, bound_ok = [], True
    for rad, mean in zip(radii, res.means):
        roof = 2.0 * np.log2(rad) ** 2 / rad if rad >= 64 else None
        if roof is not None and mean > roof:
            bound_ok = False
        bound_rows.append([rad, float(mean), "" if roof is None else roof])
    results = {
        "preset": "cesaro",
        "set": "union of [2^k, 2^k+k]",
        "band": band,
        "means": res.as_dict(),
        "roof": "2*(log2 n)^2/n for n >= 64",
        "roof_respected": bool(bound_ok),
    }
    flags = _flags(
        [] if bound_ok else ["cesaro means exceeded the decay roof"], violation=not bound_ok
    )
    print(
        f"[run] cesaro: final mean {res.means[-1]:.6g} over {len(radii)} balls, "
        f"tail slope {res.tail_slope:.3f}, verdict {res.verdict}"
    )
    return results, flags, {
        "cesaro_means.csv": (["radius", "mean", "roof"], bound_rows)
    }


def _example_sepavar(cfg: ExperimentConfig):
    sched = cfg.truncation_schedule()
    f = tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), *sched.grids(sched.bands[0]))
    lambdas = cfg.lambdas or (-3.0, -1.5, 0.0, 1.5, 3.0, 4.0)
    goh, goh_flags, goh_files = _task_gohberg(cfg, f)
    probe, probe_flags, probe_files = _task_spectrum_probe(cfg, f, lambdas)
    fred, fred_flags, _ = _task_fredholm(cfg, f)
    results = {
        "preset": "sepavar",
        "symbol_id": goh["symbol_id"],
        "schedule": goh["schedule"],
        "sigma_tables": goh["sigma_tables"],
        "ess_norm": goh["ess_norm"],
        "gohberg": goh["gohberg"],
        "weyl": probe["weyl"],
        "fredholm": fred["fredholm"],
    }
    parts = (goh_flags, probe_flags, fred_flags)
    flags = _flags(
        [w for part in parts for w in part["warnings"]],
        violation=any(part["violation"] for part in parts),
        unreliable=any(part["unreliable"] for part in parts),
    )
    return results, flags, {
        "sigma_by_band.csv": goh_files["sigma_by_band.csv"],
        "weyl_by_band.csv": probe_files["sigma_by_band.csv"],
    }


_RUNNERS = {
    "fourier-selftest": _task_fourier_selftest,
    "build-op": _task_build_op,
    "diagram-check": _task_diagram_check,
    "gohberg": _task_gohberg,
    "spectrum-probe": _task_spectrum_probe,
    "fredholm": _task_fredholm,
    "asymptotics": _task_asymptotics,
    "examples:stoskan": _example_stoskan,
    "examples:rradial": _example_rradial,
    "examples:pescado": _example_pescado,
    "examples:cesaro": _example_cesaro,
    "examples:sepavar": _example_sepavar,
}


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for contract
    # violations here, so route usage problems through CliError instead
    def error(self, message):
        raise CliError(message)


def _run(cfg: ExperimentConfig) -> int:
    results, flags, tables = _RUNNERS[cfg.task](cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrices = tables.pop("_matrices", [])
    for name, saver, matrix in matrices:
        saver(matrix, out / name)
        print(f"[write] {out / name}")
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
        print(f"[write] {out / name}")
    report = {
        "meta": {
            "tool": "corona-pdo",
            "schema": 1,
            "task": cfg.task,
            "seed": cfg.seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        "config": {k: v for k, v in cfg.raw.items() if k != "out_dir"},
        "results": results,
        "flags": flags,
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"[write] {report_path}")
    for w in flags["warnings"]:
        print(f"[warn] {w}", file=sys.stderr)
    if flags["violation"]:
        print("[verdict] contract violation present in report", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="corona-pdo",
        description="operator truncation experiments driven by a JSON config",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the config document")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("list-examples", help="print the built-in example presets")

    try:
        args = parser.parse_args(argv)
    except CliError as e:
        print(f"[error] {e}", file=sys.stderr)
        return 1

    if args.command == "list-examples":
        for name in sorted(EXAMPLES):
            print(f"{name:10s} {EXAMPLES[name]}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 1

    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"[error] cannot read config: {e}", file=sys.stderr)
        return 1
    try:
        cfg = ExperimentConfig.from_mapping(doc)
        if args.seed is not None:
            cfg.seed = int(args.seed)
        if args.out is not None:
            cfg.out_dir = args.out
        return _run(cfg)
    except _CONFIG_ERRORS as e:
        print(f"[error] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
