"""Config-driven experiment runner: one JSON config in, one JSON report out.

Every invocation runs a single task from an ExperimentConfig document and
writes ``report.json`` plus task-specific CSV tables into the output
directory.  Exit codes: 0 on success (advisory UNRELIABLE flags print a
warning but do not fail the run), 1 on usage or config errors, on a
report that would hold a NaN or an infinity (no file is then written), on
an array that does not fit in memory and on an output directory or file
that cannot be written, 2 when a computed contract violation is present in
the report — the distance-identity ratio leaving its acceptance band, and
nothing else, is what "violation" means here.

Reports are deterministic for a fixed seed: rerunning the same config
produces byte-identical JSON except for the ``meta.timestamp`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import json
import math
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .asymptotics import (
    AsymptoticsError,
    DirectionalBase,
    IntersectionBase,
    SamplingSchedule,
    StandardBase,
    ThickenedComplementBase,
    liminf_along,
    limsup_along,
)
from .fourier import fourier, inverse_fourier, transform_matrix
from .groups import GridError, GroupGrid, assert_dual_pair, product_group
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
    essential_spectrum_probe,
    fredholm_check,
    gohberg_verify,
)
from .symbols import (
    VO_RADII,
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
    values_profile,
    vanishing_oscillation_test,
    vo_shifts,
)


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


# -- config schema ------------------------------------------------------------------
# The only code that knows the config wire format.  A checker maps a JSON value and
# its dotted path to the coerced value or raises CliError.  A mapping field is
# ``checker`` (left out when absent, so the callee's default applies) or ``(checker,
# default)``, where ``...`` means required; JSON null counts as absent.  A tagged
# table maps each tag to ``(fields, builder)``; builders take the fields as kwargs.


def _bad(where, msg):
    raise CliError(f"{where}: {msg}" if where else msg)


def _num(cast=float, lo=-math.inf, hi=math.inf, strict=False):
    """Finite number in [lo, hi] (above lo if ``strict``), cast to float or int."""
    def check(v, where):
        with contextlib.suppress(TypeError, OverflowError):  # not a number, or too big
            if not isinstance(v, bool) and math.isfinite(v) and cast(v) == v and lo <= v <= hi:
                if not (strict and v == lo):
                    return cast(v)
        span = f"{'(' if strict else '['}{lo}, {hi}]"
        _bad(where, f"expected {'an integer' if cast is int else 'a number'} in {span}, got {v!r}")
    return check


def _complex(v, where):
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # numbers and "1+2j"
        if not isinstance(v, bool) and math.isfinite(abs(complex(v))):
            return complex(v)
    _bad(where, f"expected a finite complex number, got {v!r}")


def _str(*choices):
    def check(v, where):
        if not isinstance(v, str) or (choices and v not in choices):
            _bad(where, f"expected {' | '.join(choices) or 'a string'}, got {v!r}")
        return v
    return check


def _list(item, lo=0, hi=math.inf):
    def check(v, where):
        if not isinstance(v, list) or not lo <= len(v) <= hi:
            _bad(where, f"expected a list of {lo}..{hi} items, got {v!r}")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return check


def _map(fields):
    def check(v, where):
        if not isinstance(v, dict):
            _bad(where, f"expected a mapping, got {v!r}")
        for key in v:
            if key not in fields:
                _bad(where, f"unknown key {key!r} (known: {', '.join(fields)})")
        out = {}
        for key, entry in fields.items():
            checker, default = entry if isinstance(entry, tuple) else (entry, None)
            value = default if v.get(key) is None else v[key]
            if value is ...:
                _bad(where, f"missing required key {key!r}")
            if value is not None:
                out[key] = checker(value, f"{where}.{key}" if where else key)
        return out
    return check


def _tagged(tag, table, default=None, spell=lambda s: None):
    def check(v, where):
        v = (spell(v) or v) if isinstance(v, str) else v
        name = v.get(tag, default) if isinstance(v, dict) else None
        if not isinstance(name, str) or name not in table:
            _bad(where, f"expected a mapping with {tag} in {', '.join(table)}, got {v!r}")
        fields = table[name][0] if callable(table[name][0]) else _map(table[name][0])
        return {tag: name, **fields({k: x for k, x in v.items() if k != tag}, where)}
    return check


def _build(table, tag, spec, *context):
    """Call the builder of ``spec``'s table entry on its coerced fields."""
    return table[spec[tag]][1](*context, **{k: v for k, v in spec.items() if k != tag})


_REAL, _NONNEG, _POS = _num(), _num(lo=0), _num(lo=0, strict=True)
_SEED = _num(int, 0)


def _task(v, where):
    return _str(*_RUNNERS)(v, where)  # the runner registry is defined last


def _ratio_band(v, where):
    lo, hi = _list(_REAL, 2, 2)(v, where)  # v is kept as given: the report echoes it
    return v if lo <= hi else _bad(where, f"lower end {lo} exceeds upper end {hi}")


def _direction(v, where):
    # a point of the dual: the one tuple a coerced spec holds, so _fit_dual finds it
    v = tuple(_list(_REAL, 1, 8)(v, where))
    return v if any(v) else _bad(where, "must be a nonzero vector")


def _spell_psi(s):
    with contextlib.suppress(ValueError):
        if s.startswith("vo:pow:"):
            return {"family": "vo:pow", "alpha": float(s[7:])}
    return {"family": s} if s in ("vo:sqrt", "dirdecay", "cesaro-indicator") else None


_PSIS = {
    "vo:sqrt": ({}, sqrt_wave),
    "vo:pow": ({"alpha": (_NONNEG, ...)}, power_wave),
    "vo:shifted": ({"offset": (_REAL, ...), "alpha": _NONNEG}, shifted_wave),
    "dirdecay": ({"omega0": (_direction, [0.0, 1.0]), "rate": _NONNEG}, directional_decay_symbol),
    "cesaro-indicator": ({}, dyadic_indicator),
    "c0:inv": ({"power": _NONNEG}, inverse_decay),
    "const": ({"value": (_complex, 1.0)}, constant_closure),
}
_GAMMAS = {
    "const": ({"value": _complex}, const_profile),
    "cos-offset": ({"offset": _REAL, "amplitude": _REAL, "frequency": _num(int)}, cos_profile),
    "values": ({"data": (_list(_complex, 1), ...)}, values_profile),
}
_PSI = _tagged("family", _PSIS, spell=_spell_psi)
_GAMMA = _tagged("profile", _GAMMAS, "const")
_TERM = _map({"gamma": (_GAMMA, {}), "psi": (_PSI, ...)})


def _tensor_fields(v, where):
    # the one-term spelling {gamma, psi} normalises to {terms: [{gamma, psi}]}
    spec = _map({"terms": _list(_TERM, 1), "gamma": _GAMMA, "psi": _PSI})(v, where)
    return {"terms": spec.get("terms") or [_TERM(spec, where)]}


_SYMBOLS = {
    **{name: (fields, None) for name, (fields, _) in _PSIS.items()},
    "tensor": (_tensor_fields, lambda xg, xig, terms: TensorSymbol(xg, xig, [
        (_build(_GAMMAS, "profile", t["gamma"]), _build(_PSIS, "family", t["psi"])) for t in terms
    ])),
    "csv": ({"path": (_str(), ...)}, lambda xg, xig, path: load_symbol_csv(path, xg, xig)),
}
_SETS = {"halfline": ({"a": _REAL}, halfline_set), "parabola": ({}, parabola_graph)}
_BASES = {
    "standard": ({"extra_directions": _list(_direction, 1)}, StandardBase),
    "directional": (
        {"omega0": (_direction, ...), "aperture_scale": _POS},
        lambda dim, **kw: DirectionalBase(**kw),
    ),
    "ethick": (_tagged("set", _SETS, "halfline"),
               lambda dim, **e: ThickenedComplementBase(_build(_SETS, "set", e))),
    "intersection": ({"parts": (_list(lambda v, where: _BASE(v, where), 1), ...)},
                     lambda dim, parts: IntersectionBase(*[base_from_config(p, dim) for p in parts])),
}
_GROUPS = {
    "finite_cyclic": ({"n": (_num(int, 1), ...), "weight": _POS}, GroupGrid.finite_cyclic),
    "torus": ({"samples": (_num(int, 2), ...)}, GroupGrid.torus),
    "truncated_integers": ({"band": (_num(int, 1), ...)}, GroupGrid.truncated_integers),
    "line": ({"step": (_POS, ...), "extent": (_POS, ...)}, GroupGrid.line),
    "product": ({"factors": (_list(lambda v, where: _GROUP(v, where), 1), ...)},
                lambda factors: product_group(*(_build(_GROUPS, "kind", f) for f in factors))),
}
_SYMBOL = _tagged("family", _SYMBOLS, spell=_spell_psi)
_BASE = _tagged("kind", _BASES, "standard", spell=lambda s: {"kind": s} if s == "standard" else None)
_GROUP = _tagged("kind", _GROUPS)


# 10^8 points a scale stream in seconds a scale; far past it a run would take hours
_ASYM = {"scales": _list(_POS, 1), "points_per_scale": _num(int, 16, 10**8),
         "span": _num(lo=1, strict=True)}
# every top-level key: a key no task reads is an error, one another task reads is ignored
_FIELDS = {
    "schema": (_num(int, 1, 1), ...),
    "task": (_task, ...),
    "seed": (_SEED, 0),
    "out_dir": (_str(), "."),
    "group": _GROUP,
    "band": _num(int, 1),
    "symbol": _SYMBOL,
    "base": (_BASE, "standard"),
    "schedule": (_map({"bands": _list(_num(int, 4)), "oversampling": _num(int, 2)}), {}),
    "asym": (_map(_ASYM), {}),
    "lambdas": _list(_complex),
    "tolerances": (_map({  # the spectral ones default in the spectral signatures
        "plancherel": (_NONNEG, 1e-10),  # fourier-selftest
        "diagram": (_NONNEG, 1e-10),  # diagram-check
        "ratio_band": _ratio_band, "zero_tol": _NONNEG,  # gohberg
        "support_tol": _NONNEG,  # spectrum-probe
        "floor_tol": _NONNEG, "margin_factor": _NONNEG,  # fredholm
    }), {}),
    "matrix_format": (_str("bin", "csv", "both"), "bin"),
    "psi": _PSI,  # asymptotics
    "dim": (_num(int, 1, 8), 1),  # asymptotics
    "vo": (lambda v, where: ({} if v else None) if isinstance(v, bool) else _map(  # asymptotics
        {"shifts": _list(_direction, 1), "radii": _list(_POS, 1)}  # true: default shifts and radii
    )(v, where) or None, False),  # false or {}: no oscillation profile
}
# per task: the keys it requires, and the keys it checks more narrowly than _FIELDS
_REQUIRED = {
    "fourier-selftest": "group", "build-op": "group symbol", "diagram-check": "group symbol",
    "gohberg": "symbol", "spectrum-probe": "symbol lambdas", "fredholm": "symbol",
    "asymptotics": "psi",
}
_NARROWER = {
    "spectrum-probe": {"lambdas": _list(_complex, 1)},
    "examples:sepavar": {"lambdas": (_list(_complex, 1), [-3.0, -1.5, 0.0, 1.5, 3.0, 4.0])},
    # >= 32: two balls (16, 32); <= 2^30: a minute of streaming, where 10^15 takes years
    "examples:cesaro": {"band": (_num(int, 32, 2**30), 4096)},
    # two scales of 2000 points unless set, key by key
    "examples:pescado": {"asym": (_map({
        **_ASYM, "scales": (_ASYM["scales"], [1e2, 1e3]),
        "points_per_scale": (_ASYM["points_per_scale"], 2000),
    }), {})},
}


def _fit_dual(spec, dim: int, where: str):
    """``spec`` as coerced, once every direction in it (any depth) is a point of a
    ``dim``-d dual; CliError names the first one that is not."""
    if isinstance(spec, tuple) and len(spec) != dim:
        raise CliError(f"{where} has {len(spec)} coordinates; the dual is {dim}-d")
    if isinstance(spec, (dict, list)):
        for key, child in spec.items() if isinstance(spec, dict) else enumerate(spec):
            _fit_dual(child, dim, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")
    return spec


def symbol_from_config(spec, xgrid: GroupGrid, xigrid: GroupGrid):
    """Symbol from a symbol spec as ``_SYMBOL`` coerced it."""
    _fit_dual(spec, xigrid.ndim, "symbol")
    if _SYMBOLS[spec["family"]][1] is None:  # a psi family: the multiplier psi(xi)
        return multiplier_symbol(_build(_PSIS, "family", spec), xgrid, xigrid)
    return _build(_SYMBOLS, "family", spec, xgrid, xigrid)


def base_from_config(spec, dim: int):
    """Filter base on a ``dim``-d dual from a base spec as ``_BASE`` coerced it."""
    base = _build(_BASES, "kind", _fit_dual(spec, dim, "base"), dim)
    if base.dim != dim:  # a parabola, say, whose plane is no 1-d dual
        raise AsymptoticsError(f"filter base {base.label} does not fit a {dim}-d dual")
    return base


class ExperimentConfig(SimpleNamespace):
    """One experiment as ``from_mapping`` coerced it: an attribute per key of the table
    above (None when absent), plus ``raw``, the document as given, for the report."""

    @staticmethod
    def from_mapping(doc) -> "ExperimentConfig":
        """Check and coerce a config document; CliError names the first bad key."""
        if not isinstance(doc, dict):
            raise CliError("config must be a JSON object")
        task = _task(doc.get("task"), "task")
        fields = {**_FIELDS, **_NARROWER.get(task, {})}
        fields.update({key: (fields[key], ...) for key in _REQUIRED.get(task, "").split()})
        spec = _map(fields)(doc, "")
        return ExperimentConfig(**{**dict.fromkeys(_FIELDS), **spec, "raw": doc})

    # -- resolved pieces ---------------------------------------------------

    def truncation_schedule(self) -> TruncationSchedule:
        return TruncationSchedule(**self.schedule)

    def sampling_schedule(self) -> SamplingSchedule:
        return SamplingSchedule(seed=self.seed, **self.asym)

    def grids(self):
        """(x grid, dual grid): the configured group, else the schedule's base rung."""
        if self.group is not None:
            xg = _build(_GROUPS, "kind", self.group)
            xig = xg.dual() if self.band is None else GroupGrid.truncated_integers(self.band)
            try:  # a band truncates the dual, under the group's Nyquist limit
                assert_dual_pair(xg, xig)
            except GridError as e:
                raise CliError(f"band: {e}") from None
            return xg, xig
        sched = self.truncation_schedule()
        return sched.grids(sched.bands[0])

    def tols(self, *keys) -> dict:
        """The named tolerances the config sets; unset ones keep the callee's default."""
        return {k: self.tolerances[k] for k in keys if k in self.tolerances}


# -- report plumbing -------------------------------------------------------------


def _grid_spec(grid: GroupGrid) -> dict:
    """A grid as a config spells it: each factor's params under its ``_GROUPS``
    field names, a weight of 1 left out."""
    specs = [{"kind": f.kind, **dict(zip(_GROUPS[f.kind][0], f.params))} for f in grid.factors]
    for spec in specs:
        if spec.get("weight") == 1.0:
            del spec["weight"]
    return specs[0] if len(specs) == 1 else {"kind": "product", "factors": specs}


def _symbol_id(symbol) -> str:
    terms = symbol.tensor_terms
    if terms is None:
        return "table"
    names = (f"gamma(sup={np.max(np.abs(gv)):g}) x {psi.name or 'psi'}" for gv, psi in terms)
    return " + ".join(names)


def _write_whole(path: Path, write) -> None:
    """Call write on a temporary name next to path and rename it to path once
    write returns: a writer that fails part-way leaves neither file."""
    part = path.with_name(path.name + ".tmp")
    try:
        write(part)
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(c) for c in row])


def _cell(c):
    # np.float64 is a float whose repr reads "np.float64(...)": convert first
    if isinstance(c, (float, np.floating, np.integer)):
        return repr(float(c))
    return c


def _report_value(obj):
    """JSON for what the report holds besides JSON types: a result record as its
    fields, a numpy array or scalar as Python values.  Anything else is an error."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"report.json cannot hold a {type(obj).__name__}")


def _flags(warnings=(), violation=False, unreliable=False) -> dict:
    return {
        "violation": bool(violation),
        "unreliable": bool(unreliable),
        "warnings": list(warnings),
    }


def _fit_csv_rows(fits: dict) -> tuple:
    scales = next(iter(fits.values())).scales
    header = ["scale"] + [f"sup_{k}" for k in fits]
    return header, list(zip(scales, *(f.per_scale for f in fits.values())))


# -- plain tasks -------------------------------------------------------------------


def _task_fourier_selftest(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    if xig != xg.dual():  # the drawn data is not band-limited: Plancherel cannot hold
        raise CliError(f"fourier-selftest needs the full dual; band {cfg.band} truncates it")
    n = xg.size
    rng = np.random.default_rng(cfg.seed)
    values = np.empty(n, dtype=complex)
    values.real = rng.standard_normal(n)
    values.imag = rng.standard_normal(n)
    nu = xg.norm(values)
    dense = xg.is_finite_kind and n <= 2048  # the DFT-matrix check reads values after F
    v = fourier(values, xg, xig, overwrite=not dense)
    plancherel = abs(nu**2 - xig.norm(v) ** 2) / nu**2
    if dense:  # F @ values in blocks of 2 MB of rows of F, never the whole matrix
        step = max((1 << 17) // n, 1)
        Fv = np.empty(n, dtype=complex)
        for s in range(0, n, step):
            Fv[s : s + step] = transform_matrix(xg, xig, slice(s, s + step)) @ values
        gap = np.linalg.norm(Fv - v) / np.linalg.norm(v)
    del values  # overwritten by the transform unless dense
    w = inverse_fourier(v, xig, xg, overwrite=True)
    # subtract the same draw again, one part at a time: no second complex vector
    rng = np.random.default_rng(cfg.seed)
    w.real -= rng.standard_normal(n)
    w.imag -= rng.standard_normal(n)
    roundtrip = xg.norm(w) / nu
    results = {
        "group": _grid_spec(xg),
        "dual": _grid_spec(xig),
        "size": n,
        "plancherel_defect": float(plancherel),
        "roundtrip_defect": float(roundtrip),
    }
    if dense:
        results["matrix_agreement"] = float(gap)
    tol = cfg.tolerances["plancherel"]
    results["tolerance"] = tol
    bad = plancherel > tol or roundtrip > tol
    flags = _flags(["transform self-test exceeded tolerance"] if bad else [], violation=bad)
    print(f"[run] fourier-selftest on {xg.size} points: plancherel {plancherel:.3e}")
    return results, flags, {}


def _task_build_op(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    f = symbol_from_config(cfg.symbol, xg, xig)
    m = op_matrix(f)
    files = {}
    if cfg.matrix_format in ("bin", "both"):
        files["operator.bin"] = lambda path: save_matrix_bin(m, path)
    if cfg.matrix_format in ("csv", "both"):
        files["operator.csv"] = lambda path: save_matrix_csv(m, path)
    results = {
        "symbol_id": _symbol_id(f),
        "group": _grid_spec(xg),
        "dual": _grid_spec(xig),
        "shape": list(m.shape),
        "hs_norm": hs_norm(m),
        "files": list(files),
    }
    print(f"[run] build-op: {m.shape[0]}x{m.shape[1]} matrix, hs norm {results['hs_norm']:.6g}")
    return results, _flags(), files


def _task_diagram_check(cfg: ExperimentConfig):
    xg, xig = cfg.grids()
    f = symbol_from_config(cfg.symbol, xg, xig)
    residual = diagram_check(f)
    tol = cfg.tolerances["diagram"]
    results = {
        "symbol_id": _symbol_id(f),
        "group": _grid_spec(xg),
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


def _spectral_inputs(cfg: ExperimentConfig):
    sched = cfg.truncation_schedule()
    f = symbol_from_config(cfg.symbol, *cfg.grids())
    base = base_from_config(cfg.base, f.xigrid.ndim)
    return f, sched, base


def _task_gohberg(cfg: ExperimentConfig):
    f, sched, base = _spectral_inputs(cfg)
    asym = cfg.sampling_schedule()
    est, rep = gohberg_verify(f, sched, base, asym, **cfg.tols("ratio_band", "zero_tol"))
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": sched,
        "base": base.label,
        "ess_norm": est,
        "gohberg": rep,
    }
    warnings = list(rep.notes)
    if rep.unreliable:
        warnings.append("report is UNRELIABLE: the identity is not claimed for this input")
    flags = _flags(warnings, violation=rep.violation, unreliable=rep.unreliable)
    ratio_txt = "n/a" if rep.ratio is None else f"{rep.ratio:.4f}"
    print(
        f"[run] gohberg: estimate {rep.estimate:.6g}, rhs {rep.rhs:.6g}, ratio {ratio_txt}"
    )
    rows = list(zip(sched.bands, est.shell_dims, est.fit.per_scale))
    return results, flags, {"sigma_by_band.csv": (["band", "shell_dim", "sigma_top"], rows)}


def _task_spectrum_probe(cfg: ExperimentConfig):
    f, sched, base = _spectral_inputs(cfg)
    probe = essential_spectrum_probe(f, cfg.lambdas, sched, base, **cfg.tols("support_tol"))
    weyl = [
        {"lambda": lam.real if lam.imag == 0 else str(lam), "traj": list(traj), "verdict": v}
        for lam, traj, v in zip(cfg.lambdas, probe.sigma_min_table, probe.verdicts)
    ]
    rows = [
        [w["lambda"], band, s] for w in weyl for band, s in zip(sched.bands, w["traj"])
    ]
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": sched,
        "base": base.label,
        "scale": probe.scale,
        "weyl": weyl,
    }
    counts = {v: probe.verdicts.count(v) for v in sorted(set(probe.verdicts))}
    print(f"[run] spectrum-probe over {len(cfg.lambdas)} points: {counts}")
    return results, _flags(), {"sigma_by_band.csv": (["lambda", "band", "sigma_min"], rows)}


def _task_fredholm(cfg: ExperimentConfig):
    f, sched, base = _spectral_inputs(cfg)
    res = fredholm_check(
        f,
        base,
        sched,
        cfg.sampling_schedule(),
        **cfg.tols("floor_tol", "margin_factor"),
    )
    results = {
        "symbol_id": _symbol_id(f),
        "schedule": sched,
        "fredholm": res,
    }
    rows = [[band, s] for band, s in zip(sched.bands, res.sigma_min_full)]
    floor = "none" if res.floor is None else f"{res.floor:.6g}"
    print(f"[run] fredholm: {res.verdict} (floor {floor})")
    return results, _flags(res.notes), {"sigma_by_band.csv": (["band", "sigma_min"], rows)}


def _task_asymptotics(cfg: ExperimentConfig):
    psi = _build(_PSIS, "family", _fit_dual(cfg.psi, cfg.dim, "psi"))
    base = base_from_config(cfg.base, cfg.dim)
    _fit_dual(cfg.vo, cfg.dim, "vo")
    asym = cfg.sampling_schedule()
    phi = lambda p: np.abs(psi(p))
    hi = limsup_along(phi, base, asym)
    lo = liminf_along(phi, base, asym)
    results = {
        "psi": psi.name,
        "base": base.label,
        "limsup": hi,
        "liminf": lo,
    }
    if cfg.vo is not None:
        shifts = cfg.vo.get("shifts", vo_shifts(cfg.dim))
        radii = cfg.vo.get("radii", VO_RADII)
        results["vo"] = vanishing_oscillation_test(psi, shifts, radii, seed=cfg.seed)
    header, rows = _fit_csv_rows({"limsup": hi, "liminf": lo})
    print(f"[run] asymptotics: limsup {hi.value:.6g}, liminf {lo.value:.6g} along {base.label}")
    return results, _flags(), {"sups_by_scale.csv": (header, rows)}


# -- example presets ---------------------------------------------------------------


def _limsups(rows: dict, asym: SamplingSchedule):
    """A preset's limsups: each ``name: (phi, base)`` row, in order, through
    ``limsup_along``, as the report blocks ``<name>_limsup``, the side file
    ``sups_by_scale.csv`` with columns ``sup_<name>``, and a summary."""
    fits = {name: limsup_along(phi, base, asym) for name, (phi, base) in rows.items()}
    summary = ", ".join(f"{name} limsup {fit.value:.3g}" for name, fit in fits.items())
    blocks = {f"{name}_limsup": fit for name, fit in fits.items()}
    return blocks, {"sups_by_scale.csv": _fit_csv_rows(fits)}, summary


def _example_stoskan(cfg: ExperimentConfig):
    """one-sided ideal on R: vanishing at +inf only, plus a slow-wave oscillation certificate"""
    mod = lambda p: np.exp(-np.maximum(p[:, 0], 0.0))  # positive: its own modulus
    blocks, files, summary = _limsups({
        "standard": (mod, StandardBase(1)),
        "onesided": (mod, ThickenedComplementBase(halfline_set(0.0))),
    }, cfg.sampling_schedule())
    # slow wave sin(sqrt|xi|): the beta' -> 0 membership certificate
    prof = vanishing_oscillation_test(sqrt_wave(), vo_shifts(1), VO_RADII, seed=cfg.seed)
    results = {"preset": "stoskan", "function": "exp(-max(xi,0))", **blocks,
               "slow_wave_oscillation": prof}
    print(f"[run] stoskan: {summary}, slow wave {prof.verdict}")
    return results, _flags(), files


def _example_rradial(cfg: ExperimentConfig):
    """directional-at-infinity ideal on R^2/R^3: decay inside a cone that the standard base misses"""
    psi = directional_decay_symbol([0.0, 1.0])
    mod = lambda p: np.abs(psi(p))

    # 3-d cone-flattening: psi3 -> 1 along omega0 = (1,0,0), so |1 - psi3|
    # vanishes directionally even though psi3 has no limit at infinity
    def flat(p):
        x1 = np.maximum(p[:, 0], 1.0)
        return np.abs(1.0 - np.cos(x1**-2.0 * np.cos(p[:, 1] + p[:, 2])))

    blocks, files, summary = _limsups({
        "directional": (mod, DirectionalBase([0.0, 1.0])),
        "standard": (mod, StandardBase(2)),
        "orthogonal": (mod, DirectionalBase([1.0, 0.0])),
        "cone_flattening": (flat, DirectionalBase([1.0, 0.0, 0.0])),
    }, cfg.sampling_schedule())
    print(f"[run] rradial: {summary}")
    return {"preset": "rradial", "function": psi.name, **blocks}, _flags(), files


def _example_pescado(cfg: ExperimentConfig):
    """non-syndetic parabola graph in R^2: vanishing off the thickened set, sup 1 on the set"""
    E = parabola_graph()
    phi = lambda p: np.exp(-E.distance(p))
    blocks, files, summary = _limsups(
        {"complement": (phi, ThickenedComplementBase(E))}, cfg.sampling_schedule()
    )
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
        **blocks,
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
        f"[run] pescado: {summary}, on-set sup {on_set_sup:.4f}, "
        f"convex-side sup at s=8: {offsets[-1]['sup_convex_side']:.2e}"
    )
    files["normal_offsets.csv"] = (["s", "sup_convex_side", "sup_concave_side"], rows)
    return results, _flags(), files


def _example_cesaro(cfg: ExperimentConfig):
    """density ideal on Z: dyadic block indicator with Cesaro means -> 0"""
    band = cfg.band
    grid = GroupGrid.truncated_integers(band + 1)  # -band-1..band: holds the ball |xi| <= band
    radii = [2**k for k in range(4, band.bit_length())]  # every 2^k <= band from 16
    res = cesaro_mean(dyadic_indicator(), grid, radii)
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
        "means": res,
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
    return results, flags, {"cesaro_means.csv": (["radius", "mean", "roof"], bound_rows)}


def _example_sepavar(cfg: ExperimentConfig):
    """separated-variables flagship: full ladder, distance identity, spectrum probe, Fredholm"""
    # the three tasks on a copy of cfg: the flagship symbol on the schedule's grids
    gamma = {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0}
    symbol = _SYMBOL({"family": "tensor", "gamma": gamma, "psi": "vo:sqrt"}, "symbol")
    flagship = ExperimentConfig(**{**vars(cfg), "group": None, "symbol": symbol})
    tasks = (_task_gohberg, _task_spectrum_probe, _task_fredholm)
    blocks, parts, files = zip(*(task(flagship) for task in tasks))
    # the union of the runners' blocks; every runner's flags come from _flags:
    # a list concatenates, a flag is set if any is
    results = {"preset": "sepavar"}
    for block in blocks:
        results.update(block)
    flags = {k: sum((p[k] for p in parts), []) if isinstance(v, list) else any(p[k] for p in parts)
             for k, v in parts[0].items()}
    return results, flags, {
        "sigma_by_band.csv": files[0]["sigma_by_band.csv"],
        "weyl_by_band.csv": files[1]["sigma_by_band.csv"],
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
    # numpy's floating-point warnings are recorded, not printed: the first one
    # names the cause of a refused report, and a finished run lists them as [warn]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        # a side file is (header, rows) for a CSV table or a writer taking the path
        results, flags, side_files = _RUNNERS[cfg.task](cfg)
    numpy_warnings = list(dict.fromkeys(str(w.message) for w in caught))
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
    try:  # strict JSON: a NaN or an infinity ends the run before any file is written
        text = json.dumps(
            report, sort_keys=True, indent=2, default=_report_value, allow_nan=False
        )
    except ValueError:
        cause = f" (first numpy warning: {numpy_warnings[0]})" if numpy_warnings else ""
        raise CliError(f"{cfg.task}: the report would hold a NaN or an infinity{cause}") from None
    out = Path(cfg.out_dir)
    try:  # an output directory that is a file, or lies under one, is a config error
        out.mkdir(parents=True, exist_ok=True)
        for name, side in side_files.items():
            _write_whole(out / name, side if callable(side) else lambda p, s=side: _write_csv(p, *s))
            print(f"[write] {out / name}")
        report_path = out / "report.json"
        _write_whole(report_path, lambda p: p.write_text(text + "\n"))
    except OSError as e:
        raise CliError(f"cannot write output: {e}") from None
    print(f"[write] {report_path}")
    for w in flags["warnings"] + [f"numpy: {w}" for w in numpy_warnings]:
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
        if args.command == "list-examples":
            for task in sorted(t for t in _RUNNERS if t.startswith("examples:")):
                print(f"{task[9:]:10s} {_RUNNERS[task].__doc__}")
            return 0
        if args.command != "run":
            parser.print_usage(sys.stderr)
            return 1
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"cannot read config: {e}") from None
        cfg = ExperimentConfig.from_mapping(doc)
        if args.seed is not None:
            cfg.seed = _SEED(args.seed, "--seed")
        if args.out is not None:
            cfg.out_dir = args.out
        return _run(cfg)
    except _CONFIG_ERRORS as e:
        print(f"[error] {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"[error] out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
