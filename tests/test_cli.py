"""End-to-end runner checks: configs in, reports/CSVs/exit codes out."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from corona_pdo import cli, pdo
from corona_pdo.asymptotics import AsymptoticsError, SamplingSchedule, StandardBase, limsup_along
from corona_pdo.cli import (
    _BASE,
    _CONFIG_ERRORS,
    _SYMBOL,
    CliError,
    ExperimentConfig,
    _report_value,
    base_from_config,
    main,
    symbol_from_config,
)
from corona_pdo.groups import GroupGrid
from corona_pdo.pdo import load_matrix_bin, op_matrix
from corona_pdo.spectral import (
    EssentialNormResult,
    FredholmResult,
    GohbergReport,
    TruncationSchedule,
    gohberg_verify,
)
from corona_pdo.symbols import (
    VO_RADII,
    DualClosure,
    cesaro_mean,
    cos_profile,
    dyadic_indicator,
    multiplier_symbol,
    sqrt_wave,
    tensor_symbol,
    vanishing_oscillation_test,
    vo_shifts,
)

FLAGSHIP = {
    "family": "tensor",
    "gamma": {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0},
    "psi": "vo:sqrt",
}


def _write(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(tmp_path, doc, extra=()):
    out = tmp_path / "out"
    code = main(["run", "--config", _write(tmp_path, doc), "--out", str(out), *extra])
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, report, out


def test_list_examples_prints_catalog(capsys):
    assert main(["list-examples"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 5
    for name in ("stoskan", "rradial", "pescado", "cesaro", "sepavar"):
        assert any(l.startswith(name) for l in lines)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # missing --config
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad)]) == 1
    capsys.readouterr()


NAN = float("nan")
LINE = {"kind": "line", "step": 0.3, "extent": 6.0}
TORUS_2D = {"kind": "product", "factors": [{"kind": "torus", "samples": 8}] * 2}
# bad configs whose error line names the entry at fault: band 16..31 holds one
# dyadic ball, which has no tail slope
CESARO_ONE_BALL = {"task": "examples:cesaro", "band": 16}
# the preset streams the whole band: 10^15 would run for years
CESARO_HUGE = {"task": "examples:cesaro", "band": 1e15}
EXTRA_3D = {
    "task": "asymptotics", "dim": 2,
    "base": {"kind": "standard", "extra_directions": [[1, 0, 0]]},
}
NESTED_3D = {**EXTRA_3D, "base": {"kind": "intersection", "parts": ["standard", EXTRA_3D["base"]]}}
# 64 values fit the first rung's x grid (4 x 16 points) and no later one
VALUES_LADDER = {"symbol": {"family": "tensor", "gamma": {"profile": "values", "data": [1.0] * 64},
                            "psi": "vo:sqrt"}}
# a band truncates the dual of a torus, under its Nyquist limit: Z_16 is its own dual,
# and band 9 is past torus(16)'s limit 8
BAND_CYCLIC = {"task": "build-op", "group": {"kind": "finite_cyclic", "n": 16}, "band": 4}
BAND_NYQUIST = {"task": "build-op", "group": {"kind": "torus", "samples": 16}, "band": 9}
# a zero shift has no oscillation to measure: every profile entry would read 0, a vacuous PASS
VO_ZERO = {"task": "asymptotics", "psi": "vo:pow:2", "vo": {"shifts": [[0]]}}
# directions of the plane on a 1-d dual: a psi's default omega0, a second term's psi,
# a vo shift and a cone axis, each named by its path
PSI_2D = {"task": "asymptotics", "psi": "dirdecay"}
TERM_2D = {"symbol": {"family": "tensor", "terms": [{"psi": "vo:sqrt"}, {"psi": "dirdecay"}]}}
VO_2D = {"task": "asymptotics", "vo": {"shifts": [[1, 0]]}}
CONE_2D = {"task": "asymptotics", "base": {"kind": "directional", "omega0": [0, 1]}}


def _bad_doc(patch):
    """A gohberg config on small ladders, with psi for the tasks a patch switches to."""
    return {
        "schema": 1,
        "task": "gohberg",
        "symbol": "vo:sqrt",
        "psi": "vo:sqrt",
        "schedule": {"bands": [16, 32, 64]},
        "asym": {"points_per_scale": 500},
        **patch,
    }


@pytest.mark.parametrize(
    "patch",
    [
        # ids symbol0/symbol1: the symbol spec cases this test started with
        pytest.param(
            {"symbol": {"family": "tensor", "gamma": {"profile": "cos-offset"}}}, id="symbol0"
        ),
        pytest.param({"symbol": {"family": "csv", "path": "nope.csv"}}, id="symbol1"),
        pytest.param({"seed": "abc"}, id="seed-str"),
        pytest.param({"seed": 1.7}, id="seed-fraction"),
        pytest.param({"seed": True}, id="seed-bool"),
        pytest.param({"tolerances": [1]}, id="tolerances-list"),
        pytest.param({"tolerances": {"zero_tol": "x"}}, id="zero_tol-str"),
        pytest.param({"tolerances": {"ratio_band": [0.9]}}, id="ratio_band-short"),
        pytest.param({"tolerances": {"ratio_band": [NAN, 1.2]}}, id="ratio_band-nan"),
        pytest.param({"tolerances": {"ratio_band": [1.15, 0.85]}}, id="ratio_band-reversed"),
        pytest.param({"tolerances": {"ratio_bnd": [0.85, 1.15]}}, id="tolerance-typo"),
        pytest.param({"schedule": [16, 32, 64]}, id="schedule-list"),
        pytest.param({"schedule": {"bands": [16, 32, 64], "oversample": 4}}, id="schedule-typo"),
        pytest.param({"schedule": {"bands": "abc"}}, id="bands-str"),
        pytest.param({"asym": {"points": 500}}, id="asym-typo"),
        pytest.param({"asym": {"points_per_scale": "many"}}, id="points-str"),
        pytest.param({"asym": {"span": 0}}, id="span-zero"),
        # one seed per run: a second one here would not follow --seed
        pytest.param(
            {"task": "asymptotics", "asym": {"points_per_scale": 200, "seed": 3}}, id="asym-seed"
        ),
        pytest.param({"task": "spectrum-probe", "lambdas": "abc"}, id="lambdas-str"),
        pytest.param({"task": "spectrum-probe", "lambdas": ["x"]}, id="lambda-str"),
        # an empty list would probe the preset's default lambdas under a report echoing []
        pytest.param({"task": "examples:sepavar", "lambdas": []}, id="sepavar-lambdas-empty"),
        # band 8's shell |eta| > 4 holds 7 points, under the 8 a rung needs
        pytest.param({"schedule": {"bands": [8, 16, 32]}}, id="shell-degenerate"),
        pytest.param({"band": "x"}, id="band-str"),
        pytest.param({"group": "cyclic"}, id="group-str"),
        pytest.param({"group": {"kind": "finite_cyclic"}}, id="group-no-n"),
        pytest.param({"symbol": [1]}, id="symbol-list"),
        pytest.param({"symbol": {"family": "vo:pow", "alpha": "x"}}, id="alpha-str"),
        pytest.param({"task": "asymptotics", "base": [1]}, id="base-list"),
        pytest.param({"task": "asymptotics", "base": {"kind": "directional"}}, id="base-no-omega0"),
        # no base samples the density filter: the kind is refused, not run as the standard base
        pytest.param({"task": "asymptotics", "base": {"kind": "density"}}, id="base-density"),
        pytest.param({"task": "asymptotics", "dim": "two"}, id="dim-str"),
        pytest.param({"task": "asymptotics", "vo": [1]}, id="vo-list"),
        pytest.param(
            {"task": "asymptotics", "base": {"kind": "directional", "omega0": [0, 1]}},
            id="omega0-2d-dim-1",
        ),
        pytest.param({"task": "examples:cesaro", "band": "big"}, id="cesaro-band-str"),
        # float64 cannot resolve xi + 0.5 out there: sin|xi| would read as oscillation-free
        pytest.param(
            {"task": "asymptotics", "psi": "vo:pow:1", "vo": {"radii": [100, 1e17]}},
            id="vo-radius-unresolvable",
        ),
        pytest.param({"task": "asymptotics", "asym": {"scales": [1e300]}}, id="scale-unresolvable"),
        # every ladder rung is a 1-d torus: on another group the report would name a
        # group its numbers were not computed on
        pytest.param({"group": LINE}, id="ladder-line"),
        pytest.param({"task": "spectrum-probe", "group": LINE, "lambdas": [0.0]}, id="probe-line"),
        pytest.param({"group": TORUS_2D}, id="ladder-torus2"),
        pytest.param({"task": "fredholm", "group": TORUS_2D}, id="fredholm-torus2"),
        pytest.param({"out_dir": [1]}, id="out_dir-list"),
        pytest.param({"schedul": {"bands": [16, 32, 64]}}, id="top-level-typo"),
    ],
)
def test_bad_symbol_spec_exits_one(tmp_path, capsys, patch):
    code, report, _ = _run(tmp_path, _bad_doc(patch))
    assert code == 1
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("[error] ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "patch, line",
    [
        (CESARO_ONE_BALL, "band: expected an integer in [32, 1073741824], got 16"),
        (CESARO_HUGE, "band: expected an integer in [32, 1073741824], got 1000000000000000.0"),
        (EXTRA_3D, "base.extra_directions[0] has 3 coordinates; the dual is 2-d"),
        (NESTED_3D, "base.parts[1].extra_directions[0] has 3 coordinates; the dual is 2-d"),
        (VALUES_LADDER, "gamma gives 64 values on 128 x points"),
        (BAND_CYCLIC, "band: factor 0: dual of finite_cyclic is finite_cyclic, got truncated_integers"),
        (BAND_NYQUIST, "band: factor 0: band 9 exceeds Nyquist 8"),
        (VO_ZERO, "vo.shifts[0]: must be a nonzero vector"),
        (PSI_2D, "psi.omega0 has 2 coordinates; the dual is 1-d"),
        (TERM_2D, "symbol.terms[1].psi.omega0 has 2 coordinates; the dual is 1-d"),
        (VO_2D, "vo.shifts[0] has 2 coordinates; the dual is 1-d"),
        (CONE_2D, "base.omega0 has 2 coordinates; the dual is 1-d"),
    ],
    ids=["cesaro-band-one-ball", "cesaro-band-huge", "extra-direction", "extra-direction-nested",
         "gamma-values-ladder", "band-cyclic", "band-past-nyquist", "vo-zero-shift",
         "psi-omega0-2d", "term-omega0-2d", "vo-shift-2d", "cone-axis-2d"],
)
def test_bad_config_error_names_its_entry(tmp_path, capsys, patch, line):
    code, report, _ = _run(tmp_path, _bad_doc(patch))
    assert (code, report) == (1, None)
    assert capsys.readouterr().err == f"[error] {line}\n"


def test_vo_shift_dimension_is_checked_before_sampling(tmp_path, capsys, monkeypatch):
    def sampled(*args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "limsup_along", sampled)
    monkeypatch.setattr(cli, "liminf_along", sampled)
    assert _run(tmp_path, _bad_doc(VO_2D))[:2] == (1, None)
    assert capsys.readouterr().err == "[error] vo.shifts[0] has 2 coordinates; the dual is 1-d\n"


def test_points_per_scale_bound_is_named(tmp_path, capsys):
    # the sampler streams, so nothing would run out of memory: the table refuses the budget
    doc = {"schema": 1, "task": "asymptotics", "psi": "vo:sqrt"}
    doc["asym"] = {"points_per_scale": 10**12}
    assert _run(tmp_path, doc)[:2] == (1, None)
    err = capsys.readouterr().err
    assert "expected an integer in [16, 100000000], got 1000000000000" in err
    assert err.count("\n") == 1


# one valid document per task; the fuzz below mutates them
VALID_DOCS = [
    {
        "task": "fourier-selftest",
        "group": {"kind": "product", "factors": [
            {"kind": "finite_cyclic", "n": 4, "weight": 0.5},
            {"kind": "line", "step": 0.5, "extent": 2},
        ]},
        "tolerances": {"plancherel": 1e-9},
    },
    {
        "task": "build-op",
        "group": {"kind": "torus", "samples": 8},
        "band": 2,
        "symbol": {"family": "tensor", "terms": [
            {"gamma": {"profile": "values", "data": [1, 2, 3, 4, 5, 6, 7, "1+2j"]},
             "psi": "vo:pow:0.75"},
            {"gamma": {"profile": "cos-offset", "offset": 1, "frequency": 2},
             "psi": {"family": "c0:inv"}},
        ]},
        "matrix_format": "csv",
    },
    {
        "task": "diagram-check",
        "group": {"kind": "finite_cyclic", "n": 8},
        "symbol": {"family": "const", "value": 2},
        "tolerances": {"diagram": 1e-9},
    },
    {
        "task": "gohberg",
        "symbol": FLAGSHIP,
        "base": {"kind": "intersection", "parts": [
            {"kind": "standard"}, {"kind": "ethick", "set": "halfline", "a": 1},
        ]},
        "schedule": {"bands": [16, 32, 64], "oversampling": 2},
        "asym": {"scales": [100, 1000], "span": 4},
        "tolerances": {"ratio_band": [0.8, 1.2], "zero_tol": 0.1},
    },
    {
        "task": "spectrum-probe",
        "symbol": {"family": "vo:shifted", "offset": 2, "alpha": 0.5},
        "lambdas": [0, "1+2j"],
        "tolerances": {"support_tol": 0.1},
        "seed": 4,
    },
    {
        "task": "fredholm",
        "symbol": {"family": "dirdecay", "omega0": [1], "rate": 2},
        "base": "standard",
        "tolerances": {"floor_tol": 0.02, "margin_factor": 0.4},
    },
    {
        "task": "asymptotics",
        "dim": 2,
        "psi": {"family": "dirdecay", "omega0": [0, 1]},
        "base": {"kind": "directional", "omega0": [0, 1], "aperture_scale": 2},
        "vo": {"shifts": [[1, 0]], "radii": [100, 1000]},
    },
    {"task": "examples:sepavar", "lambdas": [1.5], "seed": 3, "asym": {"points_per_scale": 100}},
    {"task": "examples:cesaro", "band": 64, "out_dir": "out"},
    {"task": "examples:pescado", "base": {"kind": "directional", "omega0": [-1]}},
]
JUNK = ["abc", 1.7, True, None, [1], {"bogus": 1}, NAN, float("inf"), -1, 0, 3, []]


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, path + (key,))


def _mutate(doc, path, junk, how):
    """Copy of doc with the value at path replaced, deleted, or given an unknown key."""
    holder = {"doc": json.loads(json.dumps(doc))}
    parent, key = holder, "doc"
    for step in path:
        parent, key = parent[key], step
    if how == "replace":
        parent[key] = junk
    elif how == "delete" and parent is not holder and isinstance(parent, dict):
        del parent[key]
    elif isinstance(parent[key], dict):
        parent[key]["bogus"] = junk
    return holder["doc"]


def test_config_fuzz_raises_only_config_errors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    xg = GroupGrid.torus(8)
    xig = GroupGrid.truncated_integers(4)
    for doc in VALID_DOCS:
        ExperimentConfig.from_mapping({"schema": 1, **doc})

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(VALID_DOCS), st.data())
    def check(base, data):
        base = {"schema": 1, **base}
        path = data.draw(st.sampled_from(list(_paths(base))))
        how = data.draw(st.sampled_from(["replace", "delete", "add"]))
        doc = _mutate(base, path, data.draw(st.sampled_from(JUNK)), how)
        try:
            cfg = ExperimentConfig.from_mapping(doc)
        except CliError:
            return
        try:
            cfg.truncation_schedule()
            cfg.sampling_schedule()
            base_from_config(cfg.base, 1)
            if cfg.symbol is not None:
                symbol_from_config(cfg.symbol, xg, xig)
            if cfg.psi is not None:  # every psi family is also a multiplier symbol
                symbol_from_config(cfg.psi, xg, xig)
        except _CONFIG_ERRORS:
            pass

    check()


# the cheap runs the end-to-end fuzz mutates: tiny groups, short ladders, few samples
CHEAP = {"schedule": {"bands": [16, 32, 64]}, "asym": {"points_per_scale": 100}}
CHEAP_DOCS = [
    {"schema": 1, **doc, **{key: {**value, **doc.get(key, {})} for key, value in CHEAP.items()}}
    for doc in VALID_DOCS
]
NON_FINITE_POW = {
    "schema": 1, "task": "asymptotics", "psi": "vo:pow:400", "asym": {"points_per_scale": 500},
}
NON_FINITE_OP = {
    "schema": 1, "task": "build-op", "group": {"kind": "finite_cyclic", "n": 8},
    "symbol": {"family": "const", "value": 1e308},
}
ZERO_SYMBOL_ZERO_TOL = {
    "schema": 1, "task": "gohberg", "symbol": {"family": "const", "value": 0},
    "schedule": {"bands": [16, 32, 64]}, "tolerances": {"zero_tol": 0},
}


def _affordable(doc) -> bool:
    """A mutation that undoes the cheap settings (a deleted ladder, say) is not run."""
    try:
        cfg = ExperimentConfig.from_mapping(doc)
    except CliError:
        return True  # ends at the config check
    bands, points = cfg.schedule.get("bands"), cfg.asym.get("points_per_scale")
    return (
        bands is not None and max(bands, default=0) <= 64
        and points is not None and points <= 100 and (cfg.band or 0) <= 256
    )


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which strict JSON forbids")


def test_cli_fuzz_exit_codes_and_strict_reports(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    runs = itertools.count()

    @st.composite
    def mutated(draw):
        base = draw(st.sampled_from(CHEAP_DOCS))
        path = draw(st.sampled_from(list(_paths(base))))
        how = draw(st.sampled_from(["replace", "delete", "add"]))
        return _mutate(base, path, draw(st.sampled_from(JUNK)), how)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(mutated().filter(_affordable))
    @hypothesis.example(NON_FINITE_POW)
    @hypothesis.example(NON_FINITE_OP)
    @hypothesis.example(ZERO_SYMBOL_ZERO_TOL)
    def check(doc):
        out = tmp_path / f"run{next(runs)}"
        code = main(["run", "--config", _write(tmp_path, doc), "--out", str(out)])
        capsys.readouterr()
        assert code in (0, 1, 2)
        report = out / "report.json"
        assert report.exists() is (code != 1)
        if code != 1:
            flags = json.loads(report.read_text(), parse_constant=_reject_constant)["flags"]
            assert flags["violation"] is (code == 2)

    check()


def _base(spec, dim):
    """The builder takes a spec as the config table coerced it."""
    return base_from_config(_BASE(spec, "base"), dim)


def _symbol(spec, xg, xig):
    return symbol_from_config(_SYMBOL(spec, "symbol"), xg, xig)


def test_base_from_config():
    assert _base({"kind": "directional", "omega0": [0, 1]}, 2).dim == 2
    assert _base({"kind": "ethick", "set": "parabola"}, 2).dim == 2
    left = _base({"kind": "directional", "omega0": [-1]}, 1)
    assert left.label == "directional([-1.0])"
    inter = _base(
        {"kind": "intersection", "parts": ["standard", {"kind": "directional", "omega0": [1]}]}, 1
    )
    assert inter.label.startswith("intersection")
    with pytest.raises(CliError):
        _base("weird", 1)
    with pytest.raises(CliError):
        _base({"kind": "ethick", "set": "moon"}, 1)
    with pytest.raises(AsymptoticsError, match="does not fit a 1-d dual"):
        _base({"kind": "ethick", "set": "parabola"}, 1)  # the plane holds no 1-d direction


def test_symbol_from_config_families():
    xg = GroupGrid.torus(8)
    xig = GroupGrid.truncated_integers(4)
    f = _symbol(
        {"family": "tensor", "gamma": {"profile": "cos-offset", "offset": 2.0}, "psi": "vo:sqrt"},
        xg,
        xig,
    )
    direct = tensor_symbol(cos_profile(2.0), sqrt_wave(), xg, xig)
    assert np.allclose(f.table(), direct.table())
    m = _symbol("vo:pow:0.75", xg, xig)
    assert m.tensor_terms is not None
    c = _symbol({"family": "const", "value": 3.0}, xg, xig)
    assert np.allclose(c.table(), 3.0)
    with pytest.raises(CliError):
        _symbol("tensor", xg, xig)
    with pytest.raises(CliError):
        _symbol("no-such-family", xg, xig)
    with pytest.raises(CliError):
        _symbol({"family": "nope"}, xg, xig)


def test_config_validation():
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping([1, 2])
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping({"task": "gohberg"})  # no schema
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping({"schema": 1, "task": "frobnicate"})
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping({"schema": 1, "task": "examples:unknown"})
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping({"schema": 1, "task": "build-op"})  # no group
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping(
            {"schema": 1, "task": "spectrum-probe", "symbol": "vo:sqrt"}
        )
    with pytest.raises(CliError):
        ExperimentConfig.from_mapping(
            {
                "schema": 1,
                "task": "build-op",
                "group": {"kind": "torus", "samples": 8},
                "symbol": "vo:sqrt",
                "matrix_format": "npz",
            }
        )


def test_config_resolved_pieces():
    cfg = ExperimentConfig.from_mapping(
        {
            "schema": 1,
            "task": "gohberg",
            "seed": 11,
            "symbol": "vo:sqrt",
            "schedule": {"bands": [16, 32, 64], "oversampling": 2},
            "group": {"kind": "torus", "samples": 32},
            "band": 8,
        }
    )
    sched = cfg.truncation_schedule()
    assert sched.bands == (16, 32, 64)
    assert sched.oversampling == 2
    assert cfg.sampling_schedule().seed == 11  # seed flows into sampling
    xg, xig = cfg.grids()
    assert xg == GroupGrid.torus(32)
    assert xig == GroupGrid.truncated_integers(8)


def test_fourier_selftest_report(tmp_path):
    code, report, _ = _run(
        tmp_path,
        {
            "schema": 1,
            "task": "fourier-selftest",
            "seed": 7,
            "group": {"kind": "finite_cyclic", "n": 256},
        },
    )
    assert code == 0
    res = report["results"]
    assert res["plancherel_defect"] <= 1e-10
    assert res["roundtrip_defect"] <= 1e-10
    assert res["matrix_agreement"] <= 1e-10
    assert report["meta"]["task"] == "fourier-selftest"
    assert report["flags"]["violation"] is False


@pytest.mark.parametrize("band, code", [(8, 1), (32, 0)])
def test_fourier_selftest_band_below_nyquist_is_a_config_error(tmp_path, capsys, band, code):
    # random data is not band-limited, so a truncated dual is a usage error, not a violation
    group = {"kind": "torus", "samples": 64}
    doc = {"schema": 1, "task": "fourier-selftest", "group": group, "band": band}
    got, report, _ = _run(tmp_path, doc)
    assert got == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert report is None
        assert len(err) == 1 and err[0].startswith("[error] fourier-selftest needs the full dual")
    else:
        assert report["results"]["plancherel_defect"] <= 1e-12 and err == []


@pytest.mark.parametrize(
    "where, cause",
    [
        ("taken", "File exists"),  # out_dir is an existing file
        ("taken/out", "Not a directory"),  # --out lies under a file
        ("out", "Is a directory"),  # out/report.json is a directory
    ],
)
def test_unwritable_output_is_one_error_line(tmp_path, capsys, where, cause):
    (tmp_path / "taken").write_text("")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    target = str(tmp_path / where)
    doc = {"schema": 1, "task": "fourier-selftest", "group": {"kind": "finite_cyclic", "n": 8}}
    if where == "taken":  # the config key, not the flag
        doc["out_dir"] = target
        argv = ["run", "--config", _write(tmp_path, doc)]
    else:
        argv = ["run", "--config", _write(tmp_path, doc), "--out", target]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("[error] cannot write output: ")
    assert cause in err[0]


def test_fourier_selftest_holds_one_vector(capsys):
    # tracemalloc sees numpy's arrays but not pocketfft's C++ scratch, so the bound is
    # platform-free: one 16 MB complex vector at n = 2^20 plus one float draw, where
    # input, spectrum and round trip side by side would trace 3.5 vectors
    n = 2**20
    group = {"kind": "finite_cyclic", "n": n}
    cfg = ExperimentConfig.from_mapping({"schema": 1, "task": "fourier-selftest", "group": group})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results, _, _ = cli._task_fourier_selftest(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert results["plancherel_defect"] <= 1e-12 and results["roundtrip_defect"] <= 1e-12
    assert peak < 2 * 16 * n


# point counts past the index range are refused when the grid is built, before any allocation
@pytest.mark.parametrize(
    "group",
    [
        pytest.param(  # 2^64 points: a wrapped int64 product read 0 here
            {"kind": "product", "factors": [{"kind": "finite_cyclic", "n": 65536}] * 4},
            id="cyclic-2^64",
        ),
        pytest.param(
            {"kind": "product", "factors": [{"kind": "finite_cyclic", "n": 10**7}] * 3},
            id="cyclic-10^21",
        ),
        pytest.param({"kind": "line", "step": 1e-300, "extent": 1}, id="line-10^300"),
    ],
)
def test_oversized_grid_is_a_config_error(tmp_path, capsys, group):
    code, report, _ = _run(tmp_path, {"schema": 1, "task": "fourier-selftest", "group": group})
    assert code == 1 and report is None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("[error] GroupGrid[")
    assert err[0].endswith("points, more than an array index can address")


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):  # what numpy raises for an array the machine cannot hold
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setitem(cli._RUNNERS, "fourier-selftest", exhausted)
    doc = {"schema": 1, "task": "fourier-selftest", "group": {"kind": "finite_cyclic", "n": 8}}
    code, report, _ = _run(tmp_path, doc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err == "[error] out of memory: Unable to allocate 1.46 TiB for an array\n"


def test_fourier_selftest_builds_no_cyclic_points(tmp_path, monkeypatch):
    # the FFT route never reads cyclic coordinates, so none are built
    grids = []
    build = ExperimentConfig.grids

    def recording(cfg):
        pair = build(cfg)
        grids.extend(pair)
        return pair

    monkeypatch.setattr(ExperimentConfig, "grids", recording)
    doc = {"schema": 1, "task": "fourier-selftest", "group": {"kind": "finite_cyclic", "n": 2**16}}
    code, report, _ = _run(tmp_path, doc)
    assert code == 0 and report["results"]["size"] == 2**16
    assert len(grids) == 2
    assert all("points" not in f.__dict__ for g in grids for f in g.factors)


def test_build_op_writes_loadable_matrix(tmp_path):
    doc = {
        "schema": 1,
        "task": "build-op",
        "group": {"kind": "finite_cyclic", "n": 8},
        "symbol": FLAGSHIP,
        "matrix_format": "both",
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    assert sorted(report["results"]["files"]) == ["operator.bin", "operator.csv"]
    stored = load_matrix_bin(out / "operator.bin")
    xg = GroupGrid.finite_cyclic(8)
    direct = op_matrix(_symbol(FLAGSHIP, xg, xg.dual()))
    assert np.allclose(stored, direct, atol=1e-14)
    assert report["results"]["hs_norm"] == pytest.approx(np.linalg.norm(direct))


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="fewer than 2 usable cores: the writer runs one part at either cap",
)
def test_build_op_files_do_not_depend_on_the_thread_cap(tmp_path):
    # fresh processes, so the cap is read as a run reads it; 37 rows split unevenly
    doc = {
        "schema": 1,
        "task": "build-op",
        "group": {"kind": "finite_cyclic", "n": 37},
        "symbol": FLAGSHIP,
        "matrix_format": "both",
    }
    outputs = []
    for cap in ("1", "2"):
        out = tmp_path / f"out{cap}"
        proc = subprocess.run(
            [sys.executable, "-m", "corona_pdo.cli", "run", "--config", _write(tmp_path, doc)]
            + ["--out", str(out)],
            env={**os.environ, "CORONA_PDO_THREADS": cap},
            capture_output=True,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        report = (out / "report.json").read_bytes().splitlines()
        files = [(out / name).read_bytes() for name in ("operator.csv", "operator.bin")]
        outputs.append([line for line in report if b'"timestamp":' not in line] + files)
    assert outputs[0] == outputs[1]


def test_failed_csv_part_is_one_error_line(tmp_path, capsys, monkeypatch):
    lines = pdo._csv_lines

    def fail(m, start, stop):  # the part of the forked child
        if start > 0:
            raise RuntimeError("part failed")
        return lines(m, start, stop)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("CORONA_PDO_THREADS", "2")
    monkeypatch.setattr(pdo, "_csv_lines", fail)
    doc = {"schema": 1, "task": "build-op", "group": {"kind": "finite_cyclic", "n": 4}}
    code, report, out = _run(tmp_path, {**doc, "symbol": FLAGSHIP, "matrix_format": "csv"})
    err = capsys.readouterr().err
    assert code == 1 and report is None
    assert err.startswith("[error] cannot write output: ") and err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_diagram_check_task(tmp_path):
    code, report, _ = _run(
        tmp_path,
        {
            "schema": 1,
            "task": "diagram-check",
            "group": {"kind": "finite_cyclic", "n": 12},
            "symbol": FLAGSHIP,
        },
    )
    assert code == 0
    assert report["results"]["residual"] <= 1e-10
    assert report["results"]["pass"] is True


def test_diagram_check_of_a_large_constant(tmp_path, capsys):
    # 1e200 squared passes float64's range in the Gram, so the norms scale first
    doc = {
        "schema": 1,
        "task": "diagram-check",
        "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "const", "value": 1e200},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    assert math.isfinite(report["results"]["residual"]) and report["results"]["residual"] <= 1e-10
    assert report["results"]["pass"] is True
    # 1e308 overflows the transforms: one error line, no traceback
    capsys.readouterr()
    (tmp_path / "overflow").mkdir()
    code, report, _ = _run(tmp_path / "overflow", {**doc, "symbol": {"family": "const", "value": 1e308}})
    assert code == 1
    assert report is None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("[error] matrix has non-finite entries")


def test_gohberg_task_report_and_csv(tmp_path):
    doc = {
        "schema": 1,
        "task": "gohberg",
        "seed": 3,
        "symbol": FLAGSHIP,
        "schedule": {"bands": [64, 128, 256]},
        "asym": {"points_per_scale": 4000},
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    goh = report["results"]["gohberg"]
    assert 0.85 <= goh["ratio"] <= 1.15
    assert goh["violation"] is False
    # the essential-norm block is its library record, field by field
    ess = report["results"]["ess_norm"]
    assert set(ess) == {field.name for field in dataclasses.fields(EssentialNormResult)}
    assert ess["reliable"] is True
    lines = (out / "sigma_by_band.csv").read_text().splitlines()
    assert lines[0].startswith("band,shell_dim,sigma_top")
    assert len(lines) == 4  # header + one row per band
    assert ess["fit"]["per_scale"] == [float(line.split(",")[2]) for line in lines[1:]]


def test_gohberg_unreliable_exits_zero_with_warning(tmp_path, capsys):
    doc = {
        "schema": 1,
        "task": "gohberg",
        "seed": 3,
        "symbol": "vo:pow:1",  # full-strength wave: fails the oscillation test
        "schedule": {"bands": [16, 32, 64]},
        "asym": {"points_per_scale": 2000},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    assert report["flags"]["unreliable"] is True
    assert report["flags"]["violation"] is False
    assert "UNRELIABLE" in capsys.readouterr().err


def test_gohberg_violation_exits_two(tmp_path):
    # user-tightened acceptance band turns a fine ratio into a violation
    doc = {
        "schema": 1,
        "task": "gohberg",
        "seed": 3,
        "symbol": FLAGSHIP,
        "schedule": {"bands": [64, 128, 256]},
        "asym": {"points_per_scale": 4000},
        "tolerances": {"ratio_band": [0.999, 1.001]},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 2
    assert report["flags"]["violation"] is True


def test_gohberg_estimate_above_sup_bound_is_unreliable(tmp_path):
    # a three-rung ladder extrapolates to 1.29 > sup|f| = 1, which bounds ||Op(f)||:
    # an unconverged ladder, not a broken identity
    doc = {
        "schema": 1,
        "task": "gohberg",
        "symbol": "vo:sqrt",
        "schedule": {"bands": [16, 32, 64]},
        "asym": {"points_per_scale": 500},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    assert report["results"]["gohberg"]["estimate"] > 1.05
    assert report["flags"]["unreliable"] is True
    assert report["flags"]["violation"] is False
    assert any("exceeds 1.05 x sup_bound" in w for w in report["flags"]["warnings"])


def test_spectrum_probe_task(tmp_path):
    doc = {
        "schema": 1,
        "task": "spectrum-probe",
        "symbol": {"family": "const", "value": 2.0},
        "schedule": {"bands": [16, 32, 64]},
        "lambdas": [2.0, 3.0],
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    weyl = report["results"]["weyl"]
    assert [w["verdict"] for w in weyl] == ["supporting", "against"]
    assert (out / "sigma_by_band.csv").exists()


def test_spectral_tasks_follow_the_configured_base(tmp_path, monkeypatch):
    # 1 (x) (1 - tanh(xi/4))/2 vanishes at +infinity only; no config family spells it
    step = DualClosure(lambda p: (1 - np.tanh(p[:, 0] / 4)) / 2, 1.0, "step")
    monkeypatch.setattr(
        cli, "symbol_from_config", lambda spec, xg, xig: multiplier_symbol(step, xg, xig)
    )
    doc = {"schema": 1, "symbol": "vo:sqrt", "asym": {"points_per_scale": 2000},
           "base": {"kind": "directional", "omega0": [1]}, "lambdas": [0.0, 1.0, 0.5]}
    code, report, out = _run(tmp_path, {**doc, "task": "gohberg"})
    goh = report["results"]["gohberg"]
    assert code == 0 and goh["violation"] is False and goh["unreliable"] is False
    assert goh["estimate"] == 0.0 and goh["rhs"] == 0.0
    # band N's shell is eta > N/2 alone: N/2 - 1 points
    rows = (out / "sigma_by_band.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [127, 255, 511, 1023]
    (tmp_path / "probe").mkdir()
    code, report, _ = _run(tmp_path / "probe", {**doc, "task": "spectrum-probe"})
    assert code == 0
    assert [w["verdict"] for w in report["results"]["weyl"]] == ["supporting", "against", "against"]


def test_degenerate_shell_names_band_and_base(tmp_path, capsys):
    # the half-line's complement thickened by N/2 starts at 50 + N/2, beyond band 64
    doc = {
        "schema": 1,
        "task": "gohberg",
        "symbol": "vo:sqrt",
        "schedule": {"bands": [64, 128, 256]},
        "asym": {"points_per_scale": 500},
        "base": {"kind": "ethick", "a": 50},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err == "[error] band 64 leaves a degenerate shell along ethick((-inf,50.0]) (0 points)\n"


@pytest.mark.parametrize("doc", [NON_FINITE_POW, NON_FINITE_OP], ids=["asymptotics", "build-op"])
def test_non_finite_report_exits_one(tmp_path, capsys, doc):
    # sin(|xi|^400) overflows to NaN; a 1e308 symbol overflows the HS norm
    code, report, out = _run(tmp_path, doc)
    assert code == 1
    assert report is None and not out.exists()  # no side file either
    err = capsys.readouterr().err
    assert f"[error] {doc['task']}: the report would hold a NaN or an infinity" in err
    assert "Traceback" not in err


def test_gohberg_zero_symbol_with_zero_tol_is_ratio_one(tmp_path):
    # both sides exactly 0 under zero_tol 0: ratio 1 by convention, not a division by 0
    code, report, _ = _run(tmp_path, ZERO_SYMBOL_ZERO_TOL)
    assert code == 0
    goh = report["results"]["gohberg"]
    assert goh["estimate"] == 0.0 and goh["rhs"] == 0.0 and goh["ratio"] == 1.0
    assert goh["violation"] is False


def test_non_finite_section_exits_one(tmp_path, capsys):
    # finite config values whose Gram matrix overflows: an error, not a verdict
    doc = {
        "schema": 1,
        "task": "spectrum-probe",
        "symbol": {"family": "const", "value": 1e200},
        "schedule": {"bands": [16, 32, 64]},
        "lambdas": [0.0],
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 1
    assert report is None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("[error] section has non-finite entries")


@pytest.mark.parametrize(
    "text, where",
    [
        pytest.param("x_index,xi_index,re,im\n0,0,abc,0\n", "line 2", id="not-a-number"),
        pytest.param("x_index,xi_index,re,im\n0,0,,0\n", "line 2", id="empty-cell"),
        pytest.param("x_index,xi_index,re,im\n0,0,1.0\n", "line 2", id="short-row"),
        # a non-finite cell would reach the eigensolvers of diagram-check
        pytest.param("x_index,xi_index,re,im\n0,0,0.5,0\n0,1,nan,0\n", "line 3", id="nan-cell"),
        pytest.param("x_index,xi_index,re,im\n0,0,0.5,-inf\n", "line 2", id="inf-cell"),
        pytest.param("x_index,xi_index,re,im\n0,0,1.\udcff,0\n", "line 2", id="not-utf8"),
        pytest.param("", "must have header", id="empty-file"),
    ],
)
def test_malformed_symbol_csv_exits_one(tmp_path, capsys, text, where):
    path = tmp_path / "symbol.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for task in ("build-op", "diagram-check"):
        doc = {
            "schema": 1,
            "task": task,
            "group": {"kind": "finite_cyclic", "n": 2},
            "symbol": {"family": "csv", "path": str(path)},
        }
        code, report, _ = _run(tmp_path, doc)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"[error] symbol CSV {str(path)!r}") and where in err


def test_fredholm_task_noncompact_group(tmp_path):
    doc = {
        "schema": 1,
        "task": "fredholm",
        "group": {"kind": "line", "step": 0.5, "extent": 8.0},
        "symbol": "vo:sqrt",
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    fred = report["results"]["fredholm"]
    assert set(fred) == {field.name for field in dataclasses.fields(FredholmResult)}
    assert fred["verdict"] == "NOT-FREDHOLM"
    assert fred["sigma_min_full"] == []


def test_asymptotics_task_directional(tmp_path):
    doc = {
        "schema": 1,
        "task": "asymptotics",
        "dim": 2,
        "psi": {"family": "dirdecay", "omega0": [0.0, 1.0]},
        "base": {"kind": "directional", "omega0": [0.0, 1.0]},
        "asym": {"points_per_scale": 2000},
        "vo": True,
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    assert report["results"]["limsup"]["value"] <= 1e-3
    assert report["results"]["vo"]["verdict"] == "PASS"
    assert (out / "sups_by_scale.csv").read_text().startswith("scale,")


def test_seed_flag_overrides_config(tmp_path):
    doc = {
        "schema": 1,
        "task": "fourier-selftest",
        "seed": 1,
        "group": {"kind": "finite_cyclic", "n": 64},
    }
    code, report, _ = _run(tmp_path, doc, extra=("--seed", "9"))
    assert code == 0
    assert report["meta"]["seed"] == 9
    # the flag reaches the sampling, not only the report's meta
    doc = {
        "schema": 1,
        "task": "asymptotics",
        "psi": "vo:sqrt",
        "seed": 1,
        "asym": {"points_per_scale": 200},
    }
    per_scale = []
    for seed in ("1", "9"):
        (tmp_path / seed).mkdir()
        code, report, _ = _run(tmp_path / seed, doc, extra=("--seed", seed))
        assert code == 0 and report["meta"]["seed"] == int(seed)
        per_scale.append([report["results"][k]["per_scale"] for k in ("limsup", "liminf")])
    assert per_scale[0] != per_scale[1]


def test_reports_identical_modulo_timestamp(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:stoskan",
        "seed": 5,
        "asym": {"points_per_scale": 1000},
    }
    path = _write(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", path, "--out", str(tmp_path / "b")]) == 0
    keep = lambda text: [l for l in text.splitlines() if "timestamp" not in l]
    ra = (tmp_path / "a" / "report.json").read_text()
    rb = (tmp_path / "b" / "report.json").read_text()
    assert keep(ra) == keep(rb)
    assert (tmp_path / "a" / "sups_by_scale.csv").read_text() == (
        tmp_path / "b" / "sups_by_scale.csv"
    ).read_text()


def test_stoskan_preset_separates_the_sides(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:stoskan",
        "seed": 5,
        "asym": {"points_per_scale": 2000},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    res = report["results"]
    assert res["standard_limsup"]["value"] == pytest.approx(1.0, abs=1e-3)
    assert abs(res["onesided_limsup"]["value"]) <= 1e-6
    assert res["slow_wave_oscillation"]["verdict"] == "PASS"


def test_rradial_preset_cone_vs_sphere(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:rradial",
        "seed": 5,
        "asym": {"points_per_scale": 2000},
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    res = report["results"]
    assert abs(res["directional_limsup"]["value"]) <= 1e-3
    assert res["standard_limsup"]["value"] == pytest.approx(1.0, abs=1e-3)
    assert abs(res["cone_flattening_limsup"]["value"]) <= 1e-6


@pytest.mark.parametrize("preset, names", [
    ("stoskan", ["standard", "onesided"]),
    ("rradial", ["directional", "standard", "orthogonal", "cone_flattening"]),
    ("pescado", ["complement"]),
])
def test_preset_limsup_keys_name_their_csv_columns(tmp_path, preset, names):
    asym = {"scales": [100.0, 1000.0], "points_per_scale": 400}
    code, report, out = _run(tmp_path, {"schema": 1, "task": f"examples:{preset}", "asym": asym})
    assert code == 0
    res = report["results"]
    assert sorted(k for k in res if k.endswith("_limsup")) == sorted(f"{n}_limsup" for n in names)
    header, *rows = (out / "sups_by_scale.csv").read_text().splitlines()
    assert header.split(",") == ["scale"] + [f"sup_{n}" for n in names]
    columns = list(zip(*(map(float, row.split(",")) for row in rows)))
    assert [list(c) for c in columns[1:]] == [res[f"{n}_limsup"]["per_scale"] for n in names]


def test_pescado_preset_envelope(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:pescado",
        "seed": 5,
        "asym": {"scales": [100.0], "points_per_scale": 400},
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    res = report["results"]
    assert res["on_set_sup"] == pytest.approx(1.0, abs=1e-12)
    assert abs(res["complement_limsup"]["value"]) <= 1e-12
    sups = [o["sup_convex_side"] for o in res["normal_offset_sups"]]
    # exact distances on the convex side: e^{-1}, e^{-2}, e^{-4}, e^{-8}
    assert np.allclose(sups, np.exp(-np.array([1.0, 2.0, 4.0, 8.0])), rtol=1e-6)
    assert (out / "normal_offsets.csv").exists()


def test_side_csv_cells_are_plain_numbers(tmp_path):
    # the probe's sigma_min and pescado's per-scale sups are numpy scalars
    docs = {
        "probe": {
            "schema": 1,
            "task": "spectrum-probe",
            "symbol": FLAGSHIP,
            "schedule": {"bands": [16, 32, 64]},
            "lambdas": [0.0, 4.5],
        },
        "pescado": {
            "schema": 1,
            "task": "examples:pescado",
            "seed": 5,
            "asym": {"scales": [100.0], "points_per_scale": 400},
        },
    }
    for name, doc in docs.items():
        (tmp_path / name).mkdir()
        code, _, out = _run(tmp_path / name, doc)
        assert code == 0
        tables = sorted(out.glob("*.csv"))
        assert tables, name
        for table in tables:
            for line in table.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    float(cell)


def test_cesaro_preset_roof(tmp_path):
    doc = {"schema": 1, "task": "examples:cesaro", "seed": 5, "band": 1024}
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    assert report["results"]["roof_respected"] is True
    assert report["results"]["means"]["verdict"] is True
    # the grid -1025..1024 holds the top ball whole: 55 of the dyadic set's points in 2049
    assert report["results"]["means"]["means"][-1] == 55 / 2049
    assert report["results"]["means"]["measures"][-1] == 2049
    lines = (out / "cesaro_means.csv").read_text().splitlines()
    assert lines[0] == "radius,mean,roof"


SEPAVAR_SMALL = {
    "schema": 1,
    "task": "examples:sepavar",
    "seed": 5,
    "schedule": {"bands": [64, 128, 256]},
    "asym": {"points_per_scale": 4000},
    "lambdas": [0.0, 4.5],
}


def test_sepavar_preset_small_ladder(tmp_path):
    doc = SEPAVAR_SMALL
    (tmp_path / "sepavar").mkdir()
    code, report, out = _run(tmp_path / "sepavar", doc)
    assert code == 0
    res = report["results"]
    assert 0.85 <= res["gohberg"]["ratio"] <= 1.15
    # flagship liminf floor is 0 (the wave passes through zero), so the
    # sufficient-condition check cannot conclude
    assert res["fredholm"]["verdict"] == "INCONCLUSIVE"
    assert [w["verdict"] for w in res["weyl"]] == ["supporting", "against"]
    # the preset is the three spectral tasks run on the flagship symbol
    def run_task(task):
        (tmp_path / task).mkdir()
        code, rep, task_out = _run(tmp_path / task, dict(doc, task=task, symbol=FLAGSHIP))
        assert code == 0
        return rep["results"], task_out

    goh, goh_out = run_task("gohberg")
    probe, probe_out = run_task("spectrum-probe")
    fred, _ = run_task("fredholm")
    # its block is exactly the union of the runners' blocks
    assert res == {"preset": "sepavar", **goh, **probe, **fred}
    assert (out / "sigma_by_band.csv").read_bytes() == (goh_out / "sigma_by_band.csv").read_bytes()
    assert (out / "weyl_by_band.csv").read_bytes() == (probe_out / "sigma_by_band.csv").read_bytes()


def test_report_writes_each_record_type_field_by_field():
    # the four result records a report holds, through the one report.json encoder
    sched, asym = TruncationSchedule(bands=(16, 32, 64)), SamplingSchedule(points_per_scale=500)
    symbol = _symbol("vo:sqrt", *sched.grids(16))
    records = [
        limsup_along(lambda p: np.abs(sqrt_wave()(p)), StandardBase(1), asym),
        vanishing_oscillation_test(sqrt_wave(), vo_shifts(1), VO_RADII, seed=0),
        cesaro_mean(dyadic_indicator(), GroupGrid.truncated_integers(65), [16, 64]),
        gohberg_verify(symbol, sched, StandardBase(1), asym)[1],
    ]
    for record in records:
        text = json.dumps(record, sort_keys=True, default=_report_value)
        doc = json.loads(text)
        assert set(doc) == {field.name for field in dataclasses.fields(record)}
        assert json.dumps(doc, sort_keys=True) == text  # plain JSON values, nothing lost
    assert doc["ratio_band"] == [0.85, 1.15] and doc["notes"] == list(records[-1].notes)
    for unknown in (object(), 1j, GohbergReport):
        with pytest.raises(TypeError):
            json.dumps({"x": unknown}, default=_report_value)


def _fresh_interpreter(code: str, **env) -> str:
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas}
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_thread_cap_reaches_blas_before_numpy():
    # the package runs first on any submodule import, so the cap is in place before numpy
    code = "import os, corona_pdo.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_interpreter(code, CORONA_PDO_THREADS="3") == "3"
    code = "import sys, corona_pdo; print('numpy' in sys.modules)"
    assert _fresh_interpreter(code, CORONA_PDO_THREADS="3") == "False"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "corona_pdo.cli", "list-examples"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sepavar" in proc.stdout


def test_cli_import_loads_no_scipy():
    # the banded Cholesky loads scipy's LAPACK extension on a run's first singular value,
    # and the normal quantile of the high-dimensional fans loads statistics on its first call
    code = (
        "import sys, corona_pdo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'statistics')))"
    )
    assert _fresh_interpreter(code) == "[]"


def test_spectral_runs_load_no_scipy_package(tmp_path):
    # zpbtrf comes from the extension module alone: no scipy package is imported
    probe = {
        "schema": 1,
        "task": "spectrum-probe",
        "symbol": FLAGSHIP,
        "schedule": {"bands": [16, 32, 64]},
        "lambdas": [0.0, 4.5],
    }
    runs = []
    for name, doc in (("sepavar", SEPAVAR_SMALL), ("probe", probe)):
        (tmp_path / name).mkdir()
        out = str(tmp_path / name / "out")
        runs.append(["run", "--config", _write(tmp_path / name, doc), "--out", out])
    code = (
        "import sys; from corona_pdo.cli import main; "
        f"print([main(argv) for argv in {runs!r}], "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "[0, 0] []"
    for name in ("sepavar", "probe"):
        assert (tmp_path / name / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "doc, cause",
    [(NON_FINITE_POW, "overflow encountered in power"), (NON_FINITE_OP, "overflow encountered in ifft")],
    ids=["asymptotics", "build-op"],
)
def test_non_finite_refusal_names_the_first_numpy_warning(tmp_path, doc, cause):
    # a fresh process: the raw RuntimeWarning lines would go to its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "corona_pdo.cli", "run", "--config", _write(tmp_path, doc)]
        + ["--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and not (tmp_path / "out").exists()
    assert proc.stderr.splitlines() == [
        f"[error] {doc['task']}: the report would hold a NaN or an infinity "
        f"(first numpy warning: {cause})"
    ]


def test_table_symbol_fredholm_ends_in_one_error_line(tmp_path, capsys):
    # the report guard's fredholm/symbol=csv config: the ladder comes first, and a
    # table has no values off its grid to rebind to the rungs
    rows = [f"{i},{k},{(i * 8 + k) % 5 - 1.5},{0.25 * i}\n" for i in range(8) for k in range(8)]
    (tmp_path / "symbol8.csv").write_text("x_index,xi_index,re,im\n" + "".join(rows))
    doc = {
        "schema": 1, "task": "fredholm", "seed": 5, "group": {"kind": "torus", "samples": 8},
        "symbol": {"family": "csv", "path": str(tmp_path / "symbol8.csv")},
    }
    code, report, out = _run(tmp_path, doc)
    assert code == 1 and report is None and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["[error] symbol is tabulated only; cannot rebind to new grids"]


def test_finished_run_lists_numpy_warnings(tmp_path, capsys, monkeypatch):
    from corona_pdo import cli

    task = cli._RUNNERS["fourier-selftest"]

    def overflowing_task(cfg):
        np.float64(1e308) * 10
        return task(cfg)

    monkeypatch.setitem(cli._RUNNERS, "fourier-selftest", overflowing_task)
    doc = {"schema": 1, "task": "fourier-selftest", "group": {"kind": "finite_cyclic", "n": 8}}
    code, report, _ = _run(tmp_path, doc)
    assert code == 0 and report is not None
    err = capsys.readouterr().err.splitlines()
    assert err == ["[warn] numpy: overflow encountered in scalar multiply"]
