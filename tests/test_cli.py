"""End-to-end runner checks: configs in, reports/CSVs/exit codes out."""

import json
import subprocess
import sys

import numpy as np
import pytest

import corona_pdo
from corona_pdo.asymptotics import AsymptoticsError
from corona_pdo.cli import (
    _CONFIG_ERRORS,
    CliError,
    ExperimentConfig,
    base_from_config,
    main,
    psi_from_config,
    symbol_from_config,
)
from corona_pdo.groups import GroupGrid, truncated_dual
from corona_pdo.pdo import load_matrix_bin, op_matrix
from corona_pdo.symbols import SymbolError, cos_profile, sqrt_wave, tensor_symbol

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
        pytest.param({"task": "spectrum-probe", "lambdas": "abc"}, id="lambdas-str"),
        pytest.param({"task": "spectrum-probe", "lambdas": ["x"]}, id="lambda-str"),
        pytest.param({"band": "x"}, id="band-str"),
        pytest.param({"group": "cyclic"}, id="group-str"),
        pytest.param({"group": {"kind": "finite_cyclic"}}, id="group-no-n"),
        pytest.param({"symbol": [1]}, id="symbol-list"),
        pytest.param({"symbol": {"family": "vo:pow", "alpha": "x"}}, id="alpha-str"),
        pytest.param({"task": "asymptotics", "base": [1]}, id="base-list"),
        pytest.param({"task": "asymptotics", "base": {"kind": "directional"}}, id="base-no-omega0"),
        pytest.param({"task": "asymptotics", "dim": "two"}, id="dim-str"),
        pytest.param({"task": "asymptotics", "vo": [1]}, id="vo-list"),
        pytest.param(
            {"task": "asymptotics", "base": {"kind": "directional", "omega0": [0, 1]}},
            id="omega0-2d-dim-1",
        ),
        pytest.param({"task": "examples:cesaro", "band": "big"}, id="cesaro-band-str"),
        pytest.param({"out_dir": [1]}, id="out_dir-list"),
        pytest.param({"schedul": {"bands": [16, 32, 64]}}, id="top-level-typo"),
    ],
)
def test_bad_symbol_spec_exits_one(tmp_path, capsys, patch):
    # a gohberg config on small ladders, with psi for the tasks a patch switches to
    doc = {
        "schema": 1,
        "task": "gohberg",
        "symbol": "vo:sqrt",
        "psi": "vo:sqrt",
        "schedule": {"bands": [16, 32, 64]},
        "asym": {"points_per_scale": 500},
        **patch,
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 1
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("[error] ")
    assert "Traceback" not in err


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
    {"task": "examples:sepavar", "lambdas": [1.5], "asym": {"points_per_scale": 100, "seed": 3}},
    {"task": "examples:cesaro", "band": 64, "out_dir": "out"},
    {"task": "examples:pescado", "base": {"kind": "density"}},
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
    xig = truncated_dual(xg, 4)
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
            if cfg.psi is not None:
                psi_from_config(cfg.psi)
        except _CONFIG_ERRORS:
            pass

    check()


def test_base_from_config():
    assert base_from_config(None, 2).label.startswith("standard")
    assert base_from_config({"kind": "directional", "omega0": [0, 1]}, 2).dim == 2
    assert base_from_config({"kind": "ethick", "set": "parabola"}, 2).dim == 2
    assert base_from_config({"kind": "density"}, 1).label == "density"
    inter = base_from_config(
        {"kind": "intersection", "parts": [{"kind": "standard"}, {"kind": "density"}]}, 1
    )
    assert inter.label.startswith("intersection")
    with pytest.raises(AsymptoticsError):
        base_from_config("weird", 1)
    with pytest.raises(AsymptoticsError):
        base_from_config({"kind": "ethick", "set": "moon"}, 1)


def test_symbol_from_config_families():
    xg = GroupGrid.torus(8)
    xig = truncated_dual(xg, 4)
    f = symbol_from_config(
        {"family": "tensor", "gamma": {"profile": "cos-offset", "offset": 2.0}, "psi": "vo:sqrt"},
        xg,
        xig,
    )
    direct = tensor_symbol(cos_profile(2.0), sqrt_wave(), xg, xig)
    assert np.allclose(f.table().values, direct.table().values)
    m = symbol_from_config("vo:pow:0.75", xg, xig)
    assert m.has_closure and m.tensor_terms is not None
    c = symbol_from_config({"family": "const", "value": 3.0}, xg, xig)
    assert np.allclose(c.table().values, 3.0)
    with pytest.raises(SymbolError):
        symbol_from_config("tensor", xg, xig)
    with pytest.raises(SymbolError):
        symbol_from_config("no-such-family", xg, xig)
    with pytest.raises(SymbolError):
        psi_from_config({"family": "nope"})


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
    assert xg.descriptor() == GroupGrid.torus(32).descriptor()
    assert xig.descriptor() == GroupGrid.truncated_integers(8).descriptor()


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
    direct = op_matrix(symbol_from_config(FLAGSHIP, xg, xg.dual()))
    assert np.allclose(stored, direct, atol=1e-14)
    assert report["results"]["hs_norm"] == pytest.approx(np.linalg.norm(direct))


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
    assert report["results"]["ess_norm"]["flag"] == "ok"
    lines = (out / "sigma_by_band.csv").read_text().splitlines()
    assert lines[0].startswith("band,shell_dim,sigma_top")
    assert len(lines) == 4  # header + one row per band


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


def test_fredholm_task_noncompact_group(tmp_path):
    doc = {
        "schema": 1,
        "task": "fredholm",
        "group": {"kind": "line", "step": 0.5, "extent": 8.0},
        "symbol": "vo:sqrt",
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 0
    assert report["results"]["fredholm"]["verdict"] == "NOT-FREDHOLM"
    assert report["results"]["fredholm"]["sigma_min_traj"] == []


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


def test_cesaro_preset_roof(tmp_path):
    doc = {"schema": 1, "task": "examples:cesaro", "seed": 5, "band": 1024}
    code, report, out = _run(tmp_path, doc)
    assert code == 0
    assert report["results"]["roof_respected"] is True
    assert report["results"]["means"]["verdict"] is True
    lines = (out / "cesaro_means.csv").read_text().splitlines()
    assert lines[0] == "radius,mean,roof"


def test_sepavar_preset_small_ladder(tmp_path):
    doc = {
        "schema": 1,
        "task": "examples:sepavar",
        "seed": 5,
        "schedule": {"bands": [64, 128, 256]},
        "asym": {"points_per_scale": 4000},
        "lambdas": [0.0, 4.5],
    }
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
    for key in ("symbol_id", "schedule", "sigma_tables", "ess_norm", "gohberg"):
        assert res[key] == goh[key], key
    assert res["weyl"] == probe["weyl"]
    assert res["fredholm"] == fred["fredholm"]
    assert (out / "sigma_by_band.csv").read_bytes() == (goh_out / "sigma_by_band.csv").read_bytes()
    assert (out / "weyl_by_band.csv").read_bytes() == (probe_out / "sigma_by_band.csv").read_bytes()


def test_package_exports_resolve():
    missing = [name for name in corona_pdo.__all__ if not hasattr(corona_pdo, name)]
    assert missing == []


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "corona_pdo.cli", "list-examples"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sepavar" in proc.stdout
