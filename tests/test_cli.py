"""End-to-end runner checks: configs in, reports/CSVs/exit codes out."""

import json
import subprocess
import sys

import numpy as np
import pytest

import corona_pdo
from corona_pdo.cli import CliError, ExperimentConfig, main
from corona_pdo.groups import GroupGrid
from corona_pdo.pdo import load_matrix_bin, op_matrix
from corona_pdo.symbols import symbol_from_config

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


@pytest.mark.parametrize(
    "symbol",
    [
        {"family": "tensor", "gamma": {"profile": "cos-offset"}},  # no psi
        {"family": "csv", "path": "nope.csv"},  # missing file
    ],
)
def test_bad_symbol_spec_exits_one(tmp_path, capsys, symbol):
    doc = {
        "schema": 1,
        "task": "build-op",
        "group": {"kind": "finite_cyclic", "n": 8},
        "symbol": symbol,
    }
    code, report, _ = _run(tmp_path, doc)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith("[error] ")


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
