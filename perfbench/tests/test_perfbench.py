"""Tests of the benchmark's own code: checks, computed counts and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from corona_pdo.pdo import hs_norm, save_matrix_bin, save_matrix_csv  # noqa: E402


def _sepavar_report(verdicts=None):
    lambdas = workloads.SEPAVAR_SUPPORTING + workloads.SEPAVAR_AGAINST
    ref = workloads.weyl_reference()
    verdicts = verdicts or {lam: "supporting" for lam in workloads.SEPAVAR_SUPPORTING} | {4.0: "against"}
    return {
        "results": {
            "gohberg": {"ratio_in_band": True, "lower_bound_ok": True},
            "fredholm": {"verdict": "INCONCLUSIVE"},
            "ess_norm": {"value": 3.0},
            "weyl": [
                {"lambda": lam, "traj": [1.0, s], "verdict": verdicts[lam]}
                for lam, s in zip(lambdas, ref["sigma_min"])
            ],
        }
    }


def _run_checks(name, reports, dirs=None, seed=0):
    return workloads.WORKLOADS[name].check(reports, dirs or {}, seed)


def test_good_sepavar_report_passes_every_check():
    checks = _run_checks("sepavar_ladder", {"sepavar": _sepavar_report()})
    assert len(checks) == 9
    assert workloads.failed_frac(checks) == 0.0


def test_wrong_verdict_counts_as_failure():
    bad = {lam: "supporting" for lam in workloads.SEPAVAR_SUPPORTING} | {4.0: "supporting"}
    checks = _run_checks("sepavar_ladder", {"sepavar": _sepavar_report(bad)})
    assert [name for name, ok in checks if not ok] == ["lambda=4.0 against"]
    assert workloads.failed_frac(checks) > 0


def test_missing_reports_fail_every_check_without_raising():
    for name, w in workloads.WORKLOADS.items():
        labels = w.configs(1)
        checks = _run_checks(name, {label: None for label in labels}, {l: Path("/nonexistent") for l in labels}, 1)
        assert checks and workloads.failed_frac(checks) == 1.0, name


def test_accuracy_at_the_floor_and_against_the_reference():
    acc = workloads.WORKLOADS["sepavar_ladder"].accuracy({"sepavar": _sepavar_report()})
    # the fake report reproduces the prediction and the reference exactly
    assert acc == {"ess_norm_rel_err": workloads.ERROR_FLOOR, "weyl_abs_err": workloads.ERROR_FLOOR}
    rep = _sepavar_report()
    rep["results"]["weyl"][-1]["traj"][-1] += 3e-3
    acc = workloads.WORKLOADS["sepavar_ladder"].accuracy({"sepavar": rep})
    assert acc["weyl_abs_err"] == pytest.approx(1e-3)


def test_probe_lambdas_repeat_per_seed_and_keep_their_classes():
    assert workloads.probe_lambdas(7) == workloads.probe_lambdas(7)
    assert workloads.probe_lambdas(7) != workloads.probe_lambdas(8)
    for lam, cls in workloads.probe_lambdas(7):
        z = complex(lam)
        if cls == "supporting":
            assert z.imag == 0 and abs(z.real) <= 3.0
        else:
            assert abs(z.imag) >= 1.1 or abs(z.real) >= 5.0


def _operator_io_outputs(tmp_path):
    m = np.arange(12, dtype=float).reshape(3, 4) + 1j
    out = tmp_path / "build_op"
    out.mkdir()
    save_matrix_bin(m, out / "operator.bin")
    save_matrix_csv(m, out / "operator.csv")
    ok = {"plancherel_defect": 0.0, "roundtrip_defect": 0.0, "matrix_agreement": 0.0, "tolerance": 1e-10}
    reports = {
        "selftest_1d": {"results": ok},
        "selftest_2d": {"results": ok},
        "build_op": {"results": {"shape": [3, 4], "hs_norm": hs_norm(m)}},
        "diagram_1d": {"results": {"residual": 0.0, "tolerance": 1e-10}},
        "diagram_2d": {"results": {"residual": 0.0, "tolerance": 1e-10}},
    }
    return reports, {label: out for label in reports}, out


def test_truncated_matrix_file_counts_as_failure(tmp_path):
    reports, dirs, out = _operator_io_outputs(tmp_path)
    assert workloads.failed_frac(_run_checks("operator_io", reports, dirs)) == 0.0
    data = (out / "operator.bin").read_bytes()
    (out / "operator.bin").write_bytes(data[:-8])
    checks = _run_checks("operator_io", reports, dirs)
    assert [name for name, ok in checks if not ok] == ["operator.bin reloads to the report's hs_norm"]
    assert workloads.failed_frac(checks) > 0


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "cli", "main", 0.0, 10.0],
        [1, 0, "spectral", "sigma_min", 1.0, 4.0],
        [2, 1, "pdo", "frequency_section", 2.0, 3.0],
        [3, 0, "spectral", "sigma_min", 5.0, 6.0],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    agg = tracer.aggregate([{"spans": spans, "counters": {"x": 2}}])
    assert agg["calls"]["spectral.sigma_min"] == 2
    assert agg["self_s"]["spectral.sigma_min"] == 3.0
    assert agg["self_s"]["spectral"] == 3.0
    assert agg["counters"] == {"x": 2}


def _traced_counters(tmp_path, doc, tag):
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(doc))
    spans = tmp_path / f"{tag}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CORONA_PDO_THREADS="1")
    argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "run", "--config", str(cfg), "--out", str(tmp_path / tag)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    trace = json.loads(spans.read_text())
    assert trace["exit_code"] == 0
    return trace


@pytest.mark.parametrize(
    "doc",
    [
        {
            "schema": 1,
            "task": "spectrum-probe",
            "symbol": workloads.FLAGSHIP_SYMBOL,
            "schedule": {"bands": [16, 32, 64]},
            "lambdas": [0.0, 4.0],
        },
        {
            "schema": 1,
            "task": "build-op",
            "group": {"kind": "finite_cyclic", "n": 16},
            "symbol": workloads.FLAGSHIP_SYMBOL,
            "matrix_format": "both",
        },
    ],
    ids=["probe-small", "build-op-small"],
)
def test_computed_counts_repeat_exactly(tmp_path, doc):
    first = _traced_counters(tmp_path, doc, "a")
    second = _traced_counters(tmp_path, doc, "b")
    assert first["counters"] == second["counters"]
    names = lambda t: sorted({(s[2], s[3]) for s in t["spans"]})
    assert names(first) == names(second)
    agg = tracer.aggregate([first])
    assert agg["calls"]["cli.main"] == 1
    if doc["task"] == "build-op":
        assert first["counters"]["pdo.save_matrix.bytes"] > 16 * 16 * 16
        assert agg["calls"]["pdo.op_matrix"] == 1
    else:
        assert first["counters"]["spectral.dense_flops"] > 0
        assert first["counters"]["pdo.frequency_section.bytes"] > 0
        assert agg["calls"]["spectral.sigma_min"] > 0
