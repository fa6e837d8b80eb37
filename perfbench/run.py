"""corona-pdo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Every CLI invocation is a fresh
``python3 -m corona_pdo.cli run`` process, because that is what a user pays,
import included.  Invocations run one at a time from this process, with the
BLAS thread cap set explicitly to the number of usable cores.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` does the same untraced repeats, then runs
the workload once more under the outside tracer (``tracer.py``) and reports
the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# Per-layer metrics as (name, unit, source) where source is
# ("calls"|"self_s", "<layer>.<function>"[, ...]) or ("counter", key).
PER_LAYER = (
    ("spectral.sigma_min.calls", "count", ("calls", "spectral.sigma_min")),
    ("spectral.sigma_min.self_s", "s", ("self_s", "spectral.sigma_min")),
    ("spectral.singular_values.calls", "count", ("calls", "spectral.singular_values")),
    ("spectral.singular_values.self_s", "s", ("self_s", "spectral.singular_values")),
    (
        "spectral.essential_spectrum_probe.self_s",
        "s",
        ("self_s", "spectral.essential_spectrum_probe"),
    ),
    ("spectral.dense_flops", "op", ("counter", "spectral.dense_flops")),
    ("spectral.linalg_warnings", "count", ("counter", "spectral.linalg_warnings")),
    ("spectral.self_s", "s", ("self_s", "spectral")),
    ("pdo.frequency_section.calls", "count", ("calls", "pdo.frequency_section")),
    ("pdo.frequency_section.self_s", "s", ("self_s", "pdo.frequency_section")),
    ("pdo.frequency_section.bytes", "B", ("counter", "pdo.frequency_section.bytes")),
    ("pdo.op_matrix.self_s", "s", ("self_s", "pdo.op_matrix")),
    ("pdo.diagram_check.self_s", "s", ("self_s", "pdo.diagram_check")),
    ("pdo.save_matrix.self_s", "s", ("self_s", "pdo.save_matrix_bin", "pdo.save_matrix_csv")),
    ("pdo.save_matrix.bytes", "B", ("counter", "pdo.save_matrix.bytes")),
    ("pdo.self_s", "s", ("self_s", "pdo")),
    ("groups.sub_indices.calls", "count", ("calls", "groups.sub_indices")),
    ("groups.sub_indices.self_s", "s", ("self_s", "groups.sub_indices")),
    ("groups.self_s", "s", ("self_s", "groups")),
    ("fourier.fourier.self_s", "s", ("self_s", "fourier.fourier", "fourier.inverse_fourier")),
    ("fourier.transform_matrix.self_s", "s", ("self_s", "fourier.transform_matrix")),
    ("fourier.self_s", "s", ("self_s", "fourier")),
    ("symbols.rebound.calls", "count", ("calls", "symbols.rebound")),
    ("symbols.eval_outer.self_s", "s", ("self_s", "symbols.eval_outer")),
    ("symbols.closure.points", "count", ("counter", "symbols.closure.points")),
    ("symbols.distance.self_s", "s", ("self_s", "symbols.distance")),
    ("symbols.cesaro_mean.self_s", "s", ("self_s", "symbols.cesaro_mean")),
    ("symbols.self_s", "s", ("self_s", "symbols")),
    ("asymptotics.limsup_along.calls", "count", ("calls", "asymptotics.limsup_along")),
    ("asymptotics.limsup_along.self_s", "s", ("self_s", "asymptotics.limsup_along")),
    ("asymptotics.sample.self_s", "s", ("self_s", "asymptotics.sample")),
    ("asymptotics.modulus_field.self_s", "s", ("self_s", "asymptotics.modulus_field")),
    ("asymptotics.self_s", "s", ("self_s", "asymptotics")),
    ("sampling.annulus.self_s", "s", ("self_s", "sampling.annulus")),
    ("sampling.points", "count", ("counter", "sampling.points")),
    ("sampling.self_s", "s", ("self_s", "sampling")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
    ("trace_overhead_s", "s", None),
)


class BenchError(RuntimeError):
    pass


# -- processes -------------------------------------------------------------------------


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("CORONA_PDO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    return env


def run_child(argv, env, log_path: Path) -> dict:
    """Run one process to completion; wall time, max RSS and exit code."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def write_configs(workload, seed: int, cfg_dir: Path) -> dict:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, doc in workload.configs(seed).items():
        paths[label] = cfg_dir / f"{label}.json"
        paths[label].write_text(json.dumps(doc, indent=1))
    return paths


def measure_setup(cfg_paths: dict, env, work: Path) -> list:
    argv = [sys.executable, str(HERE / "setup_probe.py"), *map(str, cfg_paths.values())]
    samples = []
    for i in range(SETUP_REPEATS + 1):  # the first fills the bytecode cache
        r = run_child(argv, env, work / "setup.log")
        if r["exit"] != 0:
            raise BenchError(f"set-up probe failed; see {work / 'setup.log'}")
        if i:
            samples.append(r["wall_s"])
    return samples


def read_report(out_dir: Path):
    try:
        return json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError):
        return None


def run_iteration(workload, seed, cfg_paths, env, work: Path, traced: bool = False) -> dict:
    """All invocations of the workload once; checks on their outputs."""
    wall, rss, checks, reports, dirs, spans = 0.0, 0.0, [], {}, {}, []
    for label, cfg in cfg_paths.items():
        out = work / ("traced" if traced else "runs") / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli_argv = ["run", "--config", str(cfg), "--out", str(out)]
        if traced:
            span_path = out.parent / f"{label}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(span_path), *cli_argv]
        else:
            argv = [sys.executable, "-m", "corona_pdo.cli", *cli_argv]
        log = out.parent / f"{label}.log"
        r = run_child(argv, env, log)
        wall += r["wall_s"]
        rss = max(rss, r["rss_mb"])
        reports[label], dirs[label] = read_report(out), out
        checks.append((f"{label} exits 0 with a report", r["exit"] == 0 and reports[label] is not None))
        if traced:
            spans.append(_read_trace(span_path, log))
    checks += workload.check(reports, dirs, seed)
    return {"wall_s": wall, "rss_mb": rss, "checks": checks, "reports": reports, "traces": spans}


def _read_trace(span_path: Path, log: Path) -> dict:
    try:
        doc = json.loads(span_path.read_text())
    except (OSError, ValueError):
        return {"spans": [], "counters": {}}
    text = log.read_text(errors="replace")
    doc["counters"]["spectral.linalg_warnings"] = text.count("LinAlgWarning")
    return doc


# -- reporting ----------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(cap: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env(cap)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        **{
            v: env[v]
            for v in ("CORONA_PDO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def per_layer_metrics(traces, traced_wall: float, untraced_median: float) -> dict:
    from tracer import aggregate

    agg = aggregate(traces)
    out = {}
    for name, unit, source in PER_LAYER:
        if source is None:
            value = traced_wall - untraced_median
        elif source[0] == "counter":
            value = agg["counters"].get(source[1], 0)
        else:
            value = sum(agg[source[0]].get(key, 0) for key in source[1:])
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    from workloads import WORKLOADS, failed_frac

    if args.workload not in WORKLOADS:
        print(f"[error] unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    if not (SRC / "corona_pdo" / "cli.py").is_file():
        print(f"[error] no corona_pdo sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]

    cap = usable_cores()
    os.environ.update({k: v for k, v in child_env(cap).items() if k.endswith("THREADS")})
    sys.path.insert(0, str(SRC))
    env = child_env(cap)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cfg_paths = write_configs(workload, args.seed, work / "configs")
    try:
        setup = measure_setup(cfg_paths, env, work)
    except BenchError as e:
        print(f"[error] {e}", file=sys.stderr)
        return 1

    # repeat while another pass fits in the measuring time (checks excluded)
    iters = []
    while True:
        iters.append(run_iteration(workload, args.seed, cfg_paths, env, work))
        measured = sum(it["wall_s"] for it in iters)
        if measured + measured / len(iters) > args.seconds:
            break

    checks = [c for it in iters for c in it["checks"]]
    walls = [it["wall_s"] for it in iters]
    wall_med = statistics.median(walls)
    traced = None
    if args.trace:
        traced = run_iteration(workload, args.seed, cfg_paths, env, work, traced=True)
        checks += traced["checks"]
    failed = [name for name, ok in checks if not ok]

    try:
        accuracy = workload.accuracy(iters[0]["reports"])
    except (KeyError, TypeError, IndexError, ValueError, OSError):
        accuracy = None
        failed.append("accuracy metrics readable")
        checks.append(("accuracy metrics readable", False))

    e2e = {
        "wall_s": (wall_med, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(it["rss_mb"] for it in iters), "MB"),
    }
    if accuracy is not None:
        e2e.update({name: (value, "1") for name, value in accuracy.items()})
    samples = {"wall_s": walls, "setup_s": setup}

    print(f"[env] {json.dumps(environment(cap), sort_keys=True)}")
    print(f"[workload] {workload.name} seed {args.seed}")
    for name, (value, unit) in e2e.items():
        line = f"  {name:18s}{value:.6g} {unit}"
        if name in samples:
            q1, q3 = quartiles(samples[name])
            runs = ", ".join(f"{v:.3f}" for v in samples[name])
            line += f"  (median; q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[name])}: {runs})"
        print(line)
    print(f"  {'failed_frac':18s}{failed_frac(checks):.4g}  ({len(failed)} of {len(checks)} checks failed)")
    for name in failed:
        print(f"  [failed] {name}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    if traced is not None:
        metrics = per_layer_metrics(traced["traces"], traced["wall_s"], wall_med)
        print(f"[trace] traced run {traced['wall_s']:.4f} s")
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
