"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                               [--trace] [--out summary.json]

For every workload it runs ``run.py`` once per seed, then prints, per
metric, the median, the quartiles, the sample count and the spread (the
distance between the quartiles as a share of the median, the figure the
bounds in BENCHMARK.json are checked against), with the correctness-check
tally.  ``--trace`` adds one traced run per workload (first seed) and prints
its per-layer table.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(final JSON object, environment record) of one run.py run."""
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next(json.loads(l[6:]) for l in lines if l.startswith("[env] "))
    return json.loads(lines[-1]), env


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs, envs = zip(*(run_once(workload, s, args.seconds, 0) for s in seeds_from(args.seeds)))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} checks failed")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            print(
                f"  {name:18s} {s['median']:.6g} {s['unit']:5s} "
                f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}) "
                f"spread {s['spread']:.3f} of bound {bounds[name]}"
            )
        entry = {"attempted": attempted, "failed": failed, "metrics": metrics, "env": envs[0]}
        if args.trace:
            traced, _ = run_once(workload, seeds_from(args.seeds)[0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            for name, m in traced["metrics"].items():
                print(f"    {name:42s} {m['value']:.6g} {m['unit']}")
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
