"""Refactor guard: run every corona-pdo entry point from two source trees and
diff what they write.

    python3 tools/report_guard.py OLD_ROOT NEW_ROOT [--work DIR]

Each root is a source checkout holding ``src/corona_pdo``.  All 7 tasks and
5 presets run once per root on a small fixed config, each in its own
``python -m corona_pdo.cli run`` process with ``CORONA_PDO_THREADS=1``.  The
``meta.timestamp`` line of ``report.json`` is dropped; the exit code, every
other report line and every side file must match byte for byte.  Prints each
difference and exits 1 if there is any, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FLAGSHIP = {
    "family": "tensor",
    "gamma": {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0},
    "psi": "vo:sqrt",
}
LADDER = {"schedule": {"bands": [64, 128, 256]}, "asym": {"points_per_scale": 4000}}
CYCLIC = {"kind": "finite_cyclic", "n": 16}
SMALL = {"points_per_scale": 2000}

CONFIGS = {
    "fourier-selftest": {"group": {"kind": "finite_cyclic", "n": 64}},
    "build-op": {"group": CYCLIC, "symbol": FLAGSHIP, "matrix_format": "both"},
    "diagram-check": {"group": CYCLIC, "symbol": FLAGSHIP},
    "gohberg": {"symbol": FLAGSHIP, **LADDER},
    "spectrum-probe": {"symbol": FLAGSHIP, **LADDER, "lambdas": [0.0, 4.5, "1+2j"]},
    "fredholm": {"symbol": {"family": "vo:shifted", "offset": 2.0}, **LADDER},
    "asymptotics": {
        "dim": 2, "psi": "dirdecay", "base": {"kind": "directional", "omega0": [0, 1]},
        "asym": SMALL, "vo": True,
    },
    "examples:stoskan": {"asym": SMALL},
    "examples:rradial": {"asym": SMALL},
    "examples:pescado": {"asym": {"scales": [100.0], "points_per_scale": 400}},
    "examples:cesaro": {"band": 1024},
    "examples:sepavar": {**LADDER, "lambdas": [0.0, 4.5]},
}


def run_all(root: Path, work: Path) -> dict:
    """Run every config against ``root``; name -> {file name: bytes}."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), CORONA_PDO_THREADS="1")
    outputs = {}
    for name, extra in CONFIGS.items():
        out = work / name.replace(":", "_")
        cfg = work / f"{out.name}.json"
        cfg.write_text(json.dumps({"schema": 1, "task": name, "seed": 5, **extra}))
        argv = [sys.executable, "-m", "corona_pdo.cli", "run", "--config", str(cfg), "--out", str(out)]
        proc = subprocess.run(argv, env=env, cwd=work, capture_output=True)
        files = {"exit code": str(proc.returncode).encode()}
        for path in sorted(out.glob("*")) if out.is_dir() else ():
            data = path.read_bytes()
            if path.name == "report.json":
                lines = data.splitlines(keepends=True)
                data = b"".join(l for l in lines if b'"timestamp":' not in l)
            files[path.name] = data
        outputs[name] = files
    return outputs


def diff(old: dict, new: dict) -> list:
    problems = []
    for name in CONFIGS:
        a, b = old[name], new[name]
        for fname in sorted(set(a) | set(b)):
            if a.get(fname) == b.get(fname):
                continue
            problems.append(f"{name}: {fname} differs")
            if fname.endswith((".json", ".csv")) and fname in a and fname in b:
                text = lambda data: data.decode("utf-8", "replace").splitlines()
                lines = difflib.unified_diff(text(a[fname]), text(b[fname]), "old", "new", lineterm="")
                problems.extend("    " + line for line in list(lines)[:40])
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--work", type=Path, help="keep run outputs here (default: a temp dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for tag in ("old", "new"):
            (work / tag).mkdir(parents=True)
        problems = diff(run_all(args.old_root, work / "old"), run_all(args.new_root, work / "new"))
    for line in problems:
        print(line)
    print(f"[guard] {len(CONFIGS)} entry points, {'differences found' if problems else 'no differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
