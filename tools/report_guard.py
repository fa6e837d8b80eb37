"""Refactor guard: run every corona-pdo entry point from two source trees and
diff what they write.

    python3 tools/report_guard.py OLD_ROOT NEW_ROOT [--work DIR] [--atol X]

Each root is a source checkout holding ``src/corona_pdo``.  All 7 tasks and
5 presets run once per root on a small fixed config, plus variants that
spell every config table entry (psi families, gamma profiles, filter bases,
groups, ``vo`` and per-task tolerances), each in its own
``python -m corona_pdo.cli run`` process with ``CORONA_PDO_THREADS=1``.  The
``meta.timestamp`` line of ``report.json`` is dropped; the exit code, every
other report line and every side file must match byte for byte.  With
``--atol X``, report.json and CSV files compare by value instead: numbers
within X of each other match (a CSV cell is a number when it parses as one,
also inside a ``np.float64(...)`` repr), while strings, booleans, nulls, keys,
list lengths, CSV shapes and exit codes must still match exactly.  Prints
each difference and exits 1 if there is any, 0 otherwise.  Standard library
only.
"""

from __future__ import annotations

import argparse
import difflib
import csv
import json
import math
import os
import re
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

# Variants, labelled "task/variant": every spelling of every config table
# entry (psi families as strings and mappings, gamma profiles, filter base
# kinds, product groups, vo mappings, per-task tolerances).
PRODUCT = {
    "kind": "product",
    "factors": [{"kind": "finite_cyclic", "n": 4}, {"kind": "torus", "samples": 4}],
}
PSI_SPELLINGS = {
    "vo:sqrt": "vo:sqrt",
    "vo:sqrt-map": {"family": "vo:sqrt"},
    "vo:pow": "vo:pow:0.75",
    "vo:pow-map": {"family": "vo:pow", "alpha": 0.75},
    "vo:pow-int": "vo:pow:1",
    "vo:shifted": {"family": "vo:shifted", "offset": 3, "alpha": 0.25},
    "cesaro-indicator": "cesaro-indicator",
    "cesaro-indicator-map": {"family": "cesaro-indicator"},
    "c0:inv": {"family": "c0:inv", "power": 2},
    "c0:inv-default": {"family": "c0:inv"},
    "const": {"family": "const", "value": "1+2j"},
    "const-default": {"family": "const"},
}
for label, psi in PSI_SPELLINGS.items():
    CONFIGS[f"build-op/symbol={label}"] = {"task": "build-op", "group": CYCLIC, "symbol": psi}
VALUES_TERMS = {"family": "tensor", "terms": [
    {"gamma": {"profile": "values", "data": list(range(16))}, "psi": "vo:sqrt"},
    {
        "gamma": {"profile": "cos-offset", "offset": 0, "amplitude": 0.5, "frequency": 3},
        "psi": {"family": "vo:shifted", "offset": 1.5},
    },
]}
CONFIGS.update({
    "build-op/symbol=dirdecay": {"task": "build-op", "group": PRODUCT, "symbol": "dirdecay"},
    "build-op/symbol=dirdecay-map": {
        "task": "build-op", "group": PRODUCT,
        "symbol": {"family": "dirdecay", "omega0": [1, 1], "rate": 0.5},
    },
    "build-op/gamma=const": {
        "task": "build-op", "group": CYCLIC,
        "symbol": {"family": "tensor", "gamma": {"profile": "const", "value": 2}, "psi": "vo:sqrt"},
    },
    "build-op/gamma=absent": {
        "task": "build-op", "group": CYCLIC,
        "symbol": {"family": "tensor", "psi": {"family": "c0:inv"}},
    },
    "build-op/gamma=values-terms": {
        "task": "build-op", "group": CYCLIC, "matrix_format": "csv", "symbol": VALUES_TERMS,
    },
    "build-op/symbol=const": {
        "task": "build-op", "group": CYCLIC, "symbol": {"family": "const", "value": 3},
    },
    "fourier-selftest/product": {
        "task": "fourier-selftest", "group": PRODUCT, "tolerances": {"plancherel": 1e-9},
    },
    "fourier-selftest/line": {
        "task": "fourier-selftest", "group": {"kind": "line", "step": 0.5, "extent": 8},
    },
    "diagram-check/tolerances": {
        "task": "diagram-check", "group": PRODUCT, "symbol": "vo:sqrt",
        "tolerances": {"diagram": 1e-9},
    },
    "gohberg/tolerances+base": {
        "task": "gohberg", "symbol": "vo:sqrt", **LADDER, "base": {"kind": "density"},
        "tolerances": {"ratio_band": [0, 2], "zero_tol": 0.1},
    },
    "gohberg/group+band": {
        "task": "gohberg", "symbol": FLAGSHIP, **LADDER,
        "group": {"kind": "torus", "samples": 128}, "band": 32,
    },
    "spectrum-probe/tolerances": {
        "task": "spectrum-probe", "symbol": {"family": "const", "value": 2}, **LADDER,
        "lambdas": [2, 3.5], "tolerances": {"support_tol": 0.1},
    },
    "fredholm/tolerances+base": {
        "task": "fredholm", "symbol": {"family": "vo:shifted", "offset": 2}, **LADDER,
        "base": "standard", "tolerances": {"floor_tol": 0.02, "margin_factor": 0.4},
    },
    "examples:sepavar/tolerances": {
        "task": "examples:sepavar", **LADDER, "lambdas": [1.5],
        "tolerances": {
            "ratio_band": [0.9, 1.1], "zero_tol": 0.01, "support_tol": 0.1,
            "floor_tol": 0.02, "margin_factor": 0.4,
        },
    },
    "examples:pescado/scales": {
        "task": "examples:pescado",
        "asym": {"scales": [100, 200], "points_per_scale": 300, "span": 4},
    },
    "examples:cesaro/default": {"task": "examples:cesaro"},
})
ASYM_CASES = {
    "base=standard": {"psi": "vo:sqrt", "base": {"kind": "standard"}},
    "base=standard-extra": {
        "dim": 2, "psi": {"family": "c0:inv"},
        "base": {"kind": "standard", "extra_directions": [[1, 1]]},
    },
    "base=ethick-halfline": {
        "psi": {"family": "vo:pow", "alpha": 0.5}, "base": {"kind": "ethick", "a": 3},
    },
    "base=ethick-parabola": {
        "dim": 2, "psi": {"family": "c0:inv"}, "base": {"kind": "ethick", "set": "parabola"},
        "asym": {"scales": [100.0], "points_per_scale": 400},
    },
    "base=density": {"psi": "cesaro-indicator", "base": {"kind": "density"}},
    "base=intersection": {
        "psi": {"family": "vo:shifted", "offset": 2},
        "base": {"kind": "intersection", "parts": [{"kind": "standard"}, {"kind": "density"}]},
    },
    "base=directional-aperture": {
        "dim": 2, "psi": {"family": "dirdecay", "omega0": [0, 2], "rate": 2},
        "base": {"kind": "directional", "omega0": [0, 1], "aperture_scale": 0.5},
    },
    "vo=mapping": {
        "psi": {"family": "vo:pow", "alpha": 0.75},
        "vo": {"shifts": [[0.5], [1]], "radii": [100, 1000, 10000]},
    },
    "vo=shifts-only": {"dim": 2, "psi": "vo:sqrt", "vo": {"shifts": [[1, 0]]}},
    "vo=empty": {"psi": {"family": "const", "value": 0.5}, "vo": {}},
    "psi=const-3d": {"dim": 3, "psi": {"family": "const"}, "vo": True},
}
for label, extra in ASYM_CASES.items():
    CONFIGS[f"asymptotics/{label}"] = {"task": "asymptotics", "asym": SMALL, **extra}


def run_all(root: Path, work: Path) -> dict:
    """Run every config against ``root``; name -> {file name: bytes}."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), CORONA_PDO_THREADS="1")
    outputs = {}
    for name, extra in CONFIGS.items():
        out = work / name.replace(":", "_").replace("/", "__").replace("=", "-")
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


def diff(old: dict, new: dict, atol: float | None = None) -> list:
    problems = []
    for name in CONFIGS:
        a, b = old[name], new[name]
        for fname in sorted(set(a) | set(b)):
            if a.get(fname) == b.get(fname):
                continue
            if atol is not None and fname in a and fname in b and fname.endswith((".json", ".csv")):
                found = []
                _compare(_parse(fname, a[fname]), _parse(fname, b[fname]), atol, fname, found)
                problems.extend(f"{name}: {line}" for line in found)
                continue
            problems.append(f"{name}: {fname} differs")
            if fname.endswith((".json", ".csv")) and fname in a and fname in b:
                text = lambda data: data.decode("utf-8", "replace").splitlines()
                lines = difflib.unified_diff(text(a[fname]), text(b[fname]), "old", "new", lineterm="")
                problems.extend("    " + line for line in list(lines)[:40])
    return problems


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _parse(fname: str, data: bytes):
    text = data.decode("utf-8")
    if fname.endswith(".json"):
        return json.loads(text)
    return [[_csv_cell(c) for c in row] for row in csv.reader(text.splitlines())]


def _csv_cell(cell: str):
    match = _NUMPY_REPR.fullmatch(cell)
    try:
        return float(match.group(1) if match else cell)
    except ValueError:
        return cell


def _compare(a, b, atol: float, where: str, found: list) -> None:
    """Append one line per leaf where ``a`` and ``b`` differ beyond ``atol``."""
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(a) and number(b):
        if not (a == b or abs(a - b) <= atol or (math.isnan(a) and math.isnan(b))):
            found.append(f"{where}: {a!r} -> {b!r} (diff {abs(a - b):.3g})")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            found.append(f"{where}: keys {sorted(a.keys() ^ b.keys())} differ")
        for key in a.keys() & b.keys():
            _compare(a[key], b[key], atol, f"{where}.{key}", found)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            found.append(f"{where}: length {len(a)} -> {len(b)}")
        for i, (u, v) in enumerate(zip(a, b)):
            _compare(u, v, atol, f"{where}[{i}]", found)
    elif a != b or type(a) is not type(b):
        found.append(f"{where}: {a!r} -> {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--work", type=Path, help="keep run outputs here (default: a temp dir)")
    parser.add_argument("--atol", type=float, help="compare numbers in reports and CSVs within X")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for tag in ("old", "new"):
            (work / tag).mkdir(parents=True)
        old, new = run_all(args.old_root, work / "old"), run_all(args.new_root, work / "new")
        problems = diff(old, new, args.atol)
    for line in problems:
        print(line)
    print(f"[guard] {len(CONFIGS)} configs, {'differences found' if problems else 'no differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
