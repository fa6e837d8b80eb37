"""Refactor guard: run every corona-pdo entry point from two source trees and
diff what they write.

    python3 tools/report_guard.py OLD_ROOT NEW_ROOT [--work DIR] [--atol X]

Each root is a source checkout holding ``src/corona_pdo``.  All 7 tasks and 5
presets run once per root on a small fixed config, plus variants that spell
every config table entry (psi families, gamma profiles, CSV-backed symbols,
filter bases, groups, ``vo`` and per-task tolerances) and leave out every
per-task default, each in its own ``python -m corona_pdo.cli run`` process.
The old tree runs at ``CORONA_PDO_THREADS=1`` and the new one with the
variable removed, so it forks on every usable core: every config compares
serial against forked (on a host with one usable core both run serially, and
the guard prints a note saying so).  Both run with the OMP, OpenBLAS and MKL
pools at one thread.  The ``meta.timestamp`` line of ``report.json`` is
dropped; the exit code, every other report line and every side file must match
byte for byte, and so must the stderr of a run that exits non-zero (the error
line, and no traceback in place of it), once the paths of the work directory
and the source root are replaced by ``<work>`` and ``<root>``.  A run whose
stderr holds a Python traceback is reported even when both trees print the
same one: a bad config must end in one ``[error]`` line.  A run that takes
longer than ``TIMEOUT_S`` seconds is stopped, records the exit code
``timeout`` and is reported even when both trees time out.  With ``--atol X``,
report.json and CSV files compare by value instead: numbers within X of each
other match (a CSV cell is a number when it parses as one), while strings,
booleans, nulls, keys, list lengths, CSV shapes, exit codes and stderr must
still match exactly.  With ``--work DIR``, a directory that must not exist
yet, the run outputs stay in DIR.  Prints each difference and exits 1 if there
is any, 0 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import csv
import json
import math
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

# Variants, labelled "task/variant": every spelling of every config table
# entry (psi families as strings and mappings, gamma profiles, filter base
# kinds, product groups, vo mappings, per-task tolerances).
PRODUCT = {
    "kind": "product",
    "factors": [{"kind": "finite_cyclic", "n": 4}, {"kind": "torus", "samples": 4}],
}
PRODUCT_CYCLIC = {  # finite: reaches the dense DFT matrix and a 2-d diagram residual
    "kind": "product",
    "factors": [{"kind": "finite_cyclic", "n": 8}, {"kind": "finite_cyclic", "n": 16}],
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
TWO_TERM = {"family": "tensor", "terms": [
    {"gamma": {"profile": "cos-offset", "offset": 2.0, "amplitude": 1.0}, "psi": "vo:sqrt"},
    {
        "gamma": {"profile": "cos-offset", "offset": 0.0, "amplitude": 0.5, "frequency": 5},
        "psi": "vo:sqrt",
    },
]}
TWO_TERM_COMPLEX = {"family": "tensor", "terms": [
    TWO_TERM["terms"][0], {**TWO_TERM["terms"][1], "gamma": {"profile": "const", "value": "0.5+0.5j"}},
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
    "fourier-selftest/truncated-integers": {
        "task": "fourier-selftest", "group": {"kind": "truncated_integers", "band": 8},
    },
    "fourier-selftest/line": {
        "task": "fourier-selftest", "group": {"kind": "line", "step": 0.5, "extent": 8},
    },
    # odd, weighted and truncated factors reach every branch of the label rule
    "fourier-selftest/line-odd": {
        "task": "fourier-selftest", "group": {"kind": "line", "step": 0.5, "extent": 7.5},
    },
    "fourier-selftest/cyclic-49-weighted": {
        "task": "fourier-selftest", "group": {"kind": "finite_cyclic", "n": 49, "weight": 0.3},
    },
    "build-op/torus-band": {
        "task": "build-op", "group": {"kind": "torus", "samples": 12}, "band": 5,
        "symbol": FLAGSHIP, "matrix_format": "csv",
    },
    "diagram-check/product-odd": {
        "task": "diagram-check", "symbol": "vo:sqrt", "tolerances": {"diagram": 1e-9},
        "group": {"kind": "product", "factors": [
            {"kind": "finite_cyclic", "n": 7, "weight": 0.3}, {"kind": "finite_cyclic", "n": 12},
        ]},
    },
    "diagram-check/tolerances": {
        "task": "diagram-check", "group": PRODUCT, "symbol": "vo:sqrt",
        "tolerances": {"diagram": 1e-9},
    },
    "fourier-selftest/product-cyclic": {"task": "fourier-selftest", "group": PRODUCT_CYCLIC},
    "diagram-check/product-cyclic": {
        "task": "diagram-check", "group": PRODUCT_CYCLIC, "symbol": "vo:sqrt",
        "tolerances": {"diagram": 1e-9},
    },
    "gohberg/tolerances+base": {
        "task": "gohberg", "symbol": "vo:sqrt", **LADDER,
        "base": {"kind": "directional", "omega0": [-1]},
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
    "examples:sepavar/ignored-keys": {  # the preset runs its own symbol on the schedule's grids
        "task": "examples:sepavar", **LADDER, "symbol": {"family": "const", "value": 2},
        "group": CYCLIC,
    },
    "examples:pescado/scales": {
        "task": "examples:pescado",
        "asym": {"scales": [100, 200], "points_per_scale": 300, "span": 4},
    },
    # the preset's own sampling defaults, whole and key by key
    "examples:pescado/default": {"task": "examples:pescado"},
    "examples:pescado/points": {"task": "examples:pescado", "asym": {"points_per_scale": 300}},
    "examples:cesaro/default": {"task": "examples:cesaro"},
    # 262,144 points stream in 8 blocks; the balls of radius 32768 and 65536 end on block edges
    "examples:cesaro/blocks": {"task": "examples:cesaro", "band": 2**17},
    # 10^5 points a scale stream in several blocks: the 1-d standard and thickened
    # samples in runs of radii, the 2-d standard and directional ones in whole rays
    "examples:stoskan/blocks": {"task": "examples:stoskan", "asym": {"points_per_scale": 100000}},
    "examples:rradial/blocks": {"task": "examples:rradial", "asym": {"points_per_scale": 100000}},
    # two terms reach the generic (non-factorized) at-infinity pass
    "gohberg/two-term": {"task": "gohberg", "symbol": TWO_TERM, **LADDER},
    "gohberg/two-term+ethick": {  # the generic pass polished inside a thickened complement
        "task": "gohberg", "symbol": TWO_TERM, **LADDER, "base": {"kind": "ethick"},
    },
    "fredholm/two-term": {"task": "fredholm", "symbol": TWO_TERM, **LADDER},
    # a complex gamma sums the generic pass in complex arithmetic; the others stay real
    "gohberg/two-term-complex": {"task": "gohberg", "symbol": TWO_TERM_COMPLEX, **LADDER},
    "fredholm/two-term-complex": {"task": "fredholm", "symbol": TWO_TERM_COMPLEX, **LADDER},
    # no-ladder verdicts: the 1-d torus check of the ladders must not reach them.
    # sin sqrt|xi| vanishes at 0, so it is NOT-FREDHOLM; Op(1) is the identity
    "fredholm/noncompact-group": {
        "task": "fredholm", "symbol": "vo:sqrt", **LADDER,
        "group": {"kind": "line", "step": 0.5, "extent": 8.0},
    },
    "fredholm/noncompact-identity": {
        "task": "fredholm", "symbol": {"family": "const", "value": 1.0}, **LADDER,
        "group": {"kind": "truncated_integers", "band": 32},
    },
    # sin sqrt|xi| + 2 is a sum constant in x: FREDHOLM-SUFFICIENT with floor 1
    "fredholm/noncompact-sum": {
        "task": "fredholm", "group": {"kind": "line", "step": 0.5, "extent": 32}, "asym": SMALL,
        "symbol": {"family": "tensor", "terms": [
            {"psi": "vo:sqrt"}, {"psi": {"family": "const", "value": 2}},
        ]},
    },
    # a Gram bandwidth of 10: real, complex and outside-the-spectrum lambdas
    "spectrum-probe/two-term": {
        "task": "spectrum-probe", "symbol": TWO_TERM, **LADDER, "lambdas": [1.5, "0.5+0.2j", 6.0],
    },
    # the probe's shell is the base's element: one-sided along a direction
    "spectrum-probe/base": {
        "task": "spectrum-probe", "symbol": FLAGSHIP, **LADDER, "lambdas": [0.0, 4.5],
        "base": {"kind": "directional", "omega0": [1]},
    },
    # table symbols read from the CSVs that run_all writes
    "build-op/symbol=csv": {
        "task": "build-op", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "csv", "path": "symbol4.csv"}, "matrix_format": "both",
    },
    "diagram-check/symbol=csv": {
        "task": "diagram-check", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "csv", "path": "symbol4.csv"},
    },
    # a table has no values off the grid: rebinding it to the first rung ends the run with exit 1
    "fredholm/symbol=csv": {
        "task": "fredholm", "group": {"kind": "torus", "samples": 8},
        "symbol": {"family": "csv", "path": "symbol8.csv"},
    },
})


def parabola_cone(omega0):
    """A cone along omega0 (aperture 50 / t) intersected with the complement of the
    thickened parabola."""
    return {"kind": "intersection", "parts": [
        {"kind": "directional", "omega0": omega0, "aperture_scale": 50},
        {"kind": "ethick", "set": "parabola"},
    ]}


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
    "base=directional-1d": {
        "psi": "cesaro-indicator", "base": {"kind": "directional", "omega0": [1]},
    },
    "base=intersection": {  # masks through a 1-d cone
        "psi": {"family": "vo:shifted", "offset": 2},
        "base": {"kind": "intersection", "parts": [
            {"kind": "standard"}, {"kind": "directional", "omega0": [1]},
        ]},
    },
    "base=intersection-ethick": {  # polished inside the ethick part's mask too
        "psi": "vo:sqrt",
        "base": {"kind": "intersection", "parts": [{"kind": "standard"}, {"kind": "ethick"}]},
    },
    "base=directional-aperture": {
        "dim": 2, "psi": {"family": "dirdecay", "omega0": [0, 2], "rate": 2},
        "base": {"kind": "directional", "omega0": [0, 1], "aperture_scale": 0.5},
    },
    "base=directional-wide": {  # an aperture past pi at t = 100: the cone is everything
        "dim": 2, "psi": {"family": "dirdecay", "omega0": [1, 1]},
        "base": {"kind": "directional", "omega0": [0, 1], "aperture_scale": 400},
    },
    "base=intersection-2d": {  # a cone's fan, cut by the complement of a thickened parabola
        "dim": 2, "psi": {"family": "c0:inv"}, "base": parabola_cone([0, -1]),
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
# error lines: a base row of the wrong length, a values gamma that fits the first
# rung's x grid (4 x 64 points) and no later one, a band with one dyadic ball and
# one that would stream for years, a cone that the thickened parabola swallows,
# gohberg and fredholm ladders on a group that is no torus, a band on a group whose
# dual is no truncated Z and one past the torus's Nyquist limit, a zero vo shift,
# directions of the plane on a 1-d dual (a psi's default omega0, a second term's psi,
# a vo shift, a cone axis) and symbol CSVs with a NaN cell and with a repeated cell
CONFIGS.update({
    "asymptotics/base=standard-extra-3d": {
        "task": "asymptotics", "dim": 2, "asym": SMALL,
        "psi": {"family": "c0:inv"}, "base": {"kind": "standard", "extra_directions": [[1, 0, 0]]},
    },
    "gohberg/gamma=values": {
        "task": "gohberg", **LADDER, "symbol": {"family": "tensor", "psi": "vo:sqrt", "gamma": {
            "profile": "values", "data": [2.0 + (i % 3) for i in range(256)],
        }},
    },
    "examples:cesaro/band=16": {"task": "examples:cesaro", "band": 16},
    "examples:cesaro/band=1e15": {"task": "examples:cesaro", "band": 1e15},
    "asymptotics/base=intersection-empty": {
        "task": "asymptotics", "dim": 2, "asym": SMALL,
        "psi": {"family": "c0:inv"}, "base": parabola_cone([0, 1]),
    },
    "gohberg/group=cyclic": {"task": "gohberg", **LADDER, "symbol": FLAGSHIP, "group": CYCLIC},
    "fredholm/group=cyclic": {"task": "fredholm", **LADDER, "symbol": FLAGSHIP, "group": CYCLIC},
    "build-op/band=cyclic": {"task": "build-op", "group": CYCLIC, "symbol": FLAGSHIP, "band": 4},
    "build-op/band=9": {
        "task": "build-op", "group": {"kind": "torus", "samples": 16}, "symbol": FLAGSHIP, "band": 9,
    },
    "asymptotics/vo=zero-shift": {
        "task": "asymptotics", "psi": "vo:pow:2", "asym": SMALL, "vo": {"shifts": [[0]]},
    },
    "asymptotics/psi=dirdecay-1d": {"task": "asymptotics", "psi": "dirdecay", "asym": SMALL},
    "gohberg/term=dirdecay-1d": {
        "task": "gohberg", **LADDER,
        "symbol": {"family": "tensor", "terms": [{"psi": "vo:sqrt"}, {"psi": "dirdecay"}]},
    },
    "asymptotics/vo=shift-2d-1d": {
        "task": "asymptotics", "psi": "vo:sqrt", "asym": SMALL, "vo": {"shifts": [[1, 0]]},
    },
    "asymptotics/base=directional-2d-1d": {
        "task": "asymptotics", "psi": "vo:sqrt", "asym": SMALL,
        "base": {"kind": "directional", "omega0": [0, 1]},
    },
    "diagram-check/symbol=csv-nan": {
        "task": "diagram-check", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "csv", "path": "symbol4-nan.csv"},
    },
    "build-op/symbol=csv-repeat": {
        "task": "build-op", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "csv", "path": "symbol4-repeat.csv"},
    },
    # a Gram of 1e200 squared passes float64's range; 1e308 overflows the FFT: exit 1
    "diagram-check/const=1e200": {
        "task": "diagram-check", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "const", "value": 1e200},
    },
    "diagram-check/const=1e308": {
        "task": "diagram-check", "group": {"kind": "finite_cyclic", "n": 4},
        "symbol": {"family": "const", "value": 1e308},
    },
    # 37 rows, a prime: the rows split into parts of uneven size on any number of cores
    "build-op/n=37": {
        "task": "build-op", "group": {"kind": "finite_cyclic", "n": 37}, "symbol": FLAGSHIP,
        "matrix_format": "both",
    },
})


def _write_symbol_csvs(work: Path) -> None:
    """The n x n symbol tables symbol4.csv and symbol8.csv that the csv configs read,
    symbol4-repeat.csv, symbol4.csv with a second line for (1, 2), and
    symbol4-nan.csv, symbol4.csv with a NaN real part at (1, 2)."""
    for n in (4, 8):
        rows = [f"{i},{k},{(i * n + k) % 5 - 1.5},{0.25 * i}\n" for i in range(n) for k in range(n)]
        (work / f"symbol{n}.csv").write_text("x_index,xi_index,re,im\n" + "".join(rows))
        if n == 4:
            repeat = "x_index,xi_index,re,im\n" + "".join(rows) + "1,2,99,0\n"
            (work / "symbol4-repeat.csv").write_text(repeat)
            rows[6] = "1,2,nan,0.25\n"
            (work / "symbol4-nan.csv").write_text("x_index,xi_index,re,im\n" + "".join(rows))


BLAS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRACEBACK = b"Traceback (most recent call last)"
# seconds one config may run: about 150 times the slowest config (0.4 s on 2 cores),
# so one that never ends stops there instead of hanging the comparison
TIMEOUT_S = 60
TIMED_OUT = b"timeout"


def run_all(root: Path, work: Path, cap: str | None) -> dict:
    """Run every config against ``root``; name -> {file name: bytes}.  ``cap`` is
    the ``CORONA_PDO_THREADS`` value the runs see, or None to leave it unset."""
    root, work = root.resolve(), work.resolve()
    env = {k: v for k, v in os.environ.items() if k != "CORONA_PDO_THREADS"}
    env.update(dict.fromkeys(BLAS, "1"), PYTHONPATH=str(root / "src"))
    if cap is not None:
        env["CORONA_PDO_THREADS"] = cap
    _write_symbol_csvs(work)
    outputs = {}
    for name, extra in CONFIGS.items():
        out = work / name.replace(":", "_").replace("/", "__").replace("=", "-")
        cfg = work / f"{out.name}.json"
        cfg.write_text(json.dumps({"schema": 1, "task": name, "seed": 5, **extra}))
        argv = [sys.executable, "-m", "corona_pdo.cli", "run", "--config", str(cfg), "--out", str(out)]
        try:
            proc = subprocess.run(argv, env=env, cwd=work, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outputs[name] = {"exit code": TIMED_OUT}
            continue
        files = {"exit code": str(proc.returncode).encode()}
        # a failed run's error line, and any traceback, with this run's paths named alike
        if proc.returncode != 0 or TRACEBACK in proc.stderr:
            err = proc.stderr.replace(str(work).encode(), b"<work>")
            files["stderr"] = err.replace(str(root).encode(), b"<root>")
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
            if fname.endswith((".json", ".csv", "stderr")) and fname in a and fname in b:
                text = lambda data: data.decode("utf-8", "replace").splitlines()
                lines = difflib.unified_diff(text(a[fname]), text(b[fname]), "old", "new", lineterm="")
                problems.extend("    " + line for line in list(lines)[:40])
        for tree, files in (("old", a), ("new", b)):
            if TRACEBACK in files.get("stderr", b""):
                problems.append(f"{name}: the {tree} tree printed a traceback")
            if files["exit code"] == TIMED_OUT:
                problems.append(f"{name}: the {tree} tree timed out")
    return problems


def _parse(fname: str, data: bytes):
    text = data.decode("utf-8")
    if fname.endswith(".json"):
        return json.loads(text)
    return [[_csv_cell(c) for c in row] for row in csv.reader(text.splitlines())]


def _csv_cell(cell: str):
    try:
        return float(cell)
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
    if args.work is not None and args.work.exists():
        parser.error(f"--work {args.work} already exists: give a new directory")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for tag in ("old", "new"):
            (work / tag).mkdir(parents=True)
        old = run_all(args.old_root, work / "old", "1")
        new = run_all(args.new_root, work / "new", None)
        problems = diff(old, new, args.atol)
    for line in problems:
        print(line)
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        print("[guard] note: one usable core here, so the new tree ran serially too")
    print(f"[guard] {len(CONFIGS)} configs, {'differences found' if problems else 'no differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
