"""Outside tracer: spans around the public API of each corona_pdo module.

Nothing under ``src/`` knows about this file.  ``install`` wraps every public
function and every public method of every public class in the traced modules,
then rebinds each wrapped function in every loaded ``corona_pdo`` module
namespace that holds the same object (modules import by name, so
``spectral.frequency_section`` and ``pdo.frequency_section`` are two bindings
of one function).  Callables handed out by public factories are wrapped as
they come back (``ThickenedSet.distance``); ``DualClosure.__call__`` is
wrapped on the class.

Spans stay in memory and are written once, when the traced process ends.
Work counts that the benchmark computes from the dimensions passed in
(dense kernel operations, section and file bytes) are recorded next to the
spans; they repeat exactly from run to run.

Run as a script, it runs one CLI invocation under the tracer::

    python3 perfbench/tracer.py SPANS.json run --config CFG --out DIR
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

TRACED_LAYERS = (
    "groups",
    "fourier",
    "symbols",
    "asymptotics",
    "pdo",
    "spectral",
    "sampling",
)

# complex multiply-adds per dense kernel call on an n x n matrix
SVD_VALUES_OPS = 8.0 / 3.0  # bidiagonalisation dominates svdvals
LU_OPS = 2.0 / 3.0


class Tracer:
    """Span recorder: (id, parent, layer, name, start, end) kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._wrapped = {}  # id(original) -> wrapper

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        if getattr(fn, "__perfbench_span__", None) is not None:
            return fn
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        meter = _METERS.get(name.rsplit(".", 1)[-1])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            record = [sid, parent, layer, name, clock(), None]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if meter is not None:
                meter(self, parent, args, kwargs, result)
            if _is_thickened_set(result):
                result.distance = self.wrap(result.distance, "symbols", "ThickenedSet.distance")
            return result

        traced.__perfbench_span__ = name
        self._wrapped[key] = traced
        return traced

    def parent_layer(self, parent: int) -> str | None:
        return self.spans[parent][2] if parent >= 0 else None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in TRACED_LAYERS:
            mod = importlib.import_module(f"corona_pdo.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self.wrap(obj, layer, attr)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        cli = importlib.import_module("corona_pdo.cli")
        originals[id(cli.main)] = self.wrap(cli.main, "cli", "main")
        # rebind every module-level name that holds a wrapped original
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "corona_pdo" or modname.startswith("corona_pdo.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, layer, name))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(member.__func__, layer, name)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(member.__func__, layer, name)))

    def dump(self, path: str, **extra) -> None:
        doc = {
            "spans": self.spans,
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_thickened_set(obj) -> bool:
    return type(obj).__name__ == "ThickenedSet" and callable(getattr(obj, "distance", None))


# -- computed work counts ------------------------------------------------------


def _square_dim(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is None and hasattr(matrix, "matrix"):
        shape = matrix.matrix().shape
    return int(min(shape))


def _meter_singular_values(tr, parent, args, kwargs, result):
    n = _square_dim(args[0] if args else kwargs["operator"])
    tr.counters["spectral.dense_flops"] += SVD_VALUES_OPS * n**3


def _meter_sigma_min(tr, parent, args, kwargs, result):
    n = _square_dim(args[0] if args else kwargs["matrix"])
    default_cap = getattr(sys.modules["corona_pdo.spectral"], "SIGMA_DENSE_CAP", None)
    cap = kwargs.get("dense_cap", args[1] if len(args) > 1 else default_cap)
    ops = LU_OPS if cap is not None and n > cap else SVD_VALUES_OPS
    tr.counters["spectral.dense_flops"] += ops * n**3


def _meter_frequency_section(tr, parent, args, kwargs, result):
    tr.counters["pdo.frequency_section.bytes"] += 16 * int(result.shape[0]) * int(result.shape[1])


def _meter_save_matrix(tr, parent, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counters["pdo.save_matrix.bytes"] += os.path.getsize(path)


def _meter_closure(tr, parent, args, kwargs, result):
    tr.counters["symbols.closure.points"] += len(result)


def _meter_sampling(tr, parent, args, kwargs, result):
    # only points handed out of the sampling layer, not its internal calls
    if tr.parent_layer(parent) != "sampling":
        tr.counters["sampling.points"] += len(result)


_METERS = {
    "singular_values": _meter_singular_values,
    "sigma_min": _meter_sigma_min,
    "frequency_section": _meter_frequency_section,
    "save_matrix_bin": _meter_save_matrix,
    "save_matrix_csv": _meter_save_matrix,
    "__call__": _meter_closure,
    "annulus": _meter_sampling,
    "kronecker": _meter_sampling,
    "log_radii": _meter_sampling,
    "directions": _meter_sampling,
}


# -- aggregation ----------------------------------------------------------------


def self_times(spans) -> list:
    """Per span: duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[sid] for sid, _, _, _, t0, t1 in spans]


def aggregate(docs) -> dict:
    """Sum calls and self time by (layer, function) and by layer over traces."""
    calls = defaultdict(int)
    selfs = defaultdict(float)
    counters = defaultdict(float)
    for doc in docs:
        spans = doc["spans"]
        for span, s in zip(spans, self_times(spans)):
            layer, func = span[2], span[3].rsplit(".", 1)[-1]
            calls[f"{layer}.{func}"] += 1
            selfs[f"{layer}.{func}"] += s
            selfs[layer] += s
        for k, v in doc["counters"].items():
            counters[k] += v
    return {"calls": dict(calls), "self_s": dict(selfs), "counters": dict(counters)}


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["corona_pdo.cli"]
    t0 = time.perf_counter()
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(out_path, exit_code=code, wall_s=time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
