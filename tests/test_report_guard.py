"""The refactor guard's comparison rules and its coverage of the config tables.

``tools/report_guard.py`` is a script, not a package module: it is imported by
path, and its ``diff`` runs on in-memory outputs, so no test here starts a run.
"""

import importlib.util
from pathlib import Path

import pytest

from corona_pdo import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_guard.py"
_SPEC = importlib.util.spec_from_file_location("report_guard", _PATH)
guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(guard)


def _reached(doc) -> set:
    """(table, entry) pairs one guard config reaches, read off its coerced form;
    a config that the coercion refuses (an error-line config) reaches none."""
    try:
        cfg = cli.ExperimentConfig.from_mapping(doc)
    except cli.CliError:
        return set()
    out = set()

    def psi(spec):
        out.add(("_PSIS", spec["family"]))

    def base(spec):
        out.add(("_BASES", spec["kind"]))
        if "set" in spec:
            out.add(("_SETS", spec["set"]))
        for part in spec.get("parts", ()):
            base(part)

    def group(spec):
        out.add(("_GROUPS", spec["kind"]))
        for factor in spec.get("factors", ()):
            group(factor)

    if cfg.symbol is not None:
        out.add(("_SYMBOLS", cfg.symbol["family"]))
        if cli._SYMBOLS[cfg.symbol["family"]][1] is None:  # a psi family as a multiplier
            psi(cfg.symbol)
        for term in cfg.symbol.get("terms", ()):
            out.add(("_GAMMAS", term["gamma"]["profile"]))
            psi(term["psi"])
    if cfg.psi is not None:
        psi(cfg.psi)
    base(cfg.base)
    if cfg.group is not None:
        group(cfg.group)
    return out


def test_guard_configs_spell_every_table_entry():
    reached = set()
    for name, extra in guard.CONFIGS.items():
        reached |= _reached({"schema": 1, "task": name, "seed": 5, **extra})
    tables = ("_PSIS", "_GAMMAS", "_SYMBOLS", "_SETS", "_BASES", "_GROUPS")
    missing = [(t, entry) for t in tables for entry in getattr(cli, t) if (t, entry) not in reached]
    assert missing == []
    # every per-task default runs: some config of the task leaves the key out, and a
    # mapping whose keys default one by one is also spelled with one of them left out
    unpinned = []
    for task, fields in cli._NARROWER.items():
        docs = [extra for name, extra in guard.CONFIGS.items() if extra.get("task", name) == task]
        for key, entry in fields.items():
            if not isinstance(entry, tuple):  # no default
                continue
            if all(key in doc for doc in docs):
                unpinned.append((task, key))
            inner = entry[0](entry[1], key)  # the default as coerced
            if isinstance(inner, dict) and inner and not any(
                key in doc and inner.keys() - doc[key].keys() for doc in docs
            ):
                unpinned.append((task, f"{key}, key by key"))
    assert unpinned == []


@pytest.fixture
def one_config(monkeypatch):
    monkeypatch.setattr(guard, "CONFIGS", {"task": {}})


REPORT = b'{\n  "value": 1.0,\n  "label": "a",\n  "ok": true,\n  "traj": [1, 2]\n}\n'
CSV = b"scale,sup_limsup\n100.0,0.5\n1000.0,0.25\n"


def _outputs(report=REPORT, csv=CSV, code=b"0"):
    return {"task": {"exit code": code, "report.json": report, "sups_by_scale.csv": csv}}


def test_identical_outputs_pass(one_config):
    assert guard.diff(_outputs(), _outputs()) == []
    assert guard.diff(_outputs(), _outputs(), atol=0.0) == []


def test_exact_mode_flags_any_byte_change(one_config):
    # 1.00 is the same number as 1.0: only the exact mode sees it
    new = _outputs(report=REPORT.replace(b"1.0,", b"1.00,"))
    assert guard.diff(_outputs(), new)[0] == "task: report.json differs"
    assert guard.diff(_outputs(), new, atol=0.0) == []
    assert guard.diff(_outputs(), _outputs(csv=CSV + b"\n"))[0] == "task: sups_by_scale.csv differs"


def test_atol_matches_numbers_within_it(one_config):
    new = _outputs(
        report=REPORT.replace(b"1.0,", b"1.0000004,"),
        csv=CSV.replace(b",0.5\n", b",0.5000004\n"),
    )
    assert guard.diff(_outputs(), new, atol=1e-6) == []
    found = guard.diff(_outputs(), new, atol=1e-7)
    assert len(found) == 2
    assert found[0].startswith("task: report.json.value: 1.0 -> 1.0000004")
    assert found[1].startswith("task: sups_by_scale.csv[1][1]: 0.5 -> 0.5000004")


@pytest.mark.parametrize(
    "old, new, line",
    [
        ({"x": "a"}, {"x": "b"}, "x.x: 'a' -> 'b'"),
        ({"x": True}, {"x": False}, "x.x: True -> False"),
        ({"x": True}, {"x": 1}, "x.x: True -> 1"),  # a boolean is not the number 1
        ({"x": None}, {"x": 0.0}, "x.x: None -> 0.0"),
        ({"x": 1}, {"y": 1}, "x: keys ['x', 'y'] differ"),
        ({"x": [1, 2]}, {"x": [1, 2, 3]}, "x.x: length 2 -> 3"),
        ([["a", 1.0]], [["b", 1.0]], "x[0][0]: 'a' -> 'b'"),
        ([[1.0, 2.0]], [[1.0]], "x[0]: length 2 -> 1"),  # a CSV row lost a cell
    ],
)
def test_atol_still_compares_everything_but_numbers_exactly(old, new, line):
    found = []
    guard._compare(old, new, 1.0, "x", found)
    assert found == [line]


def test_atol_still_flags_exit_codes_and_missing_files(one_config):
    assert guard.diff(_outputs(), _outputs(code=b"1"), atol=1.0) == ["task: exit code differs"]
    new = _outputs()
    del new["task"]["sups_by_scale.csv"]
    assert guard.diff(_outputs(), new, atol=1.0) == ["task: sups_by_scale.csv differs"]


def test_failed_run_compares_its_error_line(one_config):
    # same exit code 1, but the one [error] line became a traceback
    line = b"[error] symbol is tabulated only; off-grid evaluation undefined\n"
    trace = b"Traceback (most recent call last):\nTypeError: 'NoneType' object is not iterable\n"
    old = {"task": {"exit code": b"1", "stderr": line}}
    new = {"task": {"exit code": b"1", "stderr": trace}}
    assert guard.diff(old, dict(old)) == []
    found = guard.diff(old, new)
    assert found[0] == "task: stderr differs"
    assert "    -[error] symbol is tabulated only; off-grid evaluation undefined" in found
    assert guard.diff(old, new, atol=1.0)[0] == "task: stderr differs"


def test_a_traceback_is_reported_even_when_both_trees_agree(one_config):
    trace = b"Traceback (most recent call last):\nFileExistsError: [Errno 17] File exists\n"
    run = {"task": {"exit code": b"1", "stderr": trace}}
    assert guard.diff(run, run) == [
        "task: the old tree printed a traceback",
        "task: the new tree printed a traceback",
    ]
    fixed = {"task": {"exit code": b"1", "stderr": b"[error] cannot write output: ...\n"}}
    assert guard.diff(fixed, run, atol=1.0)[-1] == "task: the new tree printed a traceback"
    assert guard.diff(fixed, dict(fixed)) == []


def test_a_timed_out_run_is_reported_even_when_both_trees_agree(one_config):
    stopped = {"task": {"exit code": guard.TIMED_OUT}}
    assert guard.diff(stopped, dict(stopped)) == [
        "task: the old tree timed out",
        "task: the new tree timed out",
    ]
    assert guard.diff(_outputs(), stopped, atol=1.0)[-1] == "task: the new tree timed out"
