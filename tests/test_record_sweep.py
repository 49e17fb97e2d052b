"""tools/record_sweep.py writes one record, stderr and exit code per command,
and each run's wall time outside the compared tree; it counts the exit codes
and fails on a crash."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from ccbench.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("record_sweep", ROOT / "tools" / "record_sweep.py")
record_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_sweep)


def test_sweep_of_one_scenario(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "tools/record_sweep.py", str(out), "single_double_cone.json"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes: 1 × 0, 7 × 2"
    codes = {
        command: (out / f"single_double_cone.{command}.code").read_text()
        for command in _COMMANDS
    }
    assert len(list(out.iterdir())) == 3 * len(_COMMANDS)
    times = json.loads((tmp_path / "out.times.json").read_text())
    assert sorted(times) == sorted(f"single_double_cone.{command}" for command in _COMMANDS)
    assert all(isinstance(t, float) and t >= 0.0 for t in times.values())
    # a geometry scenario: its own command succeeds, every other is a kind mismatch
    assert codes.pop("geometry") == "0\n"
    assert set(codes.values()) == {"2\n"}
    record = (out / "single_double_cone.geometry.out").read_text()
    assert record.startswith("{") and '"command": "geometry"' in record
    assert (out / "single_double_cone.analyze.err").read_text().startswith(
        "error: command analyze expects a scenario of kind"
    )


def test_a_crash_fails_the_sweep():
    codes = ["0", "2", "1", "timeout", "2"]
    assert record_sweep.tally(codes) == "exit codes: 1 × 0, 1 × 1, 2 × 2, 1 × timeout"
    assert not record_sweep.crashed(codes)
    assert record_sweep.crashed(codes + ["4"])
    assert record_sweep.tally(["4", "0", "4"]) == "exit codes: 1 × 0, 2 × 4"


def _sweep_dir(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_diff_lists_moved_floats_and_fails_on_anything_else(tmp_path):
    # "zero" is a float the record writes as 0, an integral value
    record = {"results": {"beta": 1.25, "rank": 2, "ok": True, "cells": [0.5, "x"], "zero": 0}}
    old = _sweep_dir(tmp_path / "old", {
        "s.bell.out": json.dumps(record), "s.bell.code": "0\n", "s.bell.err": "",
    })
    moved = json.loads(json.dumps(record))
    moved["results"]["beta"] = 1.25 + 2**-40
    moved["results"]["cells"][0] = 0.25
    moved["results"]["zero"] = 2.5e-17
    new = _sweep_dir(tmp_path / "new", {
        "s.bell.out": json.dumps(moved), "s.bell.code": "0\n", "s.bell.err": "",
    })
    lines, floats_only = record_sweep.diff(old, new)
    assert floats_only
    assert lines == [
        f"s.bell.out:results.beta 1.25 -> {1.25 + 2**-40!r} (change {2**-40:.3g})",
        "s.bell.out:results.cells[0] 0.5 -> 0.25 (change 0.25)",
        "s.bell.out:results.zero 0 -> 2.5e-17 (change 2.5e-17)",
    ]
    assert record_sweep.diff(old, old) == ([], True)

    # an exit code, an integer, a boolean, a string or a type change fails
    for name, text in (
        ("s.bell.code", "1\n"),
        ("s.bell.out", json.dumps({"results": {**record["results"], "rank": 3}})),
        ("s.bell.out", json.dumps({"results": {**record["results"], "ok": False}})),
        ("s.bell.out", json.dumps({"results": {**record["results"], "cells": [0.5, "y"]}})),
        ("s.bell.out", json.dumps({"results": {**record["results"], "rank": "2"}})),
    ):
        (new / "s.bell.out").write_text(json.dumps(record))
        (new / "s.bell.code").write_text("0\n")
        (new / name).write_text(text)
        lines, floats_only = record_sweep.diff(old, new)
        assert not floats_only and len(lines) == 1
    (new / "s.bell.out").write_text(json.dumps(record))
    (new / "s.bell.code").unlink()
    lines, floats_only = record_sweep.diff(old, new)
    assert not floats_only and lines == ["s.bell.code: 0 -> '<missing>'"]


def test_diff_command_exit_codes(tmp_path):
    old = _sweep_dir(tmp_path / "old", {"s.geometry.out": '{"x": 1.0}', "s.geometry.code": "0\n"})
    new = _sweep_dir(tmp_path / "new", {"s.geometry.out": '{"x": 1.5}', "s.geometry.code": "0\n"})

    def run(a, b):
        return subprocess.run(
            [sys.executable, "tools/record_sweep.py", "--diff", str(a), str(b)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    proc = run(old, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["s.geometry.out:x 1.0 -> 1.5 (change 0.5)", "1 leaves moved"]
    (new / "s.geometry.code").write_text("2\n")
    assert run(old, new).returncode == 1
