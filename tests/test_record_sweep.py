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
