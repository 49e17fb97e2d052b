"""tools/record_sweep.py writes one record, stderr and exit code per command."""

import subprocess
import sys
from pathlib import Path

from ccbench.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_of_one_scenario(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/record_sweep.py", str(tmp_path), "single_double_cone.json"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes = {
        command: (tmp_path / f"single_double_cone.{command}.code").read_text()
        for command in _COMMANDS
    }
    assert len(list(tmp_path.iterdir())) == 3 * len(_COMMANDS)
    # a geometry scenario: its own command succeeds, every other is a kind mismatch
    assert codes.pop("geometry") == "0\n"
    assert set(codes.values()) == {"2\n"}
    record = (tmp_path / "single_double_cone.geometry.out").read_text()
    assert record.startswith("{") and '"command": "geometry"' in record
    assert (tmp_path / "single_double_cone.analyze.err").read_text().startswith(
        "error: command analyze expects a scenario of kind"
    )
