"""Run every CLI command on bundled scenarios and keep the canonical records.

Usage, from the root of a source tree:

    python3 tools/record_sweep.py OUT [SCENARIO ...]
    python3 tools/record_sweep.py --diff OUT1 OUT2

For each scenario in ``scenarios/`` (or each one named, with or without
``.json``) and each command in the CLI's own command table, this runs
``python3 -m ccbench CMD --scenario scenarios/S.json --format record``
with the tree's ``src`` first on PYTHONPATH and BLAS at one thread, and
writes ``OUT/<scenario>.<command>.out``, ``.err`` and ``.code``, two runs
at a time. A run that outlives its 30 s cap is killed and gets the code
``timeout``. Sweeps of two trees are compared with ``diff -r OUT1 OUT2``.
The wall time of each run, in seconds, goes to ``OUT.times.json`` beside
OUT, keyed ``<scenario>.<command>``, so that ``diff -r`` compares records
only. The sweep ends with one line counting the runs by exit code, and
exits non-zero if any run exited 4: the CLI's code for a bug, which
``diff -r`` cannot show when both trees crash alike.

``--diff OUT1 OUT2`` compares two sweeps leaf by leaf. A file that parses
as JSON (a record, an exit code) is split into its leaves, named by their
paths; any other file (a stderr text, ``timeout``) is one leaf. A record
writes an integral float without a decimal point, so a pair of numbers
counts as a float leaf when either one is a float. Every leaf that moved
is printed with its old value, its new value and, for a float, the
absolute change. It exits 1 if any leaf other than a float moved,
appeared or vanished.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CAP_S = 30
WORKERS = 2
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CRASH = "4"


def record(command: str, stem: str, env: dict) -> tuple[bytes, bytes, str, float]:
    """stdout, stderr, exit code (``timeout`` at the cap) and wall seconds of one run."""
    argv = [sys.executable, "-m", "ccbench", command,
            "--scenario", f"scenarios/{stem}.json", "--format", "record"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=CAP_S)
    except subprocess.TimeoutExpired as exc:
        return exc.stdout or b"", exc.stderr or b"", "timeout", time.perf_counter() - start
    return proc.stdout, proc.stderr, str(proc.returncode), time.perf_counter() - start


def tally(codes: list[str]) -> str:
    """One line counting runs by exit code, e.g. ``exit codes: 3 × 0, 1 × timeout``."""
    counts = Counter(codes)
    return "exit codes: " + ", ".join(f"{counts[c]} × {c}" for c in sorted(counts))


def crashed(codes: list[str]) -> bool:
    """Whether any run exited with the CLI's internal-error code."""
    return CRASH in codes


def tree_env() -> dict:
    """The environment of a run: this tree's ``src`` first on PYTHONPATH
    (also put first on this process's path) and BLAS at one thread."""
    src = str(Path("src").resolve())
    sys.path.insert(0, src)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": path}


def sweep(out: Path, names: list[str]) -> list[str]:
    """Run the sweep into ``out``; returns the exit code of each run."""
    env = tree_env()
    from ccbench.cli import _COMMANDS

    stems = [Path(n).stem for n in names] or sorted(p.stem for p in Path("scenarios").glob("*.json"))
    jobs = [(command, stem) for stem in stems for command in _COMMANDS]
    out.mkdir(parents=True, exist_ok=True)
    times, codes = {}, []
    with ThreadPoolExecutor(WORKERS) as pool:
        runs = pool.map(lambda job: record(*job, env), jobs)
        for (command, stem), (stdout, stderr, code, seconds) in zip(jobs, runs):
            base = f"{stem}.{command}"
            (out / f"{base}.out").write_bytes(stdout)
            (out / f"{base}.err").write_bytes(stderr)
            (out / f"{base}.code").write_text(code + "\n")
            times[base] = round(seconds, 3)
            codes.append(code)
            print(f"{stem} {command}: {code} in {seconds:.2f} s", flush=True)
    (out.parent / f"{out.name}.times.json").write_text(json.dumps(times, indent=1) + "\n")
    return codes


def _leaves(node, path: str = ""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _document(path: Path) -> dict:
    """The leaves of one sweep file by path: a JSON record's leaves, the
    whole text of any other file, nothing for a missing one."""
    if not path.exists():
        return {}
    text = path.read_text()
    try:
        return dict(_leaves(json.loads(text)))
    except ValueError:
        return {"": text}


def diff(out1: Path, out2: Path) -> tuple[list[str], bool]:
    """A line for every leaf that moved between two sweeps, and whether only
    float leaves moved."""
    lines, floats_only = [], True
    names = sorted({p.name for p in out1.iterdir()} | {p.name for p in out2.iterdir()})
    for name in names:
        old, new = _document(out1 / name), _document(out2 / name)
        for path in {**old, **new}:
            a, b = old.get(path, "<missing>"), new.get(path, "<missing>")
            if {type(a), type(b)} <= {int, float} and float in {type(a), type(b)}:
                if a != b and not (a != a and b != b):  # NaN equals NaN here
                    lines.append(f"{name}:{path} {a!r} -> {b!r} (change {abs(b - a):.3g})")
            elif type(a) is not type(b) or a != b:
                floats_only = False
                lines.append(f"{name}:{path} {a!r} -> {b!r}")
    return lines, floats_only


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        moved, floats_only = diff(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(moved + [f"{len(moved)} leaves moved"]))
        sys.exit(0 if floats_only else 1)
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    codes = sweep(Path(sys.argv[1]).resolve(), sys.argv[2:])
    print(tally(codes))
    if crashed(codes):
        sys.exit(f"record sweep: a run exited {CRASH}, the CLI's code for an internal error")
