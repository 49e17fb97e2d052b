"""No ccbench module imports a name it never uses, or loads one it does
not need at import.

A name bound by ``import`` or ``from ... import`` in a ``src/ccbench``
module must be referenced somewhere in that module, in code or in a string
annotation. ``__init__.py`` is exempt, since its imports are re-exports,
and so is ``from __future__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ccbench

SRC = Path(ccbench.__file__).resolve().parent

# toynet keeps quantum_verify_cc bound although it never calls it: the
# benchmark's self-test wraps that binding (ROADMAP item 6).
ALLOWED = {("toynet.py", "quantum_verify_cc")}


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line, for every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _referenced(tree: ast.Module) -> set:
    """Every Name read in the module, string annotations parsed too."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list:
    """``file:line name`` for each imported name the module never references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used and (path.name, name) not in ALLOWED
    ]


def test_no_unused_imports_in_src():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert found == []


def test_unused_import_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .qprob import Projection, state_eval\n"
        "\n"
        "def f(x: Optional[int]) -> 'Projection':\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(mod) == ["mod.py:2 os", "mod.py:4 Sequence", "mod.py:5 state_eval"]


def test_cli_import_loads_no_scipy_module():
    # the two LAPACK calls import scipy.linalg.lapack when they first run,
    # so a run that builds no state never pays for it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    probe = "import sys, ccbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
