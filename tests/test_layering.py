"""No module of ccbench reaches into another object's private state.

An attribute access ``obj._name`` (dunders aside) is allowed only in a
module that owns the name: one that assigns ``something._name`` or defines
``_name`` in a class body. No module imports a private name from another
ccbench module (``from .qprob import _helper``); the one exception is the
shared helper module itself, ``from . import _linalg``. Everything else goes
through public names. Only qprob reads a projection's ``factor`` (its
support) or ``defect`` (its idempotence bound): every other module meets,
embeds and restricts projections through qprob's functions.
"""

import ast
from pathlib import Path

import ccbench

SRC = Path(ccbench.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _owned_names(tree: ast.Module) -> set:
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owned.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owned.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    owned.update(t.id for t in targets if isinstance(t, ast.Name))
    return owned


def private_reach_through(path: Path) -> list:
    """``file:line obj._name`` for each private access the module does not own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owned = _owned_names(tree)
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _is_private(node.attr)
        and node.attr not in owned
    ]


def private_imports(path: Path) -> list:
    """``file:line name`` for each private name imported from a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ccbench")
        for alias in node.names
        if _is_private(alias.name) and not (node.module is None and alias.name == "_linalg")
    ]


def test_no_private_reach_through():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_reach_through(path)]
    assert found == []


def test_no_private_names_imported_across_modules():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_imports(path)]
    assert found == []


QPROB_ONLY = {"factor", "defect"}


def projection_internals(path: Path) -> list:
    """``file:line obj.name`` for each access to a name in QPROB_ONLY."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in QPROB_ONLY
    ]


def test_only_qprob_reads_a_projections_factor_or_defect():
    found = [
        hit for path in sorted(SRC.glob("*.py")) if path.name != "qprob.py"
        for hit in projection_internals(path)
    ]
    assert found == []
    assert projection_internals(SRC / "qprob.py")  # the scan sees qprob's own reads


def test_private_import_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from . import _linalg as la\n"
        "from . import bell as _bell\n"
        "from .qprob import Projection, _helper\n"
        "from numpy import _private\n"
        "from ccbench.bell import _sign_op\n"
    )
    assert private_imports(mod) == ["mod.py:3 _helper", "mod.py:5 _sign_op"]


def test_reach_through_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class A:\n"
        "    def _own(self):\n"
        "        self._x = 1\n"
        "        return self._x, self._own(), self.__dict__\n"
        "\n"
        "def f(algebra):\n"
        "    return algebra._conj\n"
    )
    assert private_reach_through(mod) == ["mod.py:7 algebra._conj"]
