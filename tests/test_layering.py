"""No module of ccbench reaches into another object's private state.

An attribute access ``obj._name`` (dunders aside) is allowed only in a
module that owns the name: one that assigns ``something._name`` or defines
``_name`` in a class body. Everything else goes through public names.
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


def test_no_private_reach_through():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_reach_through(path)]
    assert found == []


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
