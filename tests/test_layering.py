"""No module of ccbench reaches into another object's private state.

An attribute access ``obj._name`` (dunders aside) is allowed only in a
module that owns the name: one that assigns ``something._name`` or defines
``_name`` in a class body. No module imports a private name from another
ccbench module (``from .qprob import _helper``); the one exception is the
shared helper module itself, ``from . import _linalg``. Everything else goes
through public names. Only qprob reads a projection's ``factor`` (its
support) or ``defect`` (its idempotence bound): every other module meets,
embeds and restricts projections through qprob's functions. Only qprob
knows that a state may be ε-pure: no other module reads a state's ``psi``
or ``epsilon`` or asks ``isinstance(..., EpsilonPureState)``; they evolve,
reduce, weigh and compress it through ``DensityState``'s methods.
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


STATE_INTERNALS = {"psi", "epsilon"}


def _names_epsilon_pure(node) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == "EpsilonPureState")
        or (isinstance(n, ast.Attribute) and n.attr == "EpsilonPureState")
        for n in ast.walk(node)
    )


def state_internals(path: Path) -> list:
    """``file:line source`` for each read of a name in STATE_INTERNALS and
    each ``isinstance`` test against EpsilonPureState."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0))
        if (isinstance(node, ast.Attribute) and node.attr in STATE_INTERNALS)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(_names_epsilon_pure(arg) for arg in node.args[1:])
        )
    ]


def test_only_qprob_knows_a_state_may_be_epsilon_pure():
    found = [
        hit for path in sorted(SRC.glob("*.py")) if path.name != "qprob.py"
        for hit in state_internals(path)
    ]
    assert found == []
    assert state_internals(SRC / "qprob.py")  # the scan sees qprob's own reads


def test_state_internals_are_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .qprob import EpsilonPureState\n"
        "from . import qprob\n"
        "\n"
        "def f(state, epsilon=0.1):\n"
        "    if isinstance(state, EpsilonPureState):\n"
        "        return state.psi\n"
        "    if isinstance(state, (int, qprob.EpsilonPureState)):\n"
        "        return state.epsilon\n"
        "    return isinstance(state, dict), EpsilonPureState(state, epsilon), \"payload.epsilon\"\n"
    )
    assert state_internals(mod) == [
        "mod.py:5 isinstance(state, EpsilonPureState)",
        "mod.py:6 state.psi",
        "mod.py:7 isinstance(state, (int, qprob.EpsilonPureState))",
        "mod.py:8 state.epsilon",
    ]


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
