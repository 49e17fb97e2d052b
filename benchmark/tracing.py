"""Per-layer spans for a traced benchmark run, kept outside the package.

``install`` wraps the public functions and methods listed in TARGETS with
perf_counter spans, on every module of ccbench that binds them (a function
imported by name into another module is one more binding), and returns a
function that puts the originals back. Spans stay in memory until the run
ends. Each wrapper carries the attribute MARK, so a run can show that none
is bound.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (metric prefix, module, attribute, metrics reported). A prefix names the
# layer module and the function; "calls" is a count, "s" inclusive seconds.
TARGETS = (
    ("toynet.check_axioms", "toynet", "check_axioms", ("s",)),
    ("toynet.region_algebra", "toynet", "region_algebra", ("calls", "s")),
    ("toynet.evolution", "toynet", "NetModel.evolution", ("s",)),
    ("toynet.weak_rccp_demo", "toynet", "weak_rccp_demo", ("s",)),
    ("qprob.MatrixAlgebra.conjugated_by", "qprob", "MatrixAlgebra.conjugated_by", ("calls", "s")),
    ("qprob.MatrixAlgebra.contains", "qprob", "MatrixAlgebra.contains", ("calls", "s")),
    ("qprob.MatrixAlgebra.project", "qprob", "MatrixAlgebra.project", ("calls", "s")),
    ("qprob.lattice_meet", "qprob", "lattice_meet", ("calls", "s")),
    ("qprob.Projection", "qprob", "Projection.__init__", ("calls", "s")),
    ("qprob.DensityState", "qprob", "DensityState.__init__", ("calls", "s")),
    ("commoncause.find_strong_cc", "commoncause", "find_strong_cc", ("calls", "s")),
    ("commoncause.quantum_verify_cc", "commoncause", "quantum_verify_cc", ("calls", "s")),
    ("commoncause.synthesize_subprojection", "commoncause", "synthesize_subprojection", ("s",)),
    ("commoncause.classical_closedness_audit", "commoncause", "classical_closedness_audit", ("s",)),
    ("commoncause.classical_find_cc", "commoncause", "classical_find_cc", ("calls", "s")),
    ("commoncause.classical_verify_cc", "commoncause", "classical_verify_cc", ("calls", "s")),
    ("commoncause.ClassicalSpace.prob", "commoncause", "ClassicalSpace.prob", ("calls",)),
    ("bell.bell_correlation", "bell", "bell_correlation", ("calls", "s")),
    ("bell.find_correlated_pair", "bell", "find_correlated_pair", ("s",)),
    ("geometry.causal_completion", "geometry", "causal_completion", ("calls", "s")),
    ("geometry.spacelike_separated", "geometry", "spacelike_separated", ("calls",)),
    ("geometry.weak_cc_region", "geometry", "weak_cc_region", ("s",)),
    ("geometry.tilde_regions", "geometry", "tilde_regions", ("s",)),
)

# Figures the workloads read from the returned records, not from spans.
DERIVED = (
    ("toynet.weak_rccp_demo.attempts", "count", "lower"),
    ("toynet.check_axioms.spacelike_yield", "ratio", "higher"),
)

MARK = "traced_by_benchmark"
_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower")}
# Counted, not timed: ClassicalSpace.prob runs 10^5 to 10^6 times per audit,
# and a span on each call would distort it. spacelike_separated keeps its
# spans, which show whether a call came from check_axioms.
_COUNT_ONLY = {"commoncause.ClassicalSpace.prob"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        (f"{prefix}.{m}", *_UNITS[m]) for prefix, _, _, metrics in TARGETS for m in metrics
    ]
    return out + list(DERIVED)


class Tracer:
    """Spans (name, parent span, op, start, end) in flat arrays, plus counters."""

    def __init__(self):
        self.names = [prefix for prefix, _, _, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")  # 0 when the same name is already open above
        self.start = array("q")
        self.end = array("q")
        self.counts = [0] * len(self.names)
        self.current_op = -1
        self._stack: list[int] = []
        self._open = [0] * len(self.names)

    def timed(self, idx: int, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.outer.append(self._open[idx] == 0)
            self.end.append(0)
            self._open[idx] += 1
            self._stack.append(span)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter_ns()
                self._stack.pop()
                self._open[idx] -= 1

        setattr(wrapper, MARK, True)
        return wrapper

    def counted(self, idx: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Calls and inclusive seconds per name, over spans inside ops."""
        name = np.frombuffer(self.name, dtype=np.int32)
        inside = np.frombuffer(self.op, dtype=np.int32) >= 0
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        k = len(self.names)
        calls = np.bincount(name[inside], minlength=k) + np.asarray(self.counts)
        secs = np.bincount(name[inside & outer], weights=dur[inside & outer], minlength=k) / 1e9
        return calls, secs

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` inside ops with an open ``ancestor`` span above them."""
        idx, anc = self.names.index(name), self.names.index(ancestor)
        names = np.frombuffer(self.name, dtype=np.int32)
        spans = np.nonzero((names == idx) & (np.frombuffer(self.op, dtype=np.int32) >= 0))[0]
        n = 0
        for span in spans:
            p = self.parent[span]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            n += p >= 0
        return n

    def per_op_metrics(self, n_ops: int, derived: dict) -> dict:
        """Every per-layer metric per attempted op (derived ones as given)."""
        calls, secs = self.totals()
        values = {}
        for i, (prefix, _, _, metrics) in enumerate(TARGETS):
            if "calls" in metrics:
                values[f"{prefix}.calls"] = float(calls[i]) / n_ops
            if "s" in metrics:
                values[f"{prefix}.s"] = float(secs[i]) / n_ops
        values.update(derived)
        units = {name: unit for name, unit, _ in metric_specs()}
        return {name: {"value": values[name], "unit": units[name]} for name, _, _ in metric_specs()}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            counts=np.asarray(self.counts),
        )


def _owner(module, attr: str):
    """(object holding the attribute, attribute name) for 'f' or 'Class.method'."""
    parts = attr.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer):
    """Wrap every target on every ccbench binding; returns the undo function."""
    package = [m for n, m in list(sys.modules.items()) if n == "ccbench" or n.startswith("ccbench.")]
    undo = []
    for idx, (prefix, modname, attr, _) in enumerate(TARGETS):
        owner, key = _owner(sys.modules[f"ccbench.{modname}"], attr)
        original = owner.__dict__[key]
        wrap = tracer.counted if prefix in _COUNT_ONLY else tracer.timed
        wrapper = wrap(idx, original)
        for holder in [owner] if isinstance(owner, type) else package:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    undo.append((holder, name, original))

    def restore():
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)

    return restore
