"""Command-line front end: scenario files in, deterministic reports out.

Scenarios are JSON documents with a ``kind`` (quantum, classical, geometry,
toynet, bell), a payload of matrices / events / regions, an optional seed,
and optional tolerance overrides. Complex numbers are written as [re, im]
pairs; bare numbers are read as reals.

Exit codes: 0 success, 1 honest negative (a search that correctly found
nothing), 2 parse or schema error, 3 violated invariant or precondition
(the failing invariant is named), 4 internal inconsistency or any other
uncaught exception (a bug).
Each command returns its results and an outcome; ``--format record`` writes
the canonical record, byte-identical across reruns of the same scenario,
command and seed, and the text report is ``record.render_text`` of the same
results followed by the ``outcome:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _linalg as la
from . import bell as _bell
from . import commoncause as _cc
from . import config
from . import geometry as geo
from . import toynet as _toynet
from .errors import (
    CCBenchError,
    DimensionMismatchError,
    InfeasibleError,
    RegionError,
    ScenarioInvariantError,
    ScenarioParseError,
    UncorrelatedError,
    ValidationError,
)
from .qprob import DensityState, MatrixAlgebra, Projection, correlation, state_eval
from .record import complex_matrix_record, render_record, render_text

KINDS = ("quantum", "classical", "geometry", "toynet", "bell")

# Caps on the payload's counts, each set so that the bundled scenarios of
# its command run at the cap inside the record sweep's 30 s cap
# (tools/cap_check.py; 2-vCPU guest, one BLAS thread; times in README).
# Most layers a toynet-demo may ask for: the demo evolves each candidate
# back through every layer below its regions, about 0.07 s a layer for two
# candidates on 10 sites, and a state that is not demo_state's is evolved
# as a 2^n matrix too, about 0.05 s a layer more, so the product state is
# the slower kind.
MAX_STEPS = 25
MAX_COUNT = 1000  # find-cc causes
MAX_BUDGET = 80  # toynet-demo candidate pairs
MAX_RESTARTS = 20  # see-saw restarts of bell and sample-bell
MAX_SAMPLES = 1000  # sample-bell states
# sample-bell see-saws, n × restarts, on a split that runs the see-saw (any
# but 2 x 2). On random pure 4 x 6 states a see-saw averages about 0.016 s
# and some run for 0.08 s (one BLAS thread); n = 4 with 20 restarts took
# 0.9-1.7 s over three seeds, and n = 3 with 20 at the cap 1.9 s in the CLI.
MAX_SEESAWS = 60
MAX_AXIOM_PAIRS = 1000  # toynet-demo axiom samples


@dataclass
class Scenario:
    """A parsed and validated scenario file.

    ``payload`` is the raw JSON payload (echoed verbatim into reports so
    every number in a report is recomputable from the report alone);
    ``objects`` holds the validated domain objects built from it.
    """

    kind: str
    payload: dict
    seed: int
    tolerances: dict
    objects: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# payload parsing helpers
# ---------------------------------------------------------------------------


def _need(node: dict, key: str, where: str):
    if key not in node:
        raise ScenarioParseError(f"{where}.{key} is required")
    return node[key]


def _finite(entry, where: str) -> float:
    """float(entry), refusing NaN and ±inf: json reads NaN and Infinity, and
    an integer too large for a float would overflow."""
    try:
        val = float(entry)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ScenarioParseError(f"{where}: expected a finite number")
    return val


def _as_number(entry, where: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ScenarioParseError(f"{where}: expected a number")
    return _finite(entry, where)


def _as_int(entry, where: str) -> int:
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ScenarioParseError(f"{where}: expected an integer")
    return entry


def _count(payload: dict, key: str, default: int, least: float, most: float = math.inf) -> int:
    """The optional integer ``payload[key]``; outside [least, most] it
    violates the invariant named ``key`` (below ``least`` the search it
    sizes would not run)."""
    val = _as_int(payload.get(key, default), f"payload.{key}")
    if val < least:
        raise ScenarioInvariantError(f"payload.{key} must be >= {least}", invariant=key)
    if val > most:
        raise ScenarioInvariantError(f"payload.{key} must be <= {most}", invariant=key)
    return val


def _as_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_finite(entry, where))
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
    ):
        return complex(_finite(entry[0], where), _finite(entry[1], where))
    raise ScenarioParseError(f"{where}: entries must be numbers or [re, im] pairs")


def _as_complex_matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        raise ScenarioParseError(f"{where}: expected a matrix as a list of rows")
    width = len(node[0])
    out = np.empty((len(node), width), dtype=complex)
    for i, row in enumerate(node):
        if len(row) != width:
            raise ScenarioParseError(f"{where}[{i}]: row length {len(row)} != {width}")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"{where}[{i}][{j}]")
    return out


def _as_pair(node, where: str, coerce=_as_number, shape: str = "[lo, hi]") -> tuple:
    """A two-element list, each element read by ``coerce`` under its index."""
    if not isinstance(node, list) or len(node) != 2:
        raise ScenarioParseError(f"{where}: expected {shape}")
    return tuple(coerce(entry, f"{where}[{i}]") for i, entry in enumerate(node))


@contextlib.contextmanager
def _invariant_scope(where: str):
    """Turn domain validation failures into named scenario-invariant errors."""
    try:
        yield
    except ScenarioInvariantError:
        raise
    except ValidationError as exc:
        inv = exc.invariant
        label = f" violates {inv}" if inv else ""
        raise ScenarioInvariantError(f"{where}{label}: {exc}", invariant=inv) from exc
    except DimensionMismatchError as exc:
        raise ScenarioInvariantError(f"{where}: {exc}", invariant="dimension") from exc
    except RegionError as exc:
        raise ScenarioInvariantError(f"{where}: {exc}", invariant="region") from exc


# ---------------------------------------------------------------------------
# per-kind validators
# ---------------------------------------------------------------------------


def _validate_quantum(payload: dict) -> dict:
    objects = {}
    with _invariant_scope("payload.state"):
        objects["phi"] = DensityState(_as_complex_matrix(_need(payload, "state", "payload"), "payload.state"))
    projs = _need(payload, "projections", "payload")
    if not isinstance(projs, dict):
        raise ScenarioParseError("payload.projections: expected an object")
    for name in ("A", "B"):
        _need(projs, name, "payload.projections")
    for name, node in projs.items():
        where = f"payload.projections.{name}"
        with _invariant_scope(where):
            p = Projection(_as_complex_matrix(node, where))
            if p.dim != objects["phi"].dim:
                raise DimensionMismatchError(
                    f"projection dim {p.dim} != state dim {objects['phi'].dim}"
                )
            objects[name] = p
    return objects


def _validate_classical(payload: dict) -> dict:
    weights = _need(payload, "weights", "payload")
    if not isinstance(weights, list):
        raise ScenarioParseError("payload.weights: expected a list of atom weights")
    with _invariant_scope("payload.weights"):
        space = _cc.ClassicalSpace([_as_number(w, "payload.weights") for w in weights])
    events_node = payload.get("events", {})
    if not isinstance(events_node, dict):
        raise ScenarioParseError("payload.events: expected an object")
    events = {}
    for name, node in events_node.items():
        where = f"payload.events.{name}"
        if not isinstance(node, list) or not all(type(i) is int for i in node):
            raise ScenarioParseError(f"{where}: expected a list of atom indices")
        with _invariant_scope(where):
            events[name] = space.as_mask(node)
    return {"space": space, "events": events}


def _validate_bell(payload: dict) -> dict:
    d1, d2 = _as_pair(_need(payload, "split", "payload"), "payload.split", _as_int, "[d1, d2]")
    if d1 < 2 or d2 < 2:
        raise ScenarioInvariantError(
            f"payload.split: each side needs dimension >= 2, got {d1}x{d2}",
            invariant="split",
        )
    if d1 * d2 > _bell.MAX_SPLIT_DIM:
        raise ScenarioInvariantError(
            f"payload.split: {d1}x{d2} exceeds the see-saw dimension limit {_bell.MAX_SPLIT_DIM}",
            invariant="split",
        )
    objects = {"split": (d1, d2)}
    node = payload.get("state")
    if node is not None:
        with _invariant_scope("payload.state"):
            werner = isinstance(node, dict) and set(node) == {"werner"}
            if (werner or node == "singlet") and (d1, d2) != (2, 2):
                raise ScenarioInvariantError(
                    f"payload.state: {'werner' if werner else 'singlet'} needs a [2, 2] split",
                    invariant="split",
                )
            if node == "singlet":
                phi = _bell.singlet_state()
            elif werner:
                phi = _bell.werner_state(_as_number(node["werner"], "payload.state.werner"))
            else:
                phi = DensityState(_as_complex_matrix(node, "payload.state"))
                if phi.dim != d1 * d2:
                    raise DimensionMismatchError(
                        f"state dim {phi.dim} != split product {d1 * d2}"
                    )
            objects["phi"] = phi
    return objects


def _region_from_node(node, where: str) -> geo.Region:
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{where}: expected a region object")
    shape = node.get("shape")
    with _invariant_scope(where):
        if shape == "double_cone":
            return geo.double_cone(
                u=_as_pair(_need(node, "u", where), f"{where}.u"),
                v=_as_pair(_need(node, "v", where), f"{where}.v"),
            )
        if shape == "rect":
            return geo.rect(
                t=_as_pair(_need(node, "t", where), f"{where}.t"),
                x=_as_pair(_need(node, "x", where), f"{where}.x"),
            )
        if shape == "union":
            parts = _need(node, "parts", where)
            if not isinstance(parts, list) or not parts:
                raise ScenarioParseError(f"{where}.parts: expected a nonempty list")
            return geo.union(
                *(_region_from_node(p, f"{where}.parts[{i}]") for i, p in enumerate(parts))
            )
    raise ScenarioParseError(f"{where}.shape must be double_cone, rect, or union")


def _validate_geometry(payload: dict) -> dict:
    regions_node = _need(payload, "regions", "payload")
    if not isinstance(regions_node, dict) or not regions_node:
        raise ScenarioParseError("payload.regions: expected a nonempty object")
    regions = {
        name: _region_from_node(node, f"payload.regions.{name}")
        for name, node in regions_node.items()
    }
    if not ({"v1", "v2"} <= set(regions) or "v" in regions):
        raise ScenarioParseError("payload.regions needs either v1 and v2, or v")
    return {"regions": regions}


def _validate_toynet(payload: dict) -> dict:
    n_sites = _as_int(_need(payload, "n_sites", "payload"), "payload.n_sites")
    if not 4 <= n_sites <= _toynet.DENSE_MAX_SITES:
        raise ScenarioParseError(
            f"payload.n_sites = {n_sites}: the demo builds dense 2^n matrices "
            f"and takes 4..{_toynet.DENSE_MAX_SITES} sites"
        )
    gate = payload.get("gate", "random")
    if gate not in ("swap", "random"):
        raise ScenarioParseError('payload.gate must be "swap" or "random"')
    n_steps = _count(payload, "n_steps", n_sites, 1, MAX_STEPS)
    cones = {}
    for name in ("d1", "d2"):
        node = _need(payload, name, "payload")
        if not isinstance(node, dict):
            raise ScenarioParseError(f"payload.{name}: expected {{step, sites}}")
        step = _as_int(_need(node, "step", f"payload.{name}"), f"payload.{name}.step")
        lo, hi = _as_pair(_need(node, "sites", f"payload.{name}"), f"payload.{name}.sites", _as_int)
        if not (0 <= lo <= hi < n_sites):
            raise ScenarioInvariantError(
                f"payload.{name}.sites [{lo}, {hi}] outside the chain of {n_sites}",
                invariant="sites",
            )
        if not (0 <= step <= n_steps):
            raise ScenarioInvariantError(
                f"payload.{name}.step {step} outside the built horizon {n_steps}",
                invariant="step",
            )
        cones[name] = _toynet.SliceCone(step, lo, hi)
    state_kind = payload.get("state", "entangled")
    if state_kind not in ("entangled", "product"):
        raise ScenarioParseError('payload.state must be "entangled" or "product"')
    epsilon = payload.get("epsilon", 0.05)
    epsilon = _as_number(epsilon, "payload.epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ScenarioInvariantError(
            "payload.epsilon must lie strictly between 0 and 1", invariant="epsilon"
        )
    return {
        "n_sites": n_sites,
        "gate": gate,
        "n_steps": n_steps,
        "state_kind": state_kind,
        "epsilon": epsilon,
        "budget": _count(payload, "budget", 10, 1, MAX_BUDGET),
        "axiom_pairs": _count(payload, "axiom_pairs", 0, 0, MAX_AXIOM_PAIRS),
        **cones,
    }


_VALIDATORS = {
    "quantum": _validate_quantum,
    "classical": _validate_classical,
    "geometry": _validate_geometry,
    "toynet": _validate_toynet,
    "bell": _validate_bell,
}


def _tolerance(key: str, value, where: str, coerce) -> float:
    """A tolerance override: the name ``key`` is resolved first, then
    ``coerce`` reads ``value``, which must be positive."""
    try:
        config.canonical_name(key)
    except KeyError:
        known = ", ".join(sorted(config.ALIASES))
        raise ScenarioParseError(f"{where}: unknown tolerance {key!r} (known: {known})")
    val = coerce(value, where)
    if val <= 0:
        raise ScenarioParseError(f"{where}: tolerance must be positive")
    return val


def _parse_tolerances(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{where}: expected an object of name -> value")
    return {key: _tolerance(key, val, f"{where}.{key}", _as_number) for key, val in node.items()}


def load_scenario(path, extra_tolerances: Optional[dict] = None, command: Optional[str] = None) -> Scenario:
    """Parse and validate a scenario file, refusing a kind ``command`` cannot take first.

    Validation runs with the scenario's tolerance overrides (merged with
    ``extra_tolerances`` from the command line) already in effect, so a
    loosened tol_herm really does accept a correspondingly rougher matrix.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioParseError(f"{path}: kind must be one of {', '.join(KINDS)}")
    if command is not None:
        _check_kind(command, kind)
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ScenarioParseError(f"{path}: payload must be an object")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioParseError(f"{path}: seed must be a nonnegative integer")
    tolerances = _parse_tolerances(doc.get("tolerances"), "tolerances")
    if extra_tolerances:
        tolerances.update(extra_tolerances)
    with config.temporary(**tolerances):
        objects = _VALIDATORS[kind](payload)
    return Scenario(kind=kind, payload=payload, seed=seed, tolerances=tolerances, objects=objects)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _classical_events(sc: Scenario, *names: str) -> list[int]:
    events = sc.objects["events"]
    out = []
    for name in names:
        if name not in events:
            raise ScenarioParseError(f"payload.events.{name} is required for this command")
        out.append(events[name])
    return out


def _cmd_analyze(sc: Scenario, seed: int):
    if sc.kind == "classical":
        space = sc.objects["space"]
        a, b = _classical_events(sc, "A", "B")
        results = {
            "correlation": space.correlation(a, b),
            "logically_independent": space.logically_independent(a, b),
        }
        if "C" in sc.objects["events"]:
            cert = _cc.classical_verify_cc(space, a, b, sc.objects["events"]["C"])
            results["certificate"] = cert.to_record()
        return results, "ok"
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    results = {
        "dim": phi.dim,
        "faithful": phi.faithful,
        "correlation": correlation(phi, a, b),
        "weights": {"A": state_eval(phi, a), "B": state_eval(phi, b)},
    }
    try:
        results["target_weight"] = _cc.reichenbach_r(phi, a, b).to_record()
    except UncorrelatedError:
        results["target_weight"] = None
    if "C" in sc.objects:
        results["certificate"] = _cc.quantum_verify_cc(phi, a, b, sc.objects["C"]).to_record()
    return results, "ok"


def _cause_record(cert) -> dict:
    return {"certificate": cert.to_record(), "cause_matrix": complex_matrix_record(cert.cause.mat)}


def _cmd_find_cc(sc: Scenario, seed: int):
    if sc.kind == "classical":
        space = sc.objects["space"]
        a, b = _classical_events(sc, "A", "B")
        exclude = sc.payload.get("exclude_trivial", True)
        if not isinstance(exclude, bool):
            raise ScenarioParseError("payload.exclude_trivial: expected true or false")
        certs = _cc.classical_find_cc(space, a, b, exclude_trivial=exclude)
        results = {"n_found": len(certs), "causes": [c.to_record() for c in certs]}
        return results, "ok" if certs else "none-found"
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    count = _count(sc.payload, "count", 1, 1, MAX_COUNT)
    try:
        if count == 1:
            return _cause_record(_cc.find_strong_cc(phi, a, b)), "ok"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            causes = _cc.find_multiple_strong_cc(phi, a, b, count)
    except InfeasibleError as exc:
        return {"message": str(exc)}, "infeasible"
    records = [_cause_record(cert) for cert in causes]
    notes = sorted(str(w.message) for w in caught)
    return {"requested": count, "n_found": len(causes), "causes": records, "notes": notes}, "ok"


def _cmd_genuine_cc(sc: Scenario, seed: int):
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    try:
        cert = _cc.search_genuine_cc(phi, a, b)
    except InfeasibleError as exc:
        return {"message": str(exc)}, "infeasible"
    return _cause_record(cert), "ok"


def _cmd_bell(sc: Scenario, seed: int):
    if "phi" not in sc.objects:
        raise ScenarioParseError("payload.state is required for the bell command")
    phi = sc.objects["phi"]
    d1, d2 = sc.objects["split"]
    n1 = MatrixAlgebra.tensor_factor((d1, d2), (0,))
    n2 = MatrixAlgebra.tensor_factor((d1, d2), (1,))
    restarts = _count(sc.payload, "restarts", 20, 2, MAX_RESTARTS)
    report = _bell.bell_correlation(phi, n1, n2, restarts=restarts, seed=seed)
    results = report.to_record()
    results["correlated"] = _bell.exceeds_one(report.beta)
    if (d1, d2) == (2, 2):
        oracle = _bell.two_qubit_chsh_oracle(phi)
        results["oracle_beta"] = oracle
        results["oracle_gap"] = abs(report.beta - oracle)
    pair = _bell.find_correlated_pair(phi, n1, n2)
    if pair is None:
        results["correlated_pair"] = {"found": False}
    else:
        a, b = pair
        results["correlated_pair"] = {
            "found": True,
            "A": complex_matrix_record(a.mat),
            "B": complex_matrix_record(b.mat),
            "correlation": correlation(phi, a, b),
        }
    return results, "ok"


def _cmd_sample_bell(sc: Scenario, seed: int):
    ensemble = _need(sc.payload, "ensemble", "payload")
    # no least: sample_bell_fraction refuses n < 1 with its own message
    n = _count(sc.payload, "n", _need(sc.payload, "n", "payload"), -math.inf, MAX_SAMPLES)
    restarts = _count(sc.payload, "restarts", 6, 2, MAX_RESTARTS)
    if sc.objects["split"] != (2, 2) and n * restarts > MAX_SEESAWS:
        raise ScenarioInvariantError(
            f"payload.n × payload.restarts = {n} × {restarts} exceeds the see-saw "
            f"limit {MAX_SEESAWS} on a split other than 2x2",
            invariant="n*restarts",
        )
    with _invariant_scope("payload"):
        report = _bell.sample_bell_fraction(
            sc.objects["split"], ensemble, n, seed=seed, restarts=restarts
        )
    return report.to_record(), "ok"


def _cmd_geometry(sc: Scenario, seed: int):
    regions = sc.objects["regions"]
    if "v1" in regions and "v2" in regions:
        v1, v2 = regions["v1"], regions["v2"]
        margin = _as_number(sc.payload.get("margin", 0.5), "payload.margin")
        depth = sc.payload.get("depth")
        if depth is not None:
            depth = _as_number(depth, "payload.depth")
        spacelike = geo.spacelike_separated(v1, v2)
        construction = geo.weak_cc_region(v1, v2, margin=margin, depth=depth)
        tilde = geo.tilde_regions(v1, v2, construction.region)
        mid = -construction.depth - 0.5 * construction.margin
        results = {
            "spacelike": spacelike,
            "v1": geo.region_record(v1),
            "v2": geo.region_record(v2),
            "region": geo.region_record(construction.region),
            "completion": geo.region_record(construction.completion),
            "depth": construction.depth,
            "margin": construction.margin,
            "t_overlap": construction.t_overlap,
            "t_min": construction.t_min,
            "checks": dict(construction.checks),
            "tilde_part1": geo.region_record(tilde.part1),
            "tilde_part2": geo.region_record(tilde.part2),
            "tilde_common": geo.region_record(tilde.common),
            "slice_t": mid,
            "slice": {
                name: [[lo, hi] for lo, hi in geo.slice_at(part, mid)]
                for name, part in (
                    ("part1", tilde.part1),
                    ("part2", tilde.part2),
                    ("common", tilde.common),
                )
            },
        }
        return results, "ok"
    v = regions["v"]
    complement = geo.causal_complement(v)
    completion = geo.causal_completion(v)
    results = {
        "v": geo.region_record(v),
        "complement": geo.region_record(complement),
        "completion": geo.region_record(completion),
    }
    point = sc.payload.get("point")
    if point is not None:
        t, x = _as_pair(point, "payload.point")
        p = geo.Point(t, x)
        results["point"] = {
            "t": t,
            "x": x,
            "in_v": v.contains(p),
            "in_complement": complement.contains(p),
            "in_completion": completion.contains(p),
            "in_blc": geo.blc(v).contains(p),
        }
    return results, "ok"


def _cmd_classical_audit(sc: Scenario, seed: int):
    return _cc.classical_closedness_audit(sc.objects["space"]).to_record(), "ok"


def _product_demo_state(net: _toynet.NetModel, seed: int) -> DensityState:
    """Faithful product state across the chain; mixing keeps every local
    eigenvalue >= 0.15 so the tensor product stays numerically full rank."""
    rng = np.random.default_rng(seed)
    rho = np.ones((1, 1), dtype=complex)
    for _ in range(net.n_sites):
        local = 0.7 * la.random_density(2, rng) + 0.3 * np.eye(2) / 2
        rho = np.kron(rho, local)
    return DensityState(rho)


def _cmd_toynet_demo(sc: Scenario, seed: int):
    ss = np.random.SeedSequence(seed)
    net_seed, state_seed = (int(c.generate_state(1)[0]) for c in ss.spawn(2))
    ob = sc.objects
    net = _toynet.build_net(
        ob["n_sites"], gate_spec=ob["gate"], seed=net_seed, n_steps=ob["n_steps"]
    )
    if ob["state_kind"] == "product":
        state = _product_demo_state(net, state_seed)
    else:
        state = _toynet.demo_state(net, seed=state_seed, epsilon=ob["epsilon"])
    try:
        demo = _toynet.weak_rccp_demo(net, state, ob["d1"], ob["d2"], budget=ob["budget"])
    except InfeasibleError as exc:
        return {"message": str(exc), "net": repr(net)}, "infeasible"
    results = {"net": repr(net), "demo": demo.to_record()}
    if ob["axiom_pairs"] > 0:
        axioms = _toynet.check_axioms(net, sample_pairs=ob["axiom_pairs"], seed=seed)
        results["axioms"] = axioms.to_record()
    return results, "ok"


_COMMANDS = {
    "analyze": (_cmd_analyze, ("quantum", "classical"), "correlation and certificate checks"),
    "find-cc": (_cmd_find_cc, ("quantum", "classical"), "construct or enumerate common causes"),
    "genuine-cc": (_cmd_genuine_cc, ("quantum",), "decide whether a genuinely probabilistic cause exists"),
    "bell": (_cmd_bell, ("bell",), "maximal bell correlation across a split"),
    "sample-bell": (_cmd_sample_bell, ("bell",), "fraction of sampled states that violate"),
    "geometry": (_cmd_geometry, ("geometry",), "light-cone constructions on 1+1 regions"),
    "classical-audit": (_cmd_classical_audit, ("classical",), "exhaustive closedness audit"),
    "toynet-demo": (_cmd_toynet_demo, ("toynet",), "localized common cause on a circuit net"),
}


def _check_kind(command: str, kind: str):
    """The command's handler, once it is known and takes scenarios of ``kind``."""
    if command not in _COMMANDS:
        raise ScenarioParseError(f"unknown command {command!r}")
    handler, kinds, _ = _COMMANDS[command]
    if kind not in kinds:
        raise ScenarioParseError(
            f"command {command} expects a scenario of kind {' or '.join(kinds)}, got {kind!r}"
        )
    return handler


def run(command: str, scenario: Scenario, seed: Optional[int] = None):
    """Dispatch a command; returns (report dict, exit code)."""
    handler = _check_kind(command, scenario.kind)
    use_seed = scenario.seed if seed is None else seed
    with config.temporary(**scenario.tolerances):
        results, outcome = handler(scenario, use_seed)
    report = {
        "command": command,
        "kind": scenario.kind,
        "seed": use_seed,
        "tolerances": scenario.tolerances,
        "inputs": scenario.payload,
        "outcome": outcome,
        "results": results,
    }
    return report, 0 if outcome == "ok" else 1


def _override_value(text: str, where: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ScenarioParseError(f"{where}: value is not a number")
    if not math.isfinite(val):
        raise ScenarioParseError(f"{where}: value is not a finite number")
    return val


def _parse_overrides(items: Sequence[str]) -> dict:
    out = {}
    for item in items:
        key, sep, val = item.partition("=")
        where = f"--tol-override {item!r}"
        if not sep:
            raise ScenarioParseError(f"{where}: expected KEY=VAL")
        out[key] = _tolerance(key, val, where, _override_value)
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, metavar="PATH", help="scenario JSON file")
    common.add_argument("--seed", type=int, default=None, metavar="N", help="override the scenario seed")
    common.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("text", "record"), default="text", help="report style")
    common.add_argument(
        "--tol-override",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="override a named tolerance (repeatable)",
    )
    parser = argparse.ArgumentParser(
        prog="ccbench",
        description="common-cause analyses for classical, quantum, and spacetime scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, _, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ScenarioParseError(f"--seed {args.seed}: expected a nonnegative integer")
        overrides = _parse_overrides(args.tol_override)
        scenario = load_scenario(args.scenario, overrides, args.command)
        report, code = run(args.command, scenario, seed=args.seed)
    except CCBenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # a crash is a bug, never the exit 1 of an honest negative
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return 4
    if args.format == "record":
        text = render_record(report)
    else:
        text = render_text(report["results"]) + render_text({"outcome": report["outcome"]})
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
