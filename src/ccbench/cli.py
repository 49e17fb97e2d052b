"""Command-line front end: scenario files in, deterministic reports out.

Scenarios are JSON documents with a ``kind`` (quantum, classical, geometry,
toynet, bell), a payload of matrices / events / regions, an optional seed,
and optional tolerance overrides. Complex numbers are written as [re, im]
pairs; bare numbers are read as reals.

Exit codes: 0 success, 1 honest negative (a search that correctly found
nothing), 2 parse or schema error, 3 violated invariant or precondition
(the failing invariant is named), 4 internal inconsistency (a bug).
Given the same scenario, command, and seed, the machine-readable record is
byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
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
    InternalInconsistencyError,
    RegionError,
    ScenarioInvariantError,
    ScenarioParseError,
    UncorrelatedError,
    ValidationError,
)
from .qprob import DensityState, MatrixAlgebra, Projection, correlation, state_eval
from .record import complex_matrix_record, render_record

KINDS = ("quantum", "classical", "geometry", "toynet", "bell")


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


def _as_number(entry, where: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ScenarioParseError(f"{where}: expected a number")
    return float(entry)


def _as_int(entry, where: str) -> int:
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ScenarioParseError(f"{where}: expected an integer")
    return entry


def _as_complex(entry, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
    ):
        return complex(entry[0], entry[1])
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


def _as_pair(node, where: str) -> tuple[float, float]:
    if not isinstance(node, list) or len(node) != 2:
        raise ScenarioParseError(f"{where}: expected [lo, hi]")
    return _as_number(node[0], f"{where}[0]"), _as_number(node[1], f"{where}[1]")


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
    events = {}
    for name, node in payload.get("events", {}).items():
        where = f"payload.events.{name}"
        if not isinstance(node, list) or not all(isinstance(i, int) for i in node):
            raise ScenarioParseError(f"{where}: expected a list of atom indices")
        with _invariant_scope(where):
            events[name] = space.as_mask(node)
    return {"space": space, "events": events}


def _validate_bell(payload: dict) -> dict:
    split = _need(payload, "split", "payload")
    if not isinstance(split, list) or len(split) != 2:
        raise ScenarioParseError("payload.split: expected [d1, d2]")
    d1, d2 = (_as_int(d, "payload.split") for d in split)
    if d1 < 2 or d2 < 2:
        raise ScenarioInvariantError(
            f"payload.split: each side needs dimension >= 2, got {d1}x{d2}",
            invariant="split",
        )
    objects = {"split": (d1, d2)}
    node = payload.get("state")
    if node is not None:
        with _invariant_scope("payload.state"):
            if node == "singlet":
                if (d1, d2) != (2, 2):
                    raise ScenarioInvariantError(
                        "payload.state: singlet needs a [2, 2] split", invariant="split"
                    )
                phi = _bell.singlet_state()
            elif isinstance(node, dict) and set(node) == {"werner"}:
                if (d1, d2) != (2, 2):
                    raise ScenarioInvariantError(
                        "payload.state: werner needs a [2, 2] split", invariant="split"
                    )
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
    gate = payload.get("gate", "random")
    if gate not in ("swap", "random"):
        raise ScenarioParseError('payload.gate must be "swap" or "random"')
    n_steps = payload.get("n_steps")
    if n_steps is not None:
        n_steps = _as_int(n_steps, "payload.n_steps")
        if n_steps < 1:
            raise ScenarioInvariantError("payload.n_steps must be >= 1", invariant="n_steps")
    horizon = n_steps if n_steps is not None else n_sites
    cones = {}
    for name in ("d1", "d2"):
        node = _need(payload, name, "payload")
        if not isinstance(node, dict):
            raise ScenarioParseError(f"payload.{name}: expected {{step, sites}}")
        step = _as_int(_need(node, "step", f"payload.{name}"), f"payload.{name}.step")
        sites = _need(node, "sites", f"payload.{name}")
        if not isinstance(sites, list) or len(sites) != 2:
            raise ScenarioParseError(f"payload.{name}.sites: expected [lo, hi]")
        lo, hi = (_as_int(s, f"payload.{name}.sites") for s in sites)
        if not (0 <= lo <= hi < n_sites):
            raise ScenarioInvariantError(
                f"payload.{name}.sites [{lo}, {hi}] outside the chain of {n_sites}",
                invariant="sites",
            )
        if not (0 <= step <= horizon):
            raise ScenarioInvariantError(
                f"payload.{name}.step {step} outside the built horizon {horizon}",
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
        **cones,
    }


_VALIDATORS = {
    "quantum": _validate_quantum,
    "classical": _validate_classical,
    "geometry": _validate_geometry,
    "toynet": _validate_toynet,
    "bell": _validate_bell,
}


def _parse_tolerances(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{where}: expected an object of name -> value")
    out = {}
    for key, val in node.items():
        try:
            config.canonical_name(key)
        except KeyError:
            known = ", ".join(sorted(config.ALIASES))
            raise ScenarioParseError(f"{where}.{key}: unknown tolerance (known: {known})")
        val = _as_number(val, f"{where}.{key}")
        if val <= 0:
            raise ScenarioParseError(f"{where}.{key}: tolerance must be positive")
        out[key] = val
    return out


def load_scenario(path, extra_tolerances: Optional[dict] = None) -> Scenario:
    """Parse and validate a scenario file.

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


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _cert_lines(cert) -> list[str]:
    return [
        f"screening residuals: ({_fmt(cert.residual_screen_C)}, {_fmt(cert.residual_screen_Cperp)})",
        f"relevance margins: ({_fmt(cert.margin_A)}, {_fmt(cert.margin_B)})",
        f"strong={cert.is_strong} genuine={cert.is_genuine} verified={cert.verified}",
    ]


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
        corr = space.correlation(a, b)
        results = {
            "correlation": corr,
            "logically_independent": space.logically_independent(a, b),
        }
        summary = [f"classical pair on {space.n_atoms} atoms", f"correlation = {_fmt(corr)}"]
        if "C" in sc.objects["events"]:
            cert = _cc.classical_verify_cc(space, a, b, sc.objects["events"]["C"])
            results["certificate"] = cert.to_record()
            summary += _cert_lines(cert)
        return results, summary, "ok"
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    corr = correlation(phi, a, b)
    results = {
        "dim": phi.dim,
        "faithful": phi.faithful,
        "correlation": corr,
        "weights": {"A": state_eval(phi, a), "B": state_eval(phi, b)},
    }
    summary = [
        f"state dim {phi.dim}, faithful={phi.faithful}",
        f"correlation(A, B) = {_fmt(corr)}",
    ]
    try:
        rv = _cc.reichenbach_r(phi, a, b)
        results["target_weight"] = rv.to_record()
        summary.append(f"target weight r = {_fmt(rv.r)} (meet weight {_fmt(rv.phiAB)})")
    except UncorrelatedError:
        results["target_weight"] = None
        summary.append("pair is not positively correlated; no target weight")
    if "C" in sc.objects:
        cert = _cc.quantum_verify_cc(phi, a, b, sc.objects["C"])
        results["certificate"] = cert.to_record()
        summary += _cert_lines(cert)
    return results, summary, "ok"


def _cmd_find_cc(sc: Scenario, seed: int):
    if sc.kind == "classical":
        space = sc.objects["space"]
        a, b = _classical_events(sc, "A", "B")
        exclude = sc.payload.get("exclude_trivial", True)
        certs = _cc.classical_find_cc(space, a, b, exclude_trivial=bool(exclude))
        results = {"n_found": len(certs), "causes": [c.to_record() for c in certs]}
        if not certs:
            summary = ["exhaustive search found no common cause in this space"]
            return results, summary, "none-found"
        summary = [f"{len(certs)} common cause(s) found"]
        for c in certs[:5]:
            summary.append(f"  C = atoms {sorted(c.cause)}")
        return results, summary, "ok"
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    count = sc.payload.get("count", 1)
    count = _as_int(count, "payload.count")
    if count <= 1:
        try:
            cert = _cc.find_strong_cc(phi, a, b)
        except InfeasibleError as exc:
            return {"message": str(exc)}, [f"infeasible: {exc}"], "infeasible"
        results = {"certificate": cert.to_record(), "cause_matrix": complex_matrix_record(cert.cause.mat)}
        summary = [
            f"strong common cause of rank {cert.cause.rank} (dim {cert.cause.dim})",
            f"cause weight = {_fmt(state_eval(phi, cert.cause))}",
        ] + _cert_lines(cert)
        return results, summary, "ok"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        causes = _cc.find_multiple_strong_cc(phi, a, b, count, seed=seed)
    notes = sorted(str(w.message) for w in caught)
    records = []
    for c in causes:
        cert = _cc.quantum_verify_cc(phi, a, b, c)
        records.append({"certificate": cert.to_record(), "cause_matrix": complex_matrix_record(c.mat)})
    results = {"requested": count, "n_found": len(causes), "causes": records, "notes": notes}
    summary = [f"{len(causes)} of {count} requested distinct strong common causes"]
    summary += [f"  note: {n}" for n in notes]
    if not causes:
        return results, summary, "none-found"
    return results, summary, "ok"


def _cmd_genuine_cc(sc: Scenario, seed: int):
    if sc.kind != "quantum":
        raise ScenarioParseError("genuine-cc needs a quantum scenario")
    phi, a, b = sc.objects["phi"], sc.objects["A"], sc.objects["B"]
    budget = _as_int(sc.payload.get("budget", 60), "payload.budget")
    cert = _cc.search_genuine_cc(phi, a, b, budget=budget, seed=seed)
    if cert is None:
        results = {"budget": budget, "certificate": None}
        summary = [
            f"no genuinely probabilistic cause found within budget {budget}",
            "(a negative search result, not a nonexistence claim)",
        ]
        return results, summary, "not-found"
    results = {
        "budget": budget,
        "certificate": cert.to_record(),
        "cause_matrix": complex_matrix_record(cert.cause.mat),
    }
    summary = [f"genuine cause of rank {cert.cause.rank} found"] + _cert_lines(cert)
    return results, summary, "ok"


def _cmd_bell(sc: Scenario, seed: int):
    if "phi" not in sc.objects:
        raise ScenarioParseError("payload.state is required for the bell command")
    phi = sc.objects["phi"]
    d1, d2 = sc.objects["split"]
    n1 = MatrixAlgebra.tensor_factor((d1, d2), (0,))
    n2 = MatrixAlgebra.tensor_factor((d1, d2), (1,))
    restarts = _as_int(sc.payload.get("restarts", 20), "payload.restarts")
    report = _bell.bell_correlation(phi, n1, n2, restarts=restarts, seed=seed)
    results = report.to_record()
    results["correlated"] = bool(report.beta > 1.0 + config.TOL.bell)
    summary = [
        f"bell correlation beta = {_fmt(report.beta)}",
        f"converged={report.converged} after {report.iterations} iteration(s)",
        f"correlated beyond the classical bound: {results['correlated']}",
    ]
    if (d1, d2) == (2, 2):
        oracle = _bell.two_qubit_chsh_oracle(phi)
        results["oracle_beta"] = oracle
        results["oracle_gap"] = abs(report.beta - oracle)
        summary.append(f"closed-form two-qubit value = {_fmt(oracle)} (gap {_fmt(results['oracle_gap'])})")
    pair = _bell.find_correlated_pair(phi, n1, n2)
    if pair is None:
        results["correlated_pair"] = {"found": False}
        summary.append("no positively correlated commuting pair: state is a product across the split")
    else:
        a, b = pair
        corr = correlation(phi, a, b)
        results["correlated_pair"] = {
            "found": True,
            "A": complex_matrix_record(a.mat),
            "B": complex_matrix_record(b.mat),
            "correlation": corr,
        }
        summary.append(f"found a positively correlated commuting pair (correlation {_fmt(corr)})")
    return results, summary, "ok"


def _cmd_sample_bell(sc: Scenario, seed: int):
    ensemble = _need(sc.payload, "ensemble", "payload")
    n = _as_int(_need(sc.payload, "n", "payload"), "payload.n")
    restarts = _as_int(sc.payload.get("restarts", 6), "payload.restarts")
    with _invariant_scope("payload"):
        report = _bell.sample_bell_fraction(
            sc.objects["split"], ensemble, n, seed=seed, restarts=restarts
        )
    results = report.to_record()
    summary = [
        f"{ensemble} ensemble on split {list(sc.objects['split'])}: "
        f"{_fmt(report.fraction)} of {n} states are bell correlated",
        f"max beta = {_fmt(report.max_beta)}",
    ]
    return results, summary, "ok"


def _cmd_geometry(sc: Scenario, seed: int):
    regions = sc.objects["regions"]
    results = {}
    summary = []
    if "v1" in regions and "v2" in regions:
        v1, v2 = regions["v1"], regions["v2"]
        margin = _as_number(sc.payload.get("margin", 0.5), "payload.margin")
        depth = sc.payload.get("depth")
        if depth is not None:
            depth = _as_number(depth, "payload.depth")
        spacelike = geo.spacelike_separated(v1, v2)
        results["spacelike"] = spacelike
        summary.append(f"v1: {geo.describe(v1)}")
        summary.append(f"v2: {geo.describe(v2)}")
        summary.append(f"spacelike separated: {spacelike}")
        construction = geo.weak_cc_region(v1, v2, margin=margin, depth=depth)
        slab = construction.region
        tilde = geo.tilde_regions(v1, v2, slab)
        results.update(
            {
                "v1": geo.region_record(v1),
                "v2": geo.region_record(v2),
                "region": geo.region_record(slab),
                "completion": geo.region_record(construction.completion),
                "depth": construction.depth,
                "margin": construction.margin,
                "t_overlap": construction.t_overlap,
                "t_min": construction.t_min,
                "checks": dict(construction.checks),
                "tilde_part1": geo.region_record(tilde.part1),
                "tilde_part2": geo.region_record(tilde.part2),
                "tilde_common": geo.region_record(tilde.common),
            }
        )
        mid = -construction.depth - 0.5 * construction.margin
        results["slice_t"] = mid
        results["slice"] = {
            name: [[lo, hi] for lo, hi in geo.slice_at(part, mid)]
            for name, part in (
                ("part1", tilde.part1),
                ("part2", tilde.part2),
                ("common", tilde.common),
            )
        }
        summary.append(f"common-cause slab: {geo.describe(slab)}")
        summary.append(f"completion: {geo.describe(construction.completion)}")
        for name in ("part1", "part2", "common"):
            ivs = ", ".join(f"({_fmt(lo)}, {_fmt(hi)})" for lo, hi in results["slice"][name])
            summary.append(f"tilde {name} at t = {_fmt(mid)}: x in {ivs or 'nothing'}")
        return results, summary, "ok"
    v = regions["v"]
    results["v"] = geo.region_record(v)
    summary.append(f"v: {geo.describe(v)}")
    complement = geo.causal_complement(v)
    results["complement"] = geo.region_record(complement)
    summary.append(f"causal complement: {geo.describe(complement)}")
    completion = geo.causal_completion(v)
    results["completion"] = geo.region_record(completion)
    summary.append(f"causal completion: {geo.describe(completion)}")
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
        summary.append(
            f"point (t={_fmt(t)}, x={_fmt(x)}): in v={results['point']['in_v']}, "
            f"in complement={results['point']['in_complement']}, "
            f"in blc={results['point']['in_blc']}"
        )
    return results, summary, "ok"


def _cmd_classical_audit(sc: Scenario, seed: int):
    space = sc.objects["space"]
    report = _cc.classical_closedness_audit(space)
    results = report.to_record()
    summary = [
        f"{report.n_correlated_pairs} correlated pair(s); "
        f"{report.n_covered} admit a nontrivial common cause",
        f"common cause closed: {report.closed}",
    ]
    for item in results["uncovered"][:10]:
        summary.append(f"  uncovered: A = atoms {item['A']}, B = atoms {item['B']}")
    return results, summary, "ok"


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
    budget = _as_int(sc.payload.get("budget", 10), "payload.budget")
    try:
        demo = _toynet.weak_rccp_demo(net, state, ob["d1"], ob["d2"], budget=budget)
    except InfeasibleError as exc:
        results = {"message": str(exc), "net": repr(net)}
        return results, [f"infeasible: {exc}"], "infeasible"
    results = {"net": repr(net), "demo": demo.to_record()}
    summary = demo.narrative().splitlines()
    axiom_pairs = _as_int(sc.payload.get("axiom_pairs", 0), "payload.axiom_pairs")
    if axiom_pairs > 0:
        axioms = _toynet.check_axioms(net, sample_pairs=axiom_pairs, seed=seed)
        results["axioms"] = axioms.to_record()
        summary.append(
            f"axiom checks over {axiom_pairs} sampled pair(s): ok={axioms.ok} "
            f"(max spacelike commutator {_fmt(axioms.max_spacelike_commutator)})"
        )
    return results, summary, "ok"


_COMMANDS = {
    "analyze": (_cmd_analyze, ("quantum", "classical"), "correlation and certificate checks"),
    "find-cc": (_cmd_find_cc, ("quantum", "classical"), "construct or enumerate common causes"),
    "genuine-cc": (_cmd_genuine_cc, ("quantum",), "search for a genuinely probabilistic cause"),
    "bell": (_cmd_bell, ("bell",), "maximal bell correlation across a split"),
    "sample-bell": (_cmd_sample_bell, ("bell",), "fraction of sampled states that violate"),
    "geometry": (_cmd_geometry, ("geometry",), "light-cone constructions on 1+1 regions"),
    "classical-audit": (_cmd_classical_audit, ("classical",), "exhaustive closedness audit"),
    "toynet-demo": (_cmd_toynet_demo, ("toynet",), "localized common cause on a circuit net"),
}


def run(command: str, scenario: Scenario, seed: Optional[int] = None):
    """Dispatch a command; returns (report dict, summary lines, exit code)."""
    if command not in _COMMANDS:
        raise ScenarioParseError(f"unknown command {command!r}")
    handler, kinds, _ = _COMMANDS[command]
    if scenario.kind not in kinds:
        raise ScenarioParseError(
            f"command {command} expects a scenario of kind {' or '.join(kinds)}, "
            f"got {scenario.kind!r}"
        )
    use_seed = scenario.seed if seed is None else seed
    with config.temporary(**scenario.tolerances):
        results, summary, outcome = handler(scenario, use_seed)
    report = {
        "command": command,
        "kind": scenario.kind,
        "seed": use_seed,
        "tolerances": scenario.tolerances,
        "inputs": scenario.payload,
        "outcome": outcome,
        "results": results,
    }
    summary = list(summary) + [f"outcome: {outcome}"]
    return report, summary, 0 if outcome == "ok" else 1


def _parse_overrides(items: Sequence[str]) -> dict:
    out = {}
    for item in items:
        key, sep, val = item.partition("=")
        if not sep:
            raise ScenarioParseError(f"--tol-override {item!r}: expected KEY=VAL")
        try:
            config.canonical_name(key)
        except KeyError:
            known = ", ".join(sorted(config.ALIASES))
            raise ScenarioParseError(f"--tol-override: unknown tolerance {key!r} (known: {known})")
        try:
            fval = float(val)
        except ValueError:
            raise ScenarioParseError(f"--tol-override {item!r}: value is not a number")
        if fval <= 0:
            raise ScenarioParseError(f"--tol-override {item!r}: tolerance must be positive")
        out[key] = fval
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
        overrides = _parse_overrides(args.tol_override)
        scenario = load_scenario(args.scenario, extra_tolerances=overrides)
        report, summary, code = run(args.command, scenario, seed=args.seed)
    except CCBenchError as exc:
        code = _exit_code(exc)
        sys.stderr.write(f"error: {exc}\n")
        return code
    text = render_record(report) if args.format == "record" else "\n".join(summary) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def _exit_code(exc: CCBenchError) -> int:
    if isinstance(exc, ScenarioParseError):
        return 2
    if isinstance(exc, InternalInconsistencyError):
        return 4
    if isinstance(exc, InfeasibleError):
        return 1
    # validation, precondition, region, and scenario-invariant failures
    return 3


if __name__ == "__main__":
    sys.exit(main())
