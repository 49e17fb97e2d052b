"""A discrete 1+1 net of local algebras on a qubit chain.

Dynamics is a brickwork circuit of nearest-neighbor unitaries (odd steps act
on even bonds, even steps on odd bonds), which gives a strict light cone of
one site per step. The algebra of a base interval [a, b] observed at integer
step k is the Heisenberg image U(k)* (factors a..b) U(k); site i at step k
occupies the open spacetime cell t in (k-1/2, k+1/2), x in (i-1/2, i+1/2).

With these assignments the net satisfies isotony, Einstein causality for
cell-hull-spacelike regions, and primitive causality exactly, and supports
an end-to-end demonstration: find a correlated pair in two spacelike
regions, build a common-cause region in their backward light cones, and
synthesize a verified common cause inside that region's algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _linalg as la
from . import geometry as geo
from .bell import correlated_pairs
# quantum_verify_cc is unused here but stays bound: benchmark/tests checks
# that tracing wraps it in every ccbench module that binds it, toynet included.
from .commoncause import CommonCauseCertificate, find_strong_cc, quantum_verify_cc  # noqa: F401
from .config import TOL
from .errors import (
    InfeasibleError,
    InternalInconsistencyError,
    NotFaithfulError,
    NotUnitaryError,
    RegionError,
    StructureError,
    ValidationError,
)
from .qprob import DensityState, MatrixAlgebra, Projection

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


# ---------------------------------------------------------------------------
# lattice <-> spacetime mapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceCone:
    """Double cone generated by a site interval [lo, hi] at integer step."""

    step: int
    lo: int
    hi: int

    def diamond(self) -> geo.Region:
        k, a, b = self.step, self.lo, self.hi
        return geo.double_cone(u=(k - b - 0.5, k - a + 0.5), v=(k + a - 0.5, k + b + 0.5))

    def cell_hull(self) -> geo.Region:
        k, a, b = self.step, self.lo, self.hi
        return geo.rect(t=(k - 0.5, k + 0.5), x=(a - 0.5, b + 0.5))


def _cone_from_region(region: geo.Region, n_sites: int, n_steps: int) -> SliceCone:
    """Recover (step, lo, hi) from a region, completing it first."""
    comp = geo.causal_completion(region)
    cell = comp.cells[0]
    k = 0.5 * (cell.u.hi + cell.v.lo)
    a = 0.5 * (cell.v.lo - cell.u.hi) + 0.5
    b = k - cell.u.lo - 0.5
    for name, val in (("step", k), ("site lo", a), ("site hi", b)):
        if abs(val - round(val)) > TOL.geo:
            raise RegionError(f"region is off-lattice: {name} = {val:.6g}")
    k, a, b = int(round(k)), int(round(a)), int(round(b))
    if abs(cell.v.hi - (k + b + 0.5)) > TOL.geo:
        raise RegionError("region is not a slice-based double cone")
    if not (0 <= a <= b < n_sites):
        raise RegionError(f"sites [{a}, {b}] outside the chain")
    if not (0 <= k <= n_steps):
        raise RegionError(f"step {k} outside the built horizon {n_steps}")
    return SliceCone(k, a, b)


# ---------------------------------------------------------------------------
# the net
# ---------------------------------------------------------------------------


class NetModel:
    """Brickwork circuit net; layers are tuples of ((i, j), 4x4 unitary)."""

    def __init__(self, n_sites: int, layers, seed: int = 0, label: str = "given"):
        if not 4 <= n_sites <= 10:
            raise ValidationError(f"n_sites = {n_sites} outside the supported 4..10")
        self.n_sites = n_sites
        self.dim = 2**n_sites
        self.seed = seed
        self.label = label
        checked = []
        for layer in layers:
            row = []
            for (i, j), gate in layer:
                gate = np.asarray(gate, dtype=complex)
                if gate.shape != (4, 4):
                    raise ValidationError("gates must be 4x4")
                if la.frob(gate @ la.dagger(gate) - np.eye(4)) > 1e-10:
                    raise NotUnitaryError("gate is not unitary within 1e-10")
                if not (0 <= i < n_sites and 0 <= j < n_sites and i != j):
                    raise ValidationError(f"gate sites ({i}, {j}) invalid")
                row.append(((int(i), int(j)), gate))
            checked.append(tuple(row))
        self.layers = tuple(checked)
        self.n_steps = len(self.layers)
        self._evolution = [np.eye(self.dim, dtype=complex)]

    def layer_unitary(self, k: int) -> np.ndarray:
        """Full-chain unitary of layer k (1-based)."""
        out = np.eye(self.dim, dtype=complex)
        for (i, j), gate in self.layers[k - 1]:
            out = la.embed_factor(gate, (2,) * self.n_sites, (i, j)) @ out
        return out

    def evolution(self, k: int) -> np.ndarray:
        """U(k) = L_k ... L_1; U(0) = identity."""
        if not 0 <= k <= self.n_steps:
            raise RegionError(f"step {k} outside the built horizon {self.n_steps}")
        while len(self._evolution) <= k:
            kk = len(self._evolution)
            self._evolution.append(self.layer_unitary(kk) @ self._evolution[-1])
        return self._evolution[k]

    def __repr__(self):
        return f"NetModel(n_sites={self.n_sites}, n_steps={self.n_steps}, label={self.label!r})"


def build_net(
    n_sites: int,
    gate_spec="swap",
    seed: int = 0,
    n_steps: Optional[int] = None,
) -> NetModel:
    """Construct a brickwork net.

    gate_spec is "swap" (free streaming), "random" (seeded Haar gates), or
    an explicit list of layers of ((i, j), gate) pairs. Explicit layers may
    break the brickwork pattern on purpose; unitarity is still enforced.
    """
    if not isinstance(gate_spec, str):
        return NetModel(n_sites, gate_spec, seed=seed, label="given")
    if gate_spec not in ("swap", "random"):
        raise ValidationError(f"unknown gate spec {gate_spec!r}")
    steps = n_steps if n_steps is not None else n_sites
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(1, steps + 1):
        start = 0 if k % 2 == 1 else 1
        layer = []
        for i in range(start, n_sites - 1, 2):
            gate = SWAP if gate_spec == "swap" else la.haar_unitary(4, rng)
            layer.append(((i, i + 1), gate))
        layers.append(layer)
    return NetModel(n_sites, layers, seed=seed, label=gate_spec)


# ---------------------------------------------------------------------------
# local algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalAlgebra:
    """Algebra observed in a slice-based double cone of the net."""

    region: geo.Region
    step: int
    sites: tuple[int, int]
    algebra: MatrixAlgebra


def region_algebra(net: NetModel, d) -> LocalAlgebra:
    """Heisenberg algebra U(k)* (factors lo..hi) U(k) of a slice cone.

    Accepts a SliceCone or any region whose causal completion is a
    slice-based double cone (others are off-lattice errors). The assignment
    depends only on the completion, so primitive causality holds exactly.
    """
    cone = d if isinstance(d, SliceCone) else _cone_from_region(d, net.n_sites, net.n_steps)
    base = MatrixAlgebra.tensor_factor(
        (2,) * net.n_sites, tuple(range(cone.lo, cone.hi + 1))
    )
    if cone.step == 0:
        alg = base
    else:
        alg = base.conjugated_by(la.dagger(net.evolution(cone.step)))
    return LocalAlgebra(
        region=cone.diamond(), step=cone.step, sites=(cone.lo, cone.hi), algebra=alg
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    n_isotony: int
    n_causality: int
    n_primitive: int
    isotony_violations: list
    causality_violations: list
    primitive_violations: list
    max_spacelike_commutator: float

    @property
    def ok(self) -> bool:
        return not (
            self.isotony_violations
            or self.causality_violations
            or self.primitive_violations
        )

    def to_record(self) -> dict:
        return {
            "n_isotony": self.n_isotony,
            "n_causality": self.n_causality,
            "n_primitive": self.n_primitive,
            "isotony_violations": [str(v) for v in self.isotony_violations],
            "causality_violations": [str(v) for v in self.causality_violations],
            "primitive_violations": [str(v) for v in self.primitive_violations],
            "max_spacelike_commutator": self.max_spacelike_commutator,
            "ok": self.ok,
        }


def _random_cone(net: NetModel, rng, max_step: int) -> SliceCone:
    k = int(rng.integers(0, max_step + 1))
    a = int(rng.integers(0, net.n_sites))
    b = int(rng.integers(a, min(net.n_sites, a + 3)))
    return SliceCone(k, a, min(b, net.n_sites - 1))


def check_axioms(net: NetModel, sample_pairs: int = 100, seed: int = 0) -> AxiomReport:
    """Sampled isotony, Einstein causality, and primitive causality checks.

    Isotony: for nested cones (same step, and across one step with the
    one-site widening), every generator of the smaller algebra lies in the
    larger. Einstein causality: for cell-hull-spacelike cone pairs, all
    generator commutators vanish. Primitive causality: a cone and its
    causal completion map to identical generator sets.
    """
    rng = np.random.default_rng(seed)
    max_step = min(net.n_steps, 3)
    iso_bad, caus_bad, prim_bad = [], [], []
    n_iso = n_caus = n_prim = 0
    max_comm = 0.0
    guard = 0
    while (n_iso < sample_pairs or n_caus < sample_pairs or n_prim < sample_pairs) and guard < 60 * sample_pairs:
        guard += 1
        c1 = _random_cone(net, rng, max_step)
        if n_prim < sample_pairs:
            n_prim += 1
            la1 = region_algebra(net, c1)
            la2 = region_algebra(net, geo.causal_completion(c1.diamond()))
            same = len(la1.algebra.generators) == len(la2.algebra.generators) and all(
                np.array_equal(g1, g2)
                for g1, g2 in zip(la1.algebra.generators, la2.algebra.generators)
            )
            if not same:
                prim_bad.append(c1)
        if n_iso < sample_pairs:
            n_iso += 1
            if rng.integers(2) == 0 or c1.step == 0:
                outer = SliceCone(
                    c1.step,
                    int(rng.integers(0, c1.lo + 1)),
                    int(rng.integers(c1.hi, net.n_sites)),
                )
            else:
                outer = SliceCone(
                    c1.step - 1, max(0, c1.lo - 1), min(net.n_sites - 1, c1.hi + 1)
                )
            small = region_algebra(net, c1).algebra
            big = region_algebra(net, outer).algebra
            if not all(big.contains(g) for g in small.generators):
                iso_bad.append((c1, outer))
        if n_caus < sample_pairs:
            c2 = _random_cone(net, rng, max_step)
            if geo.spacelike_separated(c1.cell_hull(), c2.cell_hull()):
                n_caus += 1
                a1 = region_algebra(net, c1).algebra
                a2 = region_algebra(net, c2).algebra
                worst = max(
                    la.comm_residual(g1, g2)
                    for g1 in a1.generators
                    for g2 in a2.generators
                )
                max_comm = max(max_comm, worst)
                if worst > 1e-10:
                    caus_bad.append((c1, c2, worst))
    return AxiomReport(
        n_isotony=n_iso,
        n_causality=n_caus,
        n_primitive=n_prim,
        isotony_violations=iso_bad,
        causality_violations=caus_bad,
        primitive_violations=prim_bad,
        max_spacelike_commutator=max_comm,
    )


# ---------------------------------------------------------------------------
# the end-to-end demonstration
# ---------------------------------------------------------------------------


def demo_state(net: NetModel, seed: int = 0, epsilon: float = 0.05) -> DensityState:
    """Seeded full-rank state: (1 - eps) |psi><psi| + eps I/dim."""
    rng = np.random.default_rng(seed)
    psi = la.random_pure_state(net.dim, rng)
    rho = (1.0 - epsilon) * np.outer(psi, psi.conj()) + epsilon * np.eye(net.dim) / net.dim
    return DensityState(rho)


@dataclass(frozen=True)
class WeakRCCPDemo:
    """Record of the full pipeline run; the certificate is the one
    find_strong_cc verified, strong and inside the step-0 row's algebra."""

    d1: SliceCone
    d2: SliceCone
    pair_correlation: float
    a: Projection
    b: Projection
    region: geo.Region
    completion: geo.Region
    lattice_step: int
    lattice_sites: tuple[int, int]
    tilde: geo.TildeDecomposition
    certificate: CommonCauseCertificate
    attempts: int

    def to_record(self) -> dict:
        return {
            "d1": {"step": self.d1.step, "sites": [self.d1.lo, self.d1.hi]},
            "d2": {"step": self.d2.step, "sites": [self.d2.lo, self.d2.hi]},
            "pair_correlation": self.pair_correlation,
            "a_rank": self.a.rank,
            "b_rank": self.b.rank,
            "region": geo.region_record(self.region),
            "completion": geo.region_record(self.completion),
            "lattice_step": self.lattice_step,
            "lattice_sites": list(self.lattice_sites),
            "tilde_part1": geo.region_record(self.tilde.part1),
            "tilde_part2": geo.region_record(self.tilde.part2),
            "tilde_common": geo.region_record(self.tilde.common),
            "certificate": self.certificate.to_record(),
            "attempts": self.attempts,
        }

    def narrative(self) -> str:
        c = self.certificate
        lines = [
            f"regions: D1 sites [{self.d1.lo}, {self.d1.hi}] at step {self.d1.step}, "
            f"D2 sites [{self.d2.lo}, {self.d2.hi}] at step {self.d2.step}",
            f"correlated pair: ranks ({self.a.rank}, {self.b.rank}), "
            f"correlation {self.pair_correlation:.6f}",
            f"common-cause region: {geo.describe(self.region)}",
            f"completion: {geo.describe(self.completion)}",
            f"lattice support: sites {list(self.lattice_sites)} at step {self.lattice_step}",
            f"certificate: residuals ({c.residual_screen_C:.3g}, {c.residual_screen_Cperp:.3g}), "
            f"margins ({c.margin_A:.6f}, {c.margin_B:.6f}), verified={c.verified}",
        ]
        return "\n".join(lines)


def weak_rccp_demo(
    net: NetModel,
    state: DensityState,
    d1,
    d2,
    budget: int = 10,
) -> WeakRCCPDemo:
    """Full pipeline: correlated pair, common-cause region, localized cause.

    The correlated-pair sweep runs once, on the state reduced to the two
    base intervals (expectations of the embedded operators agree exactly
    with the reduced ones, so this is the same search, just cheaper); its
    first hit decides the product-state negative and its hits in order are
    the candidates tried within ``budget``. The weak common-cause region is
    built at slab depth aligned with the step-0 lattice row, snapped to the
    sites whose cells it contains, and the strong cause is synthesized
    inside that row's algebra.
    """
    cone1 = d1 if isinstance(d1, SliceCone) else _cone_from_region(d1, net.n_sites, net.n_steps)
    cone2 = d2 if isinstance(d2, SliceCone) else _cone_from_region(d2, net.n_sites, net.n_steps)
    if not state.faithful:
        raise NotFaithfulError("demo needs a faithful (full-rank) state")
    if not geo.spacelike_separated(cone1.diamond(), cone2.diamond()):
        raise RegionError("base regions are not spacelike separated")
    if cone1.step != cone2.step:
        raise RegionError("demo expects both regions on the same slice")
    k = cone1.step
    dims = (2,) * net.n_sites
    sites1 = tuple(range(cone1.lo, cone1.hi + 1))
    sites2 = tuple(range(cone2.lo, cone2.hi + 1))
    u_k = net.evolution(k)
    rho_h = u_k @ state.mat @ la.dagger(u_k)
    keep = sites1 + sites2
    phi_red = DensityState(la.partial_trace(rho_h, dims, keep))
    red_dims = (2,) * len(keep)
    n1r = MatrixAlgebra.tensor_factor(red_dims, tuple(range(len(sites1))))
    n2r = MatrixAlgebra.tensor_factor(
        red_dims, tuple(range(len(sites1), len(keep)))
    )
    pairs = correlated_pairs(phi_red, n1r, n2r)
    first = next(pairs, None)
    if first is None:
        raise InfeasibleError("no correlated pair across the regions: product state")

    def embed_back(p_red: Projection, local_sites) -> Projection:
        positions = tuple(keep.index(s) for s in local_sites)
        loc = la.partial_trace(p_red.mat, red_dims, positions) / (
            2 ** (len(keep) - len(local_sites))
        )
        emb = la.embed_factor(loc, dims, local_sites)
        return Projection(la.dagger(u_k) @ emb @ u_k)

    # slab aligned with the step-0 row; margin 1 makes it exactly one cell tall
    construction = geo.weak_cc_region(
        cone1.diamond(), cone2.diamond(), margin=1.0, depth=-0.5
    )
    slab = construction.region
    if not (
        geo.causal_shadow_check(cone1.diamond(), slab)
        and geo.causal_shadow_check(cone2.diamond(), slab)
    ):
        raise InternalInconsistencyError(
            "base regions escaped the causal completion of the slab"
        )
    cell = slab.cells[0]
    snapped = [
        i
        for i in range(net.n_sites)
        if cell.x.lo <= i - 0.5 and i + 0.5 <= cell.x.hi
    ]
    if not snapped:
        raise InfeasibleError("common-cause slab contains no lattice cells")
    site_lo, site_hi = snapped[0], snapped[-1]
    local = region_algebra(net, SliceCone(0, site_lo, site_hi))

    attempts = 0
    last_error: Exception | None = None
    for corr, a_red, b_red in itertools.chain([first], pairs):
        if attempts >= budget:
            break
        attempts += 1
        a_glob = embed_back(a_red, sites1)
        b_glob = embed_back(b_red, sites2)
        try:
            cert = find_strong_cc(
                state, a_glob, b_glob, algebra=local.algebra, localization=slab
            )
        except (InfeasibleError, StructureError) as exc:
            last_error = exc
            continue
        tilde = geo.tilde_regions(cone1.diamond(), cone2.diamond(), slab)
        return WeakRCCPDemo(
            d1=cone1,
            d2=cone2,
            pair_correlation=corr,
            a=a_glob,
            b=b_glob,
            region=slab,
            completion=construction.completion,
            lattice_step=0,
            lattice_sites=(site_lo, site_hi),
            tilde=tilde,
            certificate=cert,
            attempts=attempts,
        )
    raise InfeasibleError(
        f"no feasible correlated pair within budget {budget}"
        + (f"; last obstruction: {last_error}" if last_error else "")
    )
