"""A discrete 1+1 net of local algebras on a qubit chain.

Dynamics is a brickwork circuit of nearest-neighbor unitaries (odd steps act
on even bonds, even steps on odd bonds), which gives a strict light cone of
one site per step. The algebra of a base interval [a, b] observed at integer
step k is the Heisenberg image U(k)* (factors a..b) U(k); site i at step k
occupies the open spacetime cell t in (k-1/2, k+1/2), x in (i-1/2, i+1/2).
The package builds it only at step 0, as a plain tensor factor; later
steps are reached by evolving operators on their light-cone supports.

``check_axioms`` samples isotony, Einstein causality for cones whose cell
hulls are spacelike, and local primitive causality as the neighbourhood
the circuit's gates define; a wrong gate placement breaks each of them. It
decides which cones to compare and the primitive check in integers, from
(step, lo, hi) and the gate list, and calls no geometry.

The module also runs an end-to-end demonstration: find a correlated pair
in two spacelike regions, build a common-cause region in their backward
light cones, and synthesize a verified common cause inside that region's
algebra. The checks and the demonstration evolve operators by one
light-cone kernel, which carries an operator's support through the gates
touching it, and both take the net's gate order from one function.
The demonstration validates each candidate projection on that support and
embeds it once, trusted, keeping the support and its defect, so a
candidate pair's meet is P_A ⊗ P_B when their supports are disjoint, else
formed on the union S of their supports and settled there from the
candidates' defects. The state is evolved, reduced, weighed and
compressed through its own methods (``qprob.DensityState``).

The 2^n work left, for N = 2^n, listed here once. No candidate, meet or
cause builds its N × N matrix unless it is read (a record's
``cause_matrix``, an oracle); the state and every product by a projection
cost O(N d) a column through a support of dimension d. What remains is an
overlapping pair whose S is the whole chain: the meet is the N × N product
AB, O(N² d), its O(N³) validation runs only when its bound cannot settle
it, and the certificate multiplies by it (ROADMAP.md, item 4). The state
vector is still of length N, so nets above DENSE_MAX_SITES are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _linalg as la
from . import geometry as geo
from .bell import correlated_pairs
# quantum_verify_cc is unused here but stays bound: benchmark/tests checks
# that tracing wraps it in every ccbench module that binds it, toynet included.
from .commoncause import CommonCauseCertificate, find_strong_cc, quantum_verify_cc  # noqa: F401
from .errors import InfeasibleError, NotUnitaryError, RegionError, StructureError, ValidationError
from .qprob import DensityState, EpsilonPureState, MatrixAlgebra, Projection

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

    def spacelike(self, other: SliceCone) -> bool:
        """Whether the two cones' cell hulls, the open rectangles
        t in (k - 1/2, k + 1/2), x in (lo - 1/2, hi + 1/2), are spacelike
        separated: the spatial gap between them, max(lo' - hi, lo - hi') - 1,
        is at least their largest time difference, |k - k'| + 1."""
        return max(self.lo - other.hi, other.lo - self.hi) >= abs(self.step - other.step) + 2


def _check_cone(where: str, cone, n_sites: int, n_steps: int) -> None:
    """RegionError unless the cone is a SliceCone with its sites in the
    chain and its step in the built horizon."""
    if not isinstance(cone, SliceCone):
        raise RegionError(f"{where} takes SliceCones, got {type(cone).__name__}")
    if not (0 <= cone.lo <= cone.hi < n_sites):
        raise RegionError(f"sites [{cone.lo}, {cone.hi}] outside the chain")
    if not (0 <= cone.step <= n_steps):
        raise RegionError(f"step {cone.step} outside the built horizon {n_steps}")


# ---------------------------------------------------------------------------
# the net
# ---------------------------------------------------------------------------


# Dense 2^n matrices (the evolution, region algebras, the demo's state and
# candidate projections) are built for at most this many sites; the axiom
# checks work on local supports and take nets up to 16 sites, but refuse a
# support wider than this too.
DENSE_MAX_SITES = 10


def _require_dense(where: str, n_sites: int) -> None:
    if n_sites > DENSE_MAX_SITES:
        raise ValidationError(
            f"{where}: {n_sites} sites exceed the dense limit of {DENSE_MAX_SITES}"
        )


class NetModel:
    """Brickwork circuit net; layers are tuples of ((i, j), 4x4 unitary)."""

    def __init__(self, n_sites: int, layers, label: str = "given"):
        if not 4 <= n_sites <= 16:
            raise ValidationError(f"n_sites = {n_sites} outside the supported 4..16")
        self.n_sites = n_sites
        self.dim = 2**n_sites
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
        self._evolution = []

    def evolution(self, k: int) -> np.ndarray:
        """U(k) = L_k ... L_1; U(0) = identity. Dense: at most 10 sites.
        The dense reference: no package path calls it; the tests and the
        benchmark self-test check the light-cone evolution against it."""
        _require_dense("NetModel.evolution", self.n_sites)
        if not 0 <= k <= self.n_steps:
            raise RegionError(f"step {k} outside the built horizon {self.n_steps}")
        if not self._evolution:
            self._evolution.append(np.eye(self.dim, dtype=complex))
        while len(self._evolution) <= k:
            m = self._evolution[-1]
            for (i, j), gate in self.layers[len(self._evolution) - 1]:
                m = la.apply_factor(gate, m, (2,) * self.n_sites, (i, j))
            self._evolution.append(m)
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
        return NetModel(n_sites, gate_spec)
    if gate_spec not in ("swap", "random"):
        raise ValidationError(f"unknown gate spec {gate_spec!r}")
    steps = n_steps if n_steps is not None else n_sites
    bonds = [
        [(i, i + 1) for i in range(0 if k % 2 == 1 else 1, n_sites - 1, 2)]
        for k in range(1, steps + 1)
    ]
    count = sum(len(layer) for layer in bonds)
    # random gates are drawn in one batch, the bytes of one
    # la.haar_unitary(4, rng) a gate, layer by layer
    gates = iter(
        [SWAP] * count if gate_spec == "swap"
        else la.haar_unitaries(count, 4, np.random.default_rng(seed))
    )
    layers = [[(pair, next(gates)) for pair in layer] for layer in bonds]
    return NetModel(n_sites, layers, label=gate_spec)


# ---------------------------------------------------------------------------
# local algebras
# ---------------------------------------------------------------------------


def region_algebra(net: NetModel, cone: SliceCone) -> MatrixAlgebra:
    """The algebra of a step-0 slice cone: the plain factor on sites lo..hi.

    Takes a SliceCone only; a region, or a cone off the chain or past the
    built horizon, raises RegionError. A cone at a later step raises
    StructureError: its algebra U(k)* F U(k) is reached by evolving
    operators on their light-cone supports (``_relative_image``).
    """
    _require_dense("region_algebra", net.n_sites)
    _check_cone("region_algebra", cone, net.n_sites, net.n_steps)
    if cone.step != 0:
        raise StructureError(
            f"region_algebra builds step-0 rows only; the cone is at step {cone.step}"
        )
    return MatrixAlgebra.tensor_factor((2,) * net.n_sites, tuple(range(cone.lo, cone.hi + 1)))


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


def _gate_sequence(net: NetModel, k_to: int, k_from: int) -> list:
    """The gates of W = U(k_to) U(k_from)*, as ((i, j), G) in the order they
    act: forward through layers k_from+1..k_to in list order, backward
    through layers k_from..k_to+1 in reverse order with each gate as G*."""
    if k_to >= k_from:
        return [g for k in range(k_from + 1, k_to + 1) for g in net.layers[k - 1]]
    return [
        (pair, la.dagger(gate))
        for k in range(k_from, k_to, -1)
        for pair, gate in reversed(net.layers[k - 1])
    ]


def _relative_image(net: NetModel, k_to: int, k_from: int, support: tuple, x: np.ndarray):
    """(support, local matrix) of W x W* for W = U(k_to) U(k_from)*, x on ``support``.

    No 2^n matrix is formed. The operator is carried as (support, local
    matrix) and evolved through the gates of ``_gate_sequence``. A gate
    touching the support first widens it by its sites; one missing it is
    skipped. This is exact, since a Heisenberg-evolved local operator stays
    local (Arrighi, Nesme & Werner, J. Comput. Syst. Sci. 77, 2011); a
    support wider than DENSE_MAX_SITES is refused. A brickwork gate widens
    an interval support at one end, which ``la.embed_factor`` does as a
    kron with the identity on that side, no permute; the gate then acts on
    both sides by ``la.conjugate_factor``, on adjacent ascending sites
    without moving the matrix. Each gate costs O(4^s · 4) on an s-site
    support.
    """
    m = x
    for (i, j), gate in _gate_sequence(net, k_to, k_from):
        if i not in support and j not in support:
            continue
        wider = tuple(sorted({*support, i, j}))
        if len(wider) > DENSE_MAX_SITES:
            raise ValidationError(
                f"check_axioms: an evolved support of {len(wider)} sites exceeds "
                f"the dense limit of {DENSE_MAX_SITES}"
            )
        if wider != support:
            m = la.embed_factor(m, (2,) * len(wider), tuple(wider.index(s) for s in support))
            support = wider
        dims, acting = (2,) * len(support), (support.index(i), support.index(j))
        m = la.conjugate_factor(gate, m, dims, acting)
    return support, m


def check_axioms(net: NetModel, sample_pairs: int = 100, seed: int = 0) -> AxiomReport:
    """Sampled isotony, Einstein causality, and primitive causality checks.

    Which cones are compared, and the primitive check, are decided in
    integers from (step, lo, hi) and the gate list; no geometry is called.
    Two cones at steps k1 and k2 are compared in one picture: conjugating
    both algebras U(k)* F U(k) by U(k1) leaves norms and membership
    unchanged, so the pair reduces to the plain factor of the first cone
    against W = U(k1) U(k2)* applied to the second. Each site generator is
    evolved on its light-cone support by ``_relative_image``; no 2^n matrix
    is formed. The qubit shift and clock are built once a call; a cone's
    generators are those two on each of its sites, in that order.

    Isotony: for nested cones (same step, or one step back with the one-site
    widening), each inner generator evolved to the outer cone's step lies in
    the outer cone's plain factor: at once if its support lies inside the
    outer sites, else by the membership test on the support, whose relative
    residual equals the full-chain one. This step-back branch samples the
    algebraic one-step inclusion A(k, lo, hi) in A(k - 1, lo - 1, hi + 1).

    Einstein causality: for cone pairs whose cell hulls are spacelike
    (``SliceCone.spacelike``), every [g, W h W*] of site generators
    vanishes. It is a structural zero when g's site lies off the support of
    W h W*; otherwise it is taken on the support as ‖g m g* − m‖_F for the
    image m, which equals ‖[g, m]‖_F since g is unitary, by one
    ``la.conjugate_factor``, and scaled by sqrt(2^(n - |support|)) to the
    full-chain norm.

    Primitive causality: the cone's sites are carried back through the
    gates of U(k)*, in the order they act, as a set; a gate touching the set
    adds both its sites, and no matrix is formed. A cone (k, lo, hi) is a
    violation when the set leaves [lo − k, hi + k]. This checks the
    neighbourhood the circuit defines (Schumacher & Werner, 2004), which
    suffices for A(D) inside the algebra of that step-0 row, whose causal
    completion holds D. It draws nothing from the sampler.
    """
    rng = np.random.default_rng(seed)
    n = net.n_sites
    max_step = min(net.n_steps, 3)

    qubit = [x for _, x in MatrixAlgebra.tensor_factor((2,), (0,)).local_generators()]

    def site_generators(c: SliceCone):
        return [(s, x) for s in range(c.lo, c.hi + 1) for x in qubit]

    def commutator_norm(site: int, x: np.ndarray, image) -> float:
        support, m = image
        if site not in support:
            return 0.0
        dims, acting = (2,) * len(support), (support.index(site),)
        conjugated = la.conjugate_factor(x, m, dims, acting)
        return la.frob(conjugated - m) * np.sqrt(2.0 ** (n - len(support)))

    def in_factor(image, lo: int, hi: int) -> bool:
        support, m = image
        kept = tuple(p for p, s in enumerate(support) if lo <= s <= hi)
        if len(kept) == len(support):
            return True
        return MatrixAlgebra.tensor_factor((2,) * len(support), kept).contains(m)

    iso_bad, caus_bad, prim_bad = [], [], []
    n_iso = n_caus = n_prim = 0
    max_comm = 0.0
    guard = 0
    while (n_iso < sample_pairs or n_caus < sample_pairs or n_prim < sample_pairs) and guard < 60 * sample_pairs:
        guard += 1
        c1 = _random_cone(net, rng, max_step)
        if n_prim < sample_pairs:
            n_prim += 1
            reach = set(range(c1.lo, c1.hi + 1))
            for (i, j), _ in _gate_sequence(net, 0, c1.step):
                if i in reach or j in reach:
                    reach |= {i, j}
            if min(reach) < c1.lo - c1.step or max(reach) > c1.hi + c1.step:
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
            if not all(
                in_factor(_relative_image(net, outer.step, c1.step, (site,), x), outer.lo, outer.hi)
                for site, x in site_generators(c1)
            ):
                iso_bad.append((c1, outer))
        if n_caus < sample_pairs:
            c2 = _random_cone(net, rng, max_step)
            if c1.spacelike(c2):
                n_caus += 1
                images = [
                    _relative_image(net, c1.step, c2.step, (s,), x) for s, x in site_generators(c2)
                ]
                worst = max(
                    commutator_norm(s, x, m) for m in images for s, x in site_generators(c1)
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


def demo_state(net: NetModel, seed: int = 0, epsilon: float = 0.05) -> EpsilonPureState:
    """Seeded full-rank state (1 - eps) |psi><psi| + eps I/dim, with psi Haar,
    as an ``EpsilonPureState``: its 2^n matrix is built only if read."""
    _require_dense("demo_state", net.n_sites)
    rng = np.random.default_rng(seed)
    return EpsilonPureState(la.random_pure_state(net.dim, rng), epsilon)


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


def weak_rccp_demo(
    net: NetModel,
    state: DensityState,
    d1: SliceCone,
    d2: SliceCone,
    budget: int = 10,
) -> WeakRCCPDemo:
    """Full pipeline: correlated pair, common-cause region, localized cause.

    D1 and D2 are SliceCones with sites in the chain and steps in the built
    horizon; anything else is a RegionError.

    The geometry comes first, before any 2^n work: the weak common-cause
    region is built at slab depth aligned with the step-0 lattice row and
    snapped to the sites whose cells it contains, so a geometrically
    infeasible pair fails at once. The correlated-pair sweep then runs
    once, on the state reduced to the two base intervals (expectations of
    the embedded operators agree exactly with the reduced ones, so this is
    the same search, just cheaper); its first hit decides the product-state
    negative and its hits in order are the candidates tried within
    ``budget``. The strong cause is synthesized inside the step-0 row's
    algebra.

    The sweep's state is the step-k state on sites1 + sites2, factors in
    that order (D1 may lie to the right of D2), reduced through the net's
    gates. Each candidate is evolved back to step 0 on its light-cone
    support (``_relative_image``; no U(k) is built), validated there and
    embedded by the trusted ``Projection.embedded``, which gives the
    verdict, rank and matrix a 2^n validation would, built only if read.

    ``find_strong_cc`` forms each pair's meet as P_A ⊗ P_B on disjoint
    supports, else on their union S. When the step-0 row covers the chain,
    it uses the state, the meet and the synthesized cause as they are;
    otherwise it compresses the state to the row and embeds the meet there
    from its factors and the cause from the row. The 2^n work left is
    listed in the module docstring.
    """
    for cone in (d1, d2):
        _check_cone("the demo", cone, net.n_sites, net.n_steps)
    state.require_faithful()
    if not geo.spacelike_separated(d1.diamond(), d2.diamond()):
        raise RegionError("base regions are not spacelike separated")
    if d1.step != d2.step:
        raise RegionError("demo expects both regions on the same slice")
    # slab aligned with the step-0 row; margin 1 makes it exactly one cell tall
    construction = geo.weak_cc_region(
        d1.diamond(), d2.diamond(), margin=1.0, depth=-0.5
    )
    slab = construction.region
    cell = slab.cells[0]
    snapped = [
        i
        for i in range(net.n_sites)
        if cell.x.lo <= i - 0.5 and i + 0.5 <= cell.x.hi
    ]
    if not snapped:
        raise InfeasibleError("common-cause slab contains no lattice cells")
    site_lo, site_hi = snapped[0], snapped[-1]
    k = d1.step
    dims = (2,) * net.n_sites
    sites1 = tuple(range(d1.lo, d1.hi + 1))
    sites2 = tuple(range(d2.lo, d2.hi + 1))
    _require_dense("weak_rccp_demo", net.n_sites)
    keep = sites1 + sites2
    phi_red = DensityState(state.reduced(dims, keep, _gate_sequence(net, k, 0)))
    red_dims = (2,) * len(keep)
    n1r = MatrixAlgebra.tensor_factor(red_dims, tuple(range(len(sites1))))
    n2r = MatrixAlgebra.tensor_factor(red_dims, tuple(range(len(sites1), len(keep))))
    pairs = correlated_pairs(phi_red, n1r, n2r)
    first = next(pairs, None)
    if first is None:
        raise InfeasibleError("no correlated pair across the regions: product state")

    def embed_back(p_red: Projection, local_sites) -> Projection:
        loc = p_red.within(red_dims, tuple(keep.index(s) for s in local_sites)).mat
        support, m = _relative_image(net, 0, k, local_sites, loc)
        return Projection(m).embedded(dims, support)

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
            cert = find_strong_cc(state, a_glob, b_glob, algebra=local)
        except (InfeasibleError, StructureError) as exc:
            last_error = exc
            continue
        cert = replace(cert, localization=geo.describe(slab))
        tilde = geo.tilde_regions(d1.diamond(), d2.diamond(), slab)
        return WeakRCCPDemo(
            d1=d1,
            d2=d2,
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
