"""Acceptance gate: one test per shipped claim.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion. Every numeric claim is checked against an oracle computed in
this file by an independent route (eigenvalue intervals, exhaustive
enumeration, closed forms, Monte Carlo point sampling), never against the
code path under test. Tolerances are pinned in the assertions.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import masked_instance
from ccbench import (
    ClassicalSpace,
    DensityState,
    MatrixAlgebra,
    Projection,
    bell_correlation,
    classical_closedness_audit,
    correlation,
    find_correlated_pair,
    find_multiple_strong_cc,
    find_strong_cc,
    is_product_state,
    is_subprojection,
    lattice_join,
    lattice_meet,
    quantum_verify_cc,
    reichenbach_r,
    singlet_state,
    state_eval,
    two_qubit_chsh_oracle,
)
from ccbench import _linalg as la
from ccbench import geometry as geo
from ccbench import toynet
from ccbench.cli import main as cli_main
from ccbench.errors import InfeasibleError

SQRT2 = float(np.sqrt(2.0))
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def qubit_split():
    return (
        MatrixAlgebra.tensor_factor((2, 2), (0,)),
        MatrixAlgebra.tensor_factor((2, 2), (1,)),
    )


def rank_intervals_cover(phi: DensityState, meet: Projection, r: float) -> bool:
    """Oracle feasibility: r lies in some rank-k weight interval, k < rank.

    The extreme weights of rank-k subprojections of the meet are the sums
    of the k largest / k smallest eigenvalues of the state compressed to
    the meet's range (Ky Fan), so the synthesis must succeed exactly when
    some interval contains r.
    """
    evals, evecs = np.linalg.eigh(meet.mat)
    cols = evecs[:, evals > 0.5]
    mu = np.sort(np.real(np.linalg.eigvalsh(la.dagger(cols) @ phi.mat @ cols)))[::-1]
    m = len(mu)
    return any(mu[m - k :].sum() <= r <= mu[:k].sum() for k in range(1, m))


def instance_stream(n_per_dim=100, seed=20260814):
    rng = np.random.default_rng(seed)
    for dim in (9, 16):
        count = 0
        while count < n_per_dim:
            inst = masked_instance(dim, rng)
            if inst is None:
                continue
            count += 1
            yield inst


# ---------------------------------------------------------------------------


def test_criterion_01_strong_cause_synthesis():
    """200 seeded faithful instances (100 each in dims 9 and 16), commuting
    positively correlated pairs with meet rank >= 2: every instance whose
    target weight is reachable yields a verified strong cause with screening
    residuals <= 1e-9 and relevance margins > 1e-9; the rest raise
    InfeasibleError exactly when the eigenvalue-interval oracle says no
    subprojection can carry the target; all inside 60 seconds."""
    start = time.monotonic()
    n_ok = n_infeasible = 0
    for phi, a, b in instance_stream():
        meet = lattice_meet(a, b)
        assert meet.rank >= 2
        assert la.comm_residual(a.mat, b.mat) < 1e-12
        r = reichenbach_r(phi, a, b).r
        feasible = rank_intervals_cover(phi, meet, r)
        try:
            cert = find_strong_cc(phi, a, b)
        except InfeasibleError:
            assert not feasible
            n_infeasible += 1
            continue
        assert feasible
        n_ok += 1
        assert cert.verified and cert.is_strong
        assert cert.residual_screen_C <= 1e-9
        assert cert.residual_screen_Cperp <= 1e-9
        assert cert.margin_A > 1e-9 and cert.margin_B > 1e-9
        assert is_subprojection(cert.cause, meet)
        assert 0 < cert.cause.rank < meet.rank
    assert n_ok + n_infeasible == 200
    assert n_ok >= 120  # the generator mostly produces reachable targets
    assert time.monotonic() - start < 60.0


def test_criterion_02_screening_weight_invariants():
    """On the same 200-instance family the screening target always satisfies
    1 - phi(A v B) > 0 and r < phi(A ^ B), and r recomputed from raw
    expectations (inclusion-exclusion for the join) matches to 1e-10. Zero
    violations."""
    checked = 0
    for phi, a, b in instance_stream():
        rv = reichenbach_r(phi, a, b)
        assert 1.0 - rv.phiAvB > 0.0
        assert rv.r < rv.phiAB
        pa, pb = state_eval(phi, a), state_eval(phi, b)
        pab = state_eval(phi, lattice_meet(a, b))
        pavb = state_eval(phi, lattice_join(a, b))
        assert abs(pavb - (pa + pb - pab)) <= 1e-10
        assert abs(rv.r - (pab - pa * pb) / (1.0 - pavb)) <= 1e-10
        checked += 1
    assert checked == 200


def test_criterion_03_bell_seesaw_against_closed_form():
    """Product states and a one-sided abelian configuration sit at
    beta = 1 +- 1e-9; the singlet reaches sqrt(2) to 1e-6 by see-saw,
    matching the closed form; over 1000 random two-qubit states (pure and
    mixed alternating) every see-saw value stays <= sqrt(2) + 1e-9 and
    agrees with the closed form to 1e-6."""
    n1, n2 = qubit_split()
    rng = np.random.default_rng(3)

    for _ in range(10):
        rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
        rep = bell_correlation(DensityState(rho), n1, n2, restarts=4)
        assert abs(rep.beta - 1.0) <= 1e-9

    abelian = MatrixAlgebra.diagonal((2, 2), (0,))  # generated by σz ⊗ I
    for k in range(5):
        phi = DensityState(la.random_density(4, rng))
        rep = bell_correlation(phi, abelian, n2, restarts=4, seed=k)
        assert abs(rep.beta - 1.0) <= 1e-9
    rep = bell_correlation(singlet_state(), abelian, n2, restarts=6)
    assert abs(rep.beta - 1.0) <= 1e-9

    singlet_rep = bell_correlation(singlet_state(), n1, n2, restarts=6)
    singlet_oracle = two_qubit_chsh_oracle(singlet_state())
    assert abs(singlet_oracle - SQRT2) <= 1e-12
    assert abs(singlet_rep.beta - SQRT2) <= 1e-6

    worst_gap = 0.0
    max_beta = 0.0
    for i in range(1000):
        if i % 2:
            psi = la.random_pure_state(4, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = la.random_density(4, rng)
        phi = DensityState(rho)
        rep = bell_correlation(phi, n1, n2, restarts=6, seed=i)
        gap = abs(rep.beta - two_qubit_chsh_oracle(phi))
        worst_gap = max(worst_gap, gap)
        max_beta = max(max_beta, rep.beta)
        assert gap <= 1e-6
    assert max_beta <= SQRT2 + 1e-9


def test_criterion_04_correlated_pair_detection():
    """find_correlated_pair returns a commuting, strictly positively
    correlated projection pair on 100 non-product two-qubit states and
    returns nothing on 100 product states. Zero failures either way."""
    n1, n2 = qubit_split()
    rng = np.random.default_rng(4)
    found = 0
    while found < 100:
        if found % 2:
            psi = la.random_pure_state(4, rng)
            rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4
        else:
            rho = la.random_density(4, rng)
        phi = DensityState(rho)
        if is_product_state(phi, n1, n2):
            continue
        found += 1
        pair = find_correlated_pair(phi, n1, n2)
        assert pair is not None
        a, b = pair
        assert la.comm_residual(a.mat, b.mat) < 1e-12
        assert n1.contains(a.mat) and n2.contains(b.mat)
        assert correlation(phi, a, b) > 1e-9

    for k in range(100):
        rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
        assert find_correlated_pair(DensityState(rho), n1, n2) is None


def test_criterion_05_geometry_identities_and_mc():
    """Interval-exact identities on 1000 random bounded regions (double
    complement equals completion, complement idempotent, double cones fixed,
    region spacelike from its complement), the depth-6 slab construction for
    unit cones at x = 0 and x = 10 with its postconditions, and a
    100000-sample Monte Carlo over that construction with zero violations."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        t0, x0 = rng.uniform(-5, 5, size=2)
        w, h = rng.uniform(0.2, 3.0, size=2)
        if rng.integers(2):
            r = geo.double_cone(u=(t0 - w, t0 + w), v=(x0 - h, x0 + h))
        else:
            r = geo.rect(t=(t0, t0 + w), x=(x0, x0 + h))
        twice = geo.causal_complement(geo.causal_complement(r))
        completion = geo.causal_completion(r)
        assert geo.hull(twice, "u") == geo.hull(completion, "u")
        assert geo.hull(twice, "v") == geo.hull(completion, "v")
        once = geo.causal_complement(r)
        assert set(geo.causal_complement(geo.causal_complement(once)).cells) == set(
            once.cells
        )
        assert geo.causal_completion(completion).cells == completion.cells
        assert geo.spacelike_separated(r, once)

    v1 = geo.double_cone(u=(-1.0, 1.0), v=(-1.0, 1.0))
    v2 = geo.double_cone(u=(-11.0, -9.0), v=(9.0, 11.0))
    built = geo.weak_cc_region(v1, v2, margin=0.5, depth=6.0)
    assert all(built.checks.values())
    (slab_cell,) = built.region.cells
    assert (slab_cell.t.lo, slab_cell.t.hi) == (-6.5, -6.0)
    assert (slab_cell.x.lo, slab_cell.x.hi) == (-7.0, 17.0)
    (hull,) = built.completion.cells
    assert (hull.u.lo, hull.u.hi) == (-23.5, 1.0)
    assert (hull.v.lo, hull.v.hi) == (-13.5, 11.0)

    b1, b2 = geo.blc(v1), geo.blc(v2)
    violations = 0
    for t, x in geo.sample_points(built.region, 50_000, rng):
        p = geo.Point(t, x)
        if not ((b1.contains(p) or b2.contains(p)) and not v1.contains(p) and not v2.contains(p)):
            violations += 1
    pts1 = geo.sample_points(v1, 25_000, rng)
    pts2 = geo.sample_points(v2, 25_000, rng)
    for (t1, x1), (t2, x2) in zip(pts1, pts2):
        if geo.causal_relation(geo.Point(t1, x1), geo.Point(t2, x2)) != "spacelike":
            violations += 1
        if not built.completion.contains(geo.Point(t1, x1)):
            violations += 1
        if not built.completion.contains(geo.Point(t2, x2)):
            violations += 1
    assert violations == 0


def test_criterion_06_eight_qubit_localized_cause():
    """Seeded eight-qubit brickwork demo: a verified strong common cause for
    a correlated projection pair over spacelike regions D1, D2, with the
    cause's algebra localized in a slab V inside
    (BLC(D1) \\ D1) u (BLC(D2) \\ D2) and D1 u D2 inside the causal
    completion of V; plus 100 sampled axiom checks with zero violations.
    All inside 120 seconds."""
    start = time.monotonic()
    net = toynet.build_net(8, "random", seed=0, n_steps=3)
    phi = toynet.demo_state(net, seed=0, epsilon=0.05)
    d1, d2 = toynet.SliceCone(2, 1, 2), toynet.SliceCone(2, 6, 7)
    demo = toynet.weak_rccp_demo(net, phi, d1, d2, budget=10)

    cert = demo.certificate
    assert cert.verified and cert.is_strong
    assert max(cert.residual_screen_C, cert.residual_screen_Cperp) <= 1e-9
    assert cert.margin_A > 1e-9 and cert.margin_B > 1e-9
    assert demo.pair_correlation > 1e-9

    # localization: the cause is an element of the slab row's algebra
    row = toynet.region_algebra(net, toynet.SliceCone(0, *demo.lattice_sites))
    assert row.contains(cert.cause.mat)

    # V inside the punctured union of backward cones, sampled
    r1, r2 = d1.diamond(), d2.diamond()
    b1, b2 = geo.blc(r1), geo.blc(r2)
    rng = np.random.default_rng(6)
    for t, x in geo.sample_points(demo.region, 2000, rng):
        p = geo.Point(t, x)
        assert (b1.contains(p) and not r1.contains(p)) or (
            b2.contains(p) and not r2.contains(p)
        )

    # D1 u D2 inside the causal completion of V
    assert geo.causal_shadow_check(r1, demo.region)
    assert geo.causal_shadow_check(r2, demo.region)

    axioms = toynet.check_axioms(net, sample_pairs=100, seed=0)
    assert axioms.ok
    assert axioms.n_isotony == 100
    assert axioms.n_causality == 100
    assert axioms.n_primitive == 100
    assert not axioms.isotony_violations
    assert not axioms.causality_violations
    assert not axioms.primitive_violations
    assert axioms.max_spacelike_commutator <= 1e-10

    # the bundled scenario drives the same pipeline end to end
    code = cli_main(
        ["toynet-demo", "--scenario", str(SCENARIOS / "eight_qubit_chain.json")]
    )
    assert code == 0
    assert time.monotonic() - start < 120.0


def test_criterion_07_closedness_audit_matches_enumeration():
    """The four-atom space (0.4, 0.1, 0.1, 0.4) is not common-cause closed;
    the audit's uncovered list includes the pair A = atoms {0, 1},
    B = atoms {0, 2} and agrees exactly with an independent exhaustive
    enumeration over all event pairs and all candidate causes."""
    weights = [0.4, 0.1, 0.1, 0.4]
    report = classical_closedness_audit(ClassicalSpace(weights))
    assert not report.closed
    uncovered = {(frozenset(a), frozenset(b)) for a, b in report.uncovered}
    assert (frozenset({0, 1}), frozenset({0, 2})) in uncovered

    # oracle: sets and arithmetic only
    w = np.asarray(weights)
    atoms = range(len(w))
    events = [frozenset(s) for k in range(1, len(w)) for s in itertools.combinations(atoms, k)]
    pr = {e: float(w[list(e)].sum()) for e in events}
    pr[frozenset()] = 0.0
    pr[frozenset(atoms)] = 1.0

    def screens(c, a, b):
        pc = pr[c]
        cc = frozenset(atoms) - c
        pcc = 1.0 - pc
        if pc <= 0 or pcc <= 0:
            return False
        f = lambda e, g, pg: pr[e & g] / pg
        return (
            abs(f(a & b, c, pc) - f(a, c, pc) * f(b, c, pc)) <= 1e-12
            and abs(f(a & b, cc, pcc) - f(a, cc, pcc) * f(b, cc, pcc)) <= 1e-12
            and f(a, c, pc) > f(a, cc, pcc) + 1e-12
            and f(b, c, pc) > f(b, cc, pcc) + 1e-12
        )

    oracle_uncovered = set()
    n_corr = 0
    for a, b in itertools.combinations(events, 2):
        corr = pr[a & b] - pr[a] * pr[b]
        if corr <= 1e-12:
            continue
        n_corr += 1
        trivial = {a, b, a & b, a | b}
        trivial |= {frozenset(atoms) - e for e in trivial}
        if not any(
            screens(c, a, b) for c in events if c not in trivial
        ):
            oracle_uncovered.add((frozenset(a), frozenset(b)))
    assert n_corr == report.n_correlated_pairs
    assert len(oracle_uncovered) == len(report.uncovered)
    normalized = {
        (x, y) if min(x) <= min(y) else (y, x) for x, y in oracle_uncovered
    }
    got = {(x, y) if min(x) <= min(y) else (y, x) for x, y in uncovered}
    assert normalized == got


def test_criterion_08_three_distinct_causes_one_instance():
    """A dim-9 instance whose target weight lies in three overlapping rank
    intervals admits at least three pairwise distinct verified strong
    causes (operator-norm separation > 1e-6)."""
    weights = [0.24, 0.12, 0.06, 0.035, 0.025, 0.17, 0.17, 0.10, 0.08]
    mask_a = [1, 1, 1, 1, 1, 1, 0, 0, 0]
    mask_b = [1, 1, 1, 1, 1, 0, 1, 0, 0]
    phi = DensityState(np.diag(weights).astype(complex))
    a = Projection(np.diag(mask_a).astype(complex))
    b = Projection(np.diag(mask_b).astype(complex))
    causes = find_multiple_strong_cc(phi, a, b, count=3, seed=0)
    assert len(causes) >= 3
    for c1, c2 in itertools.combinations(causes, 2):
        assert np.linalg.norm(c1.cause.mat - c2.cause.mat, 2) > 1e-6
    for c in causes:
        cert = quantum_verify_cc(phi, a, b, c.cause)
        assert cert.verified and cert.is_strong
    assert len({c.cause.rank for c in causes}) == 3  # distinct by rank, too


def test_criterion_09_rank_one_meet_always_infeasible():
    """50 seeded faithful two-qubit instances whose meet has rank 1: the
    strong-cause synthesis raises InfeasibleError every time (no strict
    subprojection can carry the target weight), and the bundled scenario
    exits with the honest-negative code 1. No cause is ever fabricated."""
    rng = np.random.default_rng(9)
    hits = 0
    while hits < 50:
        u = la.haar_unitary(4, rng)
        w = 0.9 * rng.dirichlet(np.ones(4) * 2.0) + 0.025
        phi = DensityState(la.hermitize((u * w) @ la.dagger(u)))
        a = Projection(la.hermitize(u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ la.dagger(u)))
        b = Projection(la.hermitize(u @ np.diag([1.0, 0.0, 1.0, 0.0]) @ la.dagger(u)))
        if correlation(phi, a, b) <= 1e-9:
            b = b.complement()
            if correlation(phi, a, b) <= 1e-9:
                continue
        hits += 1
        assert lattice_meet(a, b).rank == 1
        with pytest.raises(InfeasibleError, match="rank 1"):
            find_strong_cc(phi, a, b)
    code = cli_main(["find-cc", "--scenario", str(SCENARIOS / "rank_one_meet.json")])
    assert code == 1
