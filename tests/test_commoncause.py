"""Classical and quantum common-cause machinery.

The classical audit is cross-checked by a from-scratch enumeration oracle
written against sets and dict arithmetic only (no bitmask tricks shared
with the implementation). Quantum verification is cross-checked against
the classical one on simultaneously diagonal instances, where the two
must agree to rounding.
"""

import itertools

import numpy as np
import pytest

from ccbench import (
    ClassicalSpace,
    DensityState,
    Projection,
    classical_closedness_audit,
    classical_find_cc,
    classical_verify_cc,
    config,
    find_multiple_strong_cc,
    find_strong_cc,
    lattice_meet,
    quantum_verify_cc,
    random_cc_instance,
    reichenbach_r,
    search_genuine_cc,
    state_eval,
    synthesize_subprojection,
)
from ccbench import _linalg as la
from ccbench.errors import (
    InfeasibleError,
    NotFaithfulError,
    PreconditionError,
    StructureError,
    TargetRangeError,
    UncorrelatedError,
    ValidationError,
    ZeroConditioningError,
)
from ccbench.qprob import MatrixAlgebra

from conftest import masked_instance

# the four-cell example: C splits the space into two halves on which A and
# B are independent with conditional weights 0.8 / 0.2
FOUR_BLOCK_W = [0.32, 0.08, 0.08, 0.02, 0.02, 0.08, 0.08, 0.32]
FOUR_BLOCK_A = {0, 1, 4, 5}
FOUR_BLOCK_B = {0, 2, 4, 6}
FOUR_BLOCK_C = {0, 1, 2, 3}

# dim-9 diagonal instance whose meet spectrum (first five weights under
# both masks) spreads enough that ranks 2, 3 and 4 all reach the target
DIM9_W = [0.24, 0.12, 0.06, 0.035, 0.025, 0.17, 0.17, 0.10, 0.08]
DIM9_A = [1, 1, 1, 1, 1, 1, 0, 0, 0]
DIM9_B = [1, 1, 1, 1, 1, 0, 1, 0, 0]
DIM9_R = 0.3194444444444451


def diag_instance(weights, mask_a, mask_b, seed=None):
    """Diagonal state and mask projections, optionally Haar-conjugated."""
    w = np.asarray(weights, dtype=float)
    if seed is None:
        u = np.eye(len(w), dtype=complex)
    else:
        u = la.haar_unitary(len(w), np.random.default_rng(seed))
    phi = DensityState(la.hermitize((u * w) @ la.dagger(u)))
    a = Projection((u * np.asarray(mask_a, dtype=float)) @ la.dagger(u))
    b = Projection((u * np.asarray(mask_b, dtype=float)) @ la.dagger(u))
    return phi, a, b


# ---------------------------------------------------------------------------
# classical space basics
# ---------------------------------------------------------------------------


def test_space_rejects_bad_weights():
    with pytest.raises(ValidationError) as err:
        ClassicalSpace([0.5, -0.1, 0.6])
    assert err.value.invariant == "weights >= 0"
    with pytest.raises(ValidationError) as err:
        ClassicalSpace([0.5, 0.6])
    assert err.value.invariant == "sum(weights) = 1"


def test_event_conversions():
    space = ClassicalSpace([0.25, 0.25, 0.25, 0.25])
    assert space.as_mask([0, 2]) == 0b101
    assert space.as_set(0b101) == frozenset({0, 2})
    assert space.prob([0, 2]) == pytest.approx(0.5)
    assert space.complement([0, 2]) == frozenset({1, 3})
    with pytest.raises(ValidationError):
        space.as_mask([4])


def test_logical_independence_needs_all_four_cells():
    space = ClassicalSpace([0.25, 0.25, 0.25, 0.25])
    assert space.logically_independent([0, 1], [0, 2])
    assert not space.logically_independent([0], [0, 1])  # A subset of B


# ---------------------------------------------------------------------------
# classical verification on the four-block example
# ---------------------------------------------------------------------------


def test_four_block_certificate():
    space = ClassicalSpace(FOUR_BLOCK_W)
    assert space.correlation(FOUR_BLOCK_A, FOUR_BLOCK_B) == pytest.approx(0.09)
    cert = classical_verify_cc(space, FOUR_BLOCK_A, FOUR_BLOCK_B, FOUR_BLOCK_C)
    assert cert.residual_screen_C < 1e-12
    assert cert.residual_screen_Cperp < 1e-12
    assert cert.margin_A == pytest.approx(0.6)
    assert cert.margin_B == pytest.approx(0.6)
    assert cert.verified
    assert cert.is_genuine and not cert.is_strong
    assert cert.to_record()["cause"] == {"kind": "event", "atoms": [0, 1, 2, 3]}


def test_trivial_cause_candidates_are_excluded_from_search():
    space = ClassicalSpace(FOUR_BLOCK_W)
    found = classical_find_cc(space, FOUR_BLOCK_A, FOUR_BLOCK_B)
    atom_sets = {frozenset(c.cause) for c in found}
    assert frozenset(FOUR_BLOCK_C) in atom_sets
    assert frozenset(FOUR_BLOCK_A) not in atom_sets
    assert frozenset(FOUR_BLOCK_B) not in atom_sets
    # A itself still *verifies* (conditioning on A makes p(A|.) degenerate
    # in the right way); exclusion is a search policy, not a math fact
    assert classical_verify_cc(space, FOUR_BLOCK_A, FOUR_BLOCK_B, FOUR_BLOCK_A).verified


def test_zero_probability_conditioning_rejected():
    space = ClassicalSpace([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ZeroConditioningError):
        classical_verify_cc(space, [0, 2], [0, 3], [2, 3])


def test_uncorrelated_pair_rejected():
    space = ClassicalSpace([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(UncorrelatedError):
        classical_find_cc(space, [0, 1], [0, 2])


def test_planted_classical_instances_verify():
    for seed in range(10):
        space, a, b, c = random_cc_instance(np.random.default_rng(seed))
        cert = classical_verify_cc(space, a, b, c)
        assert cert.verified, f"seed {seed}"
        assert cert.correlation > 0


# ---------------------------------------------------------------------------
# exhaustive audit against an independent oracle
# ---------------------------------------------------------------------------


def audit_oracle(weights):
    """Set-based re-enumeration of the closedness audit."""
    n = len(weights)
    atoms = list(range(n))

    def prob(ev):
        return sum(weights[i] for i in ev)

    def verifies(a, b, c):
        cperp = set(atoms) - c
        pc, pcp = prob(c), prob(cperp)
        if pc <= 0 or pcp <= 0:
            return False

        def cond(x, y, py):
            return prob(x & y) / py

        sc = abs(cond(a & b, c, pc) - cond(a, c, pc) * cond(b, c, pc))
        scp = abs(cond(a & b, cperp, pcp) - cond(a, cperp, pcp) * cond(b, cperp, pcp))
        ma = cond(a, c, pc) - cond(a, cperp, pcp)
        mb = cond(b, c, pc) - cond(b, cperp, pcp)
        return max(sc, scp) <= 1e-9 and min(ma, mb) > 1e-9

    events = []
    for k in range(1, n):
        events.extend(set(s) for s in itertools.combinations(atoms, k))
    events = [e for e in events]

    correlated, uncovered = [], []
    all_events = []
    for bits in range(1, 2**n):
        all_events.append({i for i in atoms if bits >> i & 1})
    for a, b in itertools.combinations(all_events, 2):
        if prob(a & b) - prob(a) * prob(b) <= 1e-9:
            continue
        trivial = [a, b, a & b, a | b]
        trivial += [set(atoms) - t for t in trivial]
        hit = False
        for c in all_events:
            if 0 < prob(c) < 1 and c not in trivial and verifies(a, b, c):
                hit = True
                break
        correlated.append((a, b))
        if not hit:
            uncovered.append((frozenset(a), frozenset(b)))
    return correlated, uncovered


def test_audit_matches_oracle_on_four_atoms():
    weights = [0.4, 0.1, 0.1, 0.4]
    correlated, uncovered = audit_oracle(weights)
    report = classical_closedness_audit(ClassicalSpace(weights))
    assert report.n_correlated_pairs == len(correlated) == 38
    assert report.n_covered == len(correlated) - len(uncovered) == 12
    assert not report.closed
    got = {(a, b) for a, b in report.uncovered}
    want = {(a, b) for a, b in uncovered} | {(b, a) for a, b in uncovered}
    assert got <= want and len(got) == len(uncovered) == 26
    assert (frozenset({0, 1}), frozenset({0, 2})) in got


@pytest.mark.parametrize("seed", range(3))
def test_audit_matches_oracle_on_random_small_spaces(seed):
    rng = np.random.default_rng(500 + seed)
    weights = list(rng.dirichlet(np.ones(4)))
    correlated, uncovered = audit_oracle(weights)
    report = classical_closedness_audit(ClassicalSpace(weights))
    assert report.n_correlated_pairs == len(correlated)
    assert report.n_covered == len(correlated) - len(uncovered)
    got = {(a, b) for a, b in report.uncovered}
    want = {(a, b) for a, b in uncovered} | {(b, a) for a, b in uncovered}
    assert got <= want and len(got) == len(uncovered)


# ---------------------------------------------------------------------------
# the target weight r
# ---------------------------------------------------------------------------


def test_r_on_symmetric_four_atom_instance():
    phi, a, b = diag_instance([0.4, 0.1, 0.1, 0.4], [1, 1, 0, 0], [1, 0, 1, 0])
    rv = reichenbach_r(phi, a, b)
    assert rv.phiA == pytest.approx(0.5)
    assert rv.phiB == pytest.approx(0.5)
    assert rv.phiAB == pytest.approx(0.4)
    assert rv.phiAvB == pytest.approx(0.6)
    assert rv.r == pytest.approx(0.375)
    assert rv.to_record() == {
        "r": rv.r,
        "phiAB": rv.phiAB,
        "phiA": rv.phiA,
        "phiB": rv.phiB,
        "phiAvB": rv.phiAvB,
    }


def test_r_requires_positive_correlation():
    phi, a, b = diag_instance([0.25, 0.25, 0.25, 0.25], [1, 1, 0, 0], [1, 0, 1, 0])
    with pytest.raises(UncorrelatedError):
        reichenbach_r(phi, a, b)


@pytest.mark.parametrize("seed", range(20))
def test_r_invariants_on_random_instances(seed):
    # 1 - phi(AvB) > 0 and r < phi(A^B) whenever the pair is correlated
    # and logically independent; these are the two facts the strong-cause
    # construction leans on
    rng = np.random.default_rng(1000 + seed)
    inst = masked_instance(int(rng.integers(5, 10)), rng)
    if inst is None:
        pytest.skip("no instance from this seed")
    phi, a, b = inst
    rv = reichenbach_r(phi, a, b)
    assert 1.0 - rv.phiAvB > 0
    assert rv.r < rv.phiAB
    assert 0 < rv.r


# ---------------------------------------------------------------------------
# subprojection synthesis
# ---------------------------------------------------------------------------

SYNTH_PHI = DensityState(np.diag([0.4, 0.3, 0.2, 0.1]))
SYNTH_P = Projection(np.diag([1.0, 1.0, 1.0, 0.0]))


def test_synthesis_hits_interval_boundary():
    # 0.5 is the bottom of the rank-2 interval; the walk must land on it
    # exactly (the subprojection it picks is not unique: both {e1, e2}
    # and {e0, e3} carry weight 0.5, so only the weight is pinned)
    c = synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.5)
    assert c.rank == 2
    assert state_eval(SYNTH_PHI, c) == pytest.approx(0.5, abs=1e-10)
    assert la.frob(SYNTH_P.mat @ c.mat - c.mat) < 1e-9


def test_synthesis_rotates_for_interior_target():
    c = synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.65)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert la.frob(c.mat - expected) < 1e-12
    assert state_eval(SYNTH_PHI, c) == pytest.approx(0.65, abs=1e-12)


def test_synthesis_gap_between_rank_intervals():
    with pytest.raises(InfeasibleError) as err:
        synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.45, strict=True)
    msg = str(err.value)
    assert "rank 1: [0.2, 0.4]" in msg
    assert "rank 2: [0.5, 0.7]" in msg


def test_synthesis_strict_excludes_full_rank():
    # 0.75 is below phi(P) = 0.9 but above every strict-rank interval
    with pytest.raises(InfeasibleError):
        synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.75, strict=True)


def test_synthesis_target_range_errors():
    with pytest.raises(TargetRangeError):
        synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.95)
    with pytest.raises(TargetRangeError):
        synthesize_subprojection(SYNTH_PHI, SYNTH_P, -0.1)


def test_synthesis_rank_one_refusal():
    p1 = Projection(np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InfeasibleError) as err:
        synthesize_subprojection(SYNTH_PHI, p1, 0.2, strict=True)
    assert "rank 1" in str(err.value)


def test_synthesis_requires_faithful_state():
    phi = DensityState(np.diag([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(NotFaithfulError):
        synthesize_subprojection(phi, SYNTH_P, 0.3)


def rank_weight_bounds(phi, p, k):
    """Ky Fan bounds: extreme weights of rank-k subprojections of P."""
    w, vecs = np.linalg.eigh(la.hermitize(p.mat))
    basis = vecs[:, w > 0.5]
    mu = np.linalg.eigvalsh(la.dagger(basis) @ phi.mat @ basis)
    return float(mu[:k].sum()), float(mu[-k:].sum())


@pytest.mark.parametrize("seed", range(10))
def test_random_subprojections_obey_rank_bounds(seed):
    # random rank-k subprojections of P never leave the predicted weight
    # interval, and synthesis can reproduce any weight one of them attains
    rng = np.random.default_rng(2000 + seed)
    dim = int(rng.integers(4, 8))
    phi = DensityState(la.random_faithful_density(dim, rng))
    m = int(rng.integers(2, dim + 1))
    p = Projection(la.haar_projection(dim, m, rng))
    k = int(rng.integers(1, m + 1))
    lo, hi = rank_weight_bounds(phi, p, k)
    w, vecs = np.linalg.eigh(la.hermitize(p.mat))
    basis = vecs[:, w > 0.5]
    for _ in range(20):
        local = la.haar_projection(m, k, rng)
        wloc, vloc = np.linalg.eigh(local)
        c = Projection.from_span(basis @ vloc[:, wloc > 0.5])
        weight = state_eval(phi, c)
        assert lo - 1e-10 <= weight <= hi + 1e-10
    if k < m:
        # at k = m the only candidate is P itself, whose weight sits on the
        # boundary of the admissible open interval, so skip the round trip
        target = rng.uniform(lo + 1e-6, hi - 1e-6) if hi - lo > 2e-6 else lo
        c = synthesize_subprojection(phi, p, float(target))
        assert state_eval(phi, c) == pytest.approx(float(target), abs=1e-10)
        # produced cause really is a subprojection of p
        assert la.frob(p.mat @ c.mat - c.mat) < 1e-9


# ---------------------------------------------------------------------------
# strong common causes
# ---------------------------------------------------------------------------


def test_find_strong_cc_on_dim9_instance():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    cert = find_strong_cc(phi, a, b)
    assert cert.verified and cert.is_strong and not cert.is_genuine
    assert state_eval(phi, cert.cause) == pytest.approx(DIM9_R, abs=1e-10)
    assert max(cert.residual_screen_C, cert.residual_screen_Cperp) < 1e-9
    assert min(cert.margin_A, cert.margin_B) > 1e-9


def test_find_strong_cc_conjugated_instance_matches_diagonal():
    plain = find_strong_cc(*diag_instance(DIM9_W, DIM9_A, DIM9_B))
    rotated = find_strong_cc(*diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31))
    assert rotated.verified and rotated.is_strong
    assert rotated.margin_A == pytest.approx(plain.margin_A, abs=1e-9)
    assert rotated.margin_B == pytest.approx(plain.margin_B, abs=1e-9)


def test_find_strong_cc_rank_one_meet_is_infeasible():
    phi, a, b = diag_instance([0.4, 0.2, 0.2, 0.2], [1, 1, 0, 0], [1, 0, 1, 0])
    with pytest.raises(InfeasibleError):
        find_strong_cc(phi, a, b)


def test_find_strong_cc_rejects_nested_pair():
    # B < A makes the pair measure-degenerate: phi(A^B) = phi(B)
    phi, a, b = diag_instance(
        [0.3, 0.3, 0.2, 0.2], [1, 1, 1, 0], [1, 1, 0, 0]
    )
    with pytest.raises(PreconditionError):
        find_strong_cc(phi, a, b)


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
def test_find_strong_cc_localized_in_algebra(conjugate):
    # state = v x I/2 on a 5x2 split; A and B act on the left leg only,
    # with r = (0.5 - 0.68^2) / 0.14 = 0.2686 inside the local rank-1
    # interval [0.2, 0.3], so the localized synthesis must succeed and
    # the cause must land inside the left-leg algebra. The conjugated copy
    # rotates the state, A, B and the algebra by one Haar unitary, which
    # leaves every asserted quantity unchanged.
    v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
    rho = np.diag(np.kron(v, [0.5, 0.5])).astype(complex)
    alg = MatrixAlgebra.tensor_factor((5, 2), (0,))
    a = la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,))
    b = la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,))
    if conjugate:
        u = la.haar_unitary(10, np.random.default_rng(17))
        rho, a, b = (u @ m @ la.dagger(u) for m in (rho, a, b))
        alg = alg.conjugated_by(u)
    phi = DensityState(rho)
    cert = find_strong_cc(
        phi, Projection(a), Projection(b), algebra=alg, localization="left factor"
    )
    assert cert.verified and cert.is_strong
    assert alg.contains(cert.cause.mat)
    assert state_eval(phi, cert.cause) == pytest.approx(0.0376 / 0.14, abs=1e-10)
    assert cert.cause.rank == 2  # rank-1 local cause, doubled by the embedding
    assert cert.to_record()["localization"] == "left factor"


def test_find_strong_cc_localization_requires_membership():
    phi, a, b = diag_instance(DIM9_W[:8] + [1 - sum(DIM9_W[:8])], [1] * 6 + [0] * 3, DIM9_B)
    alg = MatrixAlgebra.tensor_factor((3, 3), (0,))
    with pytest.raises(StructureError):
        find_strong_cc(phi, a, b, algebra=alg)


def test_find_multiple_distinct_ranks():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    causes = find_multiple_strong_cc(phi, a, b, 3, seed=0)
    assert len(causes) == 3
    ranks = sorted(c.rank for c in causes)
    assert ranks == [2, 3, 4]
    for c1, c2 in itertools.combinations(causes, 2):
        assert np.linalg.norm(c1.mat - c2.mat, 2) > 1e-6
    for c in causes:
        cert = quantum_verify_cc(phi, a, b, c)
        assert cert.verified and cert.is_strong


def test_find_multiple_on_rank_one_meet_warns_empty():
    phi, a, b = diag_instance([0.4, 0.2, 0.2, 0.2], [1, 1, 0, 0], [1, 0, 1, 0])
    with pytest.warns(UserWarning, match="rank <= 1"):
        causes = find_multiple_strong_cc(phi, a, b, 2)
    assert causes == []


def test_find_multiple_rejects_negative_count():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    with pytest.raises(TargetRangeError):
        find_multiple_strong_cc(phi, a, b, -1)


# ---------------------------------------------------------------------------
# quantum vs classical verification on diagonal instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_quantum_verify_agrees_with_classical_on_diagonal(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(4, 9))
    w = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    while True:
        masks = rng.random((3, n)) < 0.5
        events = [set(np.flatnonzero(m)) for m in masks]
        if all(e and len(e) < n for e in events):
            break
    space = ClassicalSpace(w)
    phi = DensityState(np.diag(w).astype(complex))
    projs = [Projection(np.diag(m.astype(float))) for m in masks]
    classical = classical_verify_cc(space, *events)
    quantum = quantum_verify_cc(phi, *projs)
    assert quantum.residual_screen_C == pytest.approx(classical.residual_screen_C, abs=1e-12)
    assert quantum.residual_screen_Cperp == pytest.approx(
        classical.residual_screen_Cperp, abs=1e-12
    )
    assert quantum.margin_A == pytest.approx(classical.margin_A, abs=1e-12)
    assert quantum.margin_B == pytest.approx(classical.margin_B, abs=1e-12)
    assert quantum.is_strong == classical.is_strong
    assert quantum.is_genuine == classical.is_genuine
    assert quantum.verified == classical.verified


def test_quantum_verify_degenerate_conditioning():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    with pytest.raises(ZeroConditioningError):
        quantum_verify_cc(phi, a, b, Projection(np.eye(9)))


# ---------------------------------------------------------------------------
# genuinely probabilistic causes
# ---------------------------------------------------------------------------

PLANTED_SPECTRA = [
    [0.20, 0.12, 0.015, 0.005],
    [0.05, 0.03, 0.06, 0.02],
    [0.045, 0.035, 0.055, 0.025],
    [0.013, 0.007, 0.21, 0.11],
]


def planted_genuine_instance():
    w = np.concatenate(PLANTED_SPECTRA)
    phi = DensityState(np.diag(w).astype(complex))
    a = Projection(np.diag([1.0] * 8 + [0.0] * 8))
    b = Projection(np.diag(([1.0] * 4 + [0.0] * 4) * 2))
    cmask = np.zeros(16)
    for blk in range(4):
        cmask[4 * blk : 4 * blk + 2] = 1.0
    return phi, a, b, Projection(np.diag(cmask))


def test_planted_cause_verifies_as_genuine():
    phi, a, b, c = planted_genuine_instance()
    from ccbench import correlation

    assert correlation(phi, a, b) == pytest.approx(0.09)
    cert = quantum_verify_cc(phi, a, b, c)
    assert cert.verified and cert.is_genuine and not cert.is_strong
    assert cert.margin_A == pytest.approx(0.6)
    assert cert.margin_B == pytest.approx(0.6)


def test_search_finds_genuine_cause_on_planted_instance():
    phi, a, b, _ = planted_genuine_instance()
    cert = search_genuine_cc(phi, a, b, budget=60, seed=2)
    assert cert is not None
    assert cert.verified and cert.is_genuine
    # the search works inside the commutant of {A, B}, so the cause
    # commutes with both by construction; double-check anyway
    assert la.comm_residual(cert.cause.mat, a.mat) < 1e-9
    assert la.comm_residual(cert.cause.mat, b.mat) < 1e-9


def test_search_budget_zero_returns_none():
    phi, a, b, _ = planted_genuine_instance()
    assert search_genuine_cc(phi, a, b, budget=0) is None


def test_search_requires_correlation():
    phi, a, b = diag_instance([0.25, 0.25, 0.25, 0.25], [1, 1, 0, 0], [1, 0, 1, 0])
    with pytest.raises(UncorrelatedError):
        search_genuine_cc(phi, a, b)


# ---------------------------------------------------------------------------
# tolerance plumbing
# ---------------------------------------------------------------------------


def test_cc_tolerance_controls_verification():
    space = ClassicalSpace(FOUR_BLOCK_W)
    cert = classical_verify_cc(space, FOUR_BLOCK_A, FOUR_BLOCK_B, FOUR_BLOCK_C)
    assert cert.verified
    with config.temporary(cc_tol=0.7):
        # margins of 0.6 no longer clear the floor
        assert not cert.verified
    assert cert.verified
