"""Classical and quantum common-cause machinery.

The classical audit is cross-checked by a from-scratch enumeration oracle
written against sets and dict arithmetic only (no bitmask tricks shared
with the implementation). Quantum verification is cross-checked against
the classical one on simultaneously diagonal instances, where the two
must agree to rounding.
"""

import dataclasses
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbench import (
    ClassicalSpace,
    DensityState,
    Projection,
    classical_closedness_audit,
    classical_find_cc,
    classical_verify_cc,
    config,
    correlation,
    find_multiple_strong_cc,
    find_strong_cc,
    is_subprojection,
    lattice_join,
    lattice_meet,
    quantum_verify_cc,
    random_cc_instance,
    reichenbach_r,
    search_genuine_cc,
    state_eval,
    synthesize_subprojection,
)
from ccbench import _linalg as la
from ccbench import commoncause, qprob
from ccbench.errors import (
    CommutationError,
    InfeasibleError,
    InternalInconsistencyError,
    NotFaithfulError,
    PreconditionError,
    StructureError,
    TargetRangeError,
    UncorrelatedError,
    ValidationError,
    ZeroConditioningError,
)
from ccbench.qprob import MatrixAlgebra, PairProduct

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_space_rejects_non_finite_weights(bad):
    # NaN passed the sign and sum checks before: NaN < 0 and |NaN − 1| > tol
    # are both False
    with pytest.raises(ValidationError) as err:
        ClassicalSpace([bad, 0.5, 0.25, 0.25])
    assert err.value.invariant == "weights finite"


def test_event_conversions():
    space = ClassicalSpace([0.25, 0.25, 0.25, 0.25])
    assert space.as_mask([0, 2]) == 0b101
    assert space.as_set(0b101) == frozenset({0, 2})
    assert space.prob([0, 2]) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        space.as_mask([4])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10).filter(lambda w: sum(w) > 0),
    st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=20),
)
def test_probability_table_is_prob_bit_for_bit(raw, masks):
    w = np.asarray(raw) / np.sum(raw)
    if abs(float(w.sum()) - 1.0) > 1e-12:
        return
    space = ClassicalSpace(w)
    for mask in masks:
        mask &= space.full_mask
        assert space.table[mask].tobytes() == np.float64(space.prob(mask)).tobytes()


def test_find_cc_refuses_spaces_above_its_cap_before_any_table(monkeypatch):
    n = commoncause.FIND_CC_CAP + 1
    space = ClassicalSpace(np.full(n, 1.0 / n))
    monkeypatch.setattr(ClassicalSpace, "table", property(lambda self: pytest.fail("table built")))
    with pytest.raises(PreconditionError, match=f"cause search over {n} atoms exceeds cap"):
        classical_find_cc(space, [0, 1], [0, 2])


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


@pytest.mark.parametrize("exclude_trivial", [True, False])
def test_find_cc_matches_the_event_loop(exclude_trivial):
    # the loop the table screen replaced: every event classical_verify_cc can
    # condition on, certified one by one, for the four-block pair and every
    # correlated pair of a 5-atom space with a zero-weight atom
    w = np.random.default_rng(710).dirichlet(np.ones(5))
    w[1] = 0.0
    five = ClassicalSpace(w / w.sum())
    pairs = [(ClassicalSpace(FOUR_BLOCK_W), FOUR_BLOCK_A, FOUR_BLOCK_B)] + [
        (five, am, bm)
        for am in range(1, 32) for bm in range(am + 1, 32)
        if five.correlation(am, bm) > config.TOL.cc
    ]
    n_found = 0
    for space, a, b in pairs:
        am, bm = space.as_mask(a), space.as_mask(b)
        trivial = {am, bm, am & bm, am | bm}
        trivial |= {space.full_mask & ~m for m in trivial}
        want = []
        for cm in range(1, space.full_mask):
            if exclude_trivial and cm in trivial:
                continue
            if 0.0 < space.prob(cm) < 1.0 and space.prob(space.full_mask & ~cm) > 0.0:
                cert = classical_verify_cc(space, am, bm, cm)
                if cert.verified:
                    want.append(cert)
        got = classical_find_cc(space, a, b, exclude_trivial=exclude_trivial)
        assert got == want
        n_found += len(got)
    assert n_found > len(pairs)


@pytest.mark.parametrize("seed", range(2))
def test_audit_matches_find_cc_pair_by_pair(seed):
    # the audit's row screen and existence test give what classical_find_cc
    # and the correlation, pair by pair, give; 5 atoms, one weight zero on seed 1
    weights = np.random.default_rng(700 + seed).dirichlet(np.ones(5))
    if seed:
        weights[2] = 0.0
        weights /= weights.sum()
    space = ClassicalSpace(weights)
    correlated, uncovered = 0, []
    for am in range(1, space.full_mask + 1):
        for bm in range(am + 1, space.full_mask + 1):
            if space.correlation(am, bm) > config.TOL.cc:
                correlated += 1
                if not classical_find_cc(space, am, bm):
                    uncovered.append((space.as_set(am), space.as_set(bm)))
    report = classical_closedness_audit(space)
    assert (report.n_correlated_pairs, report.uncovered) == (correlated, uncovered)
    assert report.n_covered == correlated - len(uncovered) > 0


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


def test_synthesis_refuses_a_cause_outside_the_range(monkeypatch):
    # any orthonormal basis of range(P) will do, but one reaching outside it
    # leaves the state weight on target, so only the PW = W check sees it:
    # e1..e3 against range(P) = span(e0, e1, e2), with the walk rotating
    # into e3 for the target 0.15
    def skewed(p, rank):
        return np.eye(p.shape[0], dtype=complex)[:, 1 : rank + 1]

    monkeypatch.setattr(la, "range_basis", skewed)
    with pytest.raises(InternalInconsistencyError, match="leaves range"):
        synthesize_subprojection(SYNTH_PHI, SYNTH_P, 0.15)


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


def epsilon_pure_case(seed):
    """A seeded ε-pure state on N = 8..64 and a random projection of rank m >= 2."""
    rng = np.random.default_rng(5000 + seed)
    dim = int(rng.integers(8, 65))
    phi = qprob.EpsilonPureState(la.random_pure_state(dim, rng), (0.05, 0.5)[seed % 2])
    p = Projection(la.haar_projection(dim, int(rng.integers(2, dim)), rng))
    return phi, p, rng


def dense_compressed_spectrum(phi, p):
    """The compressed state's spectrum, descending, by eigvalsh on a basis of range(P)."""
    w, vecs = np.linalg.eigh(p.mat)
    basis = vecs[:, w > 0.5]
    return np.linalg.eigvalsh(la.dagger(basis) @ phi.mat @ basis)[::-1]


@pytest.mark.parametrize("seed", range(12))
def test_epsilon_pure_synthesis_agrees_with_the_dense_path(seed):
    # the closed-form spectrum against eigvalsh of the dense compressed
    # state, and synthesis through ψ against the dense path on the same
    # matrix: the same rank, a cause inside range(P) and the target weight
    phi, p, rng = epsilon_pure_case(seed)
    dense = DensityState(phi.mat)
    mu = commoncause._Compression(phi, p).mu
    ref = dense_compressed_spectrum(phi, p)
    ranks = range(1, p.rank + 1)
    edges = np.array([commoncause._rank_interval(ref, k) for k in ranks])
    assert np.allclose([commoncause._rank_interval(mu, k) for k in ranks], edges, rtol=0, atol=1e-12)
    pp = state_eval(phi, p)
    targets = [t for t in rng.uniform(0.0, pp, size=40) if np.min(np.abs(edges - t)) > 1e-9]
    for target in targets[:12]:
        outcomes = []
        for state in (phi, dense):
            try:
                c = synthesize_subprojection(state, p, float(target), strict=True)
            except InfeasibleError:
                outcomes.append(None)
                continue
            assert la.frob(p.mat @ c.mat - c.mat) < 1e-9
            assert state_eval(dense, c) == pytest.approx(float(target), abs=1e-10)
            outcomes.append(c.rank)
        assert outcomes[0] == outcomes[1]


def axis_case(support, psi_axis, dim=8, epsilon=0.05):
    """P on the coordinate axes ``support`` and ψ the axis ``psi_axis``."""
    p = Projection(np.diag([1.0 if i in support else 0.0 for i in range(dim)]))
    psi = np.zeros(dim, dtype=complex)
    psi[psi_axis] = 1.0
    return qprob.EpsilonPureState(psi, epsilon), p


def test_epsilon_pure_synthesis_pivots_past_the_top_eigenvector():
    # ψ = e₀ lies in range(P), so P's largest diagonal entry is e₀'s own
    # column: pivoting on P rather than P − e₀e₀* would repeat it
    phi, p = axis_case({0, 1, 2}, 0)
    r = 0.95 + 1.5 * 0.05 / 8  # above the rank-1 interval, so rank 2, turned off e₀
    c = synthesize_subprojection(phi, p, r, strict=True)
    assert c.rank == 2
    assert state_eval(phi, c) == pytest.approx(r, abs=1e-12)
    assert la.frob(p.mat @ c.mat - c.mat) < 1e-12


@pytest.mark.parametrize("at_rounding_level", [False, True])
def test_epsilon_pure_synthesis_on_a_flat_spectrum(at_rounding_level):
    # Pψ = 0: the compressed spectrum is ε/N throughout, so only r = kε/N
    # is feasible; with Pψ at rounding level (ψ in the kernel of a Haar P)
    # e₀ still lies in range(P), even when the walk keeps it whole
    if at_rounding_level:
        rng = np.random.default_rng(7)
        p = Projection(la.haar_projection(8, 3, rng))
        g = la.random_pure_state(8, rng)
        psi = g - p.mat @ g
        phi = qprob.EpsilonPureState(psi / np.linalg.norm(psi), 0.05)
        assert np.linalg.norm(p.mat @ phi.psi) < 1e-14
    else:
        phi, p = axis_case({1, 2, 3}, 0)
    flat = 0.05 / 8
    assert np.allclose(commoncause._Compression(phi, p).mu, flat, rtol=0, atol=1e-15)
    for r in (2 * flat, 2 * flat + 0.5 * config.TOL.synth):
        c = synthesize_subprojection(phi, p, r, strict=True)
        assert c.rank == 2
        assert state_eval(phi, c) == pytest.approx(r, abs=config.TOL.synth)
        assert la.frob(p.mat @ c.mat - c.mat) < 1e-12
    with pytest.raises(InfeasibleError, match="rank 1: "):
        synthesize_subprojection(phi, p, 1.5 * flat, strict=True)


def test_epsilon_pure_synthesis_where_a_seeded_gaussian_frame_collides():
    # default_rng(0) draws the ψ of demo_state(net, seed=0), so a frame
    # from P applied to a seed-0 Gaussian would be parallel to Pψ and
    # collapse; the pivoted frame does not depend on a draw
    dim = 64
    psi = la.random_pure_state(dim, np.random.default_rng(0))
    phi = qprob.EpsilonPureState(psi, 0.05)
    p = Projection(la.haar_projection(dim, 8, np.random.default_rng(1)))
    mu = commoncause._Compression(phi, p).mu
    r = float(mu[0]) + 1.5 * 0.05 / dim  # above the rank-2 interval, so rank 3, rotated
    c = synthesize_subprojection(phi, p, r, strict=True)
    assert c.rank == 3
    assert state_eval(phi, c) == pytest.approx(r, abs=1e-12)
    assert la.frob(p.mat @ c.mat - c.mat) < 1e-12


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
    # the cause must land inside the left-leg algebra. Conjugated by a
    # Haar unitary, the algebra is no tensor factor and is refused; its
    # diagonal, a factor but not a full one, is refused by the synthesis.
    v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
    rho = np.diag(np.kron(v, [0.5, 0.5])).astype(complex)
    alg = MatrixAlgebra.tensor_factor((5, 2), (0,))
    a = la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,))
    b = la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,))
    if conjugate:
        with pytest.raises(StructureError, match="not a tensor factor"):
            alg.conjugated_by(la.haar_unitary(10, np.random.default_rng(17)))
        diag = MatrixAlgebra.diagonal((5, 2), (0,))
        assert diag.contains(a) and diag.contains(b)
        with pytest.raises(StructureError, match="needs a full factor"):
            find_strong_cc(DensityState(rho), Projection(a), Projection(b), algebra=diag)
        return
    phi = DensityState(rho)
    cert = dataclasses.replace(
        find_strong_cc(phi, Projection(a), Projection(b), algebra=alg), localization="left factor"
    )
    assert cert.verified and cert.is_strong
    assert alg.contains(cert.cause.mat)
    assert state_eval(phi, cert.cause) == pytest.approx(0.0376 / 0.14, abs=1e-10)
    assert cert.cause.rank == 2  # rank-1 local cause, doubled by the embedding
    assert cert.to_record()["localization"] == "left factor"


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
def test_find_strong_cc_in_an_algebra_on_every_factor(monkeypatch, conjugate):
    # a factor on every tensor factor is the full matrix algebra; it
    # compresses by the identity, so the state and the meet are used as
    # they are. Conjugated, it is no tensor factor and is refused, and its
    # diagonal is refused by the synthesis
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    alg = MatrixAlgebra.tensor_factor((3, 3), (0, 1))
    if conjugate:
        with pytest.raises(StructureError, match="not a tensor factor"):
            alg.conjugated_by(la.haar_unitary(9, np.random.default_rng(23)))
        with pytest.raises(StructureError, match="needs a full factor"):
            find_strong_cc(phi, a, b, algebra=MatrixAlgebra.diagonal((3, 3), (0, 1)))
        return
    states = []
    real_state = commoncause.DensityState

    def counted_state(mat):
        states.append(mat)
        return real_state(mat)

    monkeypatch.setattr(commoncause, "DensityState", counted_state)
    cert = find_strong_cc(phi, a, b, algebra=alg)
    monkeypatch.undo()
    assert cert.verified and cert.is_strong
    assert state_eval(phi, cert.cause) == pytest.approx(DIM9_R, abs=1e-10)
    assert len(states) == 0
    ref = find_strong_cc(phi, a, b)
    assert np.array_equal(cert.cause.mat, ref.cause.mat)
    assert dataclasses.replace(cert, cause=ref.cause) == ref


@pytest.mark.parametrize("localized", [False, True], ids=["global", "localized"])
def test_find_strong_cc_verifies_with_the_meet_it_built(monkeypatch, localized):
    # one product A·B per call, for the A/B check and the meet, then one
    # product X·C for each X in {AB, A, B}, and no two-product commutator;
    # the certificate is the one quantum_verify_cc gives, to the bit
    if localized:
        v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
        phi = DensityState(np.diag(np.kron(v, [0.5, 0.5])).astype(complex))
        a = Projection(la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,)))
        b = Projection(la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,)))
        alg = MatrixAlgebra.tensor_factor((5, 2), (0,))
    else:
        phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
        alg = None
    real_comm = la.comm_residual
    products, residuals = [], []

    class CountedProduct(PairProduct):
        def __init__(self, x, y):
            products.append((x, y))
            super().__init__(x, y)

    def comm(x, y):
        residuals.append((x, y))
        return real_comm(x, y)

    for module in (commoncause, qprob):  # qprob.commuting_meet forms A·B
        monkeypatch.setattr(module, "PairProduct", CountedProduct)
    monkeypatch.setattr(la, "comm_residual", comm)
    cert = find_strong_cc(phi, a, b, algebra=alg)
    monkeypatch.undo()
    assert (len(products), len(residuals)) == (4, 0)
    (x0, y0), *on_c = products
    assert x0 is a and y0 is b
    assert all(y is cert.cause for _, y in on_c)
    factors = [x for x, _ in on_c]
    assert sum(x is a for x in factors) == sum(x is b for x in factors) == 1
    (meet,) = [x for x in factors if x is not a and x is not b]
    assert np.array_equal(meet.mat, la.hermitize(a.mat @ b.mat))
    ref = quantum_verify_cc(phi, a, b, cert.cause)
    for field in dataclasses.fields(cert):
        assert getattr(cert, field.name) == getattr(ref, field.name), field.name


def test_find_strong_cc_evaluates_each_event_once(monkeypatch):
    # φ(A), φ(B) and φ(A^B) feed both the r-value and the four conditions;
    # each is evaluated once. The algebra acts on one factor, so the
    # synthesis reads the compressed meet, not the meet itself
    v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
    phi = DensityState(np.diag(np.kron(v, [0.5, 0.5])).astype(complex))
    a = Projection(la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,)))
    b = Projection(la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,)))
    alg = MatrixAlgebra.tensor_factor((5, 2), (0,))
    real_eval = commoncause.state_eval
    operands = []

    def counted_eval(state, x):
        if state is phi:
            operands.append(x)
        return real_eval(state, x)

    monkeypatch.setattr(commoncause, "state_eval", counted_eval)
    cert = find_strong_cc(phi, a, b, algebra=alg)
    monkeypatch.undo()
    ref = quantum_verify_cc(phi, a, b, cert.cause)
    assert sum(x is a for x in operands) == sum(x is b for x in operands) == 1
    meets = [x for x in operands if x is not a and x is not b and x is not cert.cause]
    assert len(meets) == 1
    assert np.array_equal(meets[0].mat, la.hermitize(a.mat @ b.mat))
    for field in dataclasses.fields(cert):
        assert getattr(cert, field.name) == getattr(ref, field.name), field.name


def _span_instance(kind):
    if kind == "localized":
        v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
        phi = DensityState(np.diag(np.kron(v, [0.5, 0.5])).astype(complex))
        a = Projection(la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,)))
        b = Projection(la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,)))
        return phi, a, b, MatrixAlgebra.tensor_factor((5, 2), (0,))
    if kind == "global":
        return (*diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31), None)
    rng = np.random.default_rng(5)
    while (inst := masked_instance(32, rng)) is None:
        pass
    return (*inst, None)


@pytest.mark.parametrize("kind", ["global", "localized", "haar32"])
def test_span_cause_is_verified_without_a_full_product(monkeypatch, kind):
    # a synthesized cause, or its embedding, keeps k <= N/2 columns W; the
    # verification reads each X·C through XW, so no N x N matrix reaches
    # dagger, hermitize or frob, no weight is evaluated twice, and no
    # PairProduct forms its N x N product. The certificate is the one a
    # dense copy of the cause (no columns kept) gives, to 1e-12
    phi, a, b, alg = _span_instance(kind)
    cert = find_strong_cc(phi, a, b, algebra=alg)
    c = cert.cause
    assert 2 * c.rank <= c.dim
    pair = commoncause._CheckedPair(phi, a, b)
    pc = state_eval(phi, c)
    full = (c.dim, c.dim)
    shapes, evals, products = [], [], []

    def watching(original):
        def wrapper(m):
            shapes.append(np.shape(m))
            return original(m)

        return wrapper

    class WatchedProduct(PairProduct):
        def __init__(self, x, y):
            products.append(self)
            super().__init__(x, y)

    for name in ("dagger", "hermitize", "frob"):
        monkeypatch.setattr(la, name, watching(getattr(la, name)))
    for module in (commoncause, qprob):
        monkeypatch.setattr(module, "state_eval", lambda *args: evals.append(args))
    monkeypatch.setattr(commoncause, "PairProduct", WatchedProduct)
    span = pair.certificate(c, pc)
    monkeypatch.undo()
    assert full not in shapes
    assert evals == []
    assert len(products) == 3 and all("mat" not in vars(p) for p in products)
    dense = pair.certificate(Projection(c.mat), pc)
    assert span.is_strong == dense.is_strong and span.is_genuine == dense.is_genuine
    for field in ("residual_screen_C", "residual_screen_Cperp", "margin_A", "margin_B", "correlation"):
        assert abs(getattr(span, field) - getattr(dense, field)) < 1e-12, field


def test_verification_checks_the_cause_against_both_events():
    # C commutes with B but not with A: the kernel behind find_strong_cc
    # and quantum_verify_cc must refuse it
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    v = np.zeros(9, dtype=complex)
    v[[4, 6]] = 1.0 / np.sqrt(2.0)  # both in range(B), only site 4 in range(A)
    c = Projection(np.outer(v, v))
    assert la.comm_residual(c.mat, b.mat) < 1e-12 < la.comm_residual(c.mat, a.mat)
    with pytest.raises(CommutationError, match="C and A"):
        commoncause._CheckedPair(phi, a, b).certificate(c)
    with pytest.raises(CommutationError, match="C and A"):
        quantum_verify_cc(phi, a, b, c)


def test_find_strong_cc_localization_requires_membership():
    phi, a, b = diag_instance(DIM9_W[:8] + [1 - sum(DIM9_W[:8])], [1] * 6 + [0] * 3, DIM9_B)
    alg = MatrixAlgebra.tensor_factor((3, 3), (0,))
    with pytest.raises(StructureError):
        find_strong_cc(phi, a, b, algebra=alg)


def test_find_multiple_distinct_ranks():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    causes = find_multiple_strong_cc(phi, a, b, 3)
    assert len(causes) == 3
    ranks = sorted(c.cause.rank for c in causes)
    assert ranks == [2, 3, 4]
    for c1, c2 in itertools.combinations(causes, 2):
        assert np.linalg.norm(c1.cause.mat - c2.cause.mat, 2) > 1e-6
    for c in causes:
        cert = quantum_verify_cc(phi, a, b, c.cause)
        assert cert.verified and cert.is_strong


def test_find_multiple_compresses_the_state_once(monkeypatch):
    # every attempt walks the same compressed spectrum: one range basis and
    # one eigendecomposition per call on a dense state, none on an ε-pure one
    calls = {"range_basis": 0, "eigh_desc": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(la, name, counting(name, getattr(la, name)))
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    assert len(find_multiple_strong_cc(phi, a, b, 3)) == 3
    assert calls == {"range_basis": 1, "eigh_desc": 1}
    # ψ weighs AB and A⊥B⊥ most, for A = span(e0..e7), B = span(e0..e3, e8..e11)
    psi = np.zeros(16, dtype=complex)
    psi[[0, 4, 8, 12]] = [0.7, 0.3, 0.3, 0.58]
    phi = qprob.EpsilonPureState(psi / np.linalg.norm(psi), 0.3)
    a = Projection(np.diag([1.0] * 8 + [0.0] * 8))
    b = Projection(np.diag([1.0] * 4 + [0.0] * 4 + [1.0] * 4 + [0.0] * 4))
    causes = find_multiple_strong_cc(phi, a, b, 3)
    assert calls == {"range_basis": 1, "eigh_desc": 1}
    assert sorted(c.cause.rank for c in causes) == [1, 2, 3]
    assert all(quantum_verify_cc(phi, a, b, c.cause) == c for c in causes)


def test_find_multiple_compresses_once_and_weighs_the_meet_once(monkeypatch):
    # one compression of φ to the meet per call, however many attempts; its
    # weight φ(A^B) is the checked pair's, evaluated once
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    real_init = commoncause._Compression.__init__
    compressed, weighed = [], []

    def counted_init(self, state, p, pp=None):
        compressed.append(p)
        real_init(self, state, p, pp)

    def counted_eval(state, x):
        weighed.append(x)
        return state_eval(state, x)

    monkeypatch.setattr(commoncause._Compression, "__init__", counted_init)
    monkeypatch.setattr(commoncause, "state_eval", counted_eval)
    causes = find_multiple_strong_cc(phi, a, b, 3)
    assert len(causes) == 3
    (meet,) = compressed
    assert sum(x is meet for x in weighed) == 1
    assert np.array_equal(meet.mat, la.hermitize(a.mat @ b.mat))


@pytest.mark.parametrize("epsilon", [0.3, 0.9])
def test_find_multiple_on_an_epsilon_pure_state_finds_the_whole_family(epsilon):
    # every fitting rank's walk turns at evenly spaced phases, so the
    # ε-pure path finds all 12 causes, with the dense path's ranks; the
    # seeded hunt found 12 at ε = 0.3 and 7 at ε = 0.9.
    # A = span(e0..e15), B = span(e0..e7, e16..e23): m = 8
    psi = np.zeros(32, dtype=complex)
    psi[[0, 8, 16, 24]] = [0.7, 0.3, 0.3, 0.58]
    phi = qprob.EpsilonPureState(psi / np.linalg.norm(psi), epsilon)
    a = Projection(np.diag([1.0] * 16 + [0.0] * 16))
    b = Projection(np.diag([1.0] * 8 + [0.0] * 8 + [1.0] * 8 + [0.0] * 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        pure = find_multiple_strong_cc(phi, a, b, 12)
        dense = find_multiple_strong_cc(DensityState(phi.mat), a, b, 12)
    assert len(pure) == len(dense) == 12
    assert [c.cause.rank for c in pure] == [c.cause.rank for c in dense]
    assert all(quantum_verify_cc(phi, a, b, c.cause) == c for c in pure)


def test_find_multiple_on_rank_one_meet_warns_empty(monkeypatch):
    # the meet has rank 1: find_strong_cc's negative, and no cause is walked
    phi, a, b = diag_instance([0.4, 0.2, 0.2, 0.2], [1, 1, 0, 0], [1, 0, 1, 0])
    calls = []
    monkeypatch.setattr(commoncause._Compression, "cause", lambda *args: calls.append(args))
    for count in (1, 2):
        with pytest.raises(InfeasibleError, match="P has rank 1; its only strict subprojection is 0"):
            find_multiple_strong_cc(phi, a, b, count)
    assert calls == []


def test_find_multiple_rejects_negative_count():
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    with pytest.raises(TargetRangeError):
        find_multiple_strong_cc(phi, a, b, -1)


def test_find_multiple_returns_the_certificates_it_verified():
    # the CLI renders these; it used to verify each cause a second time
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    certs = find_multiple_strong_cc(phi, a, b, 3)
    assert [quantum_verify_cc(phi, a, b, c.cause) for c in certs] == certs


def test_find_multiple_stops_at_the_first_infeasible_target(monkeypatch):
    # r = 0.1724 / 0.23 lies above the meet's rank-1 interval [0.3, 0.45]:
    # find_strong_cc's negative, raised before any cause is walked
    phi, a, b = diag_instance([0.3, 0.45, 0.01, 0.01, 0.23], [1, 1, 1, 0, 0], [1, 1, 0, 1, 0])
    calls = []
    monkeypatch.setattr(commoncause._Compression, "cause", lambda *args: calls.append(args))
    with pytest.raises(InfeasibleError, match=r"outside every achievable interval \(rank 1: "):
        find_multiple_strong_cc(phi, a, b, 3)
    assert calls == []


def family_instances():
    """A dense and an ε-pure instance, each with its pair's compression and r."""
    dense = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    psi = np.zeros(32, dtype=complex)
    psi[[0, 8, 16, 24]] = [0.7, 0.3, 0.3, 0.58]
    pure = (
        qprob.EpsilonPureState(psi / np.linalg.norm(psi), 0.3),
        Projection(np.diag([1.0] * 16 + [0.0] * 16)),
        Projection(np.diag([1.0] * 8 + [0.0] * 8 + [1.0] * 8 + [0.0] * 8)),
    )
    for phi, a, b in (dense, pure):
        pair = commoncause._CheckedPair(phi, a, b)
        yield phi, a, b, commoncause._Compression(phi, pair.meet), pair.r_value().r


@pytest.mark.parametrize("case", [0, 1], ids=["dense", "epsilon-pure"])
def test_family_distance_is_the_closed_form(case):
    # two causes of one walk lie |sin 2a|·|sin((θ − θ′)/2)| apart in
    # operator norm; each phase keeps the weight r
    phi, a, b, comp, r = list(family_instances())[case]
    rng = np.random.default_rng(case)
    for k in comp.ranks(r, strict=True):
        c0, _, sin2a = comp.cause(r, k)
        assert sin2a > 0.1
        for _ in range(4):
            theta, other = rng.uniform(0.0, 2.0 * np.pi, size=2)
            x, px, sx = comp.cause(r, k, np.exp(1j * theta))
            y, _, sy = comp.cause(r, k, np.exp(1j * other))
            assert sx == sy == sin2a
            assert px == pytest.approx(r, abs=config.TOL.synth)
            closed = abs(sin2a * np.sin((theta - other) / 2.0))
            assert abs(np.linalg.norm(x.mat - y.mat, 2) - closed) <= 1e-12
            assert abs(np.linalg.norm(x.mat - c0.mat, 2) - abs(sin2a * np.sin(theta / 2.0))) <= 1e-12


@pytest.mark.parametrize("case", [0, 1], ids=["dense", "epsilon-pure"])
def test_family_cause_zero_is_find_strong_cc(case):
    phi, a, b, _, _ = list(family_instances())[case]
    first = find_multiple_strong_cc(phi, a, b, 5)[0]
    cert = find_strong_cc(phi, a, b)
    assert first.cause.mat.tobytes() == cert.cause.mat.tobytes()
    for field in dataclasses.fields(cert):
        if field.name != "cause":
            assert getattr(first, field.name) == getattr(cert, field.name), field.name


def test_family_of_a_thousand_on_three_causes_dim9():
    # the bundled three_causes_dim9 instance: ranks 2, 3 and 4 get 334, 333
    # and 333 causes; cause j is rank j mod 3 at θ = 2π(j div 3)/n
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        certs = find_multiple_strong_cc(phi, a, b, 1000)
    assert len(certs) == 1000
    assert all(c.verified and c.is_strong for c in certs)
    pair = commoncause._CheckedPair(phi, a, b)
    comp, r = commoncause._Compression(phi, pair.meet), pair.r_value().r
    ranks = comp.ranks(r, strict=True)
    assert list(ranks) == [2, 3, 4]
    spread = [comp.cause(r, k)[2] for k in ranks]
    counts = [334, 333, 333]
    assert [sum(c.cause.rank == k for c in certs) for k in ranks] == counts
    assert min(s * np.sin(np.pi / n) for s, n in zip(spread, counts)) > 1e-6
    rng = np.random.default_rng(8)
    for _ in range(40):
        i, j = rng.choice(1000, size=2, replace=False)
        x, y = certs[i].cause.mat, certs[j].cause.mat
        if i % 3 != j % 3:
            assert np.linalg.norm(x - y, 2) == pytest.approx(1.0, abs=1e-12)
            continue
        n = counts[i % 3]
        closed = abs(spread[i % 3] * np.sin(np.pi * (i // 3 - j // 3) / n))
        assert abs(np.linalg.norm(x - y, 2) - closed) <= 1e-12


def test_weighted_columns_on_a_vertex_has_no_turn():
    # r equal to a top-k sum: the walk ends on the vertex, sin 2a = 0, and
    # every phase gives the same columns
    mu = np.array([0.4, 0.3, 0.2, 0.1])
    emb = np.eye(4, dtype=complex)
    for k in (1, 2, 3):
        r = float(mu[:k].sum())
        span, sin2a = commoncause._weighted_columns(mu, emb, r, k)
        assert sin2a == 0.0
        turned, _ = commoncause._weighted_columns(mu, emb, r, k, np.exp(0.7j))
        assert np.array_equal(span, turned)
        assert np.array_equal(span, emb[:, :k])


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
# commuting meets as products
# ---------------------------------------------------------------------------


def commuting_instance(rng, strong_cause=False):
    """A faithful state, not diagonal in the pair's basis, and commuting A, B, C.

    A and B are 0/1 masks in one Haar basis with all four Boolean cells
    nonempty and A ^ B of rank at least 2, B flipped to its complement when
    that makes the correlation positive; C is a mask in the same basis, a
    strict part of A ^ B when ``strong_cause``.
    """
    dim = int(rng.integers(6, 10))
    u = la.haar_unitary(dim, rng)
    # cell 0 is A ^ B, 1 is A only, 2 is B only, 3 is neither; cells 0 and 1
    # swap roles when B is flipped, so both get two elements
    cells = rng.permutation(np.concatenate([[0, 0, 1, 1, 2, 3], rng.integers(0, 4, dim - 6)]))
    da = (cells < 2).astype(float)
    db = (cells % 2 == 0).astype(float)
    phi = DensityState(la.random_faithful_density(dim, rng))

    def proj(mask):
        return Projection((u * mask) @ la.dagger(u))

    a, b = proj(da), proj(db)
    if correlation(phi, a, b) < 0:
        db = 1.0 - db
        b = proj(db)
    if strong_cause:
        meet_idx = np.flatnonzero(da * db)
        pick = rng.permutation(meet_idx)[: int(rng.integers(1, len(meet_idx)))]
        dc = np.isin(np.arange(dim), pick).astype(float)
    else:
        dc = (rng.random(dim) < 0.5).astype(float)
        dc[0], dc[1] = 1.0, 0.0  # a proper, nonzero cause
    return phi, a, b, proj(dc)


def reference_certificate(phi, a, b, c):
    """The certificate fields with every meet an eigh-based lattice_meet."""
    pc = state_eval(phi, c)
    cperp = c.complement()
    ab = lattice_meet(a, b)

    def cond(x, y, py):
        return state_eval(phi, lattice_meet(x, y)) / py

    on_c = [cond(x, c, pc) for x in (ab, a, b)]
    on_cp = [cond(x, cperp, 1.0 - pc) for x in (ab, a, b)]
    return {
        "residual_screen_C": abs(on_c[0] - on_c[1] * on_c[2]),
        "residual_screen_Cperp": abs(on_cp[0] - on_cp[1] * on_cp[2]),
        "margin_A": on_c[1] - on_cp[1],
        "margin_B": on_c[2] - on_cp[2],
        "correlation": state_eval(phi, ab) - state_eval(phi, a) * state_eval(phi, b),
        "is_strong": is_subprojection(c, ab),
        "is_genuine": not is_subprojection(c, a) and not is_subprojection(c, b),
    }


@pytest.mark.parametrize("strong", [False, True], ids=["any-cause", "strong-cause"])
@pytest.mark.parametrize("seed", range(6))
def test_product_meet_and_join_match_the_lattice(seed, strong):
    rng = np.random.default_rng(4000 + seed)
    phi, a, b, c = commuting_instance(rng, strong_cause=strong)
    for x, y in ((a, b), (a, c), (b, c), (a, c.complement())):
        meet, ref = PairProduct(x, y).meet(), lattice_meet(x, y)
        assert meet.rank == ref.rank
        assert la.frob(meet.mat - ref.mat) < 1e-12
        join = Projection(x.mat + y.mat - meet.mat)
        ref_join = lattice_join(x, y)
        assert join.rank == ref_join.rank
        assert la.frob(join.mat - ref_join.mat) < 1e-12
    rv = reichenbach_r(phi, a, b)
    assert rv.phiAB == pytest.approx(state_eval(phi, lattice_meet(a, b)), abs=1e-12)
    assert rv.phiAvB == pytest.approx(state_eval(phi, lattice_join(a, b)), abs=1e-12)


@pytest.mark.parametrize("strong", [False, True], ids=["any-cause", "strong-cause"])
@pytest.mark.parametrize("seed", range(6))
def test_certificate_matches_the_lattice_meet_reference(seed, strong):
    rng = np.random.default_rng(5000 + seed)
    phi, a, b, c = commuting_instance(rng, strong_cause=strong)
    cert = quantum_verify_cc(phi, a, b, c)
    ref = reference_certificate(phi, a, b, c)
    for name, want in ref.items():
        got = getattr(cert, name)
        if isinstance(want, bool):
            assert got == want, name
        else:
            assert got == pytest.approx(want, abs=1e-12), name
    assert cert.is_strong == strong


@pytest.fixture
def no_lattice_meet(monkeypatch):
    """Make every ccbench binding of qprob.lattice_meet raise."""
    original = qprob.lattice_meet

    def refuse(*args, **kwargs):
        raise AssertionError("lattice_meet called on a commuting pair")

    for name, module in list(sys.modules.items()):
        if name == "ccbench" or name.startswith("ccbench."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)


def test_commuting_pipeline_makes_no_lattice_meet(no_lattice_meet):
    phi, a, b = diag_instance(DIM9_W, DIM9_A, DIM9_B, seed=31)
    assert reichenbach_r(phi, a, b).r == pytest.approx(DIM9_R, abs=1e-12)
    cert = find_strong_cc(phi, a, b)
    assert cert.verified and cert.is_strong
    assert quantum_verify_cc(phi, a, b, cert.cause) == cert
    assert len(find_multiple_strong_cc(phi, a, b, 2)) == 2
    # localized: the same 5 x 2 instance as the localized synthesis test
    v = np.array([0.3, 0.2, 0.18, 0.18, 0.14])
    phi = DensityState(np.diag(np.kron(v, [0.5, 0.5])).astype(complex))
    alg = MatrixAlgebra.tensor_factor((5, 2), (0,))
    a = Projection(la.embed_factor(np.diag([1.0, 1, 1, 0, 0]), (5, 2), (0,)))
    b = Projection(la.embed_factor(np.diag([1.0, 1, 0, 1, 0]), (5, 2), (0,)))
    cert = find_strong_cc(phi, a, b, algebra=alg)
    assert cert.verified and cert.is_strong and alg.contains(cert.cause.mat)


def test_find_strong_cc_checks_commutation_before_the_meet(no_lattice_meet):
    phi = DensityState(la.random_faithful_density(4, np.random.default_rng(0)))
    a = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = Projection(la.haar_projection(4, 2, np.random.default_rng(1)))
    with pytest.raises(CommutationError):
        find_strong_cc(phi, a, b)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_strong_cause_is_verified_or_provably_infeasible(seed):
    # the finite-dimensional strong-cause claim: either a verified strong
    # cause of weight r below A ^ B, or no strict rank of A ^ B can carry r
    rng = np.random.default_rng(seed)
    phi, a, b, _ = commuting_instance(rng)
    rv = reichenbach_r(phi, a, b)
    meet = lattice_meet(a, b)
    try:
        cert = find_strong_cc(phi, a, b)
    except InfeasibleError:
        for k in range(1, meet.rank):
            lo, hi = rank_weight_bounds(phi, meet, k)
            assert not lo - config.TOL.synth <= rv.r <= hi + config.TOL.synth
        return
    assert cert.verified and cert.is_strong
    assert is_subprojection(cert.cause, meet) and cert.cause.rank < meet.rank
    assert state_eval(phi, cert.cause) == pytest.approx(rv.r, abs=1e-10)


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
    cert = search_genuine_cc(phi, a, b)
    assert cert.verified and cert.is_genuine
    # the cause is built block by block in an eigenbasis of A + 2B, so it
    # commutes with both; double-check anyway
    assert la.comm_residual(cert.cause.mat, a.mat) < 1e-9
    assert la.comm_residual(cert.cause.mat, b.mat) < 1e-9


def four_block_pair(rng, dims):
    """A random faithful state and a commuting pair whose blocks AB, AB⊥,
    A⊥B and A⊥B⊥ have the given dimensions, in a Haar-random basis; also
    the compressed state's spectrum on each block."""
    u = la.haar_unitary(sum(dims), rng)
    label = np.repeat(np.arange(4), dims)
    g = rng.standard_normal((len(label),) * 2) + 1j * rng.standard_normal((len(label),) * 2)
    rho = g @ la.dagger(g)
    rho /= np.trace(rho).real
    a, b = (Projection(la.hermitize((u * np.isin(label, on)) @ la.dagger(u))) for on in ([0, 1], [0, 2]))
    spectra = [np.linalg.eigvalsh(la.dagger(u[:, label == i]) @ rho @ u[:, label == i]) for i in range(4)]
    return DensityState(rho), a, b, spectra


def weight_pieces(mu):
    """The weights a nonzero subprojection can carry on a block: the union,
    over ranks k, of [sum of the k smallest, sum of the k largest]."""
    mu = np.sort(mu)
    out = []
    for lo, hi in sorted((mu[:k].sum(), mu[::-1][:k].sum()) for k in range(1, len(mu) + 1)):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def grid_finds_genuine_cause(spectra, inset=1e-6, n=40):
    """Whether a (w₂, w₃) grid over blocks AB⊥ and A⊥B finds block weights
    that screen off on C and C⊥ with both margins above 1e-6, each weight
    1e-6 inside its piece. A one-point piece, the block taken whole, is
    itself on the grid and is matched within 1e-9 by w₁ and w₄. Screening
    on C gives w₄ = w₂w₃/w₁, and screening on C⊥ then leaves the quadratic
    W₄w₁² − s·w₁ + W₁w₂w₃ = 0, s = W₁W₄ + w₂w₃ − (W₂ − w₂)(W₃ − w₃)."""
    W1, W2, W3, W4 = (float(mu.sum()) for mu in spectra)
    pieces = [weight_pieces(mu) for mu in spectra]

    def grid(block):
        return np.concatenate([
            [lo] if hi - lo <= inset else np.linspace(lo + inset, hi - inset, n)
            for lo, hi in pieces[block]
        ])

    def inside(x, block):
        return any(
            abs(x - lo) <= 1e-9 if hi - lo <= inset else lo + inset < x < hi - inset
            for lo, hi in pieces[block]
        )

    pa, pb = W1 + W2, W1 + W3
    for w2, w3 in itertools.product(grid(1), grid(2)):
        s = W1 * W4 + w2 * w3 - (W2 - w2) * (W3 - w3)
        for w1 in np.roots([W4, -s, W1 * w2 * w3]):
            if abs(w1.imag) > 0 or w1.real <= 0:
                continue
            w1 = w1.real
            w4 = w2 * w3 / w1
            c = w1 + w2 + w3 + w4
            alpha, beta = (w1 + w2) / c, (w1 + w3) / c
            margins = ((alpha - (pa - c * alpha) / (1 - c)), (beta - (pb - c * beta) / (1 - c)))
            if inside(w1, 0) and inside(w4, 3) and c < 1 - inset and min(margins) > inset:
                return True
    return False


def test_decision_agrees_with_a_grid_over_the_roadmap_quadratic():
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(40):
        dims = rng.integers(1, 4, size=4)
        phi, a, b, spectra = four_block_pair(rng, dims)
        if correlation(phi, a, b) <= 1e-3:
            continue
        on_grid = grid_finds_genuine_cause(spectra)
        try:
            cert = search_genuine_cc(phi, a, b)
        except InfeasibleError:
            assert not on_grid, dims
            continue
        assert cert.verified and cert.is_genuine and not cert.is_strong
        found += 1
    assert found >= 5


def test_decision_finds_the_segment_of_two_whole_blocks():
    # blocks AB and A⊥B are one-dimensional, so a genuine cause takes both
    # whole; its weights then lie on the segment α = W₁/(W₁ + W₃), along
    # which both pinned rows vanish identically, and rounding alone would
    # rule the segment out
    weights = [0.3, 0.12, 0.03, 0.1, 0.42, 0.03]
    for seed in range(5):
        phi, a, b = diag_instance(weights, [1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 0, 0], seed=seed)
        cert = search_genuine_cc(phi, a, b)
        assert cert.verified and cert.is_genuine
        meet = a.mat @ b.mat
        below_b = b.mat - meet
        assert la.frob(cert.cause.mat @ meet - meet) < 1e-9
        assert la.frob(cert.cause.mat @ below_b - below_b) < 1e-9


def test_an_empty_block_rules_out_a_genuine_cause():
    # A <= B leaves the block AB⊥ empty, yet the pair is correlated
    phi, a, b = diag_instance([0.3, 0.2, 0.5], [1, 0, 0], [1, 1, 0], seed=3)
    with pytest.raises(InfeasibleError, match="AB⊥ none; .*boxes ruled out: 0"):
        search_genuine_cc(phi, a, b)


def test_search_requires_correlation():
    phi, a, b = diag_instance([0.25, 0.25, 0.25, 0.25], [1, 1, 0, 0], [1, 0, 1, 0])
    with pytest.raises(UncorrelatedError):
        search_genuine_cc(phi, a, b)


def test_search_genuine_cc_verifies_every_point_against_one_meet(monkeypatch):
    # the pair's meet and its three weights are formed once per call: the
    # first point's verification is made to fail, so the search goes on to
    # a second point, which is checked against the same meet
    phi, a, b, _ = planted_genuine_instance()
    real_meet, real_certificate = commoncause.commuting_meet, commoncause._CheckedPair.certificate
    meets, points, weighed = [], [], []

    def counted_meet(x, y):
        meets.append((x, y))
        return real_meet(x, y)

    def certificate(self, c, pc=None):
        points.append(c)
        if len(points) == 1:
            raise ZeroConditioningError("the first point is refused")
        return real_certificate(self, c, pc)

    def counted_eval(state, x):
        weighed.append(x)
        return state_eval(state, x)

    monkeypatch.setattr(commoncause, "commuting_meet", counted_meet)
    monkeypatch.setattr(commoncause._CheckedPair, "certificate", certificate)
    monkeypatch.setattr(commoncause, "state_eval", counted_eval)
    cert = search_genuine_cc(phi, a, b)
    assert cert.verified and cert.is_genuine
    assert len(points) == 2
    assert meets == [(a, b)]
    assert sum(x is a for x in weighed) == sum(x is b for x in weighed) == 1


def test_search_genuine_cc_names_the_least_eigenvalue_of_a_state_that_is_not_faithful():
    phi, a, b, _ = planted_genuine_instance()
    w = np.diag(phi.mat).real.copy()
    w[0], w[1] = w[0] + w[1], 0.0
    with pytest.raises(NotFaithfulError, match=r"state is not faithful \(min eigenvalue 0\)"):
        search_genuine_cc(DensityState(np.diag(w).astype(complex)), a, b)


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


# ---------------------------------------------------------------------------
# the meet settled from its factors' defects
# ---------------------------------------------------------------------------


def block_pair(rng, left, shared, right, idle, tilt=0.0):
    """Validated A on sites left + shared and B on shared + right of a chain
    with ``idle`` more sites, embedded; both are block diagonal in one random
    basis {w_j} of the shared sites, so they commute. ``tilt`` > 0 rotates
    B's local matrix by exp(i·tilt·G) for a random Hermitian G, which moves
    [A, B] off zero in proportion."""
    n = left + shared + right + idle
    dims = (2,) * n
    w = la.haar_unitary(2**shared, rng)
    blocks = [np.outer(w[:, j], w[:, j].conj()) for j in range(2**shared)]

    def local(side, before):
        d = 2**side
        parts = [la.haar_projection(d, int(rng.integers(0, d + 1)), rng) for _ in blocks]
        return sum(np.kron(p, q) if before else np.kron(q, p) for p, q in zip(parts, blocks))

    a_loc = local(left, True)
    b_loc = local(right, False)
    if tilt:
        g = la.hermitize(rng.standard_normal(b_loc.shape) + 1j * rng.standard_normal(b_loc.shape))
        lam, v = np.linalg.eigh(g)
        u = (v * np.exp(1j * tilt * lam)) @ la.dagger(v)
        b_loc = la.hermitize(u @ b_loc @ la.dagger(u))
    a = Projection(a_loc).embedded(dims, tuple(range(left + shared)))
    b = Projection(b_loc).embedded(dims, tuple(range(left, left + shared + right)))
    return a, b


LAYOUTS = {
    "disjoint": (2, 0, 2, 1),
    "disjoint-whole": (2, 0, 3, 0),
    "overlapping": (1, 1, 2, 1),
    "overlapping-whole": (2, 2, 1, 0),
    "nested": (2, 1, 0, 1),
    "nested-whole": (0, 2, 2, 0),
}


def meet_inputs(a, b):
    """A and B on the union S of their supports, their product, H and S."""
    dims = a.factor[0][1]
    s = tuple(sorted({*a.sites, *b.sites}))
    x, y = a.within(dims, s), b.within(dims, s)
    pair = PairProduct(x, y)
    return x, y, pair, la.hermitize(pair.mat), s


def count_validations(monkeypatch, dim):
    calls = []
    original = Projection.__init__

    def counting(self, mat):
        if np.shape(mat)[0] == dim:
            calls.append(dim)
        original(self, mat)

    monkeypatch.setattr(Projection, "__init__", counting)
    return calls


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_meet_bound_dominates_the_defect_and_settles_as_validation(layout, seed):
    # the stated bound is at least the ‖H² − H‖_F that validation measures,
    # and a meet it settles has the rank and matrix Projection(H) gives,
    # with no validation at d_S; on disjoint supports the meet is P_A ⊗ P_B,
    # kept as two factors, whose own defect dominates its built matrix's
    rng = np.random.default_rng(seed)
    a, b = block_pair(rng, *LAYOUTS[layout])
    x, y, pair, h, s = meet_inputs(a, b)
    bound = pair.meet_bound
    assert bound >= la.frob(h @ h - h)
    assert bound <= config.TOL.proj / 2  # exactly commuting pairs are settled
    ref = Projection(h)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_validations(mp, h.shape[0])
        meet = qprob.commuting_meet(a, b)
    assert calls == []
    if layout.startswith("disjoint"):
        assert len(meet.factor) == 2 and meet.sites == s
        dense = Projection(la.hermitize(a.mat @ b.mat))
        assert meet.rank == dense.rank
        assert np.max(np.abs(meet.mat - dense.mat)) <= 1e-12
        assert meet.defect >= la.frob(meet.mat @ meet.mat - meet.mat)
        return
    local = meet if meet.dim == h.shape[0] else meet.factor[0][0]
    assert local.rank == ref.rank
    assert local.mat.tobytes() == ref.mat.tobytes()
    if meet.dim != h.shape[0]:
        assert meet.sites == s
        assert meet.defect == pytest.approx(bound * np.sqrt(a.dim / h.shape[0]))


@pytest.mark.parametrize("seed", range(4))
def test_meet_near_comm_tol_is_validated(monkeypatch, seed):
    # a pair tilted to half of comm_tol passes the commutation check, but its
    # bound (about 2.5 times the commutator norm) cannot settle the meet,
    # which is then validated, as it is for an input with no defect
    rng = np.random.default_rng(seed)
    probe = block_pair(np.random.default_rng(seed), 2, 2, 1, 0, tilt=1e-6)
    rate = la.comm_residual(probe[0].mat, probe[1].mat) / 1e-6
    a, b = block_pair(rng, 2, 2, 1, 0, tilt=0.5 * config.TOL.comm / rate)
    x, y, pair, h, _ = meet_inputs(a, b)
    assert 0.3 * config.TOL.comm < pair.commutator_norm < config.TOL.comm
    bound = pair.meet_bound
    assert bound >= la.frob(h @ h - h)
    assert bound > config.TOL.proj / 2
    calls = count_validations(monkeypatch, h.shape[0])
    meet = qprob.commuting_meet(a, b)
    assert calls == [h.shape[0]]
    assert meet.rank == Projection(h).rank
    spanned = Projection.from_span(np.linalg.qr(a.mat)[0][:, : a.rank])
    assert spanned.defect is None
    assert PairProduct(spanned, b).meet_bound is None
