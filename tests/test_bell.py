"""Bell correlation suite.

Two independent routes to the same number: the closed-form two-qubit
value from the Pauli correlation matrix, and the see-saw ascent over
dichotomic observables. A third, slower route (explicit measurement
directions) lower-bounds both and reaches the known optima analytically
on the singlet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbench import (
    DensityState,
    MatrixAlgebra,
    Projection,
    bell_correlation,
    correlation,
    find_correlated_pair,
    sample_bell_fraction,
    singlet_state,
    state_eval,
    two_qubit_chsh_oracle,
    werner_state,
)
from ccbench import _linalg as la
from ccbench import bell
from ccbench.bell import exceeds_one
from ccbench.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    ValidationError,
)

SQRT2 = float(np.sqrt(2.0))
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def split_algebras(d1=2, d2=2):
    return (
        MatrixAlgebra.tensor_factor((d1, d2), (0,)),
        MatrixAlgebra.tensor_factor((d1, d2), (1,)),
    )


def bloch(v):
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    return v[0] * SX + v[1] * SY + v[2] * SZ


def chsh_value(rho, a, a2, b, b2):
    """Normalized CHSH expression for explicit measurement directions."""
    m = np.kron(bloch(a), bloch(b) + bloch(b2)) + np.kron(
        bloch(a2), bloch(b) - bloch(b2)
    )
    return 0.5 * float(np.real(np.trace(rho @ m)))


# ---------------------------------------------------------------------------
# reference states and the closed-form value
# ---------------------------------------------------------------------------


def test_singlet_is_pure_and_isotropic():
    phi = singlet_state()
    assert abs(np.trace(phi.mat @ phi.mat) - 1.0) < 1e-12
    for s in (SX, SY, SZ):
        # perfectly anticorrelated along every axis
        assert np.real(np.trace(phi.mat @ np.kron(s, s))) == pytest.approx(-1.0)


def test_werner_rejects_bad_weight():
    with pytest.raises(ValidationError):
        werner_state(1.5)


def test_oracle_singlet():
    assert two_qubit_chsh_oracle(singlet_state()) == pytest.approx(SQRT2, abs=1e-12)


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0 / SQRT2, 0.8, 1.0])
def test_oracle_werner_closed_form(w):
    assert two_qubit_chsh_oracle(werner_state(w)) == pytest.approx(
        max(1.0, w * SQRT2), abs=1e-12
    )


def test_oracle_classically_correlated_state_is_flat():
    phi = DensityState(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert two_qubit_chsh_oracle(phi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_oracle_product_states_sit_at_one(seed):
    rng = np.random.default_rng(seed)
    rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
    assert two_qubit_chsh_oracle(DensityState(rho)) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        two_qubit_chsh_oracle(DensityState(np.eye(2) / 2))


def test_singlet_optimal_directions_reach_the_oracle():
    # the textbook optimum: diagonal directions on one side
    rho = singlet_state().mat
    val = chsh_value(
        rho,
        (0, 0, 1.0),
        (1.0, 0, 0),
        (-1.0, 0, -1.0),
        (1.0, 0, -1.0),
    )
    assert val == pytest.approx(SQRT2, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_random_directions_never_beat_the_oracle(seed):
    rng = np.random.default_rng(10 + seed)
    phi = DensityState(la.random_density(4, rng))
    top = two_qubit_chsh_oracle(phi)
    for _ in range(150):
        dirs = rng.standard_normal((4, 3))
        assert chsh_value(phi.mat, *dirs) <= top + 1e-9


# ---------------------------------------------------------------------------
# see-saw ascent
# ---------------------------------------------------------------------------


def test_seesaw_singlet_matches_oracle():
    n1, n2 = split_algebras()
    report = bell_correlation(singlet_state(), n1, n2, restarts=6)
    assert report.converged
    assert report.beta == pytest.approx(SQRT2, abs=1e-6)
    # ascent: the recorded objective never decreases
    assert all(b - a >= -1e-9 for a, b in zip(report.history, report.history[1:]))


def test_seesaw_product_state_pinned_at_one():
    rng = np.random.default_rng(2)
    rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
    n1, n2 = split_algebras()
    report = bell_correlation(DensityState(rho), n1, n2, restarts=4)
    assert abs(report.beta - 1.0) <= 1e-9
    assert not exceeds_one(bell_correlation(DensityState(rho), n1, n2, restarts=4).beta)


def test_abelian_side_caps_at_one():
    # one side generated by a single dichotomic observable, σz ⊗ I, is the
    # diagonal algebra on its factor, and an abelian side admits no
    # violation even on the singlet
    n1 = MatrixAlgebra.diagonal((2, 2), (0,))
    n2 = MatrixAlgebra.tensor_factor((2, 2), (1,))
    report = bell_correlation(singlet_state(), n1, n2, restarts=8, seed=3)
    assert abs(report.beta - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_seesaw_agrees_with_oracle_on_random_states(seed):
    rng = np.random.default_rng(100 + seed)
    phi = DensityState(la.random_density(4, rng))
    n1, n2 = split_algebras()
    report = bell_correlation(phi, n1, n2, restarts=6, seed=seed)
    oracle = two_qubit_chsh_oracle(phi)
    assert report.beta <= SQRT2 + 1e-9
    assert report.beta == pytest.approx(oracle, abs=1e-6)


def test_seesaw_werner_threshold():
    n1, n2 = split_algebras()
    below = bell_correlation(werner_state(0.5), n1, n2, restarts=6)
    above = bell_correlation(werner_state(0.9), n1, n2, restarts=6)
    assert abs(below.beta - 1.0) <= 1e-9
    assert above.beta == pytest.approx(0.9 * SQRT2, abs=1e-6)


def test_seesaw_requires_commuting_algebras():
    from ccbench.errors import CommutationError

    n1 = MatrixAlgebra.tensor_factor((2, 2), (0,))
    with pytest.raises(CommutationError):
        bell_correlation(singlet_state(), n1, n1)


# ---------------------------------------------------------------------------
# correlated-pair search
# ---------------------------------------------------------------------------


def test_pair_found_on_singlet():
    n1, n2 = split_algebras()
    pair = find_correlated_pair(singlet_state(), n1, n2)
    assert pair is not None
    a, b = pair
    assert n1.contains(a.mat) and n2.contains(b.mat)
    assert correlation(singlet_state(), a, b) > 1e-9


def test_pair_found_on_classically_correlated_state():
    phi = DensityState(np.diag([0.5, 0.0, 0.0, 0.5]))
    n1, n2 = split_algebras()
    pair = find_correlated_pair(phi, n1, n2)
    assert pair is not None
    a, b = pair
    assert correlation(phi, a, b) > 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_pair_absent_on_product_states(seed):
    rng = np.random.default_rng(200 + seed)
    rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
    n1, n2 = split_algebras()
    assert find_correlated_pair(DensityState(rho), n1, n2) is None


def test_pair_search_on_uneven_split():
    rng = np.random.default_rng(7)
    v = la.random_pure_state(6, rng)
    phi = DensityState(0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(6) / 6)
    n1, n2 = split_algebras(2, 3)
    pair = find_correlated_pair(phi, n1, n2)
    assert pair is not None
    a, b = pair
    assert la.comm_residual(a.mat, b.mat) < 1e-12


def sweep_counters(monkeypatch, n1, n2):
    """The basis elements each side's sweep draws, the weights it evaluates,
    and the pairs it compares (one abs of a correlation per comparison)."""
    drawn, weighed, compared = [0, 0], [], []
    for side, alg in enumerate((n1, n2)):
        def basis_iter(alg=alg, side=side):
            for e in MatrixAlgebra.basis_iter(alg):
                drawn[side] += 1
                yield e

        monkeypatch.setattr(alg, "basis_iter", basis_iter)

    def counting_eval(phi, x):
        weighed.append(x)
        return state_eval(phi, x)

    def counting_abs(x):
        compared.append(x)
        return abs(x)

    monkeypatch.setattr(bell, "state_eval", counting_eval)
    monkeypatch.setattr(bell, "abs", counting_abs, raising=False)
    return drawn, weighed, compared


def test_correlated_pairs_builds_the_second_side_as_the_sweep_reaches_it(monkeypatch):
    # a caller that stops at the first hit draws the second algebra's basis
    # only up to it; a product state's empty sweep compares every pair and
    # evaluates each projection's weight once
    n1, n2 = split_algebras(2, 3)
    rng = np.random.default_rng(7)
    v = la.random_pure_state(6, rng)
    phi = DensityState(0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(6) / 6)
    drawn, weighed, compared = sweep_counters(monkeypatch, n1, n2)
    assert find_correlated_pair(phi, n1, n2) is not None
    assert drawn == [1, 1] and len(weighed) == 2
    monkeypatch.undo()

    sizes = [sum(len(bell._spectral_projections(e)) for e in n.basis_iter()) for n in (n1, n2)]
    rho = np.kron(la.random_density(2, rng), la.random_density(3, rng))
    drawn, weighed, compared = sweep_counters(monkeypatch, n1, n2)
    assert find_correlated_pair(DensityState(rho), n1, n2) is None
    assert drawn == [n1.n_basis, n2.n_basis]
    assert len(weighed) == len({id(x) for x in weighed}) == sum(sizes)
    assert len(compared) == sizes[0] * sizes[1]


# ---------------------------------------------------------------------------
# ensemble sampling
# ---------------------------------------------------------------------------


def test_sample_product_ensemble_never_violates():
    report = sample_bell_fraction((2, 2), "product", 25, seed=0)
    assert report.fraction == 0.0
    assert report.max_beta <= 1.0 + 1e-9


def test_sample_pure_ensemble_mostly_violates():
    report = sample_bell_fraction((2, 2), "pure", 40, seed=1)
    assert 0.5 < report.fraction <= 1.0
    assert report.max_beta <= SQRT2 + 1e-9


def test_sample_seesaw_route_on_larger_split():
    report = sample_bell_fraction((3, 2), "mixed", 3, seed=4, restarts=4)
    assert 0.0 <= report.fraction <= 1.0
    assert report.max_beta <= SQRT2 + 1e-9


def test_sample_validation():
    with pytest.raises(ValidationError):
        sample_bell_fraction((2, 2), "thermal", 5)
    with pytest.raises(ValidationError):
        sample_bell_fraction((1, 2), "pure", 5)
    with pytest.raises(ValidationError):
        sample_bell_fraction((2, 2), "pure", 0)


@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
@settings(max_examples=6, deadline=None)
def test_seesaw_never_exceeds_the_two_qubit_optimum(seed, rank):
    # the see-saw value is attained by explicit observables, so it can
    # never beat the Horodecki closed form on any two-qubit state
    phi = DensityState(la.random_density(4, np.random.default_rng(seed), rank=rank))
    n1, n2 = split_algebras()
    beta = bell_correlation(phi, n1, n2, restarts=2, seed=seed).beta
    assert beta <= two_qubit_chsh_oracle(phi) + 1e-9


def test_seesaw_signs_stay_in_their_algebras(monkeypatch):
    # on this rank-1 state a half-step's conditional expectation has a
    # degenerate zero eigenspace, which rounding splits into tiny ± values;
    # the sign maps the whole window to +1, so every X stays in N1 and every
    # Y in N2 (x lay √2 from N1 when the split kernel took both signs), and
    # the objective goes through state_eval's imaginary-part check
    phi = DensityState(la.random_density(4, np.random.default_rng(853), rank=1))
    n1, n2 = split_algebras()
    seen = []
    objective = bell._objective

    def watched(state, x1, x2, y1, y2):
        seen.append((x1, x2, y1, y2))
        return objective(state, x1, x2, y1, y2)

    monkeypatch.setattr(bell, "_objective", watched)
    beta = bell_correlation(phi, n1, n2, restarts=2).beta
    assert seen
    for x1, x2, y1, y2 in seen:
        for x in (x1, x2):
            assert la.frob(x - n1.project(x)) <= 1e-10
        for y in (y1, y2):
            assert la.frob(y - n2.project(y)) <= 1e-10
    assert abs(beta - two_qubit_chsh_oracle(phi)) <= 1e-6
