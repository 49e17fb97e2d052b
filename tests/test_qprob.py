"""Operator, state, lattice, and algebra layer.

The meet oracle below is independent of the library implementation: it
intersects ranges via principal angles (singular values of Qa* Qb equal to
1 flag shared directions). Lattice results are compared against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbench import (
    DensityState,
    HermitianOperator,
    MatrixAlgebra,
    Projection,
    ValidationError,
    commutant,
    conditional_expectation,
    correlation,
    is_product_state,
    lattice_join,
    lattice_meet,
    logical_independence_check,
    state_eval,
)
from ccbench import _linalg as la
from ccbench.errors import CommutationError, DimensionMismatchError
from ccbench.qprob import PAULI_X

from conftest import rand_faithful_state

ANGLE_TOL = 1e-8


def meet_oracle(a: Projection, b: Projection) -> np.ndarray:
    """Projection onto range(A) ∩ range(B) via principal angles."""
    dim = a.dim
    if a.rank == 0 or b.rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    wa, va = np.linalg.eigh(a.mat)
    wb, vb = np.linalg.eigh(b.mat)
    qa = va[:, wa > 0.5]
    qb = vb[:, wb > 0.5]
    u, s, _ = np.linalg.svd(la.dagger(qa) @ qb)
    shared = [i for i, sv in enumerate(s) if sv >= 1.0 - ANGLE_TOL]
    if not shared:
        return np.zeros((dim, dim), dtype=complex)
    cols = qa @ u[:, shared]
    return cols @ la.dagger(cols)


def random_projection(dim: int, rank: int, rng) -> Projection:
    return Projection(la.haar_projection(dim, rank, rng))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_hermitian_rejects_non_selfadjoint():
    with pytest.raises(ValidationError) as err:
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.invariant == "tol_herm"


def test_projection_rejects_non_idempotent():
    with pytest.raises(ValidationError) as err:
        Projection(np.diag([0.5, 1.0]))
    assert err.value.invariant == "tol_proj"


@pytest.mark.parametrize(
    "mat",
    [
        np.diag([0.7, 0.7]),          # trace 1.4
        np.diag([1.2, -0.2]),         # negative eigenvalue
    ],
)
def test_density_state_rejects_bad_spectra(mat):
    with pytest.raises(ValidationError) as err:
        DensityState(mat)
    assert err.value.invariant == "tol_state"


def test_non_square_input():
    with pytest.raises(DimensionMismatchError):
        HermitianOperator(np.zeros((2, 3)))


def test_faithfulness_flag():
    assert DensityState(np.diag([0.5, 0.5])).faithful
    assert not DensityState(np.diag([1.0, 0.0])).faithful


def test_projection_from_span():
    v = np.array([1.0, 0.0, 1.0]).astype(complex) / np.sqrt(2.0)
    p = Projection.from_span(v[:, None])
    assert p.rank == 1
    assert la.frob(p.mat - np.outer(v, v.conj())) < 1e-12
    # the constructor proper rejects what a non-orthonormal span would give
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]).astype(complex)
    with pytest.raises(ValidationError):
        Projection(cols @ cols.conj().T)


# ---------------------------------------------------------------------------
# lattice operations against the principal-angle oracle
# ---------------------------------------------------------------------------


def test_meet_of_commuting_masks_is_mask_product():
    a = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = Projection(np.diag([1.0, 0.0, 1.0, 0.0]))
    m = lattice_meet(a, b)
    assert la.frob(m.mat - np.diag([1.0, 0, 0, 0])) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_meet_matches_oracle_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 8))
    a = random_projection(dim, int(rng.integers(1, dim)), rng)
    b = random_projection(dim, int(rng.integers(1, dim)), rng)
    m = lattice_meet(a, b)
    assert la.frob(m.mat - meet_oracle(a, b)) < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_join_de_morgan(seed):
    # A v B = (A' ^ B')' is how the join is *defined* to behave; the oracle
    # side is computed through meet_oracle on the complements.
    rng = np.random.default_rng(100 + seed)
    dim = 6
    a = random_projection(dim, int(rng.integers(1, dim)), rng)
    b = random_projection(dim, int(rng.integers(1, dim)), rng)
    j = lattice_join(a, b)
    expected = np.eye(dim) - meet_oracle(a.complement(), b.complement())
    assert la.frob(j.mat - expected) < 1e-8


def test_meet_with_shared_direction():
    # two planes in C^3 sharing exactly one line
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    a = Projection.from_span(np.stack([e0, e1], axis=1))
    b = Projection.from_span(np.stack([e0, (e1 + e2) / np.sqrt(2)], axis=1))
    m = lattice_meet(a, b)
    assert m.rank == 1
    assert la.frob(m.mat - np.outer(e0, e0)) < 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_meet_join_laws(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    p = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
    eye = Projection(np.eye(dim))
    assert la.frob(lattice_meet(p, p).mat - p.mat) < 1e-10
    assert la.frob(lattice_meet(p, eye).mat - p.mat) < 1e-10
    assert la.frob(lattice_join(p, p.complement()).mat - np.eye(dim)) < 1e-10
    assert lattice_meet(p, p.complement()).rank == 0


def test_subprojection_order():
    from ccbench import is_subprojection

    p = Projection(np.diag([1.0, 0.0, 0.0]))
    q = Projection(np.diag([1.0, 1.0, 0.0]))
    assert is_subprojection(p, q)
    assert not is_subprojection(q, p)
    assert is_subprojection(p, p)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_state_eval_and_correlation_on_diagonal_model():
    phi = DensityState(np.diag([0.4, 0.3, 0.2, 0.1]))
    a = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = Projection(np.diag([1.0, 0.0, 1.0, 0.0]))
    assert state_eval(phi, a) == pytest.approx(0.7, abs=1e-14)
    assert state_eval(phi, b) == pytest.approx(0.6, abs=1e-14)
    # phi(A^B) - phi(A)phi(B) = 0.4 - 0.42
    assert correlation(phi, a, b) == pytest.approx(-0.02, abs=1e-14)


def test_correlation_requires_commuting_pair():
    phi = DensityState(np.eye(2) / 2)
    a = Projection(np.diag([1.0, 0.0]))
    h = Projection(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(CommutationError):
        correlation(phi, a, h)


def test_state_eval_dimension_mismatch():
    phi = DensityState(np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError):
        state_eval(phi, Projection(np.eye(3)))


# ---------------------------------------------------------------------------
# algebras and commutants
# ---------------------------------------------------------------------------


def test_full_algebra_commutant_is_scalars():
    n = MatrixAlgebra.full(3)
    c = n.commutant()
    assert c.n_basis == 1
    assert c.contains(np.eye(3))
    assert not c.contains(np.diag([1.0, 2.0, 3.0]))


def test_diagonal_algebra_is_maximal_abelian():
    n = MatrixAlgebra.diagonal(4)
    c = n.commutant()
    assert c.n_basis == n.n_basis == 4
    assert c.contains(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert not c.contains(np.ones((4, 4)))


def test_tensor_factor_commutant_swaps_legs():
    n1 = MatrixAlgebra.tensor_factor((2, 3), (0,))
    c = commutant(n1)
    # the commutant of M2 x I3 is I2 x M3: dimensions 9 vs 4
    assert c.n_basis == 9
    x = np.kron(np.eye(2), la.haar_unitary(3, np.random.default_rng(0)))
    assert c.contains(x)
    assert not c.contains(np.kron(np.diag([1.0, -1.0]), np.eye(3)))


def test_double_commutant_restores_factor():
    n = MatrixAlgebra.tensor_factor((2, 2), (1,))
    cc_alg = n.commutant().commutant()
    assert cc_alg.n_basis == n.n_basis
    for g in n.generators:
        assert cc_alg.contains(g)


def test_commutant_of_projection_pair_contains_both():
    rng = np.random.default_rng(7)
    u = la.haar_unitary(4, rng)
    a = Projection(u @ np.diag([1.0, 1, 0, 0]) @ la.dagger(u))
    b = Projection(u @ np.diag([1.0, 0, 1, 0]) @ la.dagger(u))
    c = MatrixAlgebra.from_generators([a.mat, b.mat]).commutant()
    for g in (a.mat, b.mat):
        assert max(la.comm_residual(g, e) for e in c.basis_iter()) < 1e-9


def test_algebra_closure_residual_small():
    n = MatrixAlgebra.from_generators(
        [np.diag([1.0, 1, 0, 0]), np.diag([1.0, 0, 1, 0])]
    )
    assert n.closure_residual() < 1e-10


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------


def test_conditional_expectation_onto_diagonal_is_pinching():
    rng = np.random.default_rng(3)
    m = la.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    e = conditional_expectation(m, MatrixAlgebra.diagonal(4))
    assert la.frob(e.mat - np.diag(np.diag(m))) < 1e-10


def test_conditional_expectation_onto_factor_is_scaled_partial_trace():
    rng = np.random.default_rng(4)
    m = la.hermitize(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    n = MatrixAlgebra.tensor_factor((2, 3), (0,))
    e = conditional_expectation(m, n)
    expected = la.embed_factor(la.partial_trace(m, (2, 3), (0,)) / 3.0, (2, 3), (0,))
    assert la.frob(e.mat - expected) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_conditional_expectation_properties(seed):
    rng = np.random.default_rng(40 + seed)
    m = la.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    n = MatrixAlgebra.tensor_factor((2, 2), (1,))
    e = conditional_expectation(m, n).mat
    # idempotent, trace preserving, unital
    assert la.frob(conditional_expectation(e, n).mat - e) < 1e-10
    assert abs(np.trace(e) - np.trace(m)) < 1e-10
    assert la.frob(conditional_expectation(np.eye(4), n).mat - np.eye(4)) < 1e-12


# ---------------------------------------------------------------------------
# product states and independence
# ---------------------------------------------------------------------------


def _split_algebras(d1, d2):
    return (
        MatrixAlgebra.tensor_factor((d1, d2), (0,)),
        MatrixAlgebra.tensor_factor((d1, d2), (1,)),
    )


def test_product_state_detected():
    rng = np.random.default_rng(11)
    rho = np.kron(la.random_density(2, rng), la.random_density(3, rng))
    n1, n2 = _split_algebras(2, 3)
    assert is_product_state(DensityState(rho), n1, n2)


def test_entangled_state_not_product():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    phi = DensityState(np.outer(psi, psi))
    n1, n2 = _split_algebras(2, 2)
    assert not is_product_state(phi, n1, n2)


def test_classically_correlated_state_not_product():
    phi = DensityState(np.diag([0.5, 0.0, 0.0, 0.5]))
    n1, n2 = _split_algebras(2, 2)
    assert not is_product_state(phi, n1, n2)


def test_is_product_rejects_overlapping_factors():
    n1 = MatrixAlgebra.tensor_factor((2, 2), (0,))
    with pytest.raises(CommutationError):
        is_product_state(DensityState(np.eye(4) / 4), n1, n1)


def test_logical_independence_exact_for_disjoint_factors():
    n1, n2 = _split_algebras(2, 2)
    verdict = logical_independence_check(n1, n2)
    assert verdict.independent is True
    assert verdict.method == "exact"


def test_conjugated_factors_are_not_a_tensor_split():
    # rotated by U, the two legs still commute but are no longer the legs
    # of the computational split: factorization is judged in the rotated
    # frame, and independence can only be sampled
    rng = np.random.default_rng(5)
    u = la.haar_unitary(4, rng)
    n1, n2 = (n.conjugated_by(u) for n in _split_algebras(2, 2))
    rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
    assert is_product_state(DensityState(u @ rho @ la.dagger(u)), n1, n2)
    assert not is_product_state(DensityState(rho), n1, n2)
    assert logical_independence_check(n1, n2).method == "sampled"


def test_logical_independence_sampled_finds_counterexample():
    # two copies of the diagonal algebra on the same leg share
    # complementary projections whose meet is zero
    n = MatrixAlgebra.diagonal(3)
    verdict = logical_independence_check(n, n, mode="sampled", samples=200, seed=1)
    assert verdict.independent is False
    p, q = verdict.counterexample
    assert lattice_meet(p, q).rank == 0


# ---------------------------------------------------------------------------
# randomized round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_faithful_state_spectrum(dim):
    rng = np.random.default_rng(dim)
    phi = rand_faithful_state(dim, rng)
    w = np.linalg.eigvalsh(phi.mat)
    assert w.min() > 0
    assert abs(w.sum() - 1.0) < 1e-12


def test_conjugated_algebra_membership():
    rng = np.random.default_rng(21)
    u = la.haar_unitary(4, rng)
    n = MatrixAlgebra.tensor_factor((2, 2), (0,)).conjugated_by(u)
    x = u @ np.kron(np.diag([1.0, -1.0]), np.eye(2)) @ la.dagger(u)
    assert n.contains(x)
    assert not n.contains(u @ np.kron(np.eye(2), np.diag([1.0, -1.0])) @ la.dagger(u))
    # an explicit basis is conjugated element by element
    d = MatrixAlgebra.diagonal(4).conjugated_by(u)
    assert d.n_basis == 4
    assert d.contains(x)
    assert not d.contains(u @ np.kron(PAULI_X, np.eye(2)) @ la.dagger(u))
