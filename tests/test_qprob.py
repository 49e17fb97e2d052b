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
    config,
    correlation,
    is_product_state,
    is_subprojection,
    lattice_join,
    lattice_meet,
    logical_independence_check,
    state_eval,
)
from ccbench import _linalg as la
from ccbench.errors import (
    CommutationError,
    DimensionMismatchError,
    NotProjectionError,
    StructureError,
)
from ccbench.config import TOL
from ccbench.qprob import EpsilonPureState, PairProduct, commuting_meet

from conftest import generators, rand_faithful_state

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


def eigvalsh_verdict(mat):
    """The eigvalsh-only DensityState check: ("reject", message) or
    ("accept", least eigenvalue)."""
    m = la.hermitize(np.asarray(mat, dtype=complex))
    least = float(np.linalg.eigvalsh(m)[0])
    if least < -TOL.state:
        return "reject", f"state has negative eigenvalue {least:.3e}"
    return "accept", least


def state_with_least_eigenvalue(least, dim=6, seed=0):
    """U diag(λ) U* of trace one whose least eigenvalue is ``least``."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.5, 1.5, dim - 1)
    lam = np.concatenate([[least], (1.0 - least) * rest / rest.sum()])
    u = la.haar_unitary(dim, rng)
    return (u * lam) @ la.dagger(u)


DELTA = 1e-12
LEAST_EIGENVALUES = [
    -2 * TOL.state, -TOL.state - DELTA, -TOL.state + DELTA, 0.0,
    TOL.faithful_eps - DELTA, TOL.faithful_eps + DELTA, 1e-3,
]


@pytest.mark.parametrize("least", LEAST_EIGENVALUES)
@pytest.mark.parametrize("dim", [2, 6, 40])
def test_density_state_verdicts_match_the_eigvalsh_route(least, dim):
    # the Cholesky route must accept, reject and call faithful exactly as
    # eigvalsh alone does, with the same messages, on both sides of each
    # threshold
    mat = state_with_least_eigenvalue(least, dim)
    verdict, detail = eigvalsh_verdict(mat)
    if verdict == "reject":
        with pytest.raises(ValidationError) as err:
            DensityState(mat)
        assert str(err.value) == detail and err.value.invariant == "tol_state"
        return
    phi = DensityState(mat)
    assert phi.faithful == (detail > TOL.faithful_eps)
    assert phi.min_eigenvalue == detail


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The dimension of each np.linalg.eigvalsh call, in order."""
    calls = []
    real = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_well_conditioned_state_needs_no_eigendecomposition(eigvalsh_calls):
    # a Cholesky factorization settles positivity and faithfulness; the
    # least eigenvalue is computed on first read, and faithful follows the
    # faithful_eps in force when it is read, not the one of construction
    mat = state_with_least_eigenvalue(1e-3, 40)
    calls = eigvalsh_calls
    phi = DensityState(mat)
    assert phi.faithful and calls == []
    with config.temporary(faithful_eps=2e-3):
        assert not phi.faithful
    assert calls == [40]
    with config.temporary(faithful_eps=5e-4):
        assert phi.faithful
    assert phi.faithful and calls == [40]
    assert phi.min_eigenvalue == pytest.approx(1e-3, abs=1e-14)


def test_cholesky_route_keeps_its_margin(eigvalsh_calls):
    # Cholesky accepts only states whose least eigenvalue clears
    # s0 = max(faithful_eps, −tol_state) by the documented backward-error
    # bound β = 8N(N+1)u(‖ρ‖_F + |s0|); closer to s0, eigvalsh decides
    dim, s0 = 40, max(TOL.faithful_eps, -TOL.state)
    calls = eigvalsh_calls
    for factor, route in ((0.5, [dim]), (4.0, [])):
        probe = state_with_least_eigenvalue(s0 + 1e-13, dim)
        beta = 8 * dim * (dim + 1) * np.finfo(float).eps / 2 * (la.frob(probe) + abs(s0))
        calls.clear()
        phi = DensityState(state_with_least_eigenvalue(s0 + factor * beta, dim))
        assert calls == route
        assert phi.faithful


@pytest.mark.parametrize("dim", [1, 4, 64, 512])
def test_state_eval_reads_the_conjugate_bit_for_bit(dim):
    # ρ is exactly Hermitian, so conj(ρ) equals ρᵀ entry for entry and the
    # expectation is the strided ρᵀ sum to the bit
    rng = np.random.default_rng(dim)
    phi = DensityState(la.random_faithful_density(dim, rng))
    for x in (
        la.haar_projection(dim, max(1, dim // 2), rng),
        la.hermitize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
    ):
        assert state_eval(phi, x) == float(complex(np.sum(phi.mat.T * x)).real)


@st.composite
def projections_of_every_rank(draw):
    """A projection of dimension <= 64 and any rank 0 < k <= N: Haar, on
    leading coordinates, or on scattered coordinates."""
    dim = draw(st.integers(1, 64))
    rank = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["haar", "diagonal", "permuted"]))
    if kind == "haar":
        return la.haar_projection(dim, rank, rng), rank
    on = np.arange(dim) < rank
    if kind == "permuted":
        on = rng.permutation(on)
    return np.diag(on.astype(complex)), rank


@given(projections_of_every_rank())
@settings(max_examples=150, deadline=None)
def test_range_basis_spans_the_projection(case):
    p, rank = case
    q = la.range_basis(p, rank)
    assert q.shape == (p.shape[0], rank)
    assert la.frob(la.dagger(q) @ q - np.eye(rank)) <= 1e-12
    assert la.frob(q @ la.dagger(q) - p) <= 1e-12


def test_projection_from_span():
    v = np.array([1.0, 0.0, 1.0]).astype(complex) / np.sqrt(2.0)
    p = Projection.from_span(v[:, None])
    assert p.rank == 1
    assert la.frob(p.mat - np.outer(v, v.conj())) < 1e-12
    # the constructor proper rejects what a non-orthonormal span would give
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]).astype(complex)
    with pytest.raises(ValidationError):
        Projection(cols @ cols.conj().T)


def spectral_reference(mat):
    """Projection validation by full spectrum: the rank, or the message of
    the NotProjectionError the constructor must raise."""
    m = la.hermitize(np.asarray(mat, dtype=complex))
    idem = float(np.max(np.abs(m @ m - m)))
    if idem > config.TOL.proj:
        return f"matrix is not idempotent (residual {idem:.3e} > {config.TOL.proj:g})"
    eigs = np.linalg.eigvalsh(m)
    if float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)))) > config.TOL.proj:
        return "projection spectrum is not within tol_proj of {0, 1}"
    return int(np.sum(eigs > 0.5))


def validated(mat):
    try:
        return Projection(mat).rank
    except NotProjectionError as exc:
        return str(exc)


@st.composite
def near_projections(draw):
    """A Haar-basis projection of random rank plus Hermitian noise of
    Frobenius norm 1e-14..1e-1, or with one eigenvalue moved by up to three
    times that scale; paired with a tol_proj override or None."""
    dim = draw(st.integers(2, 64))
    rank = draw(st.integers(0, dim))
    scale = 10.0 ** draw(st.floats(-14.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = la.haar_unitary(dim, rng)
    mat = u[:, :rank] @ la.dagger(u[:, :rank])
    if draw(st.booleans()):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        noise = la.hermitize(g)
        mat = mat + noise * (scale / la.frob(noise))
    else:
        v = u[:, int(rng.integers(dim))]
        mat = mat + draw(st.floats(-3.0, 3.0)) * scale * np.outer(v, v.conj())
    proj = draw(st.sampled_from([None, 1e-6, 1e-3, 0.05, 0.2]))
    return mat, proj


@given(near_projections())
@settings(max_examples=80, deadline=None)
def test_projection_validation_matches_spectral_reference(case):
    mat, proj = case
    overrides = {} if proj is None else {"proj": proj}
    with config.temporary(**overrides):
        assert validated(mat) == spectral_reference(mat)


def test_projection_rank_where_the_trace_misleads():
    # δ = 8 * 0.0101 passes δ <= tol_proj / 2, but tr = 64.64 rounds to 65:
    # only δ < 1/(4√d) sends this to the spectrum, which gives rank 64
    with config.temporary(proj=0.2):
        assert Projection(1.01 * np.eye(64)).rank == 64


@pytest.mark.parametrize("mat", [np.diag([0.78, 0.0]), np.array([[0.75]])])
def test_projection_defect_within_tol_but_spectrum_outside(mat):
    # |λ² − λ| <= tol_proj while λ is 0.22 or 0.25 from {0, 1}: the defect
    # bound decides only below tol_proj / 2, so the spectrum rejects these
    with config.temporary(proj=0.2):
        with pytest.raises(NotProjectionError, match="spectrum"):
            Projection(mat)


def test_clean_projection_is_validated_without_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(5)
    mat = la.embed_factor(la.haar_projection(8, 3, rng), (2,) * 9, (2, 3, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a clean projection")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    p = Projection(mat)
    assert (p.dim, p.rank) == (512, 3 * 64)


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
# one product per pair, and embedded projections
# ---------------------------------------------------------------------------


SPAN_EMBEDDINGS = [((2, 2), (1,)), ((2, 2, 2), (2, 0)), ((2, 3), (1,)), ((3, 2), (0,)), ((2, 2, 2), (1,))]


@st.composite
def hermitian_pairs(draw):
    """Two Hermitian operators: a commuting pair (one eigenbasis, eigenvalues
    repeated or not) perturbed by 0, 1e-12 or 1e-8, or an unrelated pair.
    The second may be a ``from_span`` projection of any rank, onto
    eigenvectors of the first (so commuting) up to the same perturbation,
    or onto Haar columns; or such a projection on some tensor factors,
    ``embedded`` in the whole space (keeping W ⊗ I when its rank is at most
    half its dimension), against a first operator that is a sum of a local
    term and a term on the other factors, perturbed likewise, or unrelated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    kind = draw(st.sampled_from(["commuting", "unrelated", "span", "embedded"]))
    if kind == "embedded":
        dims, acting = draw(st.sampled_from(SPAN_EMBEDDINGS))
        rest = tuple(i for i in range(len(dims)) if i not in acting)
        d_act = int(np.prod([dims[i] for i in acting]))
        d_rest = int(np.prod([dims[i] for i in rest]))
        u = la.haar_unitary(d_act, rng)
        rank = draw(st.integers(1, d_act))
        cols = u[:, rng.permutation(d_act)[:rank]]
        n = d_act * d_rest
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-8, None]))
        if eps is None:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            z = rng.standard_normal((d_rest, d_rest)) + 1j * rng.standard_normal((d_rest, d_rest))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = (
                la.embed_factor((u * rng.integers(-2, 3, d_act)) @ la.dagger(u), dims, acting)
                + la.embed_factor(la.hermitize(z), dims, rest)
                + eps * g
            )
        y = Projection.from_span(cols).embedded(dims, acting)
        return HermitianOperator(scale * la.hermitize(x)), y
    if kind == "span":
        u = la.haar_unitary(dim, rng)
        x = (u * rng.integers(-2, 3, dim)) @ la.dagger(u)
        rank = draw(st.integers(1, dim))
        if draw(st.booleans()):
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            eps = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
            cols, _ = np.linalg.qr(u[:, rng.permutation(dim)[:rank]] + eps * g)
        else:
            cols = la.haar_unitary(dim, rng)[:, :rank]
        return HermitianOperator(scale * la.hermitize(x)), Projection.from_span(cols)
    if kind == "commuting":
        u = la.haar_unitary(dim, rng)
        x, y = ((u * rng.integers(-2, 3, dim)) @ la.dagger(u) for _ in range(2))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = y + draw(st.sampled_from([0.0, 1e-12, 1e-8])) * g
    else:
        x, y = (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(2)
        )
    return HermitianOperator(la.hermitize(x)), HermitianOperator(scale * la.hermitize(y))


@given(hermitian_pairs())
@settings(max_examples=120, deadline=None)
def test_pair_product_commutator_norm_matches_two_products(pair):
    x, y = pair
    ref = la.comm_residual(x.mat, y.mat)
    prod = PairProduct(x, y)
    bound = 1e-12 * (1.0 + la.frob(x.mat) * la.frob(y.mat))
    if isinstance(y, Projection) and 2 * y.rank <= y.dim:
        # a span of at most half the dimension is multiplied as (XW)W*
        assert la.frob(prod.mat - x.mat @ y.mat) <= bound
    else:
        assert np.array_equal(prod.mat, x.mat @ y.mat)
    assert abs(prod.commutator_norm - ref) <= bound
    if ref > TOL.comm:
        with pytest.raises(CommutationError, match="X and Y do not commute"):
            prod.require_commuting("X and Y")
    else:
        assert prod.require_commuting("X and Y") is prod


@given(hermitian_pairs(), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_pair_product_weight_and_order_match_the_dense_product(pair, seed):
    # the weight Re tr(ρXY) and the order residual, for a span read off XW
    x, y = pair
    phi = DensityState(la.random_faithful_density(x.dim, np.random.default_rng(seed)))
    prod = PairProduct(x, y)
    m = x.mat @ y.mat
    bound = 1e-12 * (1.0 + la.frob(x.mat) * la.frob(y.mat))
    assert abs(prod.weight(phi) - np.trace(phi.mat @ m).real) <= bound
    ref = la.frob(m - y.mat) / max(1.0, la.frob(y.mat))
    assert abs(prod.order_residual - ref) <= bound


def test_pair_product_reads_meet_weight_and_order_off_one_product():
    phi = DensityState(np.diag([0.4, 0.3, 0.2, 0.1]))
    a = Projection(np.diag([1.0, 1.0, 0.0, 0.0]))
    b = Projection(np.diag([1.0, 0.0, 1.0, 0.0]))
    ab = PairProduct(a, b)
    assert np.array_equal(ab.meet().mat, np.diag([1.0, 0, 0, 0]))
    assert ab.weight(phi) == state_eval(phi, ab.meet()) == 0.4
    meet = ab.meet()
    assert PairProduct(a, meet).order_residual == 0.0  # A ^ B <= A
    assert PairProduct(meet, a).order_residual > 0.5  # A is not below A ^ B
    for p, q in ((meet, a), (a, meet), (a, b), (b, b)):
        assert is_subprojection(p, q) == (PairProduct(q, p).order_residual <= TOL.proj)


def test_meet_of_a_noncommuting_pair_is_validated_and_refused():
    # two Haar rank-2 projections of C⁴ with ‖[A, B]‖_F = 0.75: their
    # defects cannot settle hermitize(AB), which is validated and refused
    rng = np.random.default_rng(0)
    a, b = (Projection(la.haar_projection(4, 2, rng)) for _ in range(2))
    pair = PairProduct(a, b)
    assert pair.commutator_norm == pytest.approx(0.75, abs=0.01)
    assert pair.meet_bound > TOL.proj
    with pytest.raises(NotProjectionError):
        pair.meet()


EMBEDDINGS = [((2, 2, 2), (2, 0)), ((2, 3, 2), (1,)), ((2,) * 5, (4, 1, 2)), ((3, 2), (0, 1))]


@pytest.mark.parametrize("dims, acting", EMBEDDINGS)
def test_embedded_projection_is_the_validated_embedding(dims, acting):
    rng = np.random.default_rng(len(dims) + 10 * len(acting))
    d_act = int(np.prod([dims[i] for i in acting]))
    for rank in range(d_act + 1):
        m = la.haar_projection(d_act, rank, rng) if rank else np.zeros((d_act, d_act))
        # an exactly Hermitian input and one hermitized on validation
        g = rng.standard_normal((d_act, d_act)) + 1j * rng.standard_normal((d_act, d_act))
        for mat in (m, m + 1e-13 * g):
            local = Projection(mat)
            emb = local.embedded(dims, acting)
            ref = Projection(la.embed_factor(mat, dims, acting))
            assert np.array_equal(emb.mat, ref.mat)
            assert emb.rank == ref.rank == rank * int(np.prod(dims)) // d_act
            assert not emb.mat.flags.writeable


@pytest.mark.parametrize("dims, acting", EMBEDDINGS)
def test_embedded_projection_keeps_its_span(dims, acting):
    # a from_span projection of at most half its dimension passes on W ⊗ I:
    # orthonormal columns spanning the embedded range
    rng = np.random.default_rng(len(dims))
    d_act = int(np.prod([dims[i] for i in acting]))
    for rank in range(1, d_act + 1):
        local = Projection.from_span(la.haar_unitary(d_act, rng)[:, :rank])
        emb = local.embedded(dims, acting)
        w = emb._span
        if 2 * rank > d_act:
            assert w is None
            continue
        assert w.shape == (emb.dim, emb.rank)
        assert np.max(np.abs(la.dagger(w) @ w - np.eye(emb.rank))) < 1e-14
        assert np.max(np.abs(w @ la.dagger(w) - emb.mat)) < 1e-14


@pytest.mark.parametrize("keep", [(0, 2), (2, 0), (3, 1, 0), (1, 3), (2,)])
def test_partial_trace_follows_the_keep_order(keep):
    # the reduced factors come in the order keep lists them, as embed_factor
    # reads its acting factors
    rng = np.random.default_rng(sum(keep))
    dims = (2, 3, 2, 2)
    locs = [la.random_density(d, rng) for d in dims]
    full = locs[0]
    for loc in locs[1:]:
        full = np.kron(full, loc)
    expected = locs[keep[0]]
    for i in keep[1:]:
        expected = np.kron(expected, locs[i])
    assert np.max(np.abs(la.partial_trace(full, dims, keep) - expected)) < 1e-14


def _local_rejects(d_act):
    """Inputs refused for idempotence, for the spectrum, and for symmetry."""
    v = np.full(d_act, 1.0 / np.sqrt(d_act))
    half = np.zeros((d_act, d_act))
    half[0, 0], half[1, 1] = 1.0, 0.5
    skew = np.zeros((d_act, d_act), dtype=complex)
    skew[0, 0], skew[0, 1] = 1.0, 1e-6
    # 3e-9 |v><v|: every defect entry is below tol_proj, the eigenvalue 3e-9 is not
    return [half, 3e-9 * np.outer(v, v), skew]


@pytest.mark.parametrize("dims, acting", EMBEDDINGS)
def test_embedding_refuses_what_the_local_validation_refuses(dims, acting):
    d_act = int(np.prod([dims[i] for i in acting]))
    messages = []
    for mat in _local_rejects(d_act):
        with pytest.raises(ValidationError) as local:
            Projection(mat)
        with pytest.raises(ValidationError) as full:
            Projection(la.embed_factor(mat, dims, acting))
        assert type(local.value) is type(full.value)
        assert str(local.value) == str(full.value)
        messages.append(str(local.value))
    assert "idempotent" in messages[0]
    assert "spectrum" in messages[1]
    assert "self-adjoint" in messages[2]


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
# algebras
# ---------------------------------------------------------------------------


def test_diagonal_algebra_is_maximal_abelian():
    # four commuting diagonal units on a 4-dim space: abelian, and of the
    # largest dimension an abelian subalgebra of M4 can have
    n = MatrixAlgebra.diagonal((4,), (0,))
    units = list(n.basis_iter())
    assert n.n_basis == len(units) == 4
    assert max(la.comm_residual(x, y) for x in units for y in units) == 0.0
    assert n.contains(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert not n.contains(np.ones((4, 4)))
    assert all(n.contains(g) for g in generators(n))
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = n.random_projection(rng)
        assert n.contains(p.mat) and 1 <= p.rank < 4


def closure_residual(alg: MatrixAlgebra, max_pairs: int = 400, seed: int = 0) -> float:
    """Largest projection residual of pairwise basis products (sampled),
    the local matrix units embedded in the split."""
    mats = [alg.embed(e) for e in alg.basis_iter()]
    k = len(mats)
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    if len(pairs) > max_pairs:
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in idx]
    worst = 0.0
    for i, j in pairs:
        prod = mats[i] @ mats[j]
        worst = max(worst, la.frob(prod - alg.project(prod)))
    return worst


def test_algebra_closure_residual_small():
    # diag(1,1,0,0) and diag(1,0,1,0) generate the diagonal algebra on both
    # factors of a (2, 2) split; it, and both kinds on two of three
    # factors, are closed under products
    pair = MatrixAlgebra.diagonal((2, 2), (0, 1))
    assert all(pair.contains(np.diag(g)) for g in ([1.0, 1, 0, 0], [1.0, 0, 1, 0]))
    for n in (pair, *(make((2, 3, 2), (0, 2)) for make in (MatrixAlgebra.diagonal, MatrixAlgebra.tensor_factor))):
        assert closure_residual(n) < 1e-10


def test_factor_generators_are_built_on_first_read(monkeypatch):
    # the algebra keeps its generators local; compressing embeds nothing,
    # projecting embeds its one compressed result, and only a reader of
    # the dense generators embeds them
    real = la.embed_factor
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(la, "embed_factor", counting)
    dims, acting = (2,) * 6, (1, 2, 4)
    rng = np.random.default_rng(8)
    m = la.hermitize(rng.standard_normal((64, 64)))
    n = MatrixAlgebra.tensor_factor(dims, acting)
    n.compress(m)
    assert calls == []
    n.project(m)
    assert calls == [acting]
    local = n.local_generators()
    assert [i for i, _ in local] == [1, 1, 2, 2, 4, 4] and len(calls) == 1
    dense = generators(n)
    assert all(np.array_equal(g, real(x, dims, (i,))) for g, (i, x) in zip(dense, local))
    assert len(calls) == 1 + 2 * len(acting)


@pytest.mark.parametrize("acting", [(0, 0), (1, 0, 1)])
def test_repeated_acting_factors_are_refused(acting):
    for make in (MatrixAlgebra.tensor_factor, MatrixAlgebra.diagonal):
        with pytest.raises(DimensionMismatchError, match="repeat"):
            make((2, 2), acting)
    with pytest.raises(DimensionMismatchError, match="out of range"):
        MatrixAlgebra.tensor_factor((2, 2), (2,))


def test_conjugating_a_large_factor_is_refused():
    # no conjugated algebra is a tensor factor of the split, whatever its size
    for dims, acting in (((2,) * 6, (0, 1)), ((2, 2), (0,))):
        n = MatrixAlgebra.tensor_factor(dims, acting)
        u = la.haar_unitary(n.dim, np.random.default_rng(2))
        with pytest.raises(StructureError, match="not a tensor factor"):
            n.conjugated_by(u)


# ---------------------------------------------------------------------------
# conditional expectation
# ---------------------------------------------------------------------------


def test_conditional_expectation_onto_diagonal_is_pinching():
    rng = np.random.default_rng(3)
    m = la.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    e = MatrixAlgebra.diagonal((4,), (0,)).project(m)
    assert la.frob(e - np.diag(np.diag(m))) < 1e-10
    # on one factor of a split: the scaled partial trace, pinched
    e = MatrixAlgebra.diagonal((2, 2), (1,)).project(m)
    reduced = la.partial_trace(m, (2, 2), (1,)) / 2.0
    assert la.frob(e - np.kron(np.eye(2), np.diag(np.diag(reduced)))) < 1e-12


def test_conditional_expectation_onto_factor_is_scaled_partial_trace():
    rng = np.random.default_rng(4)
    m = la.hermitize(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    n = MatrixAlgebra.tensor_factor((2, 3), (0,))
    e = n.project(m)
    expected = la.embed_factor(la.partial_trace(m, (2, 3), (0,)) / 3.0, (2, 3), (0,))
    assert la.frob(e - expected) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_conditional_expectation_properties(seed):
    rng = np.random.default_rng(40 + seed)
    m = la.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for n in (MatrixAlgebra.tensor_factor((2, 2), (1,)), MatrixAlgebra.diagonal((2, 2), (1,))):
        e = n.project(m)
        # self-adjoint, idempotent, trace preserving, unital
        assert la.herm_residual(e) < 1e-12
        assert la.frob(n.project(e) - e) < 1e-10
        assert abs(np.trace(e) - np.trace(m)) < 1e-10
        assert la.frob(n.project(np.eye(4)) - np.eye(4)) < 1e-12


# ---------------------------------------------------------------------------
# operators on selected tensor factors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("acting", [(0, 1), (2, 0), (1,)])
def test_apply_factor_matches_embedding(acting):
    dims = (2, 3, 2)
    rng = np.random.default_rng(50 + len(acting))
    d_act = int(np.prod([dims[i] for i in acting]))
    x = rng.standard_normal((d_act, d_act)) + 1j * rng.standard_normal((d_act, d_act))
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    big = la.embed_factor(x, dims, acting)
    assert la.frob(la.apply_factor(x, m, dims, acting) - big @ m) < 1e-12
    # right multiplication through transposes
    assert la.frob(la.apply_factor(x.T, m.T, dims, acting).T - m @ big) < 1e-12


def test_reversed_pair_puts_the_first_factor_on_the_first_site():
    rng = np.random.default_rng(53)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    # a on factor 2, b on factor 0
    expected = np.kron(np.kron(b, np.eye(3)), a)
    assert la.frob(la.embed_factor(np.kron(a, b), (2, 3, 2), (2, 0)) - expected) < 1e-12
    assert la.frob(la.apply_factor(np.kron(a, b), m, (2, 3, 2), (2, 0)) - expected @ m) < 1e-12


@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64, np.float32])
def test_hermitize_keeps_the_bytes_and_dtype_of_the_formula(dtype):
    # one conjugated copy of m.T, added to m in place and halved, is
    # (m + m*)/2 bit for bit, on contiguous and strided inputs alike
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5, 8, 31, 64, 255, 256, 257, 512):
        g = rng.standard_normal((n + 1, 2 * n)) + 1j * rng.standard_normal((n + 1, 2 * n))
        base = (g if np.issubdtype(dtype, np.complexfloating) else g.real).astype(dtype)
        square = base[:n, :n]
        for m in (np.ascontiguousarray(square), square, base[1:, ::2], np.asfortranarray(square), square.T):
            ref = (m + m.conj().T) / 2
            out = la.hermitize(m)
            assert out.dtype == ref.dtype and out.flags.c_contiguous
            assert out.tobytes() == ref.tobytes()
            assert la.adjoint_copy(m).tobytes() == m.conj().T.tobytes()


def test_factored_projections_answer_from_their_factors():
    # an embedded projection, one embedded from a span, and the meet of two
    # on disjoint sites (kept as P_A ⊗ P_B) build no matrix until it is read,
    # and their products, trace, norm and diagonal agree with it
    rng = np.random.default_rng(23)
    dims = (2, 3, 2, 2)
    pa = Projection(la.haar_projection(4, 2, rng)).embedded(dims, (3, 0))
    pb = Projection(la.haar_projection(3, 1, rng))
    spanned = Projection.from_span(la.haar_unitary(6, rng)[:, :2]).embedded(dims, (1, 2))
    cases = [pa, pb.embedded(dims, (1,)), spanned, commuting_meet(pa, pb.embedded(dims, (1,)))]
    assert len(cases[-1].factor) == 2 and cases[-1].rank == 2 * 1 * 2
    for p in cases:
        assert p._mat is None
        block, vec = rng.standard_normal((24, 3)) + 0j, rng.standard_normal(24) + 0j
        ranks, trace, frob, diag = p.rank, p.trace, p.frob, p.diagonal()
        assert p._mat is None
        m = p.mat
        assert not m.flags.writeable and p.mat is m
        assert la.frob(p.times(block) - m @ block) < 1e-12
        assert la.frob(p.times(vec) - m @ vec) < 1e-12 and p.times(vec).shape == (24,)
        assert abs(trace - np.trace(m).real) < 1e-12 and ranks == round(trace)
        assert abs(frob - la.frob(m)) < 1e-12
        assert np.array_equal(diag, np.diagonal(m).real)
    # factors validated with a defect near 1e-11: the meet's stated defect
    # still dominates the one its built matrix measures
    noisy = [Projection(x + 1e-11 * la.hermitize(rng.standard_normal(x.shape)))
             for x in (la.haar_projection(4, 2, rng), la.haar_projection(3, 1, rng))]
    meet = commuting_meet(noisy[0].embedded(dims, (3, 0)), noisy[1].embedded(dims, (1,)))
    assert 1e-13 < la.frob(meet.mat @ meet.mat - meet.mat) <= meet.defect


def test_apply_factor_rejects_a_mismatched_operator():
    with pytest.raises(DimensionMismatchError):
        la.apply_factor(np.eye(2), np.eye(12), (2, 3, 2), (1,))


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


def unit_sweep_is_product(rho, dims, sides, u=None) -> bool:
    """The scale-free product verdict, swept on the full space: d |φ(XY) −
    φ(X)φ(Y)| <= product_tol for every pair of trace-orthonormal matrix
    units X, Y of the two sides, each (factor, diagonal) and embedded on
    ``dims`` (only diagonal units on a diagonal side); with ``u``, the
    units and the state rotated by it. φ(XY) is Σ (ρX)ᵀ ⊙ Y and φ(X) is
    Σ conj(ρ) ⊙ X, for the exactly Hermitian ρ of a DensityState."""
    d = rho.shape[0]
    u = np.eye(d) if u is None else u
    r = DensityState(u @ rho @ la.dagger(u)).mat

    def units(factor, diagonal):
        k = dims[factor]
        for i in range(k):
            for j in (i,) if diagonal else range(k):
                e = np.zeros((k, k), dtype=complex)
                e[i, j] = 1.0 / np.sqrt(d // k)
                yield u @ la.embed_factor(e, dims, (factor,)) @ la.dagger(u)

    xs, ys = (list(units(*side)) for side in sides)
    weights = [[complex(np.sum(r.conj() * x)) for x in side] for side in (xs, ys)]
    return all(
        d * abs(complex(np.sum((r @ x).T * y)) - wx * wy) <= TOL.product
        for x, wx in zip(xs, weights[0]) for y, wy in zip(ys, weights[1])
    )


def _outer_algebras(diagonal_right=False):
    dims = (2, 3, 2)
    right = MatrixAlgebra.diagonal if diagonal_right else MatrixAlgebra.tensor_factor
    return MatrixAlgebra.tensor_factor(dims, (0,)), right(dims, (2,))


def test_product_state_on_outer_factors_matches_explicit_route():
    # factors 0 and 2 of a (2, 3, 2) split: the factor route reduces to the
    # outer pair, tracing the middle factor out; the unit sweep judges the
    # same algebras on the full space
    rng = np.random.default_rng(23)
    dims = (2, 3, 2)
    n1, n2 = _outer_algebras()
    product = np.kron(la.random_density(6, rng), la.random_density(2, rng))
    mid = la.random_density(3, rng)
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    correlated = 0.5 * np.kron(np.kron(up, mid), up) + 0.5 * np.kron(np.kron(down, mid), down)
    for rho, expected in ((product, True), (correlated, False)):
        assert is_product_state(DensityState(rho), n1, n2) is expected
        assert unit_sweep_is_product(rho, dims, ((0, False), (2, False))) is expected


@pytest.mark.parametrize("delta", [1e-10, 3e-10, 1e-9, 1.9e-9, 2.1e-9, 3e-9, 1e-8, 2e-8, 3e-8, 1e-7])
def test_product_verdict_does_not_depend_on_the_representation(delta):
    # factors 0 and 2 of a (2, 3, 2) split, a correlation of size delta
    # between them: the factor route compares the 4-dim outer pair's entries,
    # the unit sweep, plain and Haar-rotated, the full 12-dim space, and all
    # three must give one verdict near the product_tol threshold
    dims = (2, 3, 2)
    n1, n2 = _outer_algebras()
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    mid = np.eye(3) / 3.0
    corr = 0.5 * np.kron(np.kron(up, mid), up) + 0.5 * np.kron(np.kron(down, mid), down)
    rho = (1.0 - delta) * np.eye(12) / 12.0 + delta * corr
    u = la.haar_unitary(12, np.random.default_rng(0))
    sides = ((0, False), (2, False))
    verdicts = {
        is_product_state(DensityState(rho), n1, n2),
        unit_sweep_is_product(rho, dims, sides),
        unit_sweep_is_product(rho, dims, sides, u),
    }
    assert len(verdicts) == 1
    if delta in (1e-10, 1e-7):
        assert verdicts == {delta < 1e-9}
    if delta in (1.9e-9, 2.1e-9):
        assert verdicts == {delta < 2e-9}


@pytest.mark.parametrize("delta", [1e-10, 1e-9, 3e-9, 1e-8, 1e-7])
def test_product_verdict_with_a_diagonal_side_matches_the_unit_sweep(delta):
    # a correlation in the off-diagonal entries of the right factor, which a
    # diagonal right side cannot see, next to a diagonal one of size delta
    dims = (2, 3, 2)
    n1, full = _outer_algebras()
    _, diag = _outer_algebras(diagonal_right=True)
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    mid = np.eye(3) / 3.0
    rho = np.eye(12) / 12.0 + 0.1 * np.kron(np.kron(x, mid), x) / 4.0
    rho = rho + delta * np.kron(np.kron(z, mid), z) / 4.0
    u = la.haar_unitary(12, np.random.default_rng(1))
    verdicts = {
        is_product_state(DensityState(rho), n1, diag),
        unit_sweep_is_product(rho, dims, ((0, False), (2, True))),
        unit_sweep_is_product(rho, dims, ((0, False), (2, True)), u),
    }
    assert len(verdicts) == 1
    if delta in (1e-10, 1e-7):
        assert verdicts == {delta < 1e-9}
    assert not is_product_state(DensityState(rho), n1, full)


def test_is_product_state_checks_the_state_dimension():
    n1, n2 = _split_algebras(2, 3)
    with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
        is_product_state(DensityState(np.eye(4) / 4), n1, n2)


def test_logical_independence_exact_for_disjoint_factors():
    # disjoint factors are logically independent, so the check passes by
    # returning nothing; its refusals are tested below
    n1, n2 = _split_algebras(2, 2)
    for pair in ((n1, n2), (MatrixAlgebra.diagonal((2, 2), (0,)), n2)):
        assert logical_independence_check(*pair) is None


def test_conjugated_factors_are_not_a_tensor_split():
    # rotated by U, the two legs still commute but are no longer the legs
    # of the computational split: the rotation is refused, and a rotated
    # product state is judged in the split's own frame
    rng = np.random.default_rng(5)
    u = la.haar_unitary(4, rng)
    n1, n2 = _split_algebras(2, 2)
    with pytest.raises(StructureError, match="conjugate the state instead"):
        n1.conjugated_by(u)
    rho = np.kron(la.random_density(2, rng), la.random_density(2, rng))
    assert is_product_state(DensityState(rho), n1, n2)
    assert not is_product_state(DensityState(u @ rho @ la.dagger(u)), n1, n2)


def test_algebras_on_different_splits_are_refused():
    n1 = MatrixAlgebra.tensor_factor((2, 3), (0,))
    n2 = MatrixAlgebra.tensor_factor((3, 2), (0,))
    phi = DensityState(np.eye(6) / 6)
    for check in (lambda: is_product_state(phi, n1, n2), lambda: logical_independence_check(n1, n2)):
        with pytest.raises(StructureError, match="different splits"):
            check()
    with pytest.raises(DimensionMismatchError, match="different spaces"):
        logical_independence_check(n1, MatrixAlgebra.tensor_factor((2, 2), (0,)))


def test_overlapping_diagonal_algebras_are_refused():
    # two copies of the diagonal algebra on one leg commute, but they share
    # complementary projections whose meet is zero: not logically
    # independent, and not on disjoint factors, so refused
    n = MatrixAlgebra.diagonal((3, 2), (0,))
    p, q = (Projection(la.embed_factor(np.diag(m), (3, 2), (0,))) for m in ([1.0, 0, 0], [0, 1.0, 1]))
    assert lattice_meet(p, q).rank == 0
    with pytest.raises(CommutationError, match="share factors"):
        logical_independence_check(n, n)
    with pytest.raises(CommutationError, match="share factors"):
        is_product_state(DensityState(np.eye(6) / 6), n, MatrixAlgebra.tensor_factor((3, 2), (0, 1)))


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


# ---------------------------------------------------------------------------
# an ε-pure state answers from ψ and ε as its matrix does
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(4, 9),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.01, 1.0),
)
def test_epsilon_pure_state_answers_as_its_matrix(n, seed, epsilon):
    # expectation, times, compressed and reduced through ψ agree with the
    # dense route on the matrix, for embedded projections, spans and dense
    # operators, and none of them builds the matrix
    rng = np.random.default_rng(seed)
    big = 2**n
    dims = (2,) * n
    psi = la.random_pure_state(big, rng)
    phi = EpsilonPureState(psi, epsilon)
    dense = DensityState((1.0 - epsilon) * np.outer(psi, psi.conj()) + epsilon * np.eye(big) / big)

    acting = tuple(rng.permutation(n)[: int(rng.integers(1, 4))])
    local = Projection(la.haar_projection(2 ** len(acting), int(rng.integers(1, 2 ** len(acting))), rng))
    k = int(rng.integers(1, big // 2 + 1))
    span = np.linalg.qr(rng.standard_normal((big, k)) + 1j * rng.standard_normal((big, k)))[0]
    ops = (
        local.embedded(dims, acting),
        Projection.from_span(span),
        la.hermitize(rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))),
    )
    for x in ops:
        assert abs(phi.expectation(x) - dense.expectation(x)) <= 1e-13
        assert abs(state_eval(phi, x) - state_eval(dense, x)) <= 1e-13
    assert np.max(np.abs(phi.times(span) - dense.times(span))) <= 1e-13
    assert np.max(np.abs(phi.compressed(span) - dense.compressed(span))) <= 1e-13
    keep = tuple(rng.permutation(n)[: int(rng.integers(1, n))])
    assert np.max(np.abs(phi.reduced(dims, keep) - dense.reduced(dims, keep))) <= 1e-13
    assert phi._mat is None
    assert phi.mat.tobytes() == dense.mat.tobytes()
