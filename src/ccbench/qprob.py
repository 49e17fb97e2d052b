"""Finite-dimensional quantum probability kernel.

Validated operator types (Hermitian operators, projections, density states),
the projection lattice (meet, join, complement; ``commuting_meet`` for a
commuting pair), state evaluation / correlation of commuting projections,
and local algebras: ``MatrixAlgebra`` is the full matrix algebra on some
tensor factors of a split, or its diagonal, with product-state and
logical-independence checks for two of them on disjoint factors.

The commoncause module checks the four common-cause conditions for
classical events and for commuting projections with one kernel over the
six conditional weights; on diagonal states and mask projections the two
verifications agree to rounding, which the test suite checks.
"""

from __future__ import annotations

import functools
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _linalg as la
from .config import TOL
from .errors import (
    CommutationError,
    DimensionMismatchError,
    NotFaithfulError,
    NotProjectionError,
    StructureError,
    ValidationError,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# ---------------------------------------------------------------------------
# operator types
# ---------------------------------------------------------------------------


class HermitianOperator:
    """A validated self-adjoint matrix. Immutable after construction."""

    def __init__(self, mat):
        m = la.as_square(mat, "operator")
        resid = la.herm_residual(m)
        if resid > TOL.herm:
            raise ValidationError(
                f"operator is not self-adjoint (residual {resid:.3e} > {TOL.herm:g})",
                invariant="tol_herm",
            )
        self._mat = la.hermitize(m)
        self._mat.flags.writeable = False

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def times(self, m: np.ndarray) -> np.ndarray:
        """This operator times an N-vector or N × k block m."""
        return self.mat @ m

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(HermitianOperator):
    """An orthogonal projection: self-adjoint, idempotent, spectrum in {0, 1}.

    Validation checks the largest entry of the defect D = P² − P against
    tol_proj, then decides the spectrum from δ = ‖D‖_F where it can. Every
    eigenvalue λ of P has |λ² − λ| ≤ δ, so λ lies within δ/(1 − 2δ) of
    {0, 1} and |tr P − rank| ≤ 2√d δ. Hence δ ≤ tol_proj/2 with
    δ < 1/(4√d) accepts P, with rank round(tr P), and no eigendecomposition.
    Only when that bound cannot decide does ``eigvalsh`` test the spectrum;
    either way the same inputs are accepted, with the same rank.

    A validated projection keeps ``defect``, an upper bound on the exact
    ‖P² − P‖_F of its stored matrix: (1 + γ)(δ + γ‖P‖_F²), with γ =
    ``la.gamma(d)`` covering the rounding of the product that measured δ.

    The trusted constructors ``from_span``, ``complement`` and ``embedded``
    (P ⊗ I of a P validated on its factors), and the meets ``commuting_meet``
    settles, skip validation and build their exactly Hermitian matrix only
    when ``mat`` is read (then cached, read-only); ``times``, ``trace`` and
    ``frob`` go through their factors or kept columns instead. ``from_span``
    keeps its orthonormal columns W, and ``embedded`` passes them on as
    W ⊗ I. ``embedded`` keeps ``factor`` = ((P, dims, acting),), its support,
    and scales P's ``defect`` by √(N/d), since (P ⊗ I)² − P ⊗ I = (P² − P) ⊗ I
    exactly; a meet on disjoint supports keeps two factors (``_tensor``).
    The others keep no ``defect``.
    """

    _mat: np.ndarray | None = None
    _span: np.ndarray | None = None
    factor: tuple | None = None
    defect: float | None = None

    def __init__(self, mat):
        super().__init__(mat)
        m = self._mat
        self._dim = m.shape[0]
        defect = m @ m - m
        idem = float(np.max(np.abs(defect)))
        if idem > TOL.proj:
            raise NotProjectionError(
                f"matrix is not idempotent (residual {idem:.3e} > {TOL.proj:g})",
                invariant="tol_proj",
            )
        delta = la.frob(defect)
        g = la.gamma(self.dim)
        self.defect = (1.0 + g) * (delta + g * la.frob(m) ** 2)
        if _settles(delta, self.dim):
            self._rank = int(round(float(np.trace(m).real)))
            return
        eigs = np.linalg.eigvalsh(m)
        near01 = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
        if float(np.max(near01, initial=0.0)) > TOL.proj:
            raise NotProjectionError(
                "projection spectrum is not within tol_proj of {0, 1}",
                invariant="tol_proj",
            )
        self._rank = int(np.sum(eigs > 0.5))

    @classmethod
    def _trusted(cls, dim: int, rank: int, build, span=None) -> "Projection":
        """A projection known to be one, not validated; ``build()`` makes its
        matrix when ``mat`` is first read."""
        p = object.__new__(cls)
        p._dim, p._rank, p._build, p._span = dim, rank, build, span
        return p

    @classmethod
    def from_span(cls, cols: np.ndarray) -> "Projection":
        """Projection onto the span of orthonormal columns (trusted input)."""
        n, k = cols.shape
        build = (lambda: la.span_project(cols)) if k else (lambda: np.zeros((n, n), dtype=complex))
        return cls._trusted(n, k, build, cols)

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat, self._build = self._build(), None
            self._mat.flags.writeable = False
        return self._mat

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def sites(self) -> tuple:
        """The sorted factors of the split that ``factor`` acts on."""
        return tuple(sorted(i for _, _, acting in self.factor for i in acting))

    def times(self, m: np.ndarray) -> np.ndarray:
        """P @ m for an N-vector or N × k block m: through ``factor``
        (la.apply_factor, O(N d) a column for each factor's dimension d), else
        through kept columns W, k <= N/2 of them (W(W*m)), else by ``mat``."""
        if self.factor is not None:
            v = m.reshape(self.dim, -1)
            for local, dims, acting in self.factor:
                v = la.apply_factor(local.mat, v, dims, acting)
            return v.reshape(m.shape)
        if self._span is not None and 2 * self._span.shape[1] <= self.dim:
            return self._span @ (la.dagger(self._span) @ m)
        return self.mat @ m

    @cached_property
    def trace(self) -> float:
        """tr P: Π tr P_i times the rest dimension for factors P_i, ‖W‖_F² for
        kept columns W, else off ``mat``."""
        if self.factor is not None:
            return float(np.prod([f[0].trace for f in self.factor])) * self._rest
        if self._span is not None:
            return float(np.vdot(self._span, self._span).real)
        return float(np.trace(self.mat).real)

    @cached_property
    def frob(self) -> float:
        """‖P‖_F: Π ‖P_i‖_F times √rest for factors P_i, else off ``mat``."""
        if self.factor is not None:
            return float(np.prod([f[0].frob for f in self.factor])) * float(np.sqrt(self._rest))
        return la.frob(self.mat)

    def diagonal(self) -> np.ndarray:
        """The real diagonal of P, for factors the product of theirs."""
        if self.factor is None:
            return np.diagonal(self.mat).real
        out = np.ones(self.factor[0][1])
        for local, dims, acting in self.factor:
            d = np.diagonal(local.mat).real.reshape([dims[i] for i in acting])
            out = out * np.expand_dims(d.transpose(np.argsort(acting)), [i for i in range(len(dims)) if i not in acting])
        return out.reshape(-1)

    def complement(self) -> "Projection":
        return Projection._trusted(
            self.dim, self.dim - self._rank, lambda: np.eye(self.dim, dtype=complex) - self.mat
        )

    def embedded(self, dims: Sequence[int], acting: Sequence[int]) -> "Projection":
        """P ⊗ I: this projection on the factors ``acting`` of ``dims``.

        ``acting`` follows la.embed_factor (this matrix's factor order,
        possibly unsorted). Trusted: the embedding's defect entries and
        spectrum are this projection's, so validating it again would give
        this verdict and this rank times the identity's dimension; and as
        hermitize commutes with the embedding, the matrix, built when read,
        is the one ``Projection(embed_factor(P, dims, acting))`` would store.

        The result keeps P and ``acting`` as its ``factor``, so that
        ``times`` multiplies by it through P, in O(N d_P) a column, and
        ``within`` restricts it to any factors holding that support. A P
        that keeps its span W (``from_span``), of rank at most half its
        dimension, also passes on W ⊗ I.
        """
        return _tensor(((self, tuple(dims), tuple(acting)),))

    def within(self, dims: Sequence[int], acting: Sequence[int]) -> Optional["Projection"]:
        """This projection on the sorted factors ``acting`` of ``dims``, or None
        unless its support lies inside them: itself on the whole space, else
        its ``factor``'s P, embedded there (trusted) unless it acts there."""
        dims, acting = tuple(dims), tuple(acting)
        if int(np.prod([dims[i] for i in acting])) == self.dim:
            return self
        if self.factor is None or self.factor[0][1] != dims or not set(self.sites) <= set(acting):
            return None
        if len(self.factor) == 1 and self.factor[0][2] == acting:
            return self.factor[0][0]
        sub = tuple(dims[i] for i in acting)
        return _tensor(tuple((p, sub, tuple(acting.index(i) for i in own)) for p, _, own in self.factor))

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def _tensor(factors: tuple) -> Projection:
    """P ⊗ I or P_A ⊗ P_B ⊗ I, trusted, from (P, dims, acting) triples on
    disjoint factors of one split (``acting`` as in la.embed_factor). Its
    matrix, built when read, is la.embed_factor of the kron of the P_i; its
    rank is r Π rank P_i and its defect √r times P's (``_kron_defect`` for
    two), r = N/Π d_i the rest dimension."""
    dims, local = factors[0][1], [f[0] for f in factors]
    acting = tuple(i for f in factors for i in f[2])
    n, p = int(np.prod(dims)), local[0]
    rest = n // int(np.prod([q.dim for q in local]))
    keep = len(local) == 1 and p._span is not None and 2 * p.rank <= p.dim
    out = Projection._trusted(
        n, rest * int(np.prod([q.rank for q in local])),
        lambda: la.embed_factor(functools.reduce(np.kron, [q.mat for q in local]), dims, acting),
        la.embed_columns(p._span, dims, acting) if keep else None,
    )
    out.factor, out._rest = factors, rest
    defect = p.defect if len(local) == 1 else _kron_defect(*local)
    if defect is not None:
        out.defect = defect * float(np.sqrt(rest))
    return out


def _kron_defect(p: Projection, q: Projection) -> Optional[float]:
    """A bound on ‖K² − K‖_F for the stored K = fl(P ⊗ Q), or None unless both
    keep a ``defect``. With D = P² − P, (P ⊗ Q)² − P ⊗ Q = D_P ⊗ D_Q +
    D_P ⊗ Q + P ⊗ D_Q and ‖X ⊗ Y‖_F = ‖X‖_F‖Y‖_F, so k = δ_P‖Q‖_F +
    ‖P‖_Fδ_Q + δ_Pδ_Q bounds the exact product's defect. Each entry of K is
    one complex product, within γ = la.gamma(1) of exact, so ‖K − P ⊗ Q‖_F
    ≤ e = γ‖P‖_F‖Q‖_F; with ‖P ⊗ Q‖₂ ≤ xy as in ``PairProduct.meet_bound``,
    ‖K² − K‖_F ≤ k + e(2xy + 1 + e), times 1 + la.gamma(d_P d_Q) for the
    rounding of the norms, to first order in u. K ⊗ I_r copies K's entries
    exactly, which multiplies the bound by √r."""
    dp, dq = p.defect, q.defect
    if dp is None or dq is None:
        return None
    fp, fq = p.frob, q.frob
    e = la.gamma(1) * fp * fq
    xy = (1.0 + dp) * (1.0 + dq)
    k = dp * fq + fp * dq + dp * dq
    return (1.0 + la.gamma(p.dim * q.dim)) * (k + e * (2.0 * xy + 1.0 + e))


def _settles(delta: float, dim: int) -> bool:
    """Projection's acceptance rule: a defect δ ≤ tol_proj/2 with 4√d δ < 1
    settles the spectrum, and with it the rank round(tr P)."""
    return delta <= TOL.proj / 2 and 4.0 * np.sqrt(dim) * delta < 1.0


class DensityState:
    """A density matrix: self-adjoint, unit trace, positive semidefinite.

    Positivity is settled by one Cholesky factorization where it can be.
    Let s0 = max(faithful_eps, −tol_state), N the dimension, u the unit
    roundoff and β = 8N(N+1)u(‖ρ‖_F + |s0|). Complex Cholesky that
    completes on A = ρ − (s0 + β)I factors A + ΔA exactly, with
    ‖ΔA‖₂ ≤ 4Nγ_{N+1}‖A‖₂ < β (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thms 10.3 and 10.5, constants doubled for complex
    arithmetic). So success proves λ_min(ρ) > s0: the state is positive
    within tol_state and faithful, with no eigendecomposition. When it
    fails, ``eigvalsh`` decides as before. β is far above eigvalsh's own
    rounding error, so both routes give the same verdicts and messages.

    ``min_eigenvalue`` is computed on first read. ``faithful`` compares
    against the faithful_eps in force when it is read; the Cholesky bound
    answers it while that is at most s0.
    """

    def __init__(self, mat):
        m = self._unit_trace(mat)
        floor = max(TOL.faithful_eps, -TOL.state)
        n = m.shape[0]
        beta = 8.0 * n * (n + 1) * la.UNIT_ROUNDOFF * (la.frob(m) + abs(floor))
        shifted = m.copy()
        shifted.flat[:: n + 1] -= floor + beta
        import scipy.linalg.lapack  # here, as in la.range_basis

        # zpotrf reads Fortran order: the transpose of ρ − sI is its
        # conjugate, with the same spectrum, and is factored in place
        _, info = scipy.linalg.lapack.zpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            floor = None
            least = float(np.linalg.eigvalsh(m)[0])
            if least < -TOL.state:
                raise ValidationError(
                    f"state has negative eigenvalue {least:.3e}", invariant="tol_state"
                )
            self.min_eigenvalue = least  # fills the cached property
        self._floor = floor
        self._mat = m
        self._mat.flags.writeable = False

    @staticmethod
    def _unit_trace(mat) -> np.ndarray:
        """The hermitized matrix, checked self-adjoint and of unit trace."""
        m = la.as_square(mat, "state")
        if la.herm_residual(m) > TOL.herm:
            raise ValidationError("state is not self-adjoint", invariant="tol_herm")
        m = la.hermitize(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL.state:
            raise ValidationError(
                f"state trace {tr!r} is not 1 within tol_state", invariant="tol_state"
            )
        return m

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @cached_property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    @property
    def faithful(self) -> bool:
        eps = TOL.faithful_eps
        if self._floor is not None and eps <= self._floor:
            return True
        return self.min_eigenvalue > eps

    def require_faithful(self) -> None:
        """Raise NotFaithfulError, naming the least eigenvalue, unless faithful."""
        if not self.faithful:
            least = self.min_eigenvalue
            raise NotFaithfulError(f"state is not faithful (min eigenvalue {least:.3g})")

    def check_dim(self, dim: int) -> None:
        """Raise DimensionMismatchError unless an operator's dimension is this one."""
        if dim != self.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {(self.dim, self.dim)} vs {(dim, dim)}"
            )

    # The state's uses, each read off ``mat`` here; EpsilonPureState answers from ψ and ε.

    def expectation(self, x) -> complex:
        """tr(ρx) for a square x of this dimension (an operator or matrix)."""
        m = _mat_of(x)
        self.check_dim(m.shape[0])
        return expectation(self.mat, m)

    def times(self, w: np.ndarray) -> np.ndarray:
        """ρW for an N × k block W."""
        return self.mat @ w

    def compressed(self, w: np.ndarray) -> np.ndarray:
        """W*ρW, hermitized, for orthonormal columns W."""
        return la.hermitize(la.dagger(w) @ self.mat @ w)

    def reduced(self, dims: Sequence[int], acting: Sequence[int], unitaries=()) -> np.ndarray:
        """The partial trace onto the factors ``acting`` of ``dims``, which
        follow ``acting`` as given (as in la.partial_trace), after ρ ↦ UρU*
        for each (sites, U) of ``unitaries`` in turn (``la.conjugate_factor``,
        O(N² d_U) each); nothing is validated."""
        dims, m = tuple(dims), self.mat
        for sites, u in unitaries:
            m = la.conjugate_factor(u, m, dims, sites)
        return la.partial_trace(m, dims, tuple(acting))

    def spectrum_on(self, p: Projection):
        """(mu, vecs, basis): the descending spectrum of the state compressed
        to range(P), eigenvectors W·vecs for basis W = ``la.range_basis``."""
        basis = la.range_basis(p.mat, p.rank)
        mu, vecs = la.eigh_desc(self.compressed(basis))
        return mu, vecs, basis

    def __repr__(self):
        return f"DensityState(dim={self.dim}, faithful={self.faithful})"


class EpsilonPureState(DensityState):
    """φ = (1 − ε)|ψ⟩⟨ψ| + εI/N: a DensityState given by ψ and ε.

    Accepted from its construction, with no matrix. For 0 < ε <= 1 the
    exact matrix has least eigenvalue ε/N. Forming it rounds each entry by
    at most 8u times the size of its exact terms (u the unit roundoff), so
    the stored matrix is within β = 16u(‖ψ‖² + 1) of it in Frobenius norm,
    and λ_min > ε/N − β by Weyl's inequality. Its trace is
    (1 − ε)‖ψ‖² + ε to within 2γ(‖ψ‖² + 1) (γ = ``la.gamma(N)``), and its
    entries are self-adjoint to within 4u‖ψ‖². So a state whose trace is 1
    within tol_state less that margin, with 4u‖ψ‖² <= tol_herm and
    ε/N − β above s0 = max(faithful_eps, −tol_state), is a state, with
    ε/N − β as its floor; any other is validated as a DensityState, with
    the same verdicts and messages.

    ``mat``, the matrix a DensityState would store, is built only when
    read. The uses of the state are answered from ψ and ε:
    φ(X) = (1 − ε)⟨ψ, Xψ⟩ + ε tr X / N, for a projection with Xψ and tr X
    from ``Projection.times`` and ``Projection.trace`` (in O(N d) for an
    embedded one); ρW = (1 − ε)ψ(ψ*W) + (ε/N)W; W*ρW =
    (1 − ε)(W*ψ)(W*ψ)* + (ε/N)I_k; the spectrum on range(P) from Pψ, with
    no W (``spectrum_on``); and the reduction, after ψ ↦ Uψ for each
    unitary as an N × 1 block in O(N) per gate, to d_keep of the factors,
    made the rows of T by a reshape of ψ, is (1 − ε)TT* + (ε/d_keep)I.
    """

    _mat = None

    def __init__(self, psi: np.ndarray, epsilon: float):
        psi = np.array(psi, dtype=complex)
        psi.flags.writeable = False
        self.psi, self.epsilon = psi, float(epsilon)
        dim = psi.shape[0]
        norm2 = float(np.vdot(psi, psi).real)  # inf or nan unless ψ is finite
        slack = abs((1.0 - self.epsilon) * norm2 + self.epsilon - 1.0)
        slack += 2.0 * la.gamma(dim) * (norm2 + 1.0)
        floor = self.epsilon / dim - 16.0 * la.UNIT_ROUNDOFF * (norm2 + 1.0)
        if not (slack <= TOL.state and 4.0 * la.UNIT_ROUNDOFF * norm2 <= TOL.herm
                and 0.0 < self.epsilon <= 1.0 and floor > max(TOL.faithful_eps, -TOL.state)):
            super().__init__(self._matrix())
            return
        self._floor = floor

    def _matrix(self) -> np.ndarray:
        dim, eps = self.dim, self.epsilon
        return (1.0 - eps) * np.outer(self.psi, self.psi.conj()) + eps * np.eye(dim) / dim

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat = la.hermitize(self._matrix())
            self._mat.flags.writeable = False
        return self._mat

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    def expectation(self, x) -> complex:
        psi = self.psi
        if isinstance(x, Projection):
            self.check_dim(x.dim)
            xpsi, tr = x.times(psi), x.trace
        else:
            m = _mat_of(x)
            self.check_dim(m.shape[0])
            xpsi, tr = m @ psi, np.trace(m)
        return complex((1.0 - self.epsilon) * np.vdot(psi, xpsi) + self.epsilon * tr / self.dim)

    def times(self, w: np.ndarray) -> np.ndarray:
        psi = self.psi.reshape(-1, 1)
        return (1.0 - self.epsilon) * (psi @ (la.dagger(psi) @ w)) + (self.epsilon / self.dim) * w

    def compressed(self, w: np.ndarray) -> np.ndarray:
        v = la.dagger(w) @ self.psi
        k = w.shape[1]
        return (1.0 - self.epsilon) * np.outer(v, v.conj()) + (self.epsilon / self.dim) * np.eye(k)

    def reduced(self, dims: Sequence[int], acting: Sequence[int], unitaries=()) -> np.ndarray:
        dims, acting = tuple(dims), list(acting)
        v = self.psi.reshape(-1, 1)
        for sites, u in unitaries:
            v = la.apply_factor(u, v, dims, sites)
        rest = [i for i in range(len(dims)) if i not in acting]
        d_keep = int(np.prod([dims[i] for i in acting]))
        t = v.reshape(dims).transpose(acting + rest).reshape(d_keep, -1)
        eps = self.epsilon
        return (1.0 - eps) * (t @ la.dagger(t)) + (eps / d_keep) * np.eye(d_keep)

    def spectrum_on(self, p: Projection):
        """(1 − ε)‖v‖² + ε/N along v = Pψ, then ε/N repeated; basis None and
        vecs e₀ = Pv/‖Pv‖ (in range(P) even when v is at rounding level), or
        none when Pv vanishes. Any orthonormal rest of range(P) completes them."""
        v = p.times(self.psi)
        mu = np.full(p.rank, self.epsilon / self.dim)
        mu[0] += (1.0 - self.epsilon) * float(np.vdot(v, v).real)
        e0 = p.times(v)
        if (norm := la.frob(e0)) > 0.0:
            return mu, (e0 / norm)[:, None], None
        return mu, np.empty((p.dim, 0), complex), None


def _check_same_dim(x, y) -> None:  # la.check_same_dim, reading no matrix
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {(x.dim,) * 2} vs {(y.dim,) * 2}")


def _mat_of(x) -> np.ndarray:
    if isinstance(x, (HermitianOperator, DensityState)):
        return x.mat
    return la.as_square(x)


def _proj_of(x) -> Projection:
    if isinstance(x, Projection):
        return x
    return Projection(x)


# ---------------------------------------------------------------------------
# state evaluation and correlation
# ---------------------------------------------------------------------------


def state_eval(phi: DensityState, x) -> float:
    """Expectation value of a self-adjoint operator in a density state."""
    val = phi.expectation(x)
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e2 * TOL.herm * scale:
        raise ValidationError(
            f"expectation has imaginary part {val.imag:.3e}", invariant="tol_herm"
        )
    return float(val.real)


def expectation(rho: np.ndarray, x: np.ndarray) -> complex:
    """tr(ρx) without the product, for an exactly Hermitian ρ (conj(ρ) is
    ρᵀ entry for entry, read contiguously) and any square x of its size.
    It is ``DensityState.expectation`` for a stored matrix."""
    return complex(np.sum(np.conj(rho) * x))


class PairProduct:
    """The product M = XY of two self-adjoint operators, formed once.

    Every HermitianOperator's matrix is exactly Hermitian (construction
    hermitizes it; the trusted Projection constructors keep it so), hence
    (XY)* = YX and [X, Y] = M − M*. ``commutator_norm`` is therefore the
    full-space Frobenius norm of [X, Y] that la.comm_residual forms from two
    products, up to rounding. For a pair within comm_tol, the rest is read
    off the same M: the meet X ^ Y = hermitize(M) (``meet_bound``), its
    weight, and the order test Y <= X. Products by X run through
    ``Projection.times``: for an embedded P ⊗ I, through P.

    When Y is a projection that keeps k <= N/2 orthonormal columns W
    (``Projection.from_span``, or ``embedded`` from one), only XW is
    formed, in O(N²k), and everything but the meet is read off it. With
    Q = I − WW*, [X, WW*] = QXWW* − WW*XQ, two terms of equal norm in
    orthogonal blocks, so ‖[X, Y]‖_F = √2 ‖XW − W(W*XW)‖_F, exact for
    Hermitian X (unlike ‖XW‖² − ‖W*XW‖², which cancels at comm_tol's
    scale). The weight is Re Σ conj(ρW) ⊙ XW = Re tr(ρXY) and the order
    residual ‖XW − W‖_F / max(1, √k). M = (XW)W*, the one N × N product
    left, is formed only when ``mat`` or ``meet()`` is read.
    """

    def __init__(self, x: HermitianOperator, y: HermitianOperator):
        _check_same_dim(x, y)
        self.x, self.y = x, y
        w = y._span if isinstance(y, Projection) else None
        if w is not None and 2 * w.shape[1] <= y.dim:
            self._w, self._xw = w, x.times(w)
        else:
            self._w = None
            self.mat = x.times(y.mat)  # fills the cached property

    @cached_property
    def mat(self) -> np.ndarray:
        """M = XY; for a span, (XW)W*, formed on first read."""
        return self._xw @ la.dagger(self._w)

    @cached_property
    def commutator_norm(self) -> float:
        """‖[X, Y]‖_F = ‖M − M*‖_F, for a span √2 ‖XW − W(W*XW)‖_F."""
        if self._w is None:
            return la.frob(self.mat - la.adjoint_copy(self.mat))
        w, xw = self._w, self._xw
        return float(np.sqrt(2.0)) * la.frob(xw - w @ (la.dagger(w) @ xw))

    def require_commuting(self, name: str, scale: float = 1.0) -> "PairProduct":
        """This product, once ``scale`` ‖[X, Y]‖_F is within comm_tol; ``name``
        the pair. Scale √(N/d) gives the norm of [X ⊗ I, Y ⊗ I] on N ≥ d."""
        res = self.commutator_norm * scale
        if res > TOL.comm:
            raise CommutationError(f"{name} do not commute (residual {res:.3g})")
        return self

    @cached_property
    def meet_bound(self) -> Optional[float]:
        """A bound on the ‖H² − H‖_F that validating the meet H =
        hermitize(fl(XY)) on dimension d would measure, or None unless X and
        Y both keep a ``defect`` (then neither keeps a span: M was formed).

        δ_X and δ_Y bound ‖X² − X‖_F and ‖Y² − Y‖_F. With D_X = X² − X,
        C = XY − YX, M = XY and K = (XY + YX)/2 = M − C/2,

            M² − M = X(XY − C)Y − XY = D_X Y + X D_Y + D_X D_Y − XCY,
            K² − K = (M² − M) − (MC + CM)/2 + C²/4 + C/2.

        X's eigenvalues lie in [−δ_X, 1 + δ_X], so ‖X‖₂ ≤ x = 1 + δ_X, and
        ‖Y‖₂ ≤ y = 1 + δ_Y; so ‖K² − K‖_F ≤ k for

            k = δ_X y + x δ_Y + δ_X δ_Y + (2xy + 1/2) c + c²/4,

        c a bound on ‖C‖_F. Rounding: let u be the unit roundoff, γ_d =
        la.gamma(d), f = ‖X‖_F ‖Y‖_F, and γ = la.gamma(d_X) for the inner
        dimension d_X of the product as formed: the dimension of X's own
        factor when X is embedded (products by X run through it), else d;
        for X on two factors, the sum of their two γ, to first order in u.
        ‖X‖_F and ‖Y‖_F are read off their factors (``Projection.frob``).
        fl(XY) lies within γf of XY. So the measured commutator norm c_m
        gives c = (1 + γ_d)² c_m + 2γf, and H lies within e = (γ + 2u)f of
        K, hermitizing adding u‖fl(XY)‖_F. Then ‖H² − H‖_F ≤
        k + e(2xy + 1 + e), and validation's own product H·H adds
        γ_d‖H‖_F² ≤ γ_d(1 + 2u)‖fl(XY)‖_F², so

            bound = (1 + 2γ_d) (k + e(2xy + 1 + e) + γ_d‖fl(XY)‖_F²)

        is at least the ‖fl(HH) − H‖_F that ``Projection(H)`` measures, to
        first order in u (the factors 1 + γ_d hold the rounding of the norms).
        """
        x, dx, dy = self.x, getattr(self.x, "defect", None), getattr(self.y, "defect", None)
        if dx is None or dy is None:
            return None
        g_d = la.gamma(x.dim)
        g = g_d if x.factor is None else sum(la.gamma(f[0].dim) for f in x.factor)
        xy = (1.0 + dx) * (1.0 + dy)
        f = x.frob * self.y.frob
        c = (1.0 + g_d) ** 2 * self.commutator_norm + 2.0 * g * f
        e = (g + 2.0 * la.UNIT_ROUNDOFF) * f
        k = dx * (1.0 + dy) + (1.0 + dx) * dy + dx * dy + (2.0 * xy + 0.5) * c + c * c / 4.0
        return (1.0 + 2.0 * g_d) * (k + e * (2.0 * xy + 1.0 + e) + g_d * la.frob(self.mat) ** 2)

    def meet(self) -> Projection:
        """X ^ Y = H = hermitize(XY), for a pair checked to commute: trusted
        with rank round(tr H) and ``meet_bound`` as its ``defect`` when that
        bound passes Projection's acceptance rule (the verdict, rank and
        matrix ``Projection(H)`` gives, as H is exactly Hermitian; H is
        formed when read, and tr H = Re tr M entry for entry), else
        validated."""
        m, bound = self.mat, self.meet_bound
        if bound is None or not _settles(bound, self.x.dim):
            return Projection(la.hermitize(m))
        p = Projection._trusted(self.x.dim, int(round(float(np.trace(m).real))), lambda: la.hermitize(m))
        p.defect = bound
        return p

    def weight(self, phi: DensityState) -> float:
        """φ(X ^ Y) = φ(XY) for a pair checked to commute."""
        if self._w is None:
            return state_eval(phi, la.hermitize(self.mat))
        phi.check_dim(self.y.dim)
        return float(np.sum(np.conj(phi.times(self._w)) * self._xw).real)

    @property
    def order_residual(self) -> float:
        """‖XY − Y‖_F / max(1, ‖Y‖_F), which vanishes exactly when Y <= X;
        for a span ‖XW − W‖_F / max(1, √k), as ‖WW*‖_F = √k."""
        if self._w is None:
            return la.frob(self.mat - self.y.mat) / max(1.0, la.frob(self.y.mat))
        return la.frob(self._xw - self._w) / max(1.0, float(np.sqrt(self._w.shape[1])))


def commuting_meet(a: Projection, b: Projection) -> Projection:
    """A ^ B = AB for a pair checked to commute. Two projections each
    embedded on its own disjoint sites of one split commute by locality:
    [A, B] is a structural zero, as in toynet.check_axioms, and the meet is
    P_A ⊗ P_B ⊗ I, kept as its two factors (``_tensor``; Arrighi, Nesme &
    Werner, J. Comput. Syst. Sci. 77, 2011). Otherwise it is formed on the
    union S of their supports (``Projection.factor``; the whole space unless
    both are embedded in one split), checked there (the norm of [A, B] on S
    times √(N/d_S) against comm_tol), settled by ``PairProduct.meet`` and
    embedded."""
    _check_same_dim(a, b)
    fa, fb, dims, s = a.factor, b.factor, (a.dim,), (0,)
    if fa and fb and fa[0][1] == fb[0][1]:
        if len(fa) == len(fb) == 1 and not set(a.sites) & set(b.sites):
            return _tensor(fa + fb)
        dims, s = fa[0][1], tuple(sorted({*a.sites, *b.sites}))
    x, y = a.within(dims, s), b.within(dims, s)
    meet = PairProduct(x, y).require_commuting("A and B", np.sqrt(a.dim / y.dim)).meet()
    return meet if meet.dim == a.dim else meet.embedded(dims, s)


def correlation(phi: DensityState, a, b) -> float:
    """phi(A ^ B) - phi(A) phi(B) for commuting projections (A ^ B = AB)."""
    pa, pb = _proj_of(a), _proj_of(b)
    ab = PairProduct(pa, pb).require_commuting("projections")
    return ab.weight(phi) - state_eval(phi, pa) * state_eval(phi, pb)


# ---------------------------------------------------------------------------
# projection lattice
# ---------------------------------------------------------------------------


def lattice_meet(a, b) -> Projection:
    """Greatest lower bound A ^ B: projection onto range(A) n range(B).

    Computed as the spectral projection of A + B at eigenvalues within
    meet_tol of 2 (the intersection of the ranges is exactly the
    eigenvalue-2 eigenspace of the sum).
    """
    pa, pb = _proj_of(a), _proj_of(b)
    la.check_same_dim(pa.mat, pb.mat)
    w, v = np.linalg.eigh(pa.mat + pb.mat)
    cols = v[:, w >= 2.0 - TOL.meet]
    return Projection.from_span(cols)


def lattice_join(a, b) -> Projection:
    """Least upper bound A v B, by De Morgan from the meet."""
    pa, pb = _proj_of(a), _proj_of(b)
    return lattice_meet(pa.complement(), pb.complement()).complement()


def is_subprojection(p, q) -> bool:
    """Whether P <= Q, i.e. QP = P within tol_proj."""
    return PairProduct(_proj_of(q), _proj_of(p)).order_residual <= TOL.proj


# ---------------------------------------------------------------------------
# local algebras
# ---------------------------------------------------------------------------


class MatrixAlgebra:
    """A local algebra: operators on the factors ``acting`` of the split
    ``dims``, identity elsewhere.

    It is the full matrix algebra on those factors (``tensor_factor``) or
    its diagonal, maximal abelian subalgebra (``diagonal``). Two maps
    connect it to the acting factors: ``compress`` is the partial trace and
    ``embed`` is x ⊗ I. Its basis, generators and random projections are
    handed out on the acting factors; ``embed`` (or
    ``Projection.embedded``) makes them the algebra's operators.
    """

    def __init__(self, dims: Sequence[int], acting: Sequence[int], abelian: bool):
        dims = tuple(int(x) for x in dims)
        acting = tuple(sorted(int(x) for x in acting))
        if not acting or any(i < 0 or i >= len(dims) for i in acting):
            raise DimensionMismatchError(f"acting factors {acting} out of range for {dims}")
        if len(set(acting)) < len(acting):
            raise DimensionMismatchError(f"acting factors {acting} repeat a factor of {dims}")
        self.dims, self.acting, self.abelian = dims, acting, abelian
        self.dim = int(np.prod(dims))

    @classmethod
    def tensor_factor(cls, dims: Sequence[int], acting: Sequence[int]) -> "MatrixAlgebra":
        """Full matrix algebra on the named tensor factors, identity elsewhere."""
        return cls(dims, acting, abelian=False)

    @classmethod
    def diagonal(cls, dims: Sequence[int], acting: Sequence[int]) -> "MatrixAlgebra":
        """The diagonal matrices on the named tensor factors, identity
        elsewhere: the maximal abelian subalgebra of ``tensor_factor``."""
        return cls(dims, acting, abelian=True)

    @property
    def acting_dim(self) -> int:
        return int(np.prod([self.dims[i] for i in self.acting]))

    @property
    def rest(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.dims)) if i not in self.acting)

    @property
    def rest_dim(self) -> int:
        return self.dim // self.acting_dim

    def local_generators(self) -> list[tuple[int, np.ndarray]]:
        """Shift and clock on each acting factor, the clock alone for the
        diagonal algebra, as (factor, local matrix) pairs; embedded, they
        generate the algebra."""
        out = []
        for i in self.acting:
            d = self.dims[i]
            if d == 1:
                continue
            if not self.abelian:
                out.append((i, np.roll(np.eye(d, dtype=complex), 1, axis=0)))
            out.append((i, np.diag(np.exp(2j * np.pi * np.arange(d) / d))))
        return out

    # A conjugated algebra is not (dims, acting). The name stays because
    # benchmark/tracing.py wraps MatrixAlgebra.conjugated_by and cannot
    # install without it (ROADMAP item 8).
    def conjugated_by(self, u: np.ndarray) -> "MatrixAlgebra":
        """Refused with StructureError: U N U* is not a tensor factor of the split."""
        raise StructureError("a conjugated algebra is not a tensor factor; conjugate the state instead")

    # -- factor maps ---------------------------------------------------------

    def compress(self, m: np.ndarray) -> np.ndarray:
        """The partial trace of m onto the acting factors."""
        return la.partial_trace(m, self.dims, self.acting)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """x ⊗ I for an operator x on the acting factors."""
        return la.embed_factor(x, self.dims, self.acting)

    # -- basis, conditional expectation and membership -----------------------

    @property
    def n_basis(self) -> int:
        d = self.acting_dim
        return d if self.abelian else d * d

    def basis_iter(self) -> Iterator[np.ndarray]:
        """Yield the matrix units on the acting factors, the diagonal ones
        only for the diagonal algebra; embedded, they are a basis of it."""
        d = self.acting_dim
        for i in range(d):
            for j in (i,) if self.abelian else range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                yield unit

    def project(self, m: np.ndarray) -> np.ndarray:
        """Trace-orthogonal projection (conditional expectation) onto the
        algebra: the compression divided by the rest dimension, pinched to
        its diagonal for the diagonal algebra, embedded."""
        m = _mat_of(m)
        la.check_same_dim(m, np.empty((self.dim, self.dim)))
        x = self.compress(m) / self.rest_dim
        if self.abelian:
            x = np.diag(np.diagonal(x))
        return self.embed(x)

    def contains(self, m) -> bool:
        m = _mat_of(m)
        return la.frob(m - self.project(m)) <= TOL.alg * max(1.0, la.frob(m))

    def random_projection(self, rng: np.random.Generator) -> Projection:
        """A random nonzero projection of the algebra, on the acting factors:
        a Haar-random column span of a uniformly random rank, or a random
        set of that many diagonal units for the diagonal algebra. Its
        ``embedded(dims, acting)`` is the algebra's projection."""
        d = self.acting_dim
        rank = 1 if d == 1 else int(rng.integers(1, d))
        if self.abelian:
            mask = np.zeros(d, dtype=complex)
            mask[rng.choice(d, size=rank, replace=False)] = 1.0
            return Projection(np.diag(mask))
        return Projection(la.haar_projection(d, rank, rng))

    def __repr__(self):
        kind = "diagonal" if self.abelian else "full"
        return f"MatrixAlgebra(dims={self.dims}, acting={self.acting}, {kind}, n_basis={self.n_basis})"


# ---------------------------------------------------------------------------
# product states and logical independence
# ---------------------------------------------------------------------------


def logical_independence_check(n1: MatrixAlgebra, n2: MatrixAlgebra) -> None:
    """Raise unless the algebras act on disjoint factors of one split
    (DimensionMismatchError on different spaces, StructureError on different
    splits, CommutationError on shared factors). Such algebras commute and
    are logically independent: nonzero A ⊗ I and I ⊗ B meet in A ⊗ B ≠ 0."""
    if n1.dim != n2.dim:
        raise DimensionMismatchError("algebras live on different spaces")
    if n1.dims != n2.dims:
        raise StructureError(f"algebras on different splits {n1.dims} and {n2.dims}")
    if shared := sorted(set(n1.acting) & set(n2.acting)):
        raise CommutationError(f"algebras share factors {shared}; they must act on disjoint factors")


def pair_state(phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra) -> np.ndarray:
    """ρ₁₂: phi reduced to n1's acting factors followed by n2's, once the
    pair passes ``logical_independence_check`` and phi is on their space."""
    logical_independence_check(n1, n2)
    phi.check_dim(n1.dim)
    return phi.reduced(n1.dims, n1.acting + n2.acting)


def is_product_state(phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra) -> bool:
    """Whether phi factorizes across two algebras on disjoint factors.

    With ρ₁₂ = ``pair_state(phi, n1, n2)``, of dimension d = d₁d₂, and
    ρ₁, ρ₂ its marginals, the verdict is
    √d · max |ρ₁₂ − ρ₁ ⊗ ρ₂| <= product_tol over the entries the algebras
    reach (for a diagonal side, the entries diagonal in its indices). For
    the trace-orthonormal matrix units X, Y of both algebras on the reduced
    space, that entry times √d is d |φ(XY) − φ(X)φ(Y)|, whose vanishing
    over both bases decides factorization over the full algebras by
    bilinearity. The factor d makes the units orthonormal for the
    normalized trace, so the verdict does not depend on the space the
    algebras are written on.
    """
    rho = pair_state(phi, n1, n2)
    d1, d2 = n1.acting_dim, n2.acting_dim
    marginals = (la.partial_trace(rho, (d1, d2), (k,)) for k in (0, 1))
    reach = np.kron(*(np.eye(d) if n.abelian else np.ones((d, d)) for n, d in ((n1, d1), (n2, d2))))
    gap = float(np.max(np.abs(rho - np.kron(*marginals)) * reach))
    return bool(np.sqrt(d1 * d2) * gap <= TOL.product)
