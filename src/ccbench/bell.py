"""Bell correlation between commuting algebras, and correlated-pair search.

The Bell correlation of a state across two commuting algebras is the
supremum of (1/2) φ(X1(Y1+Y2) + X2(Y1−Y2)) over self-adjoint contractions
X_i in the first algebra and Y_j in the second. It is 1 exactly for product
states and for abelian sides, and never exceeds sqrt(2).

The optimizer is a see-saw ascent with a closed-form half-step: for fixed
Y's the optimal X is the sign of the conditional expectation of the
weighted observable onto the X-side algebra, and symmetrically. Each
half-step is an exact maximization, so the objective is non-decreasing and
the result is always a certified lower bound on the supremum (Liang &
Doherty, PRA 75, 2007). A closed-form two-qubit evaluation is kept
alongside as an independent check.

The Bell value and the correlated pairs read the state only through ρ₁₂,
its reduction to the two algebras' acting factors (``qprob.pair_state``).
The see-saw and the pair sweep run there, X on n1's factors and Y on n2's,
so their cost is set by d₁d₂, whatever else the split holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _linalg as la
from .config import TOL
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    ValidationError,
)
from .qprob import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityState,
    MatrixAlgebra,
    Projection,
    expectation,
    pair_state,
    state_eval,
)

SQRT2 = float(np.sqrt(2.0))
# see-saw stopping rule: at most this many rounds, or a gain below GAIN_TOL
MAX_ITERATIONS = 500
GAIN_TOL = 1e-12
# Largest d1·d2 the CLI takes. On some pure states nearly every restart
# runs all MAX_ITERATIONS rounds, at about 0.13 ms a round for d1·d2 = 24
# or 36 (one BLAS thread): 20 restarts on a random 4 x 6 pure state ran
# 7,510 rounds in 1.0 s, and on a 6 x 6 one 3,632 rounds in 0.5 s.
MAX_SPLIT_DIM = 25


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------


def singlet_state() -> DensityState:
    """The spin singlet on 2x2: (|01> - |10>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / SQRT2
    psi[2] = -1.0 / SQRT2
    return DensityState(np.outer(psi, psi.conj()))


def werner_state(w: float) -> DensityState:
    """w * singlet + (1 - w) * I/4."""
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"mixing weight {w} outside [0, 1]")
    return DensityState(w * singlet_state().mat + (1.0 - w) * np.eye(4) / 4.0)


# ---------------------------------------------------------------------------
# see-saw optimization
# ---------------------------------------------------------------------------


def _sign_op(h: np.ndarray) -> np.ndarray:
    """Matrix sign with the zero eigenspace mapped to +1.

    h is a see-saw half-step's conditional expectation on one side's
    acting factors, tr₂((I ⊗ (Y1 ± Y2))ρ₁₂)/d₂ or its mirror, so
    ‖h‖₂ <= 2, and rounding moves its d eigenvalues by less than the window
    τ = 2d·la.gamma(d). Eigenvalues within τ of 0 count as 0 and map to +1.
    This keeps restart 0's identity start a fixed point when a marginal is
    singular: from Y1 = Y2 = I the X half-step takes the signs of 2ρ₁/d₂
    and of 0, whose zero eigenvalues rounding may push below 0, and both
    signs are I; the Y half-step is the same on ρ₂.
    """
    w, vecs = np.linalg.eigh(la.hermitize(h))
    window = 2.0 * len(w) * la.gamma(len(w))
    s = np.where(w >= -window, 1.0, -1.0)
    return (vecs * s) @ la.dagger(vecs)


@dataclass(frozen=True)
class BellReport:
    """Result of the see-saw ascent; beta is a lower bound on the supremum."""

    beta: float
    iterations: int
    converged: bool
    history: tuple = ()

    def to_record(self) -> dict:
        return {
            "beta": self.beta,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x ⊗ y for square x, y; np.kron's general path costs more on small factors."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(x.shape[0] * y.shape[0], -1)


def _objective(phi12, x1, x2, y1, y2) -> float:
    return 0.5 * state_eval(phi12, _kron(x1, y1 + y2) + _kron(x2, y1 - y2))


def _seesaw(phi12, n1, n2, y1, y2):
    d1, d2 = n1.acting_dim, n2.acting_dim
    r = phi12.mat.reshape(d1, d2, d1, d2)

    def sign_in(alg, h):  # pinched first on a diagonal side
        return _sign_op(np.diag(np.diagonal(h)) if alg.abelian else h)

    history = []
    prev = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        # tr₂((I ⊗ Y)ρ₁₂)/d₂ and tr₁((X ⊗ I)ρ₁₂)/d₁
        x1 = sign_in(n1, np.einsum("jm,imkj->ik", y1 + y2, r) / d2)
        x2 = sign_in(n1, np.einsum("jm,imkj->ik", y1 - y2, r) / d2)
        y1 = sign_in(n2, np.einsum("im,mjil->jl", x1 + x2, r) / d1)
        y2 = sign_in(n2, np.einsum("im,mjil->jl", x1 - x2, r) / d1)
        obj = _objective(phi12, x1, x2, y1, y2)
        history.append(obj)
        if obj - prev < GAIN_TOL:
            converged = True
            break
        prev = obj
    return history[-1], iterations, converged, tuple(history)


def bell_correlation(
    phi: DensityState,
    n1: MatrixAlgebra,
    n2: MatrixAlgebra,
    restarts: int = 20,
    seed: int = 0,
) -> BellReport:
    """Best see-saw value over restarts.

    Restart 0 starts from the identity quadruple, which evaluates to exactly
    1 and is a fixed point there; this pins the lower bound beta >= 1 and
    makes product states return 1 on the nose. Later restarts start from
    random +/-1-spectrum elements of the Y-side algebra.
    """
    phi12 = DensityState(pair_state(phi, n1, n2))
    eye = np.eye(n2.acting_dim)
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(max(1, restarts)):
        if restart == 0:
            y1 = y2 = eye
        else:
            y1 = 2.0 * n2.random_projection(rng).mat - eye
            y2 = 2.0 * n2.random_projection(rng).mat - eye
        run = _seesaw(phi12, n1, n2, y1, y2)
        if best is None or run[0] > best[0]:
            best = run
    if best[0] > SQRT2 + TOL.bell:
        raise InternalInconsistencyError(
            f"see-saw value {best[0]:.12g} exceeds the sqrt(2) ceiling"
        )
    return BellReport(*best)  # (beta, iterations, converged, history)


def two_qubit_chsh_oracle(phi: DensityState) -> float:
    """Closed-form optimum on 2x2 from the Pauli correlation matrix.

    Computes t_ij = phi(sigma_i x sigma_j) and returns the square root of
    the sum of the two largest eigenvalues of t^T t, clamped below at 1
    (the identity quadruple always achieves 1).
    """
    if phi.dim != 4:
        raise DimensionMismatchError("two-qubit evaluation needs dim 4 (2x2 split)")
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = state_eval(phi, np.kron(si, sj))
    w = np.linalg.eigvalsh(t.T @ t)
    return max(1.0, float(np.sqrt(w[-1] + w[-2])))


def exceeds_one(beta: float) -> bool:
    """The Bell-correlation rule: a value beta counts as correlated when
    beta > 1 + bell_tol."""
    return bool(beta > 1.0 + TOL.bell)


# ---------------------------------------------------------------------------
# correlated-pair search
# ---------------------------------------------------------------------------


def _spectral_projections(mat: np.ndarray):
    """Spectral projections of the Hermitian and anti-Hermitian parts."""
    out = []
    for part in (la.hermitize(mat), la.hermitize(-1j * (mat - la.dagger(mat)) / 2.0)):
        if la.frob(part) < 1e-14:
            continue
        w, vecs = np.linalg.eigh(part)
        for group in la.eig_groups(w):
            cols = vecs[:, group]
            if 0 < len(group) < mat.shape[0]:
                out.append(Projection.from_span(cols))
    return out


def correlated_pairs(
    phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra
) -> Iterator[tuple[float, Projection, Projection]]:
    """Positively correlated projection pairs across the algebras, as (|corr|, A, B).

    Sweeps spectral projections of the algebras' matrix units; these span
    each algebra, and the correlation form is bilinear, so an empty sweep
    is conclusive: the state is a product state across the pair. A
    negatively correlated hit is flipped to positive by complementing B. A
    hit whose ranks and rounded |corr| repeat an earlier one is skipped.
    Both sides' projections, and each weight φ(B), are built once, as the
    sweep first reaches them: a caller that stops at a hit builds nothing
    past it. The sweep runs on ρ₁₂ (``pair_state``), with φ(A) = φ₁₂(A ⊗ I),
    φ(B) = φ₁₂(I ⊗ B) and φ(AB) = tr(ρ₁₂ A ⊗ B); each pair it yields is
    embedded in the split, trusted, with its matrix built when read.
    """
    phi12 = DensityState(pair_state(phi, n1, n2))
    eye1, eye2 = np.eye(n1.acting_dim), np.eye(n2.acting_dim)
    side2 = ((b, state_eval(phi12, _kron(eye1, b.mat))) for e in n2.basis_iter() for b in _spectral_projections(e))
    reached2, seen = [], set()  # the (B, φ(B)) the sweep has reached

    def sweep2() -> Iterator[tuple[Projection, float]]:
        yield from reached2
        for hit in side2:
            reached2.append(hit)
            yield hit

    for a in (p for e in n1.basis_iter() for p in _spectral_projections(e)):
        pa = state_eval(phi12, _kron(a.mat, eye2))
        for b, pb in sweep2():
            corr = expectation(phi12.mat, _kron(a.mat, b.mat)).real - pa * pb
            if abs(corr) <= TOL.product:
                continue
            if corr < 0:
                b = b.complement()
            key = (a.rank, b.rank, round(abs(corr), 12))
            if key in seen:
                continue
            seen.add(key)
            yield abs(corr), a.embedded(n1.dims, n1.acting), b.embedded(n2.dims, n2.acting)


def find_correlated_pair(
    phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra
) -> Optional[tuple[Projection, Projection]]:
    """The first pair of ``correlated_pairs``, or None for a product state."""
    first = next(correlated_pairs(phi, n1, n2), None)
    return None if first is None else first[1:]


# ---------------------------------------------------------------------------
# ensemble sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellSampleReport:
    """Fraction of sampled states with Bell correlation above 1."""

    ensemble: str
    n: int
    fraction: float
    max_beta: float

    def to_record(self) -> dict:
        return asdict(self)


def _sample_state(ensemble: str, d1: int, d2: int, rng) -> DensityState:
    d = d1 * d2
    if ensemble == "pure":
        v = la.random_pure_state(d, rng)
        return DensityState(np.outer(v, v.conj()))
    if ensemble == "mixed":
        return DensityState(la.random_density(d, rng))
    # "product": sample_bell_fraction has checked the name
    return DensityState(np.kron(la.random_density(d1, rng), la.random_density(d2, rng)))


def sample_bell_fraction(
    split: Sequence[int],
    ensemble: str,
    n: int,
    seed: int = 0,
    restarts: int = 6,
) -> BellSampleReport:
    """Sample states on a bipartite split and report how often beta > 1.

    On a 2x2 split the closed-form evaluation is used; otherwise the
    see-saw. Sample i is drawn from its own child of ``seed``.
    """
    if n < 1:
        raise ValidationError("need at least one sample")
    d1, d2 = (int(x) for x in split)
    if d1 < 2 or d2 < 2:
        raise ValidationError("each side of the split needs dimension >= 2")
    if ensemble not in ("pure", "mixed", "product"):
        raise ValidationError(f"unknown ensemble {ensemble!r}")
    use_oracle = (d1, d2) == (2, 2)
    if not use_oracle:
        n1 = MatrixAlgebra.tensor_factor((d1, d2), (0,))
        n2 = MatrixAlgebra.tensor_factor((d1, d2), (1,))
    children = np.random.SeedSequence(seed).spawn(n)
    hits = 0
    max_beta = 0.0
    for i in range(n):
        phi = _sample_state(ensemble, d1, d2, np.random.default_rng(children[i]))
        if use_oracle:
            beta = two_qubit_chsh_oracle(phi)
        else:
            beta = bell_correlation(phi, n1, n2, restarts=restarts, seed=i).beta
        if beta > SQRT2 + TOL.bell:
            raise InternalInconsistencyError(
                f"sampled Bell value {beta:.12g} exceeds the sqrt(2) ceiling"
            )
        if exceeds_one(beta):
            hits += 1
        max_beta = max(max_beta, beta)
    return BellSampleReport(
        ensemble=ensemble, n=n, fraction=hits / n, max_beta=max_beta
    )
