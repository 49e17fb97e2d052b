"""Bell correlation between commuting algebras, and correlated-pair search.

The Bell correlation of a state across two commuting algebras is the
supremum of (1/2) φ(X1(Y1+Y2) + X2(Y1−Y2)) over self-adjoint contractions
X_i in the first algebra and Y_j in the second. It is 1 exactly for product
states and for abelian sides, and never exceeds sqrt(2).

The optimizer is a see-saw ascent with a closed-form half-step: for fixed
Y's the optimal X is the sign of the conditional expectation of the
weighted observable onto the X-side algebra, and symmetrically. Each
half-step is an exact maximization, so the objective is non-decreasing and
the result is always a certified lower bound on the supremum. A closed-form
two-qubit evaluation is kept alongside as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    HermitianOperator,
    MatrixAlgebra,
    Projection,
    _check_commuting_algebras,
    _eig_groups,
    state_eval,
)

SQRT2 = float(np.sqrt(2.0))


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
    """Matrix sign with the zero eigenspace mapped to +1."""
    w, vecs = np.linalg.eigh(la.hermitize(h))
    s = np.where(w >= 0.0, 1.0, -1.0)
    return (vecs * s) @ la.dagger(vecs)


@dataclass(frozen=True)
class BellReport:
    """Result of the see-saw ascent; beta is a lower bound on the supremum."""

    beta: float
    optimizers: tuple
    iterations: int
    converged: bool
    history: tuple = ()

    def to_record(self) -> dict:
        return {
            "beta": self.beta,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _objective(rho, x1, x2, y1, y2) -> float:
    m = x1 @ (y1 + y2) + x2 @ (y1 - y2)
    return 0.5 * float(np.real(np.sum(rho.T * m)))


def _seesaw(rho, n1, n2, y1, y2, max_iterations, gain_tol):
    history = []
    x1 = x2 = np.eye(rho.shape[0])
    prev = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x1 = _sign_op(n1.project(la.hermitize((y1 + y2) @ rho)))
        x2 = _sign_op(n1.project(la.hermitize((y1 - y2) @ rho)))
        y1 = _sign_op(n2.project(la.hermitize((x1 + x2) @ rho)))
        y2 = _sign_op(n2.project(la.hermitize((x1 - x2) @ rho)))
        obj = _objective(rho, x1, x2, y1, y2)
        history.append(obj)
        if obj - prev < gain_tol:
            converged = True
            break
        prev = obj
    return history[-1], (x1, x2, y1, y2), iterations, converged, tuple(history)


def bell_correlation(
    phi: DensityState,
    n1: MatrixAlgebra,
    n2: MatrixAlgebra,
    restarts: int = 20,
    seed: int = 0,
    max_iterations: int = 500,
    gain_tol: float = 1e-12,
) -> BellReport:
    """Best see-saw value over restarts.

    Restart 0 starts from the identity quadruple, which evaluates to exactly
    1 and is a fixed point there; this pins the lower bound beta >= 1 and
    makes product states return 1 on the nose. Later restarts start from
    random +/-1-spectrum elements of the Y-side algebra.
    """
    _check_commuting_algebras(n1, n2)
    la.check_same_dim(phi.mat, np.eye(n1.dim))
    rho = phi.mat
    eye = np.eye(n1.dim)
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(max(1, restarts)):
        if restart == 0:
            y1 = y2 = eye
        else:
            y1 = 2.0 * n2.random_projection(rng).mat - eye
            y2 = 2.0 * n2.random_projection(rng).mat - eye
        beta, ops, iters, conv, hist = _seesaw(
            rho, n1, n2, y1, y2, max_iterations, gain_tol
        )
        if best is None or beta > best[0]:
            best = (beta, ops, iters, conv, hist)
    beta, ops, iters, conv, hist = best
    if beta > SQRT2 + TOL.bell:
        raise InternalInconsistencyError(
            f"see-saw value {beta:.12g} exceeds the sqrt(2) ceiling"
        )
    return BellReport(
        beta=beta,
        optimizers=tuple(HermitianOperator(o) for o in ops),
        iterations=iters,
        converged=conv,
        history=hist,
    )


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
            t[i, j] = float(np.real(np.sum(phi.mat.T * np.kron(si, sj))))
    w = np.linalg.eigvalsh(t.T @ t)
    return max(1.0, float(np.sqrt(w[-1] + w[-2])))


def is_bell_correlated(
    phi: DensityState,
    n1: MatrixAlgebra,
    n2: MatrixAlgebra,
    restarts: int = 20,
    seed: int = 0,
) -> bool:
    """Whether the computed Bell correlation exceeds 1 beyond tolerance."""
    report = bell_correlation(phi, n1, n2, restarts=restarts, seed=seed)
    return report.beta > 1.0 + TOL.bell


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
        for group in _eig_groups(w):
            cols = vecs[:, group]
            if 0 < len(group) < mat.shape[0]:
                out.append(Projection.from_span(cols))
    return out


def correlated_pairs(
    phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra
) -> Iterator[tuple[float, Projection, Projection]]:
    """Positively correlated projection pairs across the algebras, as (|corr|, A, B).

    Sweeps spectral projections of the algebra bases; these span each
    algebra, and the correlation form is bilinear, so an empty sweep is
    conclusive: the state is a product state across the pair. A negatively
    correlated hit is flipped to positive by complementing B. A hit whose
    ranks and rounded |corr| repeat an earlier one is skipped.
    """
    _check_commuting_algebras(n1, n2)
    rho = phi.mat
    projs1 = [p for e in n1.basis_iter() for p in _spectral_projections(e)]
    projs2 = [p for e in n2.basis_iter() for p in _spectral_projections(e)]
    seen = set()
    for a in projs1:
        pa = state_eval(phi, a)
        ra = rho @ a.mat
        for b in projs2:
            pb = state_eval(phi, b)
            corr = float(np.real(np.trace(ra @ b.mat))) - pa * pb
            if abs(corr) <= TOL.product:
                continue
            if corr < 0:
                b = b.complement()
            key = (a.rank, b.rank, round(abs(corr), 12))
            if key in seen:
                continue
            seen.add(key)
            yield abs(corr), a, b


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
        return {
            "ensemble": self.ensemble,
            "n": self.n,
            "fraction": self.fraction,
            "max_beta": self.max_beta,
        }


def _sample_state(ensemble: str, d1: int, d2: int, rng) -> DensityState:
    d = d1 * d2
    if ensemble == "pure":
        v = la.random_pure_state(d, rng)
        return DensityState(np.outer(v, v.conj()))
    if ensemble == "mixed":
        return DensityState(la.random_density(d, rng))
    if ensemble == "product":
        return DensityState(np.kron(la.random_density(d1, rng), la.random_density(d2, rng)))
    raise ValidationError(f"unknown ensemble {ensemble!r}")


def sample_bell_fraction(
    split: Sequence[int],
    ensemble: str,
    n: int,
    seed: int = 0,
    states: Optional[Sequence[DensityState]] = None,
    restarts: int = 6,
) -> BellSampleReport:
    """Sample states on a bipartite split and report how often beta > 1.

    On a 2x2 split the closed-form evaluation is used; otherwise the
    see-saw. ``states`` overrides the ensemble draw (the draw is still
    seeded per index, so results are reproducible either way).
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
        if states is not None:
            phi = states[i]
        else:
            phi = _sample_state(ensemble, d1, d2, np.random.default_rng(children[i]))
        if use_oracle:
            beta = two_qubit_chsh_oracle(phi)
        else:
            beta = bell_correlation(phi, n1, n2, restarts=restarts, seed=i).beta
        if beta > SQRT2 + TOL.bell:
            raise InternalInconsistencyError(
                f"sampled Bell value {beta:.12g} exceeds the sqrt(2) ceiling"
            )
        if beta > 1.0 + TOL.bell:
            hits += 1
        max_beta = max(max_beta, beta)
    return BellSampleReport(
        ensemble=ensemble, n=n, fraction=hits / n, max_beta=max_beta
    )
