"""Finite-dimensional quantum probability kernel.

Validated operator types (Hermitian operators, projections, density states),
matrix *-algebras with trace-orthonormal bases, the projection lattice
(meet, join, complement), commutants, trace-compatible conditional
expectations, and state evaluation / correlation of commuting projections.

The commoncause module checks the four common-cause conditions for
classical events and for commuting projections with one kernel over the
six conditional weights; on diagonal states and mask projections the two
verifications agree to rounding, which the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _linalg as la
from .config import TOL
from .errors import (
    CommutationError,
    DimensionMismatchError,
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

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Projection(HermitianOperator):
    """An orthogonal projection: self-adjoint, idempotent, spectrum in {0, 1}."""

    def __init__(self, mat):
        super().__init__(mat)
        m = self._mat
        idem = float(np.max(np.abs(m @ m - m)))
        if idem > TOL.proj:
            raise NotProjectionError(
                f"matrix is not idempotent (residual {idem:.3e} > {TOL.proj:g})",
                invariant="tol_proj",
            )
        eigs = np.linalg.eigvalsh(m)
        near01 = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
        if float(np.max(near01, initial=0.0)) > TOL.proj:
            raise NotProjectionError(
                "projection spectrum is not within tol_proj of {0, 1}",
                invariant="tol_proj",
            )
        self._rank = int(np.sum(eigs > 0.5))

    @classmethod
    def from_span(cls, cols: np.ndarray) -> "Projection":
        """Projection onto the span of orthonormal columns (trusted input)."""
        p = object.__new__(cls)
        mat = la.span_project(cols) if cols.size else np.zeros((cols.shape[0],) * 2, dtype=complex)
        p._mat = mat
        p._mat.flags.writeable = False
        p._rank = cols.shape[1] if cols.size else 0
        return p

    @property
    def rank(self) -> int:
        return self._rank

    def complement(self) -> "Projection":
        q = object.__new__(Projection)
        q._mat = np.eye(self.dim, dtype=complex) - self._mat
        q._mat.flags.writeable = False
        q._rank = self.dim - self._rank
        return q

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


class DensityState:
    """A density matrix: self-adjoint, unit trace, positive semidefinite."""

    def __init__(self, mat):
        m = la.as_square(mat, "state")
        if la.herm_residual(m) > TOL.herm:
            raise ValidationError("state is not self-adjoint", invariant="tol_herm")
        m = la.hermitize(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL.state:
            raise ValidationError(
                f"state trace {tr!r} is not 1 within tol_state", invariant="tol_state"
            )
        eigs = np.linalg.eigvalsh(m)
        if float(eigs[0]) < -TOL.state:
            raise ValidationError(
                f"state has negative eigenvalue {eigs[0]:.3e}", invariant="tol_state"
            )
        self._mat = m
        self._mat.flags.writeable = False
        self._eigs = eigs

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self._eigs[0])

    @property
    def faithful(self) -> bool:
        return self.min_eigenvalue > TOL.faithful_eps

    def expect(self, x) -> float:
        return state_eval(self, x)

    def __repr__(self):
        return f"DensityState(dim={self.dim}, faithful={self.faithful})"


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
    m = _mat_of(x)
    la.check_same_dim(phi.mat, m)
    val = complex(np.sum(phi.mat.T * m))  # tr(rho @ m) without the product
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e2 * TOL.herm * scale:
        raise ValidationError(
            f"expectation has imaginary part {val.imag:.3e}", invariant="tol_herm"
        )
    return float(val.real)


def _expect_c(rho: np.ndarray, x: np.ndarray) -> complex:
    return complex(np.sum(rho.T * x))


def correlation(phi: DensityState, a, b) -> float:
    """phi(A ^ B) - phi(A) phi(B) for commuting projections (A ^ B = AB)."""
    pa, pb = _proj_of(a), _proj_of(b)
    la.check_same_dim(pa.mat, pb.mat)
    resid = la.comm_residual(pa.mat, pb.mat)
    if resid > TOL.comm:
        raise CommutationError(
            f"projections do not commute (residual {resid:.3e} > comm_tol)"
        )
    joint = state_eval(phi, la.hermitize(pa.mat @ pb.mat))
    return joint - state_eval(phi, pa) * state_eval(phi, pb)


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


def is_subprojection(p, q, tol: float | None = None) -> bool:
    """Whether P <= Q, i.e. QP = P within tolerance."""
    pp, qq = _proj_of(p), _proj_of(q)
    la.check_same_dim(pp.mat, qq.mat)
    tol = TOL.proj if tol is None else tol
    resid = la.frob(qq.mat @ pp.mat - pp.mat) / max(1.0, la.frob(pp.mat))
    return resid <= tol


# ---------------------------------------------------------------------------
# matrix *-algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorStructure:
    """Tensor-split bookkeeping: full matrix algebra on the acting factors."""

    dims: tuple[int, ...]
    acting: tuple[int, ...]

    @property
    def acting_dim(self) -> int:
        return int(np.prod([self.dims[i] for i in self.acting]))

    @property
    def rest(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.dims)) if i not in self.acting)

    @property
    def rest_dim(self) -> int:
        rest = self.rest
        return int(np.prod([self.dims[i] for i in rest])) if rest else 1


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of a logical-independence check.

    ``independent`` is True only for the exact tensor-split argument; a
    sampled run that found nothing leaves it None (no counterexample in
    ``samples`` draws, which is evidence, not proof).
    """

    independent: Optional[bool]
    method: str
    samples: int
    counterexample: Optional[tuple[Projection, Projection]] = None


_EXPLICIT_CLOSURE_MAX_DIM = 32


class MatrixAlgebra:
    """A unital *-subalgebra of the d x d complex matrices.

    Two representations, chosen by constructor:

    * explicit: a trace-orthonormal basis is stored (word closure of the
      generators).
    * factor: U (full matrix algebra on a subset of tensor factors) U* for a
      unitary U, which a plain factor does not carry (``unitary`` is None).
      Two maps connect it to the acting factors: ``compress`` is the partial
      trace of U* m U and ``embed`` is U embed(x) U*. Basis, conditional
      expectation and random projections go through them, so nothing of size
      (acting_dim * rest_dim)^2 x basis_count is ever materialized.
    """

    def __init__(self, dim, generators, basis=None, structure=None, unitary=None):
        self.dim = int(dim)
        self.generators = [np.asarray(g, dtype=complex) for g in generators]
        self._basis = basis  # ndarray (k, d, d) for explicit algebras
        self.structure: FactorStructure | None = structure
        self.unitary: np.ndarray | None = unitary

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Sequence, dim: int | None = None) -> "MatrixAlgebra":
        """Word-closure algebra generated by the given matrices (and I)."""
        gens = [la.as_square(g) for g in generators]
        if not gens and dim is None:
            raise DimensionMismatchError("need generators or an explicit dimension")
        d = dim if dim is not None else gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise DimensionMismatchError("generators have mixed dimensions")
        if d > _EXPLICIT_CLOSURE_MAX_DIM:
            raise StructureError(
                f"explicit word closure is limited to dim <= {_EXPLICIT_CLOSURE_MAX_DIM}; "
                "use tensor_factor structure for large spaces"
            )
        basis = _word_closure(gens, d)
        return cls(d, gens, basis=basis)

    @classmethod
    def from_basis(cls, basis: np.ndarray, generators=None) -> "MatrixAlgebra":
        d = basis.shape[1]
        gens = list(basis) if generators is None else generators
        return cls(d, gens, basis=basis)

    @classmethod
    def full(cls, dim: int) -> "MatrixAlgebra":
        return cls.tensor_factor((dim,), (0,))

    @classmethod
    def diagonal(cls, dim: int) -> "MatrixAlgebra":
        """The abelian algebra of diagonal matrices."""
        units = np.zeros((dim, dim, dim), dtype=complex)
        for i in range(dim):
            units[i, i, i] = 1.0
        gens = [np.diag(np.arange(dim, dtype=complex))]
        return cls(dim, gens, basis=units)

    @classmethod
    def tensor_factor(cls, dims: Sequence[int], acting: Sequence[int]) -> "MatrixAlgebra":
        """Full matrix algebra on the named tensor factors, identity elsewhere."""
        dims = tuple(int(x) for x in dims)
        acting = tuple(sorted(int(x) for x in acting))
        if not acting or any(i < 0 or i >= len(dims) for i in acting):
            raise DimensionMismatchError(f"acting factors {acting} out of range for {dims}")
        structure = FactorStructure(dims, acting)
        d = int(np.prod(dims))
        gens = _factor_generators(structure)
        return cls(d, gens, structure=structure)

    def conjugated_by(self, u: np.ndarray) -> "MatrixAlgebra":
        """The algebra U N U* (U validated unitary).

        A factor carrying U0 becomes a factor carrying U U0; an explicit
        basis is conjugated element by element.
        """
        u = la.as_square(u)
        la.check_same_dim(u, np.empty((self.dim, self.dim)))
        if la.frob(u @ la.dagger(u) - np.eye(self.dim)) > 1e-9:
            raise ValidationError("conjugation matrix is not unitary", invariant="unitary")
        ud = la.dagger(u)
        gens = [u @ g @ ud for g in self.generators]
        if self.structure is None:
            return MatrixAlgebra(self.dim, gens, basis=np.array([u @ b @ ud for b in self._basis]))
        total = u if self.unitary is None else u @ self.unitary
        return MatrixAlgebra(self.dim, gens, structure=self.structure, unitary=total)

    # -- factor maps ---------------------------------------------------------

    def compress(self, m: np.ndarray) -> np.ndarray:
        """Factor algebras: the partial trace of U* m U onto the acting factors."""
        s = self.structure
        if s is None:
            raise StructureError("compression requires factor structure")
        if self.unitary is not None:
            m = la.dagger(self.unitary) @ m @ self.unitary
        return la.partial_trace(m, s.dims, s.acting)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Factor algebras: U embed(x) U* for an operator x on the acting factors."""
        s = self.structure
        if s is None:
            raise StructureError("embedding requires factor structure")
        out = la.embed_factor(x, s.dims, s.acting)
        if self.unitary is not None:
            out = self.unitary @ out @ la.dagger(self.unitary)
        return out

    # -- basis access --------------------------------------------------------

    @property
    def n_basis(self) -> int:
        if self.structure is None:
            return self._basis.shape[0]
        return self.structure.acting_dim ** 2

    def basis_iter(self) -> Iterator[np.ndarray]:
        """Yield a trace-orthonormal basis of the algebra."""
        if self.structure is None:
            yield from self._basis
            return
        norm = 1.0 / np.sqrt(self.structure.rest_dim)
        for unit in self.local_basis_iter():
            yield self.embed(unit * norm)

    def local_basis_iter(self) -> Iterator[np.ndarray]:
        """For factor algebras: the local (unembedded) orthonormal basis."""
        if self.structure is None:
            raise StructureError("local basis requires factor structure")
        d_act = self.structure.acting_dim
        for i in range(d_act):
            for j in range(d_act):
                unit = np.zeros((d_act, d_act), dtype=complex)
                unit[i, j] = 1.0
                yield unit

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        """Real-orthonormal basis of the self-adjoint part."""
        mats = list(self.basis_iter())
        d = self.dim
        cands = []
        for b in mats:
            cands.append(la.hermitize(b))
            cands.append(la.hermitize(1j * b))
        stack = np.array([c.reshape(-1) for c in cands])
        real_rows = np.hstack([stack.real, stack.imag])
        ortho = la.orthonormalize_rows(real_rows)
        k = ortho.shape[0]
        out = ortho[:, : d * d] + 1j * ortho[:, d * d :]
        return out.reshape(k, d, d)

    # -- conditional expectation and membership ------------------------------

    def project(self, m: np.ndarray) -> np.ndarray:
        """Trace-orthogonal projection (conditional expectation) onto the algebra."""
        m = _mat_of(m)
        la.check_same_dim(m, np.empty((self.dim, self.dim)))
        if self.structure is not None:
            return self.embed(self.compress(m) / self.structure.rest_dim)
        basis = self._basis
        coeffs = np.einsum("kij,ij->k", basis.conj(), m)
        return np.einsum("k,kij->ij", coeffs, basis)

    def contains(self, m, tol: float | None = None) -> bool:
        m = _mat_of(m)
        tol = TOL.alg if tol is None else tol
        return la.frob(m - self.project(m)) <= tol * max(1.0, la.frob(m))

    def closure_residual(self, max_pairs: int = 400, seed: int = 0) -> float:
        """Largest projection residual of pairwise basis products (sampled)."""
        mats = list(self.basis_iter())
        k = len(mats)
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(k) for j in range(k)]
        if len(pairs) > max_pairs:
            idx = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[i] for i in idx]
        worst = 0.0
        for i, j in pairs:
            prod = mats[i] @ mats[j]
            worst = max(worst, la.frob(prod - self.project(prod)))
        return worst

    # -- derived algebras ----------------------------------------------------

    def commutant(self) -> "MatrixAlgebra":
        """The relative commutant inside the full matrix algebra."""
        s = self.structure
        if s is None:
            return _commutant_solve(self.generators, self.dim)
        if not s.rest:
            return MatrixAlgebra.from_basis(
                np.eye(self.dim, dtype=complex).reshape(1, self.dim, self.dim)
                / np.sqrt(self.dim)
            )
        comm = MatrixAlgebra.tensor_factor(s.dims, s.rest)
        return comm if self.unitary is None else comm.conjugated_by(self.unitary)

    def random_projection(self, rng: np.random.Generator) -> Projection:
        """A random nonzero projection inside the algebra.

        For factor algebras this is the embedding of a Haar-random column
        span of a uniformly random rank on the acting space; otherwise it is
        a sum of spectral projections (over a random proper subset of
        eigenvalue groups) of a random self-adjoint element of the algebra.
        """
        if self.structure is not None:
            d_act = self.structure.acting_dim
            rank = 1 if d_act == 1 else int(rng.integers(1, d_act))
            return Projection(self.embed(la.haar_projection(d_act, rank, rng)))
        herm = self.hermitian_basis
        for _ in range(8):
            coeffs = rng.standard_normal(herm.shape[0])
            h = np.einsum("k,kij->ij", coeffs, herm)
            w, v = np.linalg.eigh(h)
            groups = _eig_groups(w)
            if len(groups) < 2:
                continue
            n_take = int(rng.integers(1, len(groups)))
            chosen = rng.choice(len(groups), size=n_take, replace=False)
            cols = np.hstack([v[:, groups[g]] for g in sorted(chosen)])
            return Projection.from_span(cols)
        return Projection(np.eye(self.dim))  # scalar algebra: identity only

    def __repr__(self):
        if self.structure is None:
            tag = "explicit"
        else:
            tag = f"factor acting={self.structure.acting}"
            if self.unitary is not None:
                tag += " under U"
        return f"MatrixAlgebra(dim={self.dim}, {tag}, n_basis={self.n_basis})"


def _factor_generators(s: FactorStructure) -> list[np.ndarray]:
    """Clock and shift on each acting factor: a small generating set."""
    gens = []
    for i in s.acting:
        d = s.dims[i]
        if d == 1:
            continue
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        gens.append(la.embed_factor(shift, s.dims, (i,)))
        gens.append(la.embed_factor(clock, s.dims, (i,)))
    if not gens:
        gens.append(np.eye(int(np.prod(s.dims)), dtype=complex))
    return gens


def _word_closure(gens: list[np.ndarray], dim: int) -> np.ndarray:
    """Trace-orthonormal basis of the unital *-algebra generated by gens."""
    seeds = [np.eye(dim, dtype=complex)]
    for g in gens:
        seeds.append(g)
        seeds.append(la.dagger(g))
    rows = la.orthonormalize_rows(np.array([s.reshape(-1) for s in seeds]))
    fresh = rows
    while rows.shape[0] < dim * dim and fresh.size:
        cur = rows.reshape(-1, dim, dim)
        new = fresh.reshape(-1, dim, dim)
        prods = np.concatenate([
            np.einsum("aij,bjk->abik", new, cur).reshape(-1, dim * dim),
            np.einsum("aij,bjk->abik", cur, new).reshape(-1, dim * dim),
        ])
        grown = la.grow_span(rows, prods)
        fresh = grown[rows.shape[0]:]
        rows = grown
    return rows.reshape(-1, dim, dim)


def _eig_groups(w_ascending: np.ndarray, gap: float = 1e-8) -> list[list[int]]:
    """Indices of numerically degenerate eigenvalue groups."""
    groups: list[list[int]] = []
    for i, w in enumerate(w_ascending):
        if groups and abs(w - w_ascending[groups[-1][-1]]) <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _commutant_solve(gens: list[np.ndarray], dim: int) -> MatrixAlgebra:
    """Null-space solve of X G = G X over all generators (and adjoints)."""
    eye = np.eye(dim)
    blocks = []
    for g in gens:
        for gg in (g, la.dagger(g)):
            blocks.append(np.kron(eye, gg.T) - np.kron(gg, eye))
    k = np.vstack(blocks)
    _, s, vh = np.linalg.svd(k)
    tol = max(k.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    tol = max(tol, 1e-10)
    null_rows = vh[np.sum(s > tol):]
    basis = null_rows.conj().reshape(-1, dim, dim)
    alg = MatrixAlgebra.from_basis(basis)
    eye_resid = la.frob(alg.project(np.eye(dim)) - np.eye(dim))
    if eye_resid > TOL.alg:
        raise ValidationError("commutant does not contain the identity", invariant="tol_alg")
    return alg


def commutant(n: MatrixAlgebra) -> MatrixAlgebra:
    return n.commutant()


def conditional_expectation(m, n: MatrixAlgebra) -> HermitianOperator:
    """Trace-compatible conditional expectation of a self-adjoint operator.

    The trace-orthogonal projection onto a *-closed span maps self-adjoint
    operators to self-adjoint operators, so the result wraps cleanly.
    """
    op = m if isinstance(m, HermitianOperator) else HermitianOperator(m)
    return HermitianOperator(n.project(op.mat))


# ---------------------------------------------------------------------------
# product states and logical independence
# ---------------------------------------------------------------------------


def _same_split(n1: MatrixAlgebra, n2: MatrixAlgebra) -> bool:
    """Both algebras are plain factors (no unitary) of one tensor split."""
    return (
        n1.structure is not None
        and n2.structure is not None
        and n1.unitary is None
        and n2.unitary is None
        and n1.structure.dims == n2.structure.dims
    )


def _check_commuting_algebras(n1: MatrixAlgebra, n2: MatrixAlgebra) -> None:
    if n1.dim != n2.dim:
        raise DimensionMismatchError("algebras live on different spaces")
    if _same_split(n1, n2):
        if set(n1.structure.acting) & set(n2.structure.acting):
            raise CommutationError("factor algebras overlap, they do not commute")
        return
    worst = max(
        la.comm_residual(g1, g2) for g1 in n1.generators for g2 in n2.generators
    )
    if worst > TOL.comm:
        raise CommutationError(
            f"algebras do not commute elementwise (residual {worst:.3e})"
        )


def is_product_state(
    phi: DensityState, n1: MatrixAlgebra, n2: MatrixAlgebra, tol: float | None = None
) -> bool:
    """Whether phi factorizes across two commuting algebras.

    Checks |phi(XY) - phi(X) phi(Y)| <= tol over all pairs of basis
    elements, which by bilinearity of the correlation form decides
    factorization over the full algebras.
    """
    _check_commuting_algebras(n1, n2)
    tol = TOL.product if tol is None else tol
    rho = phi.mat
    if _same_split(n1, n2):
        return _product_check_factors(rho, n1, n2, tol) is None
    mats1 = list(n1.basis_iter())
    mats2 = list(n2.basis_iter())
    left = [rho @ x for x in mats1]
    e1 = [_expect_c(rho, x) for x in mats1]
    e2 = [_expect_c(rho, y) for y in mats2]
    for i, lx in enumerate(left):
        for j, y in enumerate(mats2):
            joint = complex(np.sum(lx.T * y))
            if abs(joint - e1[i] * e2[j]) > tol:
                return False
    return True


def _product_check_factors(rho, n1, n2, tol):
    """Fast sweep for factor algebras; returns a violating pair or None."""
    s1, s2 = n1.structure, n2.structure
    union = tuple(sorted(set(s1.acting) | set(s2.acting)))
    udims = tuple(s1.dims[i] for i in union)
    pos1 = tuple(union.index(i) for i in s1.acting)
    pos2 = tuple(union.index(i) for i in s2.acting)
    rho_u = la.partial_trace(rho, s1.dims, union)
    rho_1 = la.partial_trace(rho, s1.dims, s1.acting)
    rho_2 = la.partial_trace(rho, s1.dims, s2.acting)
    for i, x in enumerate(n1.local_basis_iter()):
        xe = la.embed_factor(x, udims, pos1)
        ex = _expect_c(rho_1, x)
        rx = rho_u @ xe
        for j, y in enumerate(n2.local_basis_iter()):
            ye = la.embed_factor(y, udims, pos2)
            joint = complex(np.sum(rx.T * ye))
            if abs(joint - ex * _expect_c(rho_2, y)) > tol:
                return (i, j)
    return None


def logical_independence_check(
    n1: MatrixAlgebra,
    n2: MatrixAlgebra,
    mode: str = "auto",
    samples: int = 500,
    seed: int = 0,
) -> IndependenceVerdict:
    """Check that no nonzero projections A in N1, B in N2 have A ^ B = 0.

    Exact verdicts exist only for full matrix algebras on disjoint tensor
    factors; otherwise seeded random sampling looks for a counterexample.
    """
    _check_commuting_algebras(n1, n2)
    split = _same_split(n1, n2) and not set(n1.structure.acting) & set(n2.structure.acting)
    if mode == "exact" and not split:
        raise StructureError(
            "exact independence requires full algebras on disjoint tensor factors"
        )
    if mode not in ("exact", "sampled", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if split and mode in ("exact", "auto"):
        return IndependenceVerdict(independent=True, method="exact", samples=0)
    rng = np.random.default_rng(seed)
    for k in range(samples):
        p = n1.random_projection(rng)
        q = n2.random_projection(rng)
        if lattice_meet(p, q).rank == 0:
            return IndependenceVerdict(
                independent=False, method="sampled", samples=k + 1,
                counterexample=(p, q),
            )
    return IndependenceVerdict(independent=None, method="sampled", samples=samples)
