"""Shared dense linear-algebra helpers.

Everything here works on plain complex ndarrays; the typed wrappers live in
qprob. Kept private: the public API is the qprob module.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InternalInconsistencyError

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(n: int) -> float:
    """2(n + 2)u, u the unit roundoff: a bound on the relative rounding of a
    complex inner product of length n, so |fl(XY) − XY| ≤ γ |X||Y| entry by
    entry for a product of inner dimension at most n, and its Frobenius norm
    is at most γ‖X‖_F‖Y‖_F (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, §3.1 and §3.6, constants doubled for complex
    arithmetic)."""
    return 2.0 * (n + 2) * UNIT_ROUNDOFF


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def adjoint_copy(m: np.ndarray) -> np.ndarray:
    """m* as a new C-contiguous array: one copy of m.T, conjugated in place."""
    t = m.T.astype(np.result_type(m, 0.5), order="C")
    return np.conjugate(t, out=t)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2, the bytes of 0.5 * (m + dagger(m)) in its dtype, built
    in place on ``adjoint_copy`` rather than through the strided m.conj().T."""
    t = adjoint_copy(m)
    t += m
    t *= 0.5
    return t


def herm_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - dagger(m))))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def comm_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the commutator [a, b]."""
    return frob(a @ b - b @ a)


def as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def check_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )
    return a.shape[0]


def eigh_desc(m: np.ndarray):
    """Hermitian eigendecomposition, eigenvalues descending, stable order."""
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def eig_groups(w_ascending: np.ndarray, gap: float = 1e-8) -> list[list[int]]:
    """Indices of numerically degenerate eigenvalue groups."""
    groups: list[list[int]] = []
    for i, w in enumerate(w_ascending):
        if groups and abs(w - w_ascending[groups[-1][-1]]) <= gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def range_basis(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection of known rank.

    Pivoted Cholesky (LAPACK xPSTRF; Hammarling, Higham & Lucas, LNCS 4699,
    2007) picks ``rank`` columns of P that span its range, and a thin QR
    orthonormalizes them: no eigendecomposition of P. After j < rank pivots
    the Schur complement is the projection onto the rest of the range, of
    rank ``rank`` - j, so its largest diagonal entry is at least
    (rank - j)/N; after ``rank`` pivots it vanishes up to rounding. The
    stopping tolerance 1/(2N) therefore ends the factorization at exactly
    ``rank`` pivots, and any other count is an inconsistency.
    """
    import scipy.linalg.lapack  # here, not at module level: loading it costs about 0.35 s

    _, piv, found, info = scipy.linalg.lapack.zpstrf(p, tol=0.5 / p.shape[0])
    if info < 0 or found != rank:
        raise InternalInconsistencyError(
            f"pivoted Cholesky found rank {found} for a projection of rank {rank}"
        )
    q, _ = np.linalg.qr(p[:, piv[:rank] - 1])
    return q


def span_project(p_cols: np.ndarray) -> np.ndarray:
    """Hermitian projection onto the column span of an orthonormal block."""
    return hermitize(p_cols @ dagger(p_cols))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def haar_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(dim, rng)
    return span_project(u[:, :rank])


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt style random density matrix (full rank by default)."""
    r = rank or dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_faithful_density(
    dim: int, rng: np.random.Generator, floor: float = 1e-3
) -> np.ndarray:
    """Random density with spectrum bounded away from zero by ~floor."""
    rho = random_density(dim, rng)
    rho = (1.0 - floor * dim) * rho + floor * np.eye(dim)
    return rho / np.trace(rho).real


def embed_factor(x_loc: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]) -> np.ndarray:
    """Embed an operator on selected tensor factors as x_loc (x) identity.

    ``dims`` are the factor dimensions in order, ``acting`` the factor
    indices x_loc lives on, in x_loc's own factor order (x_loc's dimension
    must be their product); they need not be sorted.
    """
    n = len(dims)
    acting = tuple(acting)
    d_act = int(np.prod([dims[i] for i in acting]))
    if x_loc.shape != (d_act, d_act):
        raise DimensionMismatchError(
            f"local operator shape {x_loc.shape} does not match factors {acting} of {dims}"
        )
    rest = tuple(i for i in range(n) if i not in acting)
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(x_loc, np.eye(d_rest))
    # big currently acts on factors ordered acting + rest; permute back.
    order = list(acting) + list(rest)
    perm = np.argsort(order)
    shaped = big.reshape([dims[i] for i in order] * 2)
    shaped = shaped.transpose(list(perm) + [p + n for p in perm])
    d = int(np.prod(dims))
    return np.ascontiguousarray(shaped.reshape(d, d))


def embed_columns(w_loc: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]) -> np.ndarray:
    """Columns spanning the range of embed_factor(w_loc w_loc*, dims, acting).

    ``w_loc`` has orthonormal columns on the factors ``acting`` (in its own
    factor order, as in embed_factor); the result is W_loc ⊗ I with its rows
    in the order of ``dims``, again orthonormal.
    """
    n = len(dims)
    acting = tuple(acting)
    rest = tuple(i for i in range(n) if i not in acting)
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(w_loc, np.eye(d_rest))
    order = list(acting) + list(rest)
    shaped = big.reshape([dims[i] for i in order] + [big.shape[1]])
    shaped = shaped.transpose(list(np.argsort(order)) + [n])
    return np.ascontiguousarray(shaped.reshape(-1, big.shape[1]))


def apply_factor(
    x_loc: np.ndarray, m: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]
) -> np.ndarray:
    """embed_factor(x_loc, dims, acting) @ m, without building the embedding.

    ``acting`` follows embed_factor (x_loc's factor order, possibly
    unsorted). The product m @ embed_factor(x, ...) is
    apply_factor(x.T, m.T, dims, acting).T.
    """
    acting = tuple(acting)
    loc_dims = [dims[i] for i in acting]
    d_act = int(np.prod(loc_dims))
    if x_loc.shape != (d_act, d_act):
        raise DimensionMismatchError(
            f"local operator shape {x_loc.shape} does not match factors {acting} of {dims}"
        )
    k = len(acting)
    shaped = m.reshape(list(dims) + [m.shape[1]])
    out = np.tensordot(x_loc.reshape(loc_dims * 2), shaped, axes=(range(k, 2 * k), acting))
    return np.moveaxis(out, range(k), acting).reshape(m.shape)


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all factors not in ``keep``; the result's factors follow
    ``keep`` as given, which need not be sorted (as in embed_factor)."""
    n = len(dims)
    keep = tuple(keep)
    shaped = m.reshape(list(dims) * 2)
    remaining = list(range(n))
    for i in range(n - 1, -1, -1):
        if i in keep:
            continue
        pos = remaining.index(i)
        shaped = np.trace(shaped, axis1=pos, axis2=pos + len(remaining))
        remaining.remove(i)
    perm = [remaining.index(i) for i in keep]
    shaped = shaped.transpose(perm + [p + len(perm) for p in perm])
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return shaped.reshape(d_keep, d_keep)


def orthonormalize_rows(vecs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (rows) of the row span of vecs, via SVD."""
    if vecs.size == 0:
        return vecs.reshape(0, vecs.shape[-1])
    u, s, vh = np.linalg.svd(vecs, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if len(s) else 1.0)
    return vh[keep]


def grow_span(basis_rows: np.ndarray, new_rows: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Extend an orthonormal row basis by the directions of new_rows."""
    if new_rows.size == 0:
        return basis_rows
    if basis_rows.size:
        resid = new_rows - (new_rows @ dagger(basis_rows)) @ basis_rows
    else:
        resid = new_rows
    extra = orthonormalize_rows(resid, tol)
    # one reorthogonalization pass for numerical hygiene
    if basis_rows.size and extra.size:
        extra = extra - (extra @ dagger(basis_rows)) @ basis_rows
        extra = orthonormalize_rows(extra, tol)
    if extra.size == 0:
        return basis_rows
    if basis_rows.size == 0:
        return extra
    return np.vstack([basis_rows, extra])
