"""Shared dense linear-algebra helpers.

Everything here works on plain complex ndarrays; the typed wrappers live in
qprob. Kept private: the public API is the qprob module.
"""

from __future__ import annotations

import math

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


def haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries as one (count, dim, dim) array: one draw and
    one stacked QR, the bytes of ``count`` haar_unitary calls in turn (each
    of those draws the real part, then the imaginary part)."""
    z = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases.conj()[:, None, :]


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


def _block(dims: tuple[int, ...], acting: tuple[int, ...]):
    """(src, dst, d_lead): the kernels below move the factors ``acting``
    from axes ``src`` to the contiguous block ``dst`` that starts at
    min(acting), in x's factor order; d_lead is the dimension of the factors
    before it. Adjacent ascending factors, every brickwork gate among them,
    are already in place: src == dst, and nothing moves."""
    first = min(acting)
    return list(acting), list(range(first, first + len(acting))), math.prod(dims[:first])


def _check_local(x_loc: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]) -> int:
    d_act = math.prod(dims[i] for i in acting)
    if x_loc.shape != (d_act, d_act):
        raise DimensionMismatchError(
            f"local operator shape {x_loc.shape} does not match factors {acting} of {dims}"
        )
    return d_act


def _kron_eye(x: np.ndarray, d_lead: int, d_rest: int) -> np.ndarray:
    """I_lead ⊗ x ⊗ I_rest as one broadcast product of x by the identity on
    lead and rest: the entries of np.kron(x, np.eye(d_lead * d_rest)),
    bit for bit, already in place."""
    d = x.shape[0]
    eye = np.eye(d_lead * d_rest).reshape(d_lead, 1, d_rest, d_lead, 1, d_rest)
    n = d_lead * d * d_rest
    return (x.reshape(1, d, 1, 1, d, 1) * eye).reshape(n, n)


# Up to this width d·rest, x acts as x ⊗ I_rest in one product: a stack of
# many d × d by d × rest products costs up to 5× more at rest <= 8 (2-core
# box, OpenBLAS, one thread), and the identity's zeros cost at most 32/d
# times the flops of the stack.
_FOLD_WIDTH = 32


def _matmul_middle(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x on the middle index of t, shape (lead, d, rest): one broadcast
    matmul, or one (lead, d·rest) product by xᵀ ⊗ I_rest = (x ⊗ I_rest)ᵀ
    when d·rest is at most _FOLD_WIDTH. The result is a new C-contiguous
    (lead, d, rest) array."""
    lead, d, rest = t.shape
    if d * rest <= _FOLD_WIDTH:
        return (t.reshape(lead, d * rest) @ _kron_eye(x.T, 1, rest)).reshape(t.shape)
    return x @ t


def embed_factor(x_loc: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]) -> np.ndarray:
    """Embed an operator on selected tensor factors as x_loc (x) identity.

    ``dims`` are the factor dimensions in order, ``acting`` the factor
    indices x_loc lives on, in x_loc's own factor order (x_loc's dimension
    must be their product); they need not be sorted. Adjacent ascending
    factors (a support widened at either end among them) give
    I_lead ⊗ x_loc ⊗ I_rest in place (``_kron_eye``); any other order is
    x_loc ⊗ I permuted once into place. The entries are the same bytes.
    """
    n = len(dims)
    acting = tuple(acting)
    d_act = _check_local(x_loc, dims, acting)
    src, dst, d_lead = _block(dims, acting)
    d = math.prod(dims)
    if src == dst:
        return _kron_eye(x_loc, d_lead, d // (d_lead * d_act))
    rest = tuple(i for i in range(n) if i not in acting)
    big = np.kron(x_loc, np.eye(d // d_act))
    # big acts on factors ordered acting + rest; permute back.
    order = list(acting) + list(rest)
    perm = np.argsort(order)
    shaped = big.reshape([dims[i] for i in order] * 2)
    shaped = shaped.transpose(list(perm) + [p + n for p in perm])
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
    """embed_factor(x_loc, dims, acting) @ m for an N-vector or N × k block
    m, without building the embedding.

    ``acting`` follows embed_factor (x_loc's factor order, possibly
    unsorted). m's rows are read as the factors ``dims``, the factors
    ``acting`` are brought to one contiguous block (``_block``), and x acts
    on the (lead, d_act, rest) reshape by one matmul (``_matmul_middle``).
    Cost: O(N k d_act). Adjacent ascending factors move nothing, so the
    product is the one new array; any other order adds one permuted copy of
    m in and one of the product out. A non-contiguous m is copied by the
    reshape.
    """
    acting = tuple(acting)
    d_act = _check_local(x_loc, dims, acting)
    src, dst, d_lead = _block(dims, acting)
    t = m.reshape(*dims, -1)
    if src != dst:
        t = np.moveaxis(t, src, dst)
    out = _matmul_middle(x_loc, t.reshape(d_lead, d_act, -1)).reshape(t.shape)
    if src != dst:
        out = np.moveaxis(out, dst, src)
    return out.reshape(m.shape)


def conjugate_factor(
    g_loc: np.ndarray, m: np.ndarray, dims: tuple[int, ...], acting: tuple[int, ...]
) -> np.ndarray:
    """(G ⊗ I) m (G ⊗ I)* for an N × N m, G = g_loc on the factors
    ``acting`` (as in embed_factor), without building the embedding.

    The row and the column factors ``acting`` are brought to contiguous
    blocks as in apply_factor. G acts on the rows, viewed as
    (lead, d_g, rest·N), and conj(G) on the columns of that product, viewed
    as (N·lead, d_g, rest): two matmuls (``_matmul_middle``), no transpose.
    Cost: O(N² d_g). Adjacent ascending factors move nothing, so the two
    products are the only new arrays; any other order adds one permuted
    copy of m in and one of the result out.
    """
    acting = tuple(acting)
    d_g = _check_local(g_loc, dims, acting)
    src, dst, d_lead = _block(dims, acting)
    n, d = len(dims), m.shape[0]
    src, dst = src + [i + n for i in src], dst + [i + n for i in dst]
    t = m.reshape(*dims, *dims)
    if src != dst:
        t = np.moveaxis(t, src, dst)
    left = _matmul_middle(g_loc, t.reshape(d_lead, d_g, -1))
    out = _matmul_middle(g_loc.conj(), left.reshape(d * d_lead, d_g, -1)).reshape(t.shape)
    if src != dst:
        out = np.moveaxis(out, dst, src)
    return out.reshape(d, d)


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
