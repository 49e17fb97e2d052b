"""Independent checkers for the benchmark's four workloads.

Each checker recomputes what a workload's output claims from the inputs, with
numpy and plain Python only: nothing here imports ccbench or calls the
function under test. A checker returns None when the output holds and raises
CheckFailed with the reason when it does not.

Conventions shared with the package's documentation, not its code: site 0 of
a qubit chain is the first (most significant) tensor factor, the gates of a
layer are applied in list order, U(k) = L_k ... L_1, and a slice cone at
step k on sites [lo, hi] is the double cone u in (k - hi - 1/2, k - lo + 1/2),
v in (k + lo - 1/2, k + hi + 1/2) with u = t - x, v = t + x.
"""

from __future__ import annotations

import math

import numpy as np

# The documented classical common-cause threshold (ccbench.config.Tolerances.cc).
CC_TOL = 1e-9
SQRT2 = math.sqrt(2.0)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
COMMUTATOR_TOL = 1e-10  # the axiom checks' documented zero for a commutator
MATRIX_TOL = 1e-8
WEIGHT_TOL = 1e-8


class CheckFailed(Exception):
    """An output that the independent recomputation rejects."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# bell-seesaw: the Horodecki closed form
# ---------------------------------------------------------------------------


def horodecki_beta(rho: np.ndarray) -> float:
    """Maximal Bell correlation of a two-qubit state, from its Pauli matrix.

    t_ij = tr(rho sigma_i (x) sigma_j); the optimum of (1/2) CHSH over +-1
    observables is sqrt of the two largest eigenvalues of t^T t summed, and
    the identity quadruple always reaches 1.
    """
    t = np.array(
        [[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS] for si in PAULIS]
    )
    w = np.sort(np.linalg.eigvalsh(t.T @ t))
    return max(1.0, math.sqrt(max(0.0, w[-1] + w[-2])))


def check_bell(beta: float, rho2: np.ndarray, product: bool) -> None:
    """beta against the closed form of the two-qubit state before embedding."""
    require(beta <= SQRT2 + 1e-9, f"beta {beta!r} exceeds sqrt(2) + 1e-9")
    if product:
        require(abs(beta - 1.0) <= 1e-9, f"product state gives beta {beta!r}, not 1")
    closed = horodecki_beta(rho2)
    require(
        abs(beta - closed) <= 1e-6,
        f"beta {beta!r} differs from the closed form {closed!r} by more than 1e-6",
    )


# ---------------------------------------------------------------------------
# classical-audit: enumeration over bitmask probability tables
# ---------------------------------------------------------------------------


def bitmask_probabilities(weights) -> np.ndarray:
    """p[mask] for every event mask, summing atom weights in ascending order."""
    w = [float(x) for x in weights]
    full = (1 << len(w)) - 1
    p = np.zeros(full + 1)
    for mask in range(1, full + 1):
        top = mask.bit_length() - 1
        p[mask] = p[mask & ~(1 << top)] + w[top]
    return p


def closedness_oracle(weights, tol: float = CC_TOL):
    """(n_correlated_pairs, n_covered, uncovered masks) by exhaustive enumeration.

    A pair of distinct events (A, B), A < B as masks, is correlated when
    p(AB) - p(A)p(B) > tol. It is covered when some event C with
    0 < p(C) < 1, other than A, B, AB, A u B and their complements, screens
    the pair off on C and on its complement within tol and raises both
    conditional probabilities by more than tol.
    """
    p = bitmask_probabilities(weights)
    full = len(p) - 1
    cands = np.arange(1, full)
    pc, pcp = p[cands], p[full ^ cands]
    n_corr = covered = 0
    uncovered = []
    for am in range(1, full + 1):
        for bm in range(am + 1, full + 1):
            ab = am & bm
            if not p[ab] - p[am] * p[bm] > tol:
                continue
            n_corr += 1
            trivial = {am, bm, ab, am | bm}
            trivial |= {full ^ m for m in trivial}
            keep = ~np.isin(cands, list(trivial)) & (pc > 0.0) & (pc < 1.0)
            c, q, qp = cands[keep], pc[keep], pcp[keep]
            cp = full ^ c
            a_c, b_c, ab_c = p[am & c] / q, p[bm & c] / q, p[ab & c] / q
            a_cp, b_cp, ab_cp = p[am & cp] / qp, p[bm & cp] / qp, p[ab & cp] / qp
            ok = (
                (np.abs(ab_c - a_c * b_c) <= tol)
                & (np.abs(ab_cp - a_cp * b_cp) <= tol)
                & (a_c - a_cp > tol)
                & (b_c - b_cp > tol)
            )
            if ok.any():
                covered += 1
            else:
                uncovered.append((am, bm))
    return n_corr, covered, uncovered


def _mask(atoms) -> int:
    return sum(1 << int(i) for i in atoms)


def check_audit(weights, n_correlated: int, n_covered: int, uncovered, closed: bool) -> None:
    """The audit's counts and uncovered set against the enumeration."""
    want_corr, want_cov, want_unc = closedness_oracle(weights)
    require(n_correlated == want_corr, f"{n_correlated} correlated pairs, enumeration has {want_corr}")
    require(n_covered == want_cov, f"{n_covered} covered pairs, enumeration has {want_cov}")
    got = sorted((_mask(a), _mask(b)) for a, b in uncovered)
    got = sorted((min(x, y), max(x, y)) for x, y in got)
    require(got == sorted(want_unc), "uncovered pairs differ from the enumeration")
    require(closed == (not want_unc), f"closed = {closed} contradicts the enumeration")


# ---------------------------------------------------------------------------
# qubit chains: evolution, site operators, supports
# ---------------------------------------------------------------------------


def two_site_operator(gate: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Full-chain matrix of a 4x4 gate whose factors are sites i then j."""
    rest = [s for s in range(n) if s not in (i, j)]
    big = np.kron(np.asarray(gate, dtype=complex), np.eye(2 ** (n - 2)))
    order = [i, j] + rest  # the site carried by each tensor axis of big
    perm = list(np.argsort(order))
    big = big.reshape([2] * (2 * n)).transpose(perm + [n + p for p in perm])
    return big.reshape(2**n, 2**n)


def evolutions(layers, n: int, k_max: int) -> list[np.ndarray]:
    """[U(0), ..., U(k_max)] from the layer lists of ((i, j), gate)."""
    out = [np.eye(2**n, dtype=complex)]
    for k in range(1, k_max + 1):
        layer = np.eye(2**n, dtype=complex)
        for (i, j), gate in layers[k - 1]:
            layer = two_site_operator(gate, i, j, n) @ layer
        out.append(layer @ out[-1])
    return out


def site_left(p: np.ndarray, m: np.ndarray, s: int, n: int) -> np.ndarray:
    """(p on site s) @ m, without forming the full-chain matrix of p."""
    d = m.shape[0]
    t = m.reshape(2**s, 2, 2 ** (n - s - 1), d)
    return np.einsum("ab,xbyd->xayd", p, t).reshape(d, d)


def site_right(m: np.ndarray, p: np.ndarray, s: int, n: int) -> np.ndarray:
    """m @ (p on site s)."""
    d = m.shape[0]
    t = m.reshape(d, 2**s, 2, 2 ** (n - s - 1))
    return np.einsum("dxby,ba->dxay", t, p).reshape(d, d)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def off_site_residual(m: np.ndarray, sites, n: int) -> float:
    """Largest relative commutator of m with a Pauli on a site not in ``sites``.

    An operator acts as the identity off a set of sites exactly when it
    commutes with every Pauli on the other sites, so 0 means it does.
    """
    scale = max(1.0, frob(m))
    worst = 0.0
    for s in range(n):
        if s in sites:
            continue
        for p in PAULIS:
            worst = max(worst, frob(site_left(p, m, s, n) - site_right(m, p, s, n)) / scale)
    return worst


def cone_commutator(u: list[np.ndarray], c1, c2, n: int) -> float:
    """Largest Frobenius commutator between the Pauli generators of two cones.

    A cone is (step, lo, hi); its generators are U(k)* P_s U(k). Conjugating
    the pair by U(k1) leaves the norms unchanged, so each commutator is
    [P_s, W Q_t W*] with W = U(k1) U(k2)*.
    """
    (k1, lo1, hi1), (k2, lo2, hi2) = c1, c2
    w = u[k1] @ u[k2].conj().T
    wd = w.conj().T
    worst = 0.0
    for t in range(lo2, hi2 + 1):
        for q in PAULIS:
            m = w @ site_left(q, wd, t, n)
            for s in range(lo1, hi1 + 1):
                for p in PAULIS:
                    worst = max(worst, frob(site_left(p, m, s, n) - site_right(m, p, s, n)))
    return worst


def cell_hull_null(cone) -> tuple[float, float, float, float]:
    """(u_lo, u_hi, v_lo, v_hi) of the null hull of a cone's cell rectangle."""
    k, lo, hi = cone
    t0, t1, x0, x1 = k - 0.5, k + 0.5, lo - 0.5, hi + 0.5
    return t0 - x1, t1 - x0, t0 + x0, t1 + x1


def cells_spacelike(c1, c2) -> bool:
    u1lo, u1hi, v1lo, v1hi = cell_hull_null(c1)
    u2lo, u2hi, v2lo, v2hi = cell_hull_null(c2)
    return (u1hi <= u2lo and v2hi <= v1lo) or (u2hi <= u1lo and v1hi <= v2lo)


# ---------------------------------------------------------------------------
# net-axioms
# ---------------------------------------------------------------------------


def check_axioms_clean(report: dict, sample_pairs: int, u, n: int, probe_pairs) -> None:
    """A clean net: no violations, full counts, and commuting probe pairs."""
    require(report["ok"], "a clean net was reported with violations")
    for key in ("n_isotony", "n_causality", "n_primitive"):
        require(report[key] == sample_pairs, f"{key} = {report[key]}, requested {sample_pairs}")
    require(
        report["max_spacelike_commutator"] <= COMMUTATOR_TOL,
        f"max spacelike commutator {report['max_spacelike_commutator']:.3g} above 1e-10",
    )
    for c1, c2 in probe_pairs:
        require(cells_spacelike(c1, c2), f"probe pair {c1}, {c2} is not spacelike")
        worst = cone_commutator(u, c1, c2, n)
        require(worst <= COMMUTATOR_TOL, f"cones {c1}, {c2} do not commute ({worst:.3g})")


def check_axioms_planted(report: dict, u, n: int) -> None:
    """A net with a long-range gate: violations reported, each one confirmed."""
    require(not report["ok"], "a net with a planted long-range gate was reported clean")
    violations = report["causality_violations"]
    require(violations, "no causality violation reported on a planted net")
    for c1, c2, worst in violations:
        require(cells_spacelike(c1, c2), f"violation {c1}, {c2} is not a spacelike pair")
        if worst > COMMUTATOR_TOL:
            mine = cone_commutator(u, c1, c2, n)
            require(mine > COMMUTATOR_TOL, f"violation {c1}, {c2} not confirmed ({mine:.3g})")


# ---------------------------------------------------------------------------
# net-cause
# ---------------------------------------------------------------------------


def cone_null(cone) -> tuple[float, float, float, float]:
    """(u_lo, u_hi, v_lo, v_hi) of a slice cone's double cone."""
    k, lo, hi = cone
    return k - hi - 0.5, k - lo + 0.5, k + lo - 0.5, k + hi + 0.5


def check_slab(slab_t, slab_x, d1, d2, lattice_sites) -> None:
    """Slab in (BLC(D1) minus D1) u (BLC(D2) minus D2), completion covering both.

    The slab is the open rectangle slab_t x slab_x. Both u = t - x and
    v = t + x grow with t, so the slab lies in the wedge {u < b, v < d} of a
    backward light cone exactly where its top edge does, which is the x-range
    [t1 - b, d - t1]. The slab must also contain the step-0 cells of the
    lattice sites its algebra is built on.
    """
    (t0, t1), (x0, x1) = slab_t, slab_x
    require(t0 < t1 and x0 < x1, "empty slab")
    nulls = [cone_null(d) for d in (d1, d2)]
    for ulo, uhi, vlo, vhi in nulls:
        require(t1 <= 0.5 * (ulo + vlo), "slab reaches into D1 or D2")
    spans = sorted((t1 - uhi, vhi - t1) for ulo, uhi, vlo, vhi in nulls)
    reach = x0
    for lo, hi in spans:
        if lo <= reach:
            reach = max(reach, hi)
    require(reach >= x1, "slab leaves the union of the two backward light cones")
    cu = (t0 - x1, t1 - x0)
    cv = (t0 + x0, t1 + x1)
    for ulo, uhi, vlo, vhi in nulls:
        require(
            cu[0] <= ulo and uhi <= cu[1] and cv[0] <= vlo and vhi <= cv[1],
            "causal completion of the slab does not contain D1 and D2",
        )
    lo, hi = lattice_sites
    require(
        t0 <= -0.5 and 0.5 <= t1 and x0 <= lo - 0.5 and hi + 0.5 <= x1,
        f"lattice sites [{lo}, {hi}] at step 0 are not inside the slab",
    )


def check_cause(rho, u, n: int, d1, d2, a, b, c, lattice_step: int, lattice_sites, slab_t, slab_x) -> None:
    """A localized strong common cause C for the pair (A, B) in the state rho."""
    eye = np.eye(rho.shape[0])
    for name, m in (("A", a), ("B", b), ("C", c)):
        require(frob(m - m.conj().T) <= MATRIX_TOL, f"{name} is not self-adjoint")
        require(frob(m @ m - m) <= MATRIX_TOL * max(1.0, frob(m)), f"{name} is not a projection")
    ab = a @ b
    for name, x, y in (("A, B", a, b), ("A, C", a, c), ("B, C", b, c)):
        require(frob(x @ y - y @ x) <= MATRIX_TOL, f"{name} do not commute")
    require(np.trace(c).real >= 0.5, "C is the zero projection")
    require(frob(ab @ c - c) <= MATRIX_TOL * max(1.0, frob(c)), "C is not below AB")

    def phi(m):
        return float(np.sum(rho.T * m).real)

    pa, pb, pab, pc = phi(a), phi(b), phi(ab), phi(c)
    require(pab - pa * pb > CC_TOL, "A and B are not positively correlated")
    r = (pab - pa * pb) / (1.0 - pa - pb + pab)
    require(abs(pc - r) <= WEIGHT_TOL, f"phi(C) = {pc!r} differs from r = {r!r}")
    pcp = 1.0 - pc
    require(pc > CC_TOL and pcp > CC_TOL, "phi(C) is degenerate")
    cp = eye - c
    ac, bc, abc = a @ c, b @ c, ab @ c
    acp, bcp, abcp = a @ cp, b @ cp, ab @ cp
    screen_c = phi(abc) / pc - (phi(ac) / pc) * (phi(bc) / pc)
    screen_cp = phi(abcp) / pcp - (phi(acp) / pcp) * (phi(bcp) / pcp)
    require(abs(screen_c) <= WEIGHT_TOL, f"C does not screen off ({screen_c:.3g})")
    require(abs(screen_cp) <= WEIGHT_TOL, f"I - C does not screen off ({screen_cp:.3g})")
    require(phi(ac) / pc - phi(acp) / pcp > CC_TOL, "C is not positively relevant to A")
    require(phi(bc) / pc - phi(bcp) / pcp > CC_TOL, "C is not positively relevant to B")

    lo, hi = lattice_sites
    uc = u[lattice_step]
    off = off_site_residual(uc @ c @ uc.conj().T, range(lo, hi + 1), n)
    require(off <= MATRIX_TOL, f"C acts off the lattice sites [{lo}, {hi}] ({off:.3g})")
    for name, m, (k, dlo, dhi) in (("A", a, d1), ("B", b, d2)):
        off = off_site_residual(u[k] @ m @ u[k].conj().T, range(dlo, dhi + 1), n)
        require(off <= MATRIX_TOL, f"U {name} U* acts off the sites of its region ({off:.3g})")
    check_slab(slab_t, slab_x, d1, d2, lattice_sites)
