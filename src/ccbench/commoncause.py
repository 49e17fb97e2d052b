"""Reichenbachian common causes, classical and quantum.

A common cause for a positively correlated pair (A, B) is an event or
projection C that screens the correlation off on both C and its complement
and is positively relevant to each of A and B. The quantum version asks the
same four conditions of a projection commuting with A and B, with meets in
place of intersections.

The constructive half: for a faithful state and a commuting correlated pair
there is a closed-form target weight r such that any strict subprojection of
A ^ B with state weight exactly r is a (strong) common cause. Subprojections
of prescribed weight are synthesized by an eigenvalue walk on the compressed
state; genuinely probabilistic causes (C below neither A nor B) are searched
for numerically inside the commutant of {A, B}.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.optimize

from . import _linalg as la
from .config import TOL
from .errors import (
    CommutationError,
    DimensionMismatchError,
    InfeasibleError,
    InternalInconsistencyError,
    NotFaithfulError,
    PreconditionError,
    StructureError,
    TargetRangeError,
    UncorrelatedError,
    ValidationError,
    ZeroConditioningError,
)
from .qprob import (
    DensityState,
    MatrixAlgebra,
    Projection,
    correlation,
    is_subprojection,
    lattice_join,
    lattice_meet,
    state_eval,
)

AUDIT_CAP = 12


# ---------------------------------------------------------------------------
# classical probability spaces
# ---------------------------------------------------------------------------


class ClassicalSpace:
    """Finite probability space; events are subsets of atom indices.

    Events may be passed as iterables of atom indices or as integer
    bitmasks; set operations are bit operations on masks.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a nonempty 1-d sequence")
        if np.any(w < 0):
            raise ValidationError("negative atom weight", invariant="weights >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"weights sum to {w.sum():.15g}, not 1", invariant="sum(weights) = 1"
            )
        self.weights = w
        self.n_atoms = int(w.size)
        self.full_mask = (1 << self.n_atoms) - 1

    def as_mask(self, event) -> int:
        if isinstance(event, (int, np.integer)):
            mask = int(event)
            if mask < 0 or mask > self.full_mask:
                raise ValidationError(f"event bitmask {mask} out of range")
            return mask
        mask = 0
        for i in event:
            i = int(i)
            if not 0 <= i < self.n_atoms:
                raise ValidationError(f"atom index {i} out of range")
            mask |= 1 << i
        return mask

    def as_set(self, event) -> frozenset:
        mask = self.as_mask(event)
        return frozenset(i for i in range(self.n_atoms) if mask >> i & 1)

    def prob(self, event) -> float:
        mask = self.as_mask(event)
        return float(sum(self.weights[i] for i in range(self.n_atoms) if mask >> i & 1))

    def complement(self, event) -> frozenset:
        return self.as_set(self.full_mask & ~self.as_mask(event))

    def correlation(self, a, b) -> float:
        am, bm = self.as_mask(a), self.as_mask(b)
        return self.prob(am & bm) - self.prob(am) * self.prob(bm)

    def logically_independent(self, a, b) -> bool:
        """All four Boolean cells of the pair are nonempty as sets."""
        am, bm = self.as_mask(a), self.as_mask(b)
        cm = self.full_mask
        return all(x != 0 for x in (am & bm, am & ~bm & cm, ~am & bm & cm, ~am & ~bm & cm))

    def events(self) -> Iterable[int]:
        return range(self.full_mask + 1)

    def __repr__(self):
        return f"ClassicalSpace(n_atoms={self.n_atoms})"


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonCauseCertificate:
    """Outcome of checking the four common-cause conditions for one C.

    Screening residuals are absolute deviations from the two conditional
    factorization equalities; margins are the signed gaps of the two
    positive-relevance inequalities. ``verified`` demands residuals within
    tolerance and strictly positive margins.
    """

    cause: object
    residual_screen_C: float
    residual_screen_Cperp: float
    margin_A: float
    margin_B: float
    is_strong: bool
    is_genuine: bool
    correlation: float
    localization: object = None

    @property
    def verified(self) -> bool:
        return (
            max(self.residual_screen_C, self.residual_screen_Cperp) <= TOL.cc
            and min(self.margin_A, self.margin_B) > TOL.cc
        )

    def to_record(self) -> dict:
        if isinstance(self.cause, Projection):
            cause = {"kind": "projection", "rank": self.cause.rank, "dim": self.cause.dim}
        else:
            cause = {"kind": "event", "atoms": sorted(self.cause)}
        loc = self.localization
        if loc is not None and not isinstance(loc, str):
            from .geometry import describe

            loc = describe(loc)
        return {
            "cause": cause,
            "residual_screen_C": self.residual_screen_C,
            "residual_screen_Cperp": self.residual_screen_Cperp,
            "margin_A": self.margin_A,
            "margin_B": self.margin_B,
            "is_strong": self.is_strong,
            "is_genuine": self.is_genuine,
            "correlation": self.correlation,
            "verified": self.verified,
            "localization": loc,
        }


def _four_conditions(p_ab_c, p_a_c, p_b_c, p_ab_cp, p_a_cp, p_b_cp):
    """Screening residuals and relevance margins from six conditional weights.

    Takes p(AB|C), p(A|C), p(B|C), p(AB|C⊥), p(A|C⊥), p(B|C⊥) and returns
    the signed screening residuals on C and on C⊥ and the margins of A and
    B, in that order; a certificate stores the residuals' absolute values.
    """
    return (
        p_ab_c - p_a_c * p_b_c,
        p_ab_cp - p_a_cp * p_b_cp,
        p_a_c - p_a_cp,
        p_b_c - p_b_cp,
    )


# ---------------------------------------------------------------------------
# classical verification and search
# ---------------------------------------------------------------------------


def classical_verify_cc(space: ClassicalSpace, a, b, c) -> CommonCauseCertificate:
    """Check the two screening equalities and two relevance inequalities."""
    am, bm, cm = space.as_mask(a), space.as_mask(b), space.as_mask(c)
    cperp = space.full_mask & ~cm
    pc, pcp = space.prob(cm), space.prob(cperp)
    for name, p in (("A", space.prob(am)), ("B", space.prob(bm)), ("C", pc), ("C⊥", pcp)):
        if p <= 0.0:
            raise ZeroConditioningError(f"event {name} has zero probability")

    def cond(xm, ym, py):
        return space.prob(xm & ym) / py

    meet = am & bm
    s_c, s_cp, m_a, m_b = _four_conditions(
        *(cond(x, y, py) for y, py in ((cm, pc), (cperp, pcp)) for x in (meet, am, bm))
    )
    return CommonCauseCertificate(
        cause=space.as_set(cm),
        residual_screen_C=abs(s_c),
        residual_screen_Cperp=abs(s_cp),
        margin_A=m_a,
        margin_B=m_b,
        is_strong=cm & ~meet == 0,
        is_genuine=(cm & ~am != 0) and (cm & ~bm != 0),
        correlation=space.correlation(am, bm),
    )


def _trivial_causes(space: ClassicalSpace, am: int, bm: int) -> set:
    full = space.full_mask
    base = {am, bm, am & bm, am | bm}
    return base | {full & ~m for m in base}


def classical_find_cc(
    space: ClassicalSpace, a, b, exclude_trivial: bool = True
) -> list[CommonCauseCertificate]:
    """All events C that verify as common causes of the correlated pair.

    An empty result is a completeness statement for this space: the search
    is exhaustive over all events with 0 < p(C) < 1.
    """
    am, bm = space.as_mask(a), space.as_mask(b)
    if space.correlation(am, bm) <= TOL.cc:
        raise UncorrelatedError(
            f"pair is not positively correlated (corr = {space.correlation(am, bm):.3g})"
        )
    skip = _trivial_causes(space, am, bm) if exclude_trivial else set()
    found = []
    for cm in range(1, space.full_mask):
        if cm in skip:
            continue
        pc = space.prob(cm)
        if not 0.0 < pc < 1.0:
            continue
        cert = classical_verify_cc(space, am, bm, cm)
        if cert.verified:
            found.append(cert)
    return found


@dataclass(frozen=True)
class ClosednessReport:
    """Exhaustive audit: does every correlated pair admit a common cause."""

    n_atoms: int
    n_correlated_pairs: int
    n_covered: int
    uncovered: list
    closed: bool

    def to_record(self) -> dict:
        return {
            "n_atoms": self.n_atoms,
            "n_correlated_pairs": self.n_correlated_pairs,
            "n_covered": self.n_covered,
            "uncovered": [
                {"A": sorted(a), "B": sorted(b)} for a, b in self.uncovered
            ],
            "closed": self.closed,
        }


def classical_closedness_audit(space: ClassicalSpace) -> ClosednessReport:
    """Run classical_find_cc over every correlated pair of distinct events."""
    if space.n_atoms > AUDIT_CAP:
        raise PreconditionError(
            f"audit over {space.n_atoms} atoms exceeds cap {AUDIT_CAP}"
        )
    n_corr = 0
    covered = 0
    uncovered = []
    for am in range(1, space.full_mask + 1):
        for bm in range(am + 1, space.full_mask + 1):
            if space.correlation(am, bm) <= TOL.cc:
                continue
            n_corr += 1
            if classical_find_cc(space, am, bm, exclude_trivial=True):
                covered += 1
            else:
                uncovered.append((space.as_set(am), space.as_set(bm)))
    return ClosednessReport(
        n_atoms=space.n_atoms,
        n_correlated_pairs=n_corr,
        n_covered=covered,
        uncovered=uncovered,
        closed=not uncovered,
    )


def random_cc_instance(rng: np.random.Generator):
    """A random 8-atom space with a planted common cause.

    Atoms index the cells (C, A, B) with bit 2 = C, bit 1 = A, bit 0 = B;
    the pair (A, B) is conditionally independent given C by construction.
    Returns (space, A, B, C) with events as frozensets.
    """
    pc = rng.uniform(0.3, 0.7)
    a1, b1 = rng.uniform(0.65, 0.9, size=2)
    a0, b0 = rng.uniform(0.1, 0.35, size=2)
    w = np.empty(8)
    for atom in range(8):
        cbit, abit, bbit = atom >> 2 & 1, atom >> 1 & 1, atom & 1
        p = pc if cbit else 1.0 - pc
        pa = (a1 if cbit else a0) if abit else 1.0 - (a1 if cbit else a0)
        pb = (b1 if cbit else b0) if bbit else 1.0 - (b1 if cbit else b0)
        w[atom] = p * pa * pb
    space = ClassicalSpace(w / w.sum())
    a = frozenset(i for i in range(8) if i >> 1 & 1)
    b = frozenset(i for i in range(8) if i & 1)
    c = frozenset(i for i in range(8) if i >> 2 & 1)
    return space, a, b, c


# ---------------------------------------------------------------------------
# quantum verification
# ---------------------------------------------------------------------------


def _require_commuting(*pairs):
    for name, x, y in pairs:
        res = la.comm_residual(x.mat, y.mat)
        if res > TOL.comm:
            raise CommutationError(f"{name} do not commute (residual {res:.3g})")


def quantum_verify_cc(
    phi: DensityState, a: Projection, b: Projection, c: Projection
) -> CommonCauseCertificate:
    """Check the four common-cause conditions with meets as conjunctions.

    Requires A and B to commute and C to commute with both; conditional
    weights are ratios of meet weights, never noncommutative conditionings.
    """
    _require_commuting(("A and B", a, b), ("C and A", c, a), ("C and B", c, b))
    pc = state_eval(phi, c)
    pcp = 1.0 - pc
    if pc <= TOL.cc or pcp <= TOL.cc:
        raise ZeroConditioningError(f"conditioning weight φ(C) = {pc:.3g} is degenerate")
    cperp = c.complement()
    ab = lattice_meet(a, b)

    def cond(x, y, py):
        return state_eval(phi, lattice_meet(x, y)) / py

    s_c, s_cp, m_a, m_b = _four_conditions(
        *(cond(x, y, py) for y, py in ((c, pc), (cperp, pcp)) for x in (ab, a, b))
    )
    return CommonCauseCertificate(
        cause=c,
        residual_screen_C=abs(s_c),
        residual_screen_Cperp=abs(s_cp),
        margin_A=m_a,
        margin_B=m_b,
        is_strong=is_subprojection(c, ab),
        is_genuine=not is_subprojection(c, a) and not is_subprojection(c, b),
        correlation=correlation(phi, a, b),
    )


# ---------------------------------------------------------------------------
# the r-value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RValue:
    """Target weight for a strong common cause, with its ingredients."""

    r: float
    phiAB: float
    phiA: float
    phiB: float
    phiAvB: float

    def to_record(self) -> dict:
        return {
            "r": self.r,
            "phiAB": self.phiAB,
            "phiA": self.phiA,
            "phiB": self.phiB,
            "phiAvB": self.phiAvB,
        }


def reichenbach_r(phi: DensityState, a: Projection, b: Projection) -> RValue:
    """r = (φ(A^B) − φ(A)φ(B)) / (1 − φ(AvB)) for a commuting correlated pair.

    Any strict subprojection of A^B carrying weight exactly r screens the
    correlation off on both sides and is positively relevant to A and B.
    """
    _require_commuting(("A and B", a, b))
    pa, pb = state_eval(phi, a), state_eval(phi, b)
    pab = state_eval(phi, lattice_meet(a, b))
    pavb = state_eval(phi, lattice_join(a, b))
    num = pab - pa * pb
    if num <= TOL.cc:
        raise UncorrelatedError(f"pair is not positively correlated (corr = {num:.3g})")
    den = 1.0 - pavb
    if den <= TOL.cc:
        raise InternalInconsistencyError(
            f"1 − φ(AvB) = {den:.3g} despite positive correlation"
        )
    r = num / den
    if not r < pab:
        raise InternalInconsistencyError(f"r = {r:.15g} not below φ(A^B) = {pab:.15g}")
    return RValue(r=r, phiAB=pab, phiA=pa, phiB=pb, phiAvB=pavb)


# ---------------------------------------------------------------------------
# subprojection synthesis
# ---------------------------------------------------------------------------


def _rank_interval(mu: np.ndarray, k: int) -> tuple[float, float]:
    return float(mu[len(mu) - k :].sum()), float(mu[:k].sum())


def _walk_selection(
    mu: np.ndarray, k: int, r: float, order_rng: Optional[np.random.Generator]
) -> tuple[list[int], Optional[tuple[int, int, float]]]:
    """Walk from the top-k index set downward until the sum hits r.

    Moves one selected index to its immediate successor per step, which
    keeps every intermediate set reachable by a continuous two-vector
    rotation. Returns the final selection and, when the target is hit
    mid-step, the (leaving, entering, sin²θ) triple of the partial move.
    """
    m = len(mu)
    selected = list(range(k))
    s = float(mu[:k].sum())
    while s - r > 0.0:
        movable = [i for i in selected if i + 1 < m and i + 1 not in selected]
        if not movable:
            break
        if order_rng is None:
            i = max(movable)
        else:
            i = movable[int(order_rng.integers(len(movable)))]
        j = i + 1
        drop = float(mu[i] - mu[j])
        if drop > 0.0 and s - drop <= r:
            sin2 = (s - r) / drop
            return selected, (i, j, sin2)
        selected[selected.index(i)] = j
        s -= drop
    return selected, None


def synthesize_subprojection(
    phi: DensityState,
    p: Projection,
    r: float,
    strict: bool = False,
    _order_rng: Optional[np.random.Generator] = None,
    _prefer_rank: Optional[int] = None,
) -> Projection:
    """A subprojection C <= P with state weight exactly r.

    Compresses the state to the range of P and walks down from the top-k
    eigenvector set, finishing with a partial rotation between the two
    eigenvectors of the crossing step, so φ(C) lands on r up to rounding.
    Raises Infeasible when r lies outside every achievable rank interval,
    which is the finite-dimensional obstruction to the construction.
    """
    if not phi.faithful:
        raise NotFaithfulError(
            f"state is not faithful (min eigenvalue {phi.min_eigenvalue:.3g})"
        )
    la.check_same_dim(phi.mat, p.mat)
    pp = state_eval(phi, p)
    if not 0.0 < r < pp:
        raise TargetRangeError(f"target r = {r:.15g} outside (0, φ(P) = {pp:.15g})")
    m = p.rank
    if m == 0:
        raise TargetRangeError("P is the zero projection")
    w, vecs = np.linalg.eigh(la.hermitize(p.mat))
    basis = vecs[:, w >= 0.5]
    compressed = la.hermitize(la.dagger(basis) @ phi.mat @ basis)
    mu, emb = la.eigh_desc(compressed)
    max_rank = m - 1 if strict else m
    if max_rank < 1:
        raise InfeasibleError(
            "P has rank 1; its only strict subprojection is 0"
        )
    ranks = list(range(1, max_rank + 1))
    if _prefer_rank is not None and _prefer_rank in ranks:
        ranks.remove(_prefer_rank)
        ranks.insert(0, _prefer_rank)
    chosen = None
    for k in ranks:
        lo, hi = _rank_interval(mu, k)
        if lo - TOL.synth <= r <= hi + TOL.synth:
            chosen = k
            break
    if chosen is None:
        intervals = ", ".join(
            f"rank {k}: [{_rank_interval(mu, k)[0]:.6g}, {_rank_interval(mu, k)[1]:.6g}]"
            for k in range(1, max_rank + 1)
        )
        raise InfeasibleError(
            f"target {r:.6g} lies outside every achievable interval ({intervals})"
        )
    selected, partial = _walk_selection(mu, chosen, min(r, _rank_interval(mu, chosen)[1]), _order_rng)
    cols = []
    for idx in selected:
        if partial is not None and idx == partial[0]:
            continue
        cols.append(emb[:, idx])
    if partial is not None:
        i, j, sin2 = partial
        sin2 = min(max(sin2, 0.0), 1.0)
        cols.append(np.sqrt(1.0 - sin2) * emb[:, i] + np.sqrt(sin2) * emb[:, j])
    local = np.stack(cols, axis=1)
    c = Projection.from_span(basis @ local)
    achieved = state_eval(phi, c)
    if abs(achieved - r) > TOL.synth:
        raise InternalInconsistencyError(
            f"synthesized weight {achieved:.15g} misses target {r:.15g}"
        )
    return c


# ---------------------------------------------------------------------------
# strong common causes
# ---------------------------------------------------------------------------


def find_strong_cc(
    phi: DensityState,
    a: Projection,
    b: Projection,
    algebra: MatrixAlgebra | None = None,
    localization=None,
) -> CommonCauseCertificate:
    """Construct and verify a strong common cause C < A^B with φ(C) = r.

    With a factor ``algebra`` given, the synthesis runs inside it: the state
    and the meet are compressed to the acting factors, and the resulting
    local projection is embedded back, so the cause is an element of the
    algebra (used for spacetime-localized causes).
    """
    if not phi.faithful:
        raise NotFaithfulError(
            f"state is not faithful (min eigenvalue {phi.min_eigenvalue:.3g})"
        )
    meet = lattice_meet(a, b)
    pa, pb, pab = state_eval(phi, a), state_eval(phi, b), state_eval(phi, meet)
    if not pab < min(pa, pb) - TOL.cc:
        raise PreconditionError(
            "pair is not logically independent: φ(A^B) must be strictly below "
            f"φ(A) and φ(B) (got {pab:.6g} vs {pa:.6g}, {pb:.6g})"
        )
    rv = reichenbach_r(phi, a, b)
    if algebra is None:
        c = synthesize_subprojection(phi, meet, rv.r, strict=True)
    else:
        if algebra.structure is None:
            raise StructureError("localized synthesis needs a factor algebra")
        for name, x in (("A", a), ("B", b)):
            if not algebra.contains(x.mat):
                raise StructureError(f"projection {name} is not in the given algebra")
        local_meet = Projection(algebra.compress(meet.mat) / algebra.structure.rest_dim)
        local_state = DensityState(algebra.compress(phi.mat))
        c_local = synthesize_subprojection(local_state, local_meet, rv.r, strict=True)
        c = Projection(algebra.embed(c_local.mat))
    cert = quantum_verify_cc(phi, a, b, c)
    if localization is not None:
        cert = replace(cert, localization=localization)
    if not cert.verified or not cert.is_strong:
        raise InternalInconsistencyError(
            "constructed cause failed verification: residuals "
            f"({cert.residual_screen_C:.3g}, {cert.residual_screen_Cperp:.3g}), "
            f"margins ({cert.margin_A:.3g}, {cert.margin_B:.3g})"
        )
    return cert


def find_multiple_strong_cc(
    phi: DensityState,
    a: Projection,
    b: Projection,
    count: int,
    seed: int = 0,
) -> list[Projection]:
    """Up to ``count`` pairwise distinct strong common causes.

    Distinctness is operator-norm distance > 1e-6. Diversity comes from
    varying the synthesis rank and randomizing the walk order; a warning is
    issued when fewer than requested exist or are found.
    """
    if count < 0:
        raise TargetRangeError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    rv = reichenbach_r(phi, a, b)
    meet = lattice_meet(a, b)
    if meet.rank <= 1:
        warnings.warn("meet has rank <= 1; no strict subprojections exist")
        return []
    causes: list[Projection] = []
    attempts = 0
    ranks = itertools.cycle(range(1, meet.rank))
    while len(causes) < count and attempts < max(20 * count, 20):
        attempts += 1
        try:
            c = synthesize_subprojection(
                phi,
                meet,
                rv.r,
                strict=True,
                _order_rng=rng if attempts > 1 else None,
                _prefer_rank=next(ranks),
            )
        except InfeasibleError:
            continue
        if all(np.linalg.norm(c.mat - prev.mat, 2) > 1e-6 for prev in causes):
            cert = quantum_verify_cc(phi, a, b, c)
            if cert.verified and cert.is_strong:
                causes.append(c)
    if len(causes) < count:
        warnings.warn(
            f"only {len(causes)} of {count} distinct strong causes constructed"
        )
    return causes


# ---------------------------------------------------------------------------
# genuinely probabilistic common causes
# ---------------------------------------------------------------------------


def search_genuine_cc(
    phi: DensityState,
    a: Projection,
    b: Projection,
    budget: int = 60,
    seed: int = 0,
) -> Optional[CommonCauseCertificate]:
    """Search the commutant of {A, B} for a genuinely probabilistic cause.

    Random-restart local search: each restart draws a Hermitian element of
    the commutant, takes a spectral cut of prescribed rank, and refines the
    coefficients by least squares on the two screening residuals with
    penalty terms keeping the margins positive. Returns the first verified
    certificate with is_genuine, or None (which is not a nonexistence
    claim).
    """
    _require_commuting(("A and B", a, b))
    if not phi.faithful:
        raise NotFaithfulError("state is not faithful")
    if correlation(phi, a, b) <= TOL.cc:
        raise UncorrelatedError("pair is not positively correlated")
    if budget <= 0:
        return None
    comm = MatrixAlgebra.from_generators([a.mat, b.mat]).commutant()
    herm = comm.hermitian_basis
    n_par = herm.shape[0]
    rho = phi.mat
    amat, bmat = a.mat, b.mat
    ab = amat @ bmat
    dim = a.dim
    rng = np.random.default_rng(seed)
    margin_floor = 1e-6

    def weight(x):
        return float(np.real(np.sum(rho.T * x)))

    w_ab, w_a, w_b = weight(ab), weight(amat), weight(bmat)

    def build(coeffs, k):
        h = np.tensordot(coeffs, herm, axes=1)
        w, vecs = np.linalg.eigh(h)
        return vecs[:, dim - k :]

    def residuals(coeffs, k):
        cols = build(coeffs, k)
        cmat = cols @ la.dagger(cols)
        pc = weight(cmat)
        if not 1e-9 < pc < 1.0 - 1e-9:
            return np.array([1.0, 1.0, 1.0, 1.0])
        pcp = 1.0 - pc
        w_abc, w_ac, w_bc = weight(ab @ cmat), weight(amat @ cmat), weight(bmat @ cmat)
        s1, s2, m_a, m_b = _four_conditions(
            w_abc / pc, w_ac / pc, w_bc / pc,
            (w_ab - w_abc) / pcp, (w_a - w_ac) / pcp, (w_b - w_bc) / pcp,
        )
        return np.array(
            [s1, s2, max(0.0, margin_floor - m_a), max(0.0, margin_floor - m_b)]
        )

    for restart in range(budget):
        # ranks at the extremes rarely leave room for both margins, so the
        # draw stays one step inside; this is a heuristic accelerator only
        k = int(rng.integers(2, dim - 1)) if dim > 3 else int(rng.integers(1, dim))
        coeffs = rng.standard_normal(n_par)
        sol = scipy.optimize.least_squares(
            residuals,
            coeffs,
            args=(k,),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=15 * n_par,
        )
        if sol.cost > 1e-22:
            continue
        cols = build(sol.x, k)
        c = Projection.from_span(cols)
        try:
            cert = quantum_verify_cc(phi, a, b, c)
        except (CommutationError, ZeroConditioningError):
            continue
        if cert.verified and cert.is_genuine:
            return cert
    return None
