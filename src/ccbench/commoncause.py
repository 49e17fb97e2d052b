"""Reichenbachian common causes, classical and quantum.

A common cause for a positively correlated pair (A, B) is an event or
projection C that screens the correlation off on both C and its complement
and is positively relevant to each of A and B. The quantum version asks the
same four conditions of a projection commuting with A and B, with meets in
place of intersections. Every pair met or joined here has passed the
comm_tol commutation check first, so its lattice operations are algebra:
A ^ B is the product AB and A v B is A + B - AB, computed with no
eigendecomposition (qprob.lattice_meet stays the general, noncommuting
meet). Each such pair is multiplied once, as a qprob.PairProduct: the one
product M = XY gives the commutation check (comm_tol bounds the full-space
Frobenius norm of [X, Y]), the meet, the joint weight and the order test
Y <= X. A ^ B is multiplied on the union of A's and B's supports, or kept
as P_A ⊗ P_B when they are disjoint (qprob.commuting_meet), once per pair,
with its three weights.

The constructive half: for a faithful state and a commuting correlated pair
there is a closed-form target weight r such that any strict subprojection of
A ^ B with state weight exactly r is a (strong) common cause. Subprojections
of prescribed weight are synthesized by an eigenvalue walk on the compressed
state. Whether a genuinely probabilistic cause (C below neither A nor B)
exists is decided exactly: a cause commuting with A and B splits over the
blocks AB, AB⊥, A⊥B and A⊥B⊥, so the four conditions depend only on its
weight in each block. With α = p(A|C) and β = p(B|C), screening on C and C⊥
fixes those weights, and φ(C) = det/Q, as functions of (α, β); each block's
Ky Fan pieces then bound them by rows a + bα + cβ + dαβ ≥ 0, each scaled
and allowed synth_tol, whose solution set is found by testing finitely many
α (``search_genuine_cc`` has the derivation). This is the commuting-cause
setting of Hofer-Szabó, Rédei & Szabó, The Principle of the Common Cause
(CUP 2013), and the four-cell case of Gyenis & Rédei (Found. Phys. 34, 2004).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import _linalg as la
from .config import TOL
from .errors import (
    CommutationError,
    InfeasibleError,
    InternalInconsistencyError,
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
    PairProduct,
    Projection,
    commuting_meet,
    state_eval,
)

# atom caps, each the largest tools/cap_check.py shows finishing (README, Caps)
AUDIT_CAP = 10
FIND_CC_CAP = 20


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
        if not np.all(np.isfinite(w)):
            raise ValidationError("atom weights must be finite", invariant="weights finite")
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

    @cached_property
    def table(self) -> np.ndarray:
        """p of every event by mask, t[2^i : 2^(i+1)] = t[:2^i] + w_i: each entry
        sums its atoms in ascending order from 0.0, as ``prob`` does, so the
        two agree bit for bit."""
        t = np.zeros(1 << self.n_atoms)
        for i, w in enumerate(self.weights):
            t[1 << i : 2 << i] = t[: 1 << i] + w
        return t

    def correlation(self, a, b) -> float:
        am, bm = self.as_mask(a), self.as_mask(b)
        return self.prob(am & bm) - self.prob(am) * self.prob(bm)

    def logically_independent(self, a, b) -> bool:
        """All four Boolean cells of the pair are nonempty as sets."""
        am, bm = self.as_mask(a), self.as_mask(b)
        cm = self.full_mask
        return all(x != 0 for x in (am & bm, am & ~bm & cm, ~am & bm & cm, ~am & ~bm & cm))

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
    tolerance and strictly positive margins. ``localization`` is the
    caller's text naming where the cause lives; nothing here sets it.
    """

    cause: object
    residual_screen_C: float
    residual_screen_Cperp: float
    margin_A: float
    margin_B: float
    is_strong: bool
    is_genuine: bool
    correlation: float
    localization: Optional[str] = None

    @property
    def verified(self) -> bool:
        return bool(_verified(self.residual_screen_C, self.residual_screen_Cperp,
                              self.margin_A, self.margin_B))

    def to_record(self) -> dict:
        if isinstance(self.cause, Projection):
            cause = {"kind": "projection", "rank": self.cause.rank, "dim": self.cause.dim}
        else:
            cause = {"kind": "event", "atoms": sorted(self.cause)}
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
            "localization": self.localization,
        }


def _verified(res_c, res_cp, margin_a, margin_b):
    """The verified rule, on numbers or elementwise on arrays: both screening
    residuals within cc_tol and both relevance margins above it."""
    return (np.maximum(res_c, res_cp) <= TOL.cc) & (np.minimum(margin_a, margin_b) > TOL.cc)


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


def _conditionable(space: ClassicalSpace) -> np.ndarray:
    """The events ``classical_verify_cc`` can condition on, ascending masks:
    0 < p(C) < 1, and C⊥ holds an atom of positive weight (weights summing
    to 1 only within rounding can give p(C) < 1 with p(C⊥) = 0)."""
    c = np.arange(1, space.full_mask)
    live = space.as_mask(np.flatnonzero(space.weights > 0.0))
    pc = space.table[c]
    return c[((live & ~c) != 0) & (0.0 < pc) & (pc < 1.0)]


def _causes(space: ClassicalSpace, am: int, bms: np.ndarray, cands: np.ndarray, keep_trivial=False):
    """Which C of ``cands`` (ascending) verify as common causes of (A, B), a
    row per B of the column ``bms``, by ``classical_verify_cc``'s arithmetic
    on the table, so bit for bit; unless ``keep_trivial``, C in {A, B, A ^ B,
    A v B} or their complements is struck out."""
    t, full = space.table, space.full_mask
    meet = am & bms
    s_c, s_cp, m_a, m_b = _four_conditions(
        *(t[x & y] / t[y] for y in (cands, full & ~cands) for x in (meet, am, bms))
    )
    hits = _verified(np.abs(s_c), np.abs(s_cp), m_a, m_b)
    if not keep_trivial:
        base = np.hstack([bms, np.full_like(bms, am), meet, am | bms])
        struck = np.hstack([base, full & ~base])
        at = np.searchsorted(cands, struck)
        r, k = np.nonzero(np.append(cands, -1)[at] == struck)
        hits[r, at[r, k]] = False
    return hits


def classical_find_cc(
    space: ClassicalSpace, a, b, exclude_trivial: bool = True
) -> list[CommonCauseCertificate]:
    """All events C that verify as common causes of the correlated pair.

    An empty result is a completeness statement for this space: the search
    is exhaustive over the events ``classical_verify_cc`` can condition on,
    tested at once (``_causes``; spaces above FIND_CC_CAP atoms are
    refused), and a certificate is built for each C that passes.
    """
    if space.n_atoms > FIND_CC_CAP:
        raise PreconditionError(
            f"cause search over {space.n_atoms} atoms exceeds cap {FIND_CC_CAP}"
        )
    am, bm = space.as_mask(a), space.as_mask(b)
    if space.correlation(am, bm) <= TOL.cc:
        raise UncorrelatedError(
            f"pair is not positively correlated (corr = {space.correlation(am, bm):.3g})"
        )
    cands = _conditionable(space)
    hits = cands[_causes(space, am, np.array([[bm]]), cands, not exclude_trivial)[0]]
    return [classical_verify_cc(space, am, bm, int(cm)) for cm in hits]


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
    """Whether every correlated pair of distinct events has a nontrivial
    common cause (one ``classical_find_cc`` would find). For each A its row
    of B > A is screened for correlation at once, and the correlated B's,
    in blocks of about 2^16 (B, C) pairs, are asked only whether a C exists.
    """
    if space.n_atoms > AUDIT_CAP:
        raise PreconditionError(f"audit over {space.n_atoms} atoms exceeds cap {AUDIT_CAP}")
    t, cands = space.table, _conditionable(space)
    block = max(1, (1 << 16) // max(len(cands), 1))
    n_corr, uncovered = 0, []
    for am in range(1, space.full_mask + 1):
        bms = np.arange(am + 1, space.full_mask + 1)
        bms = bms[t[am & bms] - t[am] * t[bms] > TOL.cc, None]
        n_corr += len(bms)
        for lo in range(0, len(bms), block):
            rows = bms[lo : lo + block]
            lonely = rows[~_causes(space, am, rows, cands).any(axis=1), 0]
            uncovered += [(space.as_set(am), space.as_set(int(bm))) for bm in lonely]
    return ClosednessReport(
        n_atoms=space.n_atoms,
        n_correlated_pairs=n_corr,
        n_covered=n_corr - len(uncovered),
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
# quantum verification and the r-value
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
        return asdict(self)


class _CheckedPair:
    """A pair A, B checked to commute, with its meet A ^ B = AB
    (``qprob.commuting_meet``: formed, checked and settled on the union of
    their supports) and ``totals`` = (φ(A^B), φ(A), φ(B)), each formed or
    evaluated once for the r-value and any number of certificates."""

    def __init__(self, phi: DensityState, a: Projection, b: Projection):
        self.phi, self.a, self.b = phi, a, b
        self.meet = commuting_meet(a, b)
        self.totals = (state_eval(phi, self.meet), state_eval(phi, a), state_eval(phi, b))

    def require_independent(self) -> "_CheckedPair":
        """This pair, once it is logically independent under φ."""
        pab, pa, pb = self.totals
        if not pab < min(pa, pb) - TOL.cc:
            raise PreconditionError(
                "pair is not logically independent: φ(A^B) must be strictly below "
                f"φ(A) and φ(B) (got {pab:.6g} vs {pa:.6g}, {pb:.6g})"
            )
        return self

    def r_value(self) -> RValue:
        """``reichenbach_r`` of this pair."""
        pab, pa, pb = self.totals
        pavb = pa + pb - pab
        num = pab - pa * pb
        if num <= TOL.cc:
            raise UncorrelatedError(f"pair is not positively correlated (corr = {num:.3g})")
        den = 1.0 - pavb
        if den <= TOL.cc:
            raise InternalInconsistencyError(f"1 − φ(AvB) = {den:.3g} despite positive correlation")
        r = num / den
        if not r < pab:
            raise InternalInconsistencyError(f"r = {r:.15g} not below φ(A^B) = {pab:.15g}")
        return RValue(r=r, phiAB=pab, phiA=pa, phiB=pb, phiAvB=pavb)

    def certificate(self, c: Projection, pc: Optional[float] = None) -> CommonCauseCertificate:
        """The certificate of ``quantum_verify_cc`` for the cause C, given
        pc = φ(C) if the caller has it; C is checked against A and B here. A
        cause that keeps k <= N/2 columns W is read through XW alone
        (``PairProduct``): no N × N product is formed."""
        phi, totals = self.phi, self.totals
        on_a = PairProduct(self.a, c).require_commuting("C and A")
        on_b = PairProduct(self.b, c).require_commuting("C and B")
        if pc is None:
            pc = state_eval(phi, c)
        pcp = 1.0 - pc
        if pc <= TOL.cc or pcp <= TOL.cc:
            raise ZeroConditioningError(f"conditioning weight φ(C) = {pc:.3g} is degenerate")
        on_ab = PairProduct(self.meet, c)
        on_c = [xc.weight(phi) for xc in (on_ab, on_a, on_b)]
        s_c, s_cp, m_a, m_b = _four_conditions(
            *(w / pc for w in on_c), *((t - w) / pcp for t, w in zip(totals, on_c))
        )
        p_ab, p_a, p_b = totals
        below_ab, below_a, below_b = (xc.order_residual <= TOL.proj for xc in (on_ab, on_a, on_b))
        return CommonCauseCertificate(
            cause=c,
            residual_screen_C=abs(s_c),
            residual_screen_Cperp=abs(s_cp),
            margin_A=m_a,
            margin_B=m_b,
            is_strong=below_ab,
            is_genuine=not below_a and not below_b,
            correlation=p_ab - p_a * p_b,
        )


def quantum_verify_cc(
    phi: DensityState, a: Projection, b: Projection, c: Projection
) -> CommonCauseCertificate:
    """Check the four common-cause conditions with meets as conjunctions.

    Requires A and B to commute and C to commute with both (within
    comm_tol, on the full-space Frobenius norm of each commutator); past
    that check every meet is a product, A ^ B = AB and X ^ C = XC, and the
    weight on C⊥ is φ(X ^ C⊥) = φ(X) − φ(XC). Conditional weights are
    ratios of these, never noncommutative conditionings. Each pair is
    multiplied once: AB, then XC for X in {AB, A, B}, and the checks, the
    weights and the strong/genuine order tests are all read off those four
    products.
    """
    return _CheckedPair(phi, a, b).certificate(c)


def reichenbach_r(phi: DensityState, a: Projection, b: Projection) -> RValue:
    """r = (φ(A^B) − φ(A)φ(B)) / (1 − φ(AvB)) for a commuting correlated pair.

    Any strict subprojection of A^B carrying weight exactly r screens the
    correlation off on both sides and is positively relevant to A and B.
    Once A and B pass the comm_tol check (the full-space Frobenius norm of
    [A, B], read off the one product AB), φ(A^B) = φ(AB) and
    φ(AvB) = φ(A) + φ(B) − φ(AB).
    """
    return _CheckedPair(phi, a, b).r_value()


# ---------------------------------------------------------------------------
# subprojection synthesis
# ---------------------------------------------------------------------------


def _rank_interval(mu: np.ndarray, k: int) -> tuple[float, float]:
    return float(mu[len(mu) - k :].sum()), float(mu[:k].sum())


def _fitting_rank(mu: np.ndarray, r: float, ranks) -> int:
    """The first of ``ranks`` whose Ky Fan interval holds r within synth_tol."""
    for k in ranks:
        lo, hi = _rank_interval(mu, k)
        if lo - TOL.synth <= r <= hi + TOL.synth:
            return k
    shown = ", ".join(f"rank {k}: [%.6g, %.6g]" % _rank_interval(mu, k) for k in sorted(ranks))
    raise InfeasibleError(f"target {r:.6g} lies outside every achievable interval ({shown})")


def _weighted_columns(
    mu: np.ndarray, emb: np.ndarray, r: float, k: int, order_rng: np.random.Generator | None = None
) -> np.ndarray:
    """Orthonormal columns, in the eigenvectors ``emb`` of a compressed state
    of descending spectrum mu, spanning a rank-k subprojection of weight r,
    for a k whose Ky Fan interval holds r (``_fitting_rank``). The top-k
    index set is walked down, one index to its successor per step (the last
    movable, or a random one with ``order_rng``), and the step that would
    pass r ends in a partial rotation between its two eigenvectors."""
    hi = _rank_interval(mu, k)[1]
    selected, s, r = list(range(k)), hi, min(r, hi)
    while s - r > 0.0:
        movable = [i for i in selected if i + 1 < len(mu) and i + 1 not in selected]
        if not movable:
            break
        i = max(movable) if order_rng is None else movable[int(order_rng.integers(len(movable)))]
        drop = float(mu[i] - mu[i + 1])
        if drop > 0.0 and s - drop <= r:
            sin2 = min(max((s - r) / drop, 0.0), 1.0)
            turned = np.sqrt(1.0 - sin2) * emb[:, i] + np.sqrt(sin2) * emb[:, i + 1]
            return np.stack([*(emb[:, j] for j in selected if j != i), turned], axis=1)
        selected[selected.index(i)] = i + 1
        s -= drop
    return np.stack([emb[:, j] for j in selected], axis=1)


def synthesize_subprojection(
    phi: DensityState, p: Projection, r: float, strict: bool = False
) -> Projection:
    """A subprojection C <= P with state weight exactly r.

    Compresses the state to the range of P and walks down from the top-k
    eigenvector set, finishing with a partial rotation between the two
    eigenvectors of the crossing step, so φ(C) lands on r up to rounding.
    Raises Infeasible when r lies outside every achievable rank interval,
    which is the finite-dimensional obstruction to the construction.

    The spectrum comes from ``DensityState.spectrum_on``, with no N × N
    eigendecomposition. When it gives fewer eigenvectors than the walk needs
    (the rest is one degenerate eigenvalue), a walk of rank k runs on k + 1
    columns (a random walk on all m), completed by a pivoted Gram–Schmidt,
    run twice, on the columns of P: each pivot, the largest diagonal entry
    left, is at least (m − j)/N after j columns (as in ``la.range_basis``).
    The cause's columns W are checked to lie in range(P), ‖PW − W‖_F ≤
    tol_proj, in O(N²k), or O(N d k) through P's factors of dimension d
    (``Projection.times``, which also gives the frame's columns of P).
    """
    return _Compression(phi, p).cause(r, strict)[0]


class _Compression:
    """φ compressed to range(P), for any number of causes (``cause``): φ is
    checked faithful, P's dimension checked and φ(P) evaluated (or taken as
    ``pp``) once; the descending spectrum ``mu`` and the frame the walks run
    on, eigenvectors or a grown frame, are set up on first read."""

    def __init__(self, phi: DensityState, p: Projection, pp: Optional[float] = None):
        phi.require_faithful()
        phi.check_dim(p.dim)
        self._phi, self._p = phi, p
        self._pp = state_eval(phi, p) if pp is None else pp

    @cached_property
    def mu(self) -> np.ndarray:
        mu, self._emb, self._basis = self._phi.spectrum_on(self._p)
        if self._basis is None:  # too few eigenvectors: the walk grows its frame from P
            self._rest = self._p.diagonal() - np.sum(np.abs(self._emb) ** 2, axis=1)
        return mu

    def _grow(self, w: np.ndarray) -> None:
        for _ in range(2):
            w = w - self._emb @ (la.dagger(self._emb) @ w)
        w = w / la.frob(w)
        self._emb, self._rest = np.column_stack([self._emb, w]), self._rest - np.abs(w) ** 2

    def cause(
        self, r: float, strict: bool, order_rng: Optional[np.random.Generator] = None,
        prefer_rank: Optional[int] = None,
    ) -> tuple[Projection, float]:
        """``synthesize_subprojection``'s cause C and φ(C), each evaluated
        once. ``find_multiple_strong_cc`` varies the causes by ``order_rng``
        (the walk's order) and ``prefer_rank``."""
        phi, p, pp = self._phi, self._p, self._pp
        if not 0.0 < r < pp:
            raise TargetRangeError(f"target r = {r:.15g} outside (0, φ(P) = {pp:.15g})")
        m = p.rank
        if m == 0:
            raise TargetRangeError("P is the zero projection")
        max_rank = m - 1 if strict else m
        if max_rank < 1:
            raise InfeasibleError("P has rank 1; its only strict subprojection is 0")
        ranks = sorted(range(1, max_rank + 1), key=lambda k: k != prefer_rank)
        k = _fitting_rank(self.mu, r, ranks)
        # the walk's frame: a random walk may end anywhere, the last-movable one at k + 1
        n = len(self.mu) if order_rng is not None else min(k + 1, len(self.mu))
        while self._basis is None and self._emb.shape[1] < n:
            self._grow(p.times(np.eye(1, p.dim, int(np.argmax(self._rest)), dtype=complex)[0]))
        span = _weighted_columns(self.mu[: self._emb.shape[1]], self._emb, r, k, order_rng)
        span = span if self._basis is None else self._basis @ span
        outside = la.frob(p.times(span) - span)
        if not outside <= TOL.proj:
            raise InternalInconsistencyError(
                f"synthesized cause leaves range(P) (‖PW − W‖_F = {outside:.3e})"
            )
        c = Projection.from_span(span)
        achieved = state_eval(phi, c)
        if not abs(achieved - r) <= TOL.synth:
            raise InternalInconsistencyError(
                f"synthesized weight {achieved:.15g} misses target {r:.15g}"
            )
        return c, achieved


# ---------------------------------------------------------------------------
# strong common causes
# ---------------------------------------------------------------------------


def find_strong_cc(
    phi: DensityState, a: Projection, b: Projection, algebra: MatrixAlgebra | None = None
) -> CommonCauseCertificate:
    """Construct and verify a strong common cause C < A^B with φ(C) = r.

    A and B must commute within comm_tol (the full-space Frobenius norm of
    [A, B]); A^B is then the product AB: P_A ⊗ P_B, kept as two factors,
    for A and B embedded on disjoint sites, else formed, checked and settled
    on the union S of their supports (``qprob.commuting_meet``). The meet
    and the cause are used through ``Projection.times``, so their N × N
    matrices are built only if read. With a tensor-factor
    ``algebra``, the cause is synthesized inside it and embedded back by the
    trusted ``Projection.embedded`` (used for spacetime-localized causes);
    a diagonal one is refused (StructureError), since a cause synthesized
    in the compression need not be diagonal.
    On every tensor factor it is the full matrix algebra, and the state, the
    meet and the cause are used as they are. On fewer factors it must hold
    A and B: a support inside it settles that, else ``contains`` decides;
    when it holds S the meet on S is embedded into it, else the meet is
    compressed. Its N × N work is listed once, as the 2^n work left in the
    ``toynet`` module docstring. φ(A), φ(B), φ(A^B) and φ(C) are each
    evaluated once.
    """
    phi.require_faithful()
    pair = _CheckedPair(phi, a, b).require_independent()
    rv, pab = pair.r_value(), pair.totals[0]
    if algebra is not None and algebra.abelian:
        raise StructureError("localized synthesis needs a full factor: a cause need not be diagonal")
    if algebra is None or not algebra.rest:
        c, pc = _Compression(phi, pair.meet, pab).cause(rv.r, strict=True)
    else:
        dims, acting = algebra.dims, algebra.acting
        local_meet = pair.meet.within(dims, acting)
        if local_meet is None:
            for name, x in (("A", a), ("B", b)):
                if x.within(dims, acting) is None and not algebra.contains(x.mat):
                    raise StructureError(f"projection {name} is not in the given algebra")
            local_meet = Projection(algebra.compress(pair.meet.mat) / algebra.rest_dim)
        local_state = DensityState(phi.reduced(dims, acting))
        # the meet lies in the algebra, so its compressed weight is φ(A^B)
        c_local, _ = _Compression(local_state, local_meet, pab).cause(rv.r, strict=True)
        c, pc = c_local.embedded(dims, acting), None
    cert = pair.certificate(c, pc)
    if not cert.verified or not cert.is_strong:
        raise InternalInconsistencyError(
            "constructed cause failed verification: residuals "
            f"({cert.residual_screen_C:.3g}, {cert.residual_screen_Cperp:.3g}), "
            f"margins ({cert.margin_A:.3g}, {cert.margin_B:.3g})"
        )
    return cert


def find_multiple_strong_cc(
    phi: DensityState, a: Projection, b: Projection, count: int, seed: int = 0
) -> list[CommonCauseCertificate]:
    """Certificates of up to ``count`` pairwise distinct strong common causes.

    The state and the pair pass ``find_strong_cc``'s checks first.
    Distinctness is operator-norm distance > 1e-6; causes of different rank
    are at distance 1, so only causes of equal rank are measured. Diversity
    comes from varying the synthesis rank and randomizing the walk order; a
    warning is issued when fewer than requested exist or are found. Every
    attempt synthesizes from the same r and compressed spectrum over the
    same ranks, so an infeasible target ends the search at the first
    attempt.
    """
    if count < 0:
        raise TargetRangeError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    phi.require_faithful()
    pair = _CheckedPair(phi, a, b).require_independent()
    rv, meet = pair.r_value(), pair.meet
    if meet.rank <= 1:
        warnings.warn("meet has rank <= 1; no strict subprojections exist")
        return []
    comp = _Compression(phi, meet, pair.totals[0])
    certs: list[CommonCauseCertificate] = []
    attempts = 0
    ranks = itertools.cycle(range(1, meet.rank))
    while len(certs) < count and attempts < max(20 * count, 20):
        attempts += 1
        try:
            c, pc = comp.cause(rv.r, strict=True, order_rng=rng if attempts > 1 else None,
                               prefer_rank=next(ranks))
        except InfeasibleError:
            break
        if all(c.rank != prev.cause.rank or np.linalg.norm(c.mat - prev.cause.mat, 2) > 1e-6
               for prev in certs):
            cert = pair.certificate(c, pc)
            if cert.verified and cert.is_strong:
                certs.append(cert)
    if len(certs) < count:
        warnings.warn(
            f"only {len(certs)} of {count} distinct strong causes constructed"
        )
    return certs


# ---------------------------------------------------------------------------
# genuinely probabilistic common causes
# ---------------------------------------------------------------------------


# the blocks of a commuting pair A, B, each with its eigenvalue of A + 2B
_BLOCKS = (("AB", 3), ("AB⊥", 1), ("A⊥B", 2), ("A⊥B⊥", 0))
# m(α, β) = (αβ, α(1 − β), (1 − α)β, (1 − α)(1 − β)) over 1, α, β, αβ
_CHART = np.array([[0, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, -1], [1, -1, -1, 1]], dtype=float)


def _pieces(mu: np.ndarray) -> list[list[float]]:
    """The weights a nonzero subprojection can carry on a block of spectrum
    mu: the connected pieces of the union of its Ky Fan intervals, whose
    ends rise with the rank."""
    pieces: list[list[float]] = []
    for lo, hi in (_rank_interval(mu, k) for k in range(1, len(mu) + 1)):
        if pieces and lo <= pieces[-1][1]:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi])
    return pieces


def _feasible_points(rows: np.ndarray, slack: float) -> np.ndarray:
    """The points (α, β), widest β-interval first, at which every row
    a + bα + cβ + dαβ ≥ 0, scaled to unit largest coefficient, holds within
    ``slack``, a β-coefficient of magnitude ≤ slack read as 0. At fixed α
    the feasible β form an interval, which can change only where a row's
    β-coefficient crosses 0 or ±slack, where its constant term crosses 0,
    or where two rows' β-bounds cross (a quadratic in α). Testing each such
    α and one point between each neighbouring pair decides the rows exactly.
    """
    a, b, c, d = (rows / np.abs(rows).max(axis=1, keepdims=True)).T
    a = a + slack
    j, k = np.triu_indices(len(rows), 1)
    polys = [*zip(b, a), *zip(d, c - slack), *zip(d, c), *zip(d, c + slack), *zip(
        b[j] * d[k] - b[k] * d[j],
        a[j] * d[k] + b[j] * c[k] - a[k] * d[j] - b[k] * c[j],
        a[j] * c[k] - a[k] * c[j],
    )]
    crit = np.unique(np.concatenate([np.roots(poly).real for poly in polys]))
    t = np.concatenate([crit, (crit[1:] + crit[:-1]) / 2.0])
    const, slope = a[:, None] + b[:, None] * t, c[:, None] + d[:, None] * t
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -const / slope
    lower = np.where(slope > slack, bound, -np.inf).max(axis=0)
    upper = np.where(slope < -slack, bound, np.inf).min(axis=0)
    ok = np.all((const >= 0.0) | (np.abs(slope) > slack), axis=0) & (lower <= upper)
    order = [i for i in np.argsort(lower - upper, kind="stable") if ok[i]]
    return np.stack([t[order], (lower[order] + upper[order]) / 2.0], axis=1)


def search_genuine_cc(phi: DensityState, a: Projection, b: Projection) -> CommonCauseCertificate:
    """Decide whether a genuinely probabilistic cause (C below neither A nor
    B) commutes with the pair: return its verified certificate, or raise
    Infeasible naming the obstruction.

    Blocks: one ``eigh`` of A + 2B gives P₁ = AB, P₂ = AB⊥, P₃ = A⊥B and
    P₄ = A⊥B⊥ (eigenvalues 3, 1, 2, 0). A cause commuting with A and B is
    ⊕ C_i, C_i ≤ P_i, so the four conditions depend only on w_i = φ(C_i).
    With μ_i the spectrum of φ on P_i, W_i = Σμ_i and det = W₁W₄ − W₂W₃ =
    φ(AB) − φ(A)φ(B) > 0. A nonzero C_i weighs a point of a piece (the
    union of P_i's Ky Fan intervals); a box takes one piece per block.

    Chart: let α = p(A|C), β = p(B|C). Screening on C makes w = φ(C)·m,
    m = (αβ, α(1 − β), (1 − α)β, (1 − α)(1 − β)); screening on C⊥ (W − w
    of rank one) then gives φ(C) = det/Q, Q = W₁m₄ + W₄m₁ − W₂m₃ − W₃m₂.
    margin_A = (α − φ(A))/(1 − φ(C)) is positive exactly when α > φ(A);
    so for B. A piece lo ≤ w_i ≤ hi reads lo·Q ≤ det·m_i ≤ hi·Q, so a box
    is 13 rows a + bα + cβ + dαβ ≥ 0 (8 bounds, Q > 0, α in
    [φ(A) + cc_tol, 1], β in [φ(B) + cc_tol, 1]), decided exactly by
    ``_feasible_points``. For a faithful state w_i = 0 only when C_i = 0,
    and m_i = 0 sets α or β to 0 (a failed margin) or 1 (C ≤ A or C ≤ B);
    so a genuine cause weighs every block. An empty block has no piece,
    and so no box: it rules a genuine cause out.

    Slack: each scaled row may fall short by synth_tol, and a β-coefficient
    of magnitude ≤ synth_tol counts as 0. With AB and A⊥B whole the feasible
    set is the segment α = W₁/(W₁ + W₃), on which both pinned rows vanish
    identically, and rounding alone would rule it out. The margin rows ask
    α − φ(A) ≥ cc_tol, so margin_A ≥ cc_tol/(1 − φ(C)): causes whose margins
    lie below that are not reported. A feasible point becomes a cause block by
    block (``_weighted_columns``, smallest fitting rank first), checked
    against the pair's one meet (``_CheckedPair``); one that fails does not
    end the decision.
    """
    pair = _CheckedPair(phi, a, b)
    phi.require_faithful()
    vals, vecs = np.linalg.eigh(a.mat + 2.0 * b.mat)
    bases = [vecs[:, np.rint(vals) == label] for _, label in _BLOCKS]
    spectra = [la.eigh_desc(phi.compressed(v)) for v in bases]
    w = [float(mu.sum()) for mu, _ in spectra]
    det = w[0] * w[3] - w[1] * w[2]
    if det <= TOL.cc:
        raise UncorrelatedError(f"pair is not positively correlated (corr = {det:.3g})")
    q = w[0] * _CHART[3] + w[3] * _CHART[0] - w[1] * _CHART[2] - w[2] * _CHART[1]
    pa, pb = w[0] + w[1], w[0] + w[2]
    fixed = [q, [-pa - TOL.cc, 1, 0, 0], [1, -1, 0, 0], [-pb - TOL.cc, 0, 1, 0], [1, 0, -1, 0]]
    pieces = [_pieces(mu) for mu, _ in spectra]
    boxes = list(itertools.product(*pieces))
    unverified = 0
    for box in boxes:
        lo, hi = np.array(box).T[:, :, None]
        rows = np.vstack([det * _CHART - lo * q, hi * q - det * _CHART, fixed])
        for alpha, beta in _feasible_points(rows, TOL.synth):
            mono = np.array([1.0, alpha, beta, alpha * beta])
            weights = det * (_CHART @ mono) / (q @ mono)
            try:
                span = np.hstack([
                    v @ _weighted_columns(mu, emb, r, _fitting_rank(mu, r, range(1, len(mu) + 1)))
                    for v, (mu, emb), r in zip(bases, spectra, weights)
                ])
                cert = pair.certificate(Projection.from_span(span))
                if cert.verified and cert.is_genuine:
                    return cert
            except (InfeasibleError, CommutationError, ZeroConditioningError):
                pass
            unverified += 1
    shown = "; ".join(f"{name} " + (", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in p) or "none")
                      for (name, _), p in zip(_BLOCKS, pieces))
    tail = f"; {unverified} feasible points gave no verified cause" if unverified else ""
    raise InfeasibleError(
        "no genuinely probabilistic cause commutes with A and B: no block weights screen off "
        f"on C and C⊥ with p(A|C) − φ(A) and p(B|C) − φ(B) at least {TOL.cc:g} (pieces: "
        f"{shown}; boxes ruled out: {len(boxes)}{tail})"
    )
