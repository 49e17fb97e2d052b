"""Shared instance generators.

Everything here is seeded; tests that need fresh randomness derive their
own Generator from an explicit seed so failures replay exactly.
"""

from functools import cached_property

import numpy as np

from ccbench import DensityState, Projection, state_eval
from ccbench import _linalg as la


def rand_faithful_state(dim: int, rng: np.random.Generator) -> DensityState:
    return DensityState(la.random_faithful_density(dim, rng))


def masked_instance(dim: int, rng: np.random.Generator, min_meet_rank: int = 2):
    """A faithful state with a commuting, positively correlated pair.

    Both projections are diagonal 0/1 masks in a shared Haar basis, so they
    commute exactly. Masks are redrawn until the pair is logically
    independent with the requested meet rank and positive correlation
    (flipping B to its complement when the raw correlation is negative).
    Returns (phi, a, b) or None when the draw budget runs out.
    """
    u = la.haar_unitary(dim, rng)
    w = 0.9 * rng.dirichlet(np.ones(dim) * 2.0) + 0.1 / dim
    rho = (u * w) @ la.dagger(u)
    phi = DensityState(la.hermitize(rho))
    for _ in range(60):
        da = (rng.random(dim) < rng.uniform(0.35, 0.65)).astype(float)
        db = (rng.random(dim) < rng.uniform(0.35, 0.65)).astype(float)
        for flip in (False, True):
            mb = 1.0 - db if flip else db
            cells = (
                da * mb,
                da * (1.0 - mb),
                (1.0 - da) * mb,
                (1.0 - da) * (1.0 - mb),
            )
            if any(int(c.sum()) == 0 for c in cells):
                continue
            if int((da * mb).sum()) < min_meet_rank:
                continue
            a = Projection((u * da) @ la.dagger(u))
            b = Projection((u * mb) @ la.dagger(u))
            corr = float(np.real(np.trace(phi.mat @ a.mat @ b.mat)))
            corr -= state_eval(phi, a) * state_eval(phi, b)
            if corr > 1e-6:
                return phi, a, b
    return None


class HeisenbergAlgebra:
    """Dense oracle for a net's local algebra at step k: U* F U.

    ``u`` is the dense evolution ``net.evolution(k)`` and ``factor`` the
    plain tensor factor on the cone's sites. The package builds only the
    step-0 factor and evolves operators on their light-cone supports; the
    toy-net tests check that against this 2^n conjugation.
    """

    def __init__(self, u: np.ndarray, factor):
        self.u = u
        self.factor = factor
        self.n_basis = factor.n_basis

    @cached_property
    def generators(self) -> list[np.ndarray]:
        ud = la.dagger(self.u)
        return [ud @ g @ self.u for g in self.factor.generators]

    def contains(self, m: np.ndarray) -> bool:
        return self.factor.contains(self.u @ m @ la.dagger(self.u))
