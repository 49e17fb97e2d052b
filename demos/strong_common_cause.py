"""Constructing strong common causes for a correlated projection pair.

A hand-picked nine-dimensional state whose screening target falls inside
three different rank intervals, so the same correlation admits several
genuinely different explanations. Run top to bottom:

    python3 demos/strong_common_cause.py
"""

import numpy as np

from ccbench import (
    DensityState,
    Projection,
    find_multiple_strong_cc,
    find_strong_cc,
    lattice_meet,
    reichenbach_r,
    state_eval,
)
from ccbench.errors import InfeasibleError

# A faithful diagonal state. The first five atoms form the meet of the two
# events below; the spread of their weights is what opens up multiple
# feasible ranks for the cause.
weights = [0.24, 0.12, 0.06, 0.035, 0.025, 0.17, 0.17, 0.10, 0.08]
phi = DensityState(np.diag(weights).astype(complex))

a = Projection(np.diag([1, 1, 1, 1, 1, 1, 0, 0, 0]).astype(complex))
b = Projection(np.diag([1, 1, 1, 1, 1, 0, 1, 0, 0]).astype(complex))

print("the pair is positively correlated:")
rv = reichenbach_r(phi, a, b)
print(f"  phi(A) = {rv.phiA:.4f}, phi(B) = {rv.phiB:.4f}, phi(A^B) = {rv.phiAB:.4f}")
print(f"  correlation = {rv.phiAB - rv.phiA * rv.phiB:.4f}")
print(f"  screening target r = {rv.r:.10f}")

# one verified strong cause
cert = find_strong_cc(phi, a, b)
print("\na strong common cause:")
print(f"  rank {cert.cause.rank}, weight {state_eval(phi, cert.cause):.10f}")
print(f"  screening residuals ({cert.residual_screen_C:.3g}, {cert.residual_screen_Cperp:.3g})")
print(f"  relevance margins ({cert.margin_A:.4f}, {cert.margin_B:.4f})")
print(f"  verified: {cert.verified}")

# several distinct ones: the target sits in the rank-2, rank-3, and rank-4
# weight intervals of the meet simultaneously
causes = [c.cause for c in find_multiple_strong_cc(phi, a, b, count=3)]
print(f"\n{len(causes)} pairwise distinct causes, ranks {sorted(c.rank for c in causes)}")
for i, c1 in enumerate(causes):
    for c2 in causes[i + 1 :]:
        print(f"  operator-norm distance {np.linalg.norm(c1.mat - c2.mat, 2):.3f}")

# and an honest failure: when the meet has rank 1 there is no strict
# subprojection left to carry the target weight
phi4 = DensityState(np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex))
a4 = Projection(np.diag([1, 1, 0, 0]).astype(complex))
b4 = Projection(np.diag([1, 0, 1, 0]).astype(complex))
print(f"\nrank of the small meet: {lattice_meet(a4, b4).rank}")
try:
    find_strong_cc(phi4, a4, b4)
except InfeasibleError as exc:
    print(f"infeasible, as it must be: {exc}")
