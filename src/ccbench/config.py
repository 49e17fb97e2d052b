"""Numerical tolerances shared across the package.

All comparisons against "numerically zero" or "numerically one" go through
this registry, ``TOL``, so the whole stack can be tightened or loosened in
one place. It is changed only for the length of a ``temporary`` block; the
CLI opens one with the scenario's ``tolerances`` and its --tol-override
values.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

from .errors import ValidationError


@dataclass
class Tolerances:
    """Mutable registry of the pinned numerical tolerances."""

    herm: float = 1e-10          # self-adjointness residual
    state: float = 1e-10         # trace-one and positivity slack of states
    proj: float = 1e-9           # idempotence / {0,1} spectrum of projections
    alg: float = 1e-8            # membership residual of MatrixAlgebra.contains
    meet: float = 1e-8           # eigenvalue window around 2 in the lattice meet
    comm: float = 1e-9           # commutation residual
    faithful_eps: float = 1e-10  # faithfulness threshold on state eigenvalues
    product: float = 1e-9        # product-state / correlation detection threshold
    cc: float = 1e-9             # screening residual bound and margin floor
    synth: float = 1e-10         # target-weight accuracy of subprojection synthesis
    bell: float = 1e-9           # Bell-correlation threshold above 1
    geo: float = 1e-9            # null-coordinate zero window


TOL = Tolerances()

_FIELD_NAMES = {f.name for f in fields(Tolerances)}

# Aliases accepted by the CLI; the left-hand names are how the tolerances are
# referred to in reports and error messages.
ALIASES = {
    "tol_herm": "herm",
    "tol_state": "state",
    "tol_proj": "proj",
    "tol_alg": "alg",
    "meet_tol": "meet",
    "comm_tol": "comm",
    "faithful_eps": "faithful_eps",
    "product_tol": "product",
    "cc_tol": "cc",
    "synth_tol": "synth",
    "bell_tol": "bell",
    "geo_tol": "geo",
}


def canonical_name(key: str) -> str:
    """Resolve a tolerance name or alias to the registry field name."""
    name = ALIASES.get(key, key)
    if name not in _FIELD_NAMES:
        raise KeyError(f"unknown tolerance {key!r}")
    return name


@contextlib.contextmanager
def temporary(**overrides: float):
    """Set tolerances, by name or alias, for the block and restore them after."""
    saved = {canonical_name(k): getattr(TOL, canonical_name(k)) for k in overrides}
    try:
        for key, value in overrides.items():
            val = float(value)
            if not math.isfinite(val):
                raise ValidationError(f"tolerance {key} = {val!r} is not finite", invariant=key)
            setattr(TOL, canonical_name(key), val)
        yield TOL
    finally:
        for name, v in saved.items():
            setattr(TOL, name, v)
