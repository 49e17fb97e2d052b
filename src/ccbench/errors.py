"""Exception hierarchy.

Errors are grouped by the exit code the CLI returns for them, which each
class carries as ``exit_code``:

* honest negatives (a search or synthesis correctly reports that no object
  exists): InfeasibleError -> exit code 1
* malformed input files: ScenarioParseError -> exit code 2
* violated mathematical invariants of inputs: ValidationError and the other
  precondition errors -> exit code 3
* a postcondition that should hold by theorem failing numerically:
  InternalInconsistencyError -> exit code 4
"""

from __future__ import annotations


class CCBenchError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class DimensionMismatchError(CCBenchError, ValueError):
    pass


class ValidationError(CCBenchError, ValueError):
    """An input object violates a named invariant.

    ``invariant`` carries the tolerance or invariant name (for example
    ``tol_herm``) so diagnostics can point at exactly what failed.
    """

    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant


class NotProjectionError(ValidationError):
    pass


class NotUnitaryError(ValidationError):
    pass


class PreconditionError(CCBenchError):
    """A documented precondition of an operation does not hold."""


class CommutationError(PreconditionError):
    pass


class ZeroConditioningError(PreconditionError):
    pass


class UncorrelatedError(PreconditionError):
    pass


class NotFaithfulError(PreconditionError):
    pass


class StructureError(PreconditionError):
    """The algebras or regions lack the tensor-split structure an operation
    needs: algebras on different splits, a diagonal algebra where a full
    factor is needed, a conjugated algebra, a region off the step-0 row, or
    projections outside the given algebra."""


class TargetRangeError(PreconditionError):
    """Numeric target outside the admissible open interval."""


class InfeasibleError(CCBenchError):
    """Honest negative: the requested object provably does not exist."""

    exit_code = 1


class RegionError(CCBenchError, ValueError):
    pass


class DisconnectedRegionError(RegionError):
    """Raised where an operation needs a connected region.

    ``components`` carries the per-component results so callers can still
    inspect what the operation would give on each piece.
    """

    def __init__(self, message: str, components: list | None = None):
        super().__init__(message)
        self.components = components or []


class InternalInconsistencyError(CCBenchError):
    """A theorem-backed postcondition failed numerically."""

    exit_code = 4


class ScenarioParseError(CCBenchError):
    exit_code = 2


class ScenarioInvariantError(CCBenchError):
    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant
