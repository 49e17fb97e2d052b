"""Common-cause analysis workbench.

Finite-dimensional quantum probability (qprob), Reichenbachian common
causes classical and quantum (commoncause), Bell correlations across
commuting algebras (bell), 1+1-dimensional causal geometry (geometry), a
toy brickwork net of local algebras tying the two together (toynet), and a
scenario-driven command line (cli).
"""

from . import bell, cli, commoncause, config, geometry, qprob, record, toynet
from .bell import (
    bell_correlation,
    find_correlated_pair,
    sample_bell_fraction,
    singlet_state,
    two_qubit_chsh_oracle,
    werner_state,
)
from .commoncause import (
    ClassicalSpace,
    ClosednessReport,
    CommonCauseCertificate,
    RValue,
    classical_closedness_audit,
    classical_find_cc,
    classical_verify_cc,
    find_multiple_strong_cc,
    find_strong_cc,
    quantum_verify_cc,
    random_cc_instance,
    reichenbach_r,
    search_genuine_cc,
    synthesize_subprojection,
)
from .config import TOL
from .errors import (
    CCBenchError,
    CommutationError,
    DimensionMismatchError,
    DisconnectedRegionError,
    InfeasibleError,
    InternalInconsistencyError,
    NotFaithfulError,
    NotProjectionError,
    NotUnitaryError,
    PreconditionError,
    RegionError,
    ScenarioInvariantError,
    ScenarioParseError,
    StructureError,
    TargetRangeError,
    UncorrelatedError,
    ValidationError,
    ZeroConditioningError,
)
from .qprob import (
    DensityState,
    HermitianOperator,
    MatrixAlgebra,
    Projection,
    correlation,
    is_product_state,
    is_subprojection,
    lattice_join,
    lattice_meet,
    logical_independence_check,
    state_eval,
)

__version__ = "0.1.0"
