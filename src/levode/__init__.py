"""Asymptotic reduction and solution of singular linear ODE systems.

The pipeline: load or build a problem (``system_model``), reduce its
perturbation below a prescribed power of x by repeated exact
transformations (``transform_engine``), bound everything that was set
aside (``error_ledger``), evaluate asymptotic solutions at a finite
point with a certified deviation (``levinson_solver``), and continue
them numerically to a regular target (``ode_connector``).
"""

from .error_ledger import (
    ContractionFailure,
    DivergentIntegral,
    ErrorLedger,
    LedgerEntry,
    eta_bound,
    matrix_norm_bound,
    total_error_bound,
)
from .fixtures import builtin_hypergeometric
from .levinson_solver import (
    MissingBackTransform,
    asymptotic_value,
    back_transform,
    check_dichotomy,
    derive_original_system,
    exponent_data,
    is_safely_continuable,
    solution_bundle,
)
from .ode_connector import (
    LinearSystem,
    PoleInInterval,
    StepSizeUnderflow,
    integrate,
    linear_system,
)
from .symexpr import (
    RationalFn,
    SymMatrix,
)
from .system_model import (
    INVERSE_X,
    STANDARD,
    InvariantViolation,
    ModeError,
    Monomial,
    SchemaError,
    load_problem,
    serialize_problem,
    validate,
    validate_resonance,
)
from .transform_engine import (
    OrderRegression,
    commutator_terms,
    compute_P,
    elimination_defect,
    initial_state,
    iterate,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionFailure",
    "DivergentIntegral",
    "ErrorLedger",
    "INVERSE_X",
    "InvariantViolation",
    "LedgerEntry",
    "LinearSystem",
    "MissingBackTransform",
    "ModeError",
    "Monomial",
    "OrderRegression",
    "PoleInInterval",
    "RationalFn",
    "STANDARD",
    "SchemaError",
    "StepSizeUnderflow",
    "SymMatrix",
    "asymptotic_value",
    "back_transform",
    "builtin_hypergeometric",
    "check_dichotomy",
    "commutator_terms",
    "compute_P",
    "derive_original_system",
    "elimination_defect",
    "eta_bound",
    "exponent_data",
    "initial_state",
    "integrate",
    "is_safely_continuable",
    "iterate",
    "linear_system",
    "load_problem",
    "matrix_norm_bound",
    "run",
    "serialize_problem",
    "solution_bundle",
    "total_error_bound",
    "validate",
    "validate_resonance",
]
