"""Asymptotic reduction and solution of singular linear ODE systems.

The pipeline: load or build a problem (``system_model``), reduce its
perturbation below a prescribed power of x by repeated exact
transformations (``transform_engine``), bound everything that was set
aside (``error_ledger``), evaluate asymptotic solutions at a finite
point with a certified deviation (``levinson_solver``), and continue
them numerically to a regular target (``ode_connector``).  Every
exception they raise derives from one failure category of ``errors``.

The names below load their submodule on first use (PEP 562), so a
command imports only the stages it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "error_ledger": (
            "ContractionFailure",
            "DivergentIntegral",
            "ErrorLedger",
            "LedgerEntry",
            "eta_bound",
            "matrix_norm_bound",
            "total_error_bound",
        ),
        "errors": (
            "ComputationFailed",
            "InvalidInput",
            "LevodeError",
            "MissingBackTransform",
        ),
        "fixtures": ("builtin_hypergeometric",),
        "levinson_solver": (
            "back_transform",
            "check_dichotomy",
            "derive_original_system",
            "exponent_data",
            "solve",
        ),
        "ode_connector": (
            "LinearSystem",
            "PoleInInterval",
            "StepSizeUnderflow",
            "integrate",
            "linear_system",
        ),
        "symexpr": ("RationalFn", "SymMatrix"),
        "system_model": (
            "INVERSE_X",
            "STANDARD",
            "InvariantViolation",
            "Monomial",
            "SchemaError",
            "load_problem",
            "serialize_problem",
            "validate",
        ),
        "transform_engine": ("OrderRegression", "run"),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
