"""The failure categories.  Every exception levode raises derives from
exactly one, which gives the exit code and the stderr prefix ``cli.main``
reports it with; a class with a builtin base keeps it as a second base.
This module imports nothing.
"""


class LevodeError(Exception):
    """A failure reported as one line ``{prefix}{message}`` and ``exit_code``."""

    exit_code = 1
    prefix = ""


class InvalidInput(LevodeError, ValueError):
    """The problem, a flag or an option is not valid input."""

    exit_code = 2
    prefix = "invalid input: "


class ComputationFailed(LevodeError):
    """A stage broke down, or a bound or value could not be certified."""

    prefix = "computation failed: "


class Resonance(LevodeError):
    """An elimination denominator vanishes; one message line per hit."""

    exit_code = 3


class DichotomyFailure(LevodeError):
    """The dichotomy condition fails for the requested solution."""

    exit_code = 4


class ContinuationRefused(LevodeError):
    """Continuing the solution would amplify its uncertified dominant part."""


class MissingBackTransform(InvalidInput):
    """The problem carries no back-transformation matrix T(x)."""


class SolutionOverflow(ComputationFailed, ArithmeticError):
    """A solution value, at the evaluation point or continued, exceeds the
    float range."""
