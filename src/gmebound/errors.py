"""Exception types shared across the package.

The split matters for the CLI: input problems (bad files, malformed indices,
shape mismatches) exit with code 2, analysis outcomes (a witness that cannot
detect anything, a degenerate pair selection) exit with code 1.
"""


class GmeboundError(Exception):
    """Base class for package errors."""


class InvalidInputError(GmeboundError, ValueError):
    """Malformed or inconsistent user input (wrong digits, shape mismatch, ...)."""


class AnalysisError(GmeboundError):
    """The computation itself cannot proceed or has no answer."""


class DegenerateSelectionError(AnalysisError):
    """|R| == N_R: the witness prefactor 2*sqrt(1/(|R|-N_R)) is undefined."""


class CoverageError(AnalysisError):
    """No pair selection covers every bipartition (state is product-like in this basis)."""


class NotDetectingError(AnalysisError):
    """Witness is nonpositive on the pure target; no noise threshold exists."""


def _check_nonnegative(name: str, value: float) -> None:
    """Refuse a negative ``value``, naming it ``name``."""
    if value < 0:
        raise InvalidInputError(f"{name} must be nonnegative, got {value}")
