"""Exception hierarchy shared by all truncdep modules, and the
positive-integer and seed checks that raise from it."""

import numpy as np


class TruncdepError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TruncdepError, ValueError):
    """Input outside the documented domain of an operation."""


class ConvergenceError(TruncdepError, RuntimeError):
    """An iterative routine exhausted its budget without converging."""


class InvariantError(TruncdepError, RuntimeError):
    """A mathematical invariant that must hold on valid inputs failed.

    Raised instead of silently patching the value (e.g. taking an
    absolute value); indicates a bug or numerically hostile inputs.
    """


class DataError(TruncdepError, ValueError):
    """Malformed or inadmissible observation data."""


def _check_positive_int(
    name: str, value, error: type[TruncdepError] = DomainError
) -> None:
    """Raise ``error`` unless ``value`` is an integer (Python or NumPy) >= 1.

    Floats never pass, so NaN and infinities raise ``error`` too.
    """
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise error(f"{name}={value!r} must be a positive integer")


def _check_seed(seed) -> None:
    """Raise ``DomainError`` unless ``seed`` is an integer in [0, 2**64)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise DomainError(f"seed={seed!r} must be a 64-bit unsigned integer")
