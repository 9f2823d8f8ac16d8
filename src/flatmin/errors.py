"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and input problems
exit with 2, numerical failures with 3 (see :mod:`flatmin.cli`).
"""

from __future__ import annotations


class FlatminError(Exception):
    """Base class for all package errors."""


class ConfigError(FlatminError):
    """Invalid or inconsistent configuration (bad value, unknown key)."""


class DimensionError(FlatminError):
    """Parameter vector or operand has the wrong shape."""


class NumericalError(FlatminError):
    """A loss, gradient, or update became non-finite."""


class DegenerateDirectionError(FlatminError):
    """A direction vector required to be nonzero has zero norm."""


class BatchSizeError(FlatminError):
    """Requested batch size is outside [1, n]."""


class BudgetError(FlatminError):
    """Probe or ascent budget is too small to produce an estimate."""


class InsufficientDataError(FlatminError):
    """Too few training log rows for the requested diagnostic."""


class ProtocolError(FlatminError):
    """Benchmark protocol could not complete (e.g. every trial failed)."""
