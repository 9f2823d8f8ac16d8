"""Exception types shared across the package.

The CLI maps these onto process exit codes by their base class: a
:class:`ConfigError` (bad configuration or input) exits with 2 and a
:class:`NumericalError` (a computation that cannot go on) with 3 (see
:mod:`flatmin.cli`).
"""

from __future__ import annotations


class FlatminError(Exception):
    """Base class for all package errors."""


class ConfigError(FlatminError):
    """Invalid or inconsistent configuration (bad value, unknown key)."""


class DimensionError(ConfigError):
    """Parameter vector or operand has the wrong shape."""


class NumericalError(FlatminError):
    """A loss, gradient, or update became non-finite."""


class DegenerateDirectionError(NumericalError):
    """A direction vector required to be nonzero has zero norm."""


class BatchSizeError(ConfigError):
    """Requested batch size is outside [1, n]."""


class BudgetError(ConfigError):
    """Probe or ascent budget is too small to produce an estimate."""


class InsufficientDataError(ConfigError):
    """Too few training log rows for the requested diagnostic."""


class ProtocolError(NumericalError):
    """Benchmark protocol could not complete (e.g. every trial failed)."""
