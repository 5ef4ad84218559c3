"""Exception types shared across the package.

Every error raised by a public operation subclasses StateAlignError, so
callers can catch one base class at the CLI boundary and map it onto an
exit code.
"""
from __future__ import annotations


class StateAlignError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfig(StateAlignError):
    """A configuration value violates its documented range."""


class DimensionMismatch(StateAlignError):
    """Vector or matrix shapes are inconsistent."""


class InsufficientHistory(StateAlignError):
    """A deletion request asks for more events than the prefix holds."""


class MissingGradState(StateAlignError):
    """Gradient-ranked deletion needs the parameter vector at t_del."""


class EmptyTrace(StateAlignError):
    """A metric over a trace was asked for on an empty trace."""


class IntervalTooShort(StateAlignError):
    """A decay fit needs at least three trace points."""


class InvalidPrivacyParams(InvalidConfig):
    """Noise calibration requires eps > 0, delta in (0, 1), alpha >= 0, all finite."""


class InvalidAxis(StateAlignError):
    """A grid axis does not name a known configuration field."""


class EmptyResults(StateAlignError):
    """Aggregation was asked for on an empty result list."""
