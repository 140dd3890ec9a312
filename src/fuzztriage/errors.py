"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`FuzztriageError`, so callers
can catch one base type. The CLI maps configuration and input problems to exit
code 2 and runtime evaluation problems to exit code 3.
"""

from __future__ import annotations


class FuzztriageError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FuzztriageError, ValueError):
    """An input value violates a documented range or shape constraint."""


class DomainError(FuzztriageError, ValueError):
    """A mathematically undefined operation was requested (e.g. a ranking
    index with a negative or non-finite kappa)."""


class ParseError(FuzztriageError):
    """A file could not be parsed; the message names the offending row."""


class ConfigError(FuzztriageError):
    """A run configuration is missing, inconsistent, or points at absent files."""


class TrainingError(FuzztriageError):
    """Detector training cannot proceed on the given data (single-class
    labels); the CLI reports it as an input error."""


class EvaluationError(FuzztriageError):
    """An evaluation was asked to compare incompatible inputs."""
