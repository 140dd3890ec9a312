"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`FuzztriageError`, so callers
can catch one base type. A config section's ValidationError starts with the INI
key it breaks; ``config.load_config`` rewords it as a ConfigError naming its
source and ``section.key``. A uf scale that only the data's classes rule out is
a ConfigError from ``pipeline.run``, to which ``cli.main`` adds the source. The
CLI maps ValidationError, ParseError and ConfigError to exit code 2 and
EvaluationError to exit code 3.
"""

from __future__ import annotations


class FuzztriageError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FuzztriageError, ValueError):
    """A value breaks a documented rule: a range, a shape, one-class training data."""


class ParseError(FuzztriageError):
    """A file could not be parsed; the message names the offending row."""


class ConfigError(FuzztriageError):
    """A run configuration is missing, inconsistent, or points at absent files;
    ``fuzztriage.config`` raises it, and ``pipeline.run`` for a uf scale the
    data's classes rule out."""


class EvaluationError(FuzztriageError):
    """An evaluation was asked to compare incompatible inputs."""
