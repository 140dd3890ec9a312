"""Subnormal Gaussian fuzzy numbers and the risk-averse ranking index.

A subnormal Gaussian fuzzy number describes one uncertain quantity by three
parameters: ``core`` (the most plausible value), ``spread`` (how quickly
plausibility decays around the core), and ``height`` (the peak membership
degree). A height below 1 encodes that even the core value is only partly
credible, which is how detector reliability enters the picture.

The membership function is ``height * exp(-((x - core) / spread)**2 / 2)``;
the pipeline never evaluates it, it only ranks numbers by the index below.

The ranking index ``core + kappa * spread * log10(height)`` trades severity
against confidence: the logarithm is zero for fully credible numbers and grows
(negatively) without bound as height falls, so larger ``kappa`` pushes poorly
supported alerts down the queue. The logarithm base is fixed once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: Base of the logarithm in the ranking-index penalty term. The penalty scale
#: (and therefore the meaning of kappa) depends on it, so it is defined in
#: exactly one place.
PENALTY_LOG_BASE = 10.0


@dataclass(frozen=True)
class GaussianFuzzyNumber:
    """Immutable subnormal Gaussian fuzzy number.

    Attributes:
        core: Location of the membership peak.
        spread: Positive decay scale; plays the role of a standard deviation.
        height: Peak membership degree in (0, 1].
    """

    core: float
    spread: float
    height: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.core):
            raise ValidationError(f"core must be finite, got {self.core!r}")
        if not (math.isfinite(self.spread) and self.spread > 0.0):
            raise ValidationError(
                f"spread must be positive and finite, got {self.spread!r}"
            )
        if not (0.0 < self.height <= 1.0):
            raise ValidationError(f"height must lie in (0, 1], got {self.height!r}")


def check_kappa(kappa: float) -> None:
    """Reject a risk attitude that is not finite and >= 0.

    Negative values would reward implausibility; non-finite ones make every
    score infinite or undefined.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValidationError(f"kappa must be finite and >= 0, got {kappa!r}")


def ranking_index(number: GaussianFuzzyNumber, kappa: float = 1.0) -> float:
    """Risk-averse priority score: ``core + kappa * spread * log10(height)``.

    ``kappa`` is the risk-attitude parameter; zero ignores confidence entirely
    and larger values penalize wide, low-height numbers harder. Values that
    :func:`check_kappa` rejects raise ValidationError. The logarithm is
    ``math.log``: numpy's ``log`` and ``log10`` differ from it in the last bit
    for some heights, which would change scores and order.
    """
    check_kappa(kappa)
    log_height = math.log(number.height) / math.log(PENALTY_LOG_BASE)
    return number.core + kappa * number.spread * log_height
