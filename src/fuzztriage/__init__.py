"""Alert triage with fuzzy severity, detector confidence, and risk-aware ranking."""

__version__ = "0.1.0"
