"""Exception types shared across the package.

Everything derives from :class:`RangeKitError` so callers (notably the CLI)
can map any package failure to a stable exit code in one place.
"""

from __future__ import annotations


class RangeKitError(Exception):
    """Base class for all qi_rangekit errors."""


class DomainError(RangeKitError, ValueError):
    """An input is outside the physical/mathematical domain of an operation."""


class CutoffError(RangeKitError, ValueError):
    """No Fock cutoff below ``MAX_FOCK_STATES`` meets the oracles' tail rule."""


class TableParseError(RangeKitError, ValueError):
    """An attenuation CSV is unreadable or malformed (bad header, unparsable row)."""


class TableValidationError(RangeKitError, ValueError):
    """An attenuation table violates its ordering/sign invariants."""


class FrequencySpanError(RangeKitError, ValueError):
    """A frequency lookup fell outside the table span; no extrapolation.

    Carries the valid span so callers can report it.
    """

    def __init__(self, message: str, span_ghz: tuple[float, float]):
        super().__init__(message)
        self.span_ghz = span_ghz


class UnphysicalGeometryError(RangeKitError, ValueError):
    """A range root lies in the near field, where the transmissivity exceeds 1
    and the far-field model does not apply: ``RangeChain.solve`` refuses a
    ``near_field`` point; ``RangeChain.link_at`` only evaluates F, eta and
    the residual."""


class CovarianceNotPSDError(RangeKitError, ValueError):
    """A covariance matrix is not positive semi-definite beyond round-off.

    Carries the offending (most negative) eigenvalue.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NoDetectionError(RangeKitError):
    """The target is undetectable even at near-zero range."""


class ConfigError(RangeKitError, ValueError):
    """A scenario configuration file could not be loaded or validated."""
