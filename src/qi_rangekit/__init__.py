"""Quantum- vs classical-illumination target-detection range modeling.

Library layout:

* :mod:`~qi_rangekit.quantum_states` -- transmitter covariance matrices and
  truncated Fock-space oracles,
* :mod:`~qi_rangekit.radiometry` -- transmit power, dBm, thermal occupancy
  and noise temperature,
* :mod:`~qi_rangekit.atmosphere` -- tabulated absorption and form factor,
* :mod:`~qi_rangekit.link_budget` -- the Albersheim threshold estimator
  (advisory),
* :mod:`~qi_rangekit.range_solver` -- antenna gain and closed-form maximum
  range, lossless and attenuated (Lambert W0), and N_s sweeps,
* :mod:`~qi_rangekit.detection_mc` -- Monte Carlo verification layer,
* :mod:`~qi_rangekit.config` / :mod:`~qi_rangekit.cli` -- scenario files and
  the ``qi-rangekit`` command.
"""

__version__ = "0.1.0"

from .constants import CODATA, TEXTBOOK, PhysicalConstants
from .errors import (
    ConfigError,
    CovarianceNotPSDError,
    CutoffError,
    DomainError,
    FrequencySpanError,
    NoDetectionError,
    RangeKitError,
    TableParseError,
    TableValidationError,
    UnphysicalGeometryError,
)

__all__ = [
    "CODATA",
    "TEXTBOOK",
    "PhysicalConstants",
    "ConfigError",
    "CovarianceNotPSDError",
    "CutoffError",
    "DomainError",
    "FrequencySpanError",
    "NoDetectionError",
    "RangeKitError",
    "TableParseError",
    "TableValidationError",
    "UnphysicalGeometryError",
    "__version__",
]
