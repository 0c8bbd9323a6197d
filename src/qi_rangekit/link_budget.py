"""The Albersheim closed-form estimate of the required SNR.

Advisory only: the detection threshold SNR_min is a configured input,
checked by :class:`~qi_rangekit.config.ScenarioConfig`.  For P_d = 0.7,
P_fa = 1e-6, M = 1 the estimator returns ~12.1 dB where the configured
default is 10 dB, and it never silently substitutes the configured value.

The range path does not load this module: the antenna gain it uses lives
in :mod:`~qi_rangekit.range_solver`, whose solve kernel makes the
near-field decision as a point's ``near_field`` status, and the form
factor in :mod:`~qi_rangekit.atmosphere`.
"""

from __future__ import annotations

import math

from .errors import DomainError, _as_number, _require_count


def albersheim_snr_min(p_d: float, p_fa: float, m: int) -> float:
    """Albersheim's closed-form estimate of the required SNR [dB].

    Valid for 0.1 <= p_d <= 0.9, 1e-7 <= p_fa <= 1e-3, 1 <= m <= 8096;
    outside that box the approximation is not certified and a DomainError
    is raised.  Advisory only: it does not replace a configured threshold.
    """
    p_d = _as_number("p_d", p_d)
    p_fa = _as_number("p_fa", p_fa)
    m = _require_count("m", m, 1, 8096)
    if not (0.1 <= p_d <= 0.9):
        raise DomainError(f"p_d={p_d!r} outside the Albersheim validity box [0.1, 0.9]")
    if not (1e-7 <= p_fa <= 1e-3):
        raise DomainError(f"p_fa={p_fa!r} outside the Albersheim validity box [1e-7, 1e-3]")
    a = math.log(0.62 / p_fa)
    b = math.log(p_d / (1.0 - p_d))
    return -5.0 * math.log10(m) + (6.2 + 4.54 / math.sqrt(m + 0.44)) * math.log10(
        a + 0.12 * a * b + 1.7 * b
    )
