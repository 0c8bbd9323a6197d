"""Monostatic link budget: antenna gain, channel transmissivity, SNR chain.

The chain is the standard radar one specialized to a photon-counting view:

* gain G = 4*pi*A / lambda^2 for effective aperture A,
* transmissivity eta = sigma * G * A * F^2 / ((4*pi)^2 * R^4),
* SNR = eta * N_s / N_B, identically equal to P_r / P_B,
* SNR_eff = M * SNR after lossless coherent integration over M = round(tau*B)
  independent measurements.

A computed eta > 1 is rejected, not clamped: it means the far-field model
was applied inside the near field and any downstream range solution would
be silently wrong.  :func:`_require_far_field` is that guard, shared with
the range solver's ``RangeChain.link_at``.

These functions are the (4*pi)^2 reference chain the solver's closure tests
check against; the solver's ``RangeChain`` holds the same chain as a head
sigma*G*A*M and a denominator (4*pi)^k * N_B that honours the configured
(4*pi) exponent.

This module holds only formulas; the scenario they take is checked by
:class:`~qi_rangekit.config.ScenarioConfig`.  The detection threshold
SNR_min is a configured input.  The Albersheim closed-form estimator is
provided as an advisory cross-check only; for P_d = 0.7, P_fa = 1e-6, M = 1
it returns ~12.1 dB where the configured default is 10 dB, and it never
silently substitutes the configured value.
"""

from __future__ import annotations

import math

from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, UnphysicalGeometryError
from .radiometry import _require_positive

_FOUR_PI = 4.0 * math.pi


def antenna_gain(
    aperture_m2: float, f_hz: float, constants: PhysicalConstants = TEXTBOOK
) -> float:
    """Antenna gain G = 4*pi*A/lambda^2 = 4*pi*A*f^2/c^2 (dimensionless)."""
    aperture_m2 = _require_positive("antenna aperture", aperture_m2)
    f_hz = _require_positive("frequency", f_hz)
    return _FOUR_PI * aperture_m2 * f_hz**2 / constants.c**2


def channel_transmissivity(
    sigma_m2: float,
    gain: float,
    aperture_m2: float,
    f_form: float,
    r_m: float,
) -> float:
    """Round-trip power transmissivity eta = sigma*G*A*F^2 / ((4*pi)^2 * R^4).

    ``f_form`` is the one-way atmospheric form factor; it enters squared here
    and nowhere else.  Raises :class:`UnphysicalGeometryError` if the result
    exceeds 1, which indicates a near-field query the model cannot describe.
    """
    sigma_m2 = _require_positive("target cross section", sigma_m2)
    gain = _require_positive("gain", gain)
    aperture_m2 = _require_positive("antenna aperture", aperture_m2)
    f_form = float(f_form)
    if not (0.0 < f_form <= 1.0):
        raise DomainError(f"form factor must be in (0, 1], got {f_form!r}")
    r_m = _require_positive("range", r_m)
    eta = sigma_m2 * gain * aperture_m2 * f_form**2 / (_FOUR_PI**2 * r_m**4)
    return _require_far_field(eta, r_m)


def _require_far_field(eta: float, r_m: float) -> float:
    """Return ``eta``, or raise :class:`UnphysicalGeometryError` if it exceeds 1."""
    if eta > 1.0:
        raise UnphysicalGeometryError(
            f"computed transmissivity {eta!r} > 1 at range {r_m!r} m; "
            "the far-field model does not apply this close to the antenna"
        )
    return eta


def received_power(p_t_watts: float, eta: float) -> float:
    """Received signal power P_r = eta * P_t."""
    p_t_watts = _require_positive("transmit power", p_t_watts)
    eta = float(eta)
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"transmissivity must be in (0, 1], got {eta!r}")
    return p_t_watts * eta


def snr(eta: float, n_s: float, n_b: float) -> float:
    """Single-measurement signal-to-noise ratio eta * N_s / N_B (linear)."""
    eta = float(eta)
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"transmissivity must be in (0, 1], got {eta!r}")
    n_s = _require_positive("photons per mode", n_s)
    n_b = _require_positive("noise occupancy", n_b)
    return eta * n_s / n_b


def snr_eff(eta: float, m: int, n_s: float, n_b: float) -> float:
    """Effective SNR after integrating M i.i.d. measurements: M * eta * N_s / N_B."""
    m = int(m)
    if m < 1:
        raise DomainError(f"measurement count must be >= 1, got {m!r}")
    return m * snr(eta, n_s, n_b)


def albersheim_snr_min(p_d: float, p_fa: float, m: int) -> float:
    """Albersheim's closed-form estimate of the required SNR [dB].

    Valid for 0.1 <= p_d <= 0.9, 1e-7 <= p_fa <= 1e-3, 1 <= m <= 8096;
    outside that box the approximation is not certified and a DomainError
    is raised.  Advisory only: it does not replace a configured threshold.
    """
    p_d = float(p_d)
    p_fa = float(p_fa)
    m = int(m)
    if not (0.1 <= p_d <= 0.9):
        raise DomainError(f"p_d={p_d!r} outside the Albersheim validity box [0.1, 0.9]")
    if not (1e-7 <= p_fa <= 1e-3):
        raise DomainError(f"p_fa={p_fa!r} outside the Albersheim validity box [1e-7, 1e-3]")
    if not (1 <= m <= 8096):
        raise DomainError(f"m={m!r} outside the Albersheim validity box [1, 8096]")
    a = math.log(0.62 / p_fa)
    b = math.log(p_d / (1.0 - p_d))
    return -5.0 * math.log10(m) + (6.2 + 4.54 / math.sqrt(m + 0.44)) * math.log10(
        a + 0.12 * a * b + 1.7 * b
    )
