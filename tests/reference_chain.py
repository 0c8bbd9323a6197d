"""Reference (4*pi)^2 link-budget chain for the tests.

The package solves the range from one chain, SNR_eff(R) = head * N_s /
denominator * F(R)^2 / R^4 (:class:`~qi_rangekit.range_solver.RangeChain`).
This module keeps the textbook chain that one is derived from, step by step,
so a test can close the range equation through formulas the solver does not
run:

* transmissivity eta = sigma * G * A * F^2 / ((4*pi)^2 * R^4),
* SNR = eta * N_s / N_B, identically equal to P_r / P_B,
* SNR_eff = M * SNR after lossless coherent integration over M = round(tau*B)
  independent measurements,

with the received power P_r = eta * P_t, the noise power P_B = k_B * T * B
and photons per mode N_s = P / (h * f * B), the inverse of
:func:`~qi_rangekit.radiometry.transmit_power`.  It also gives a chain's
mode-adjusted threshold (:func:`threshold`), SNR_min / (1 + 1/N_s) for the
quantum transmitter: the textbook form of the N_s + 1 the solve kernel uses,
and a chain's (4*pi)^4 variant (:func:`fourth_power_variant`), the
convention sometimes seen in print.
"""

from __future__ import annotations

import math

from qi_rangekit.constants import TEXTBOOK, PhysicalConstants
from qi_rangekit.errors import DomainError, UnphysicalGeometryError
from qi_rangekit.errors import _require_positive
from qi_rangekit.range_solver import _FOUR_PI, Illumination, RangeChain


def threshold(chain: RangeChain, n_s: float, mode: Illumination) -> float:
    """Mode-adjusted detection threshold (linear) of ``chain``: SNR_min, divided
    by 1 + 1/N_s for the quantum transmitter."""
    n_s = _require_positive("n_s", n_s)
    if mode is Illumination.CI:
        return chain.snr_min
    inverse = 1.0 / n_s
    if inverse == math.inf:  # N_s below ~5.6e-309, where 1 + 1/N_s is 1/N_s
        return chain.snr_min * n_s
    return chain.snr_min / (1.0 + inverse)


def fourth_power_variant(chain: RangeChain) -> RangeChain:
    """``chain`` with (4*pi)^4 in place of the (4*pi)^2 of its denominator."""
    return chain.replace(denominator=_FOUR_PI**4 * chain.n_b)


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


def photons_per_mode(
    watts: float,
    f_hz: float,
    b_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Photons per mode carried by ``watts`` at (f, B); inverse of
    :func:`transmit_power`."""
    watts = _require_positive("power in watts", watts)
    f_hz = _require_positive("frequency", f_hz)
    b_hz = _require_positive("bandwidth", b_hz)
    return watts / (constants.h * f_hz * b_hz)


def noise_power(
    t_kelvin: float,
    b_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Total thermal noise power P_B = k_B * T_eff * B in watts."""
    t_kelvin = _require_positive("temperature", t_kelvin)
    b_hz = _require_positive("bandwidth", b_hz)
    return constants.k_b * t_kelvin * b_hz
