"""Photon/power radiometry: transmit power, dBm, thermal occupancy and noise.

All powers are plain floats in watts; dBm is a view obtained through
:func:`watts_to_dbm`.  The thermal occupancy uses the Rayleigh-Jeans form
N_B = k_B * T / (h * f) with no Bose-Einstein correction, so that
P_B = k_B * T_eff * B = N_B * h * f * B holds as an exact identity at every
frequency.
"""

from __future__ import annotations

import math

from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def _require_non_negative(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be non-negative and finite, got {value!r}")
    return value


def _ldexp_ratio(name: str, at: str, factors: tuple[float, ...],
                 divisors: tuple[float, ...] = ()) -> float:
    """prod(factors) / prod(divisors) of positive finite floats, their
    mantissas and exponents taken apart, so that no partial product leaves
    the float range.  Raises :class:`DomainError`, naming the quantity
    ``name`` and its inputs ``at``, where the result overflows or underflows
    to 0."""
    top = [math.frexp(v) for v in factors]
    bottom = [math.frexp(v) for v in divisors]
    mantissa = math.prod(m for m, _ in top) / math.prod(m for m, _ in bottom)
    try:
        value = math.ldexp(mantissa, sum(e for _, e in top) - sum(e for _, e in bottom))
    except OverflowError:
        value = math.inf
    if value == math.inf or value == 0.0:
        raise DomainError(f"{name} {'overflows' if value else 'underflows to 0'} at {at}")
    return value


def watts_to_dbm(watts: float) -> float:
    """Power in dB relative to 1 mW.  Defined only for positive power."""
    watts = _require_positive("power in watts", watts)
    milliwatts = watts / 1e-3  # inf above ~1.8e305 W, where log10(watts) + 3 is not
    return 10.0 * (math.log10(milliwatts) if milliwatts < math.inf else math.log10(watts) + 3.0)


def dbm_to_watts(dbm: float) -> float:
    """Inverse of :func:`watts_to_dbm`."""
    dbm = float(dbm)
    if not math.isfinite(dbm):
        raise DomainError(f"power in dBm must be finite, got {dbm!r}")
    try:
        return 1e-3 * 10.0 ** (dbm / 10.0)
    except OverflowError:
        raise DomainError(f"power in dBm is too large, got {dbm!r}") from None


def transmit_power(
    n_s: float,
    f_hz: float,
    b_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Transmit power P_t = N_s * h * f * B in watts.

    A transmitter emitting ``n_s`` photons per mode at frequency ``f_hz``
    over bandwidth ``b_hz``.  Linear in each argument.  Raises
    :class:`DomainError` where the product overflows or underflows to 0.
    """
    n_s = _require_positive("photons per mode", n_s)
    f_hz = _require_positive("frequency", f_hz)
    b_hz = _require_positive("bandwidth", b_hz)
    watts = n_s * constants.h * f_hz * b_hz
    if watts == math.inf or watts == 0.0:
        # a partial product left the float range, the whole one may not
        watts = _ldexp_ratio("N_s*h*f*B", f"n_s = {n_s!r}, f = {f_hz!r} Hz, B = {b_hz!r} Hz",
                             (n_s, constants.h, f_hz, b_hz))
    return watts


def thermal_occupancy(
    t_kelvin: float,
    f_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Thermal photons per mode N_B = k_B * T / (h * f) (Rayleigh-Jeans).
    Raises :class:`DomainError` where h * f underflows to 0, and where N_B
    overflows or underflows to 0."""
    t_kelvin = _require_positive("temperature", t_kelvin)
    f_hz = _require_positive("frequency", f_hz)
    photon_energy = constants.h * f_hz
    if photon_energy == 0.0:
        raise DomainError(f"frequency {f_hz!r} Hz is too small: h * f underflows to 0")
    n_b = constants.k_b * t_kelvin / photon_energy
    if n_b == math.inf or n_b == 0.0:
        raise DomainError(
            f"N_B = k_B*T/(h*f) {'overflows' if n_b else 'underflows to 0'} at "
            f"T = {t_kelvin!r} K, f = {f_hz!r} Hz"
        )
    return n_b


def t_eff_from_noise_power(
    p_b_watts: float,
    b_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Effective noise temperature T_eff = P_B / (k_B * B) implied by a noise
    power over a bandwidth."""
    p_b_watts = _require_positive("noise power in watts", p_b_watts)
    b_hz = _require_positive("bandwidth", b_hz)
    return p_b_watts / (constants.k_b * b_hz)
