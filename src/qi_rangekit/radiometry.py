"""Photon/power radiometry: transmit power, dBm, thermal occupancy and noise.

All powers are plain floats in watts; dBm is a view obtained through
:func:`watts_to_dbm`.  The thermal occupancy uses the Rayleigh-Jeans form
N_B = k_B * T / (h * f) with no Bose-Einstein correction, so that
P_B = k_B * T_eff * B = N_B * h * f * B holds as an exact identity at every
frequency.

The module holds physics and the float helpers the package forms its
products and quotients with (:func:`_ldexp_quotient`, :func:`_in_float_range`,
:func:`_root_product`); the number rules its functions check their inputs
with live in :mod:`.errors`.
"""

from __future__ import annotations

import math

from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, _require_finite, _require_positive


def _ldexp_quotient(factors: tuple[float, ...], divisors: tuple[float, ...] = ()) -> float:
    """prod(factors) / prod(divisors) of finite floats >= 0 (divisors > 0),
    their mantissas and exponents taken apart, so that no partial product
    leaves the float range: inf only where the result overflows, 0 only
    where it underflows (or a factor is 0)."""
    top = [math.frexp(v) for v in factors]
    bottom = [math.frexp(v) for v in divisors]
    mantissa = math.prod(m for m, _ in top) / math.prod(m for m, _ in bottom)
    try:
        return math.ldexp(mantissa, sum(e for _, e in top) - sum(e for _, e in bottom))
    except OverflowError:
        return math.inf


def _in_float_range(name: str, at: str, value: float) -> float:
    """``value``, a quantity ``name`` computed at the inputs ``at``.  Raises
    :class:`DomainError`, naming both, where it overflows or underflows to 0."""
    if value == math.inf or value == 0.0:
        raise DomainError(f"{name} {'overflows' if value else 'underflows to 0'} at {at}")
    return value


def _root_product(x: float, y: float) -> float:
    """sqrt(x*y) of floats x, y >= 0, as sqrt(x)*sqrt(y) where x*y overflows.
    A product that rounding leaves below 0 reads as 0."""
    product = x * y
    if product == math.inf:
        return math.sqrt(x) * math.sqrt(y)
    return math.sqrt(max(product, 0.0))


def watts_to_dbm(watts: float) -> float:
    """Power in dB relative to 1 mW.  Defined only for positive power."""
    watts = _require_positive("power in watts", watts)
    milliwatts = watts / 1e-3  # inf above ~1.8e305 W, where log10(watts) + 3 is not
    return 10.0 * (math.log10(milliwatts) if milliwatts < math.inf else math.log10(watts) + 3.0)


def dbm_to_watts(dbm: float) -> float:
    """Inverse of :func:`watts_to_dbm`."""
    dbm = _require_finite("power in dBm", dbm)
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
    over bandwidth ``b_hz``.  Linear in each argument.  The product is
    formed from the factors' mantissas and exponents, so no partial product
    leaves the float range.  Raises :class:`DomainError` where the product
    itself overflows or underflows to 0.
    """
    n_s = _require_positive("photons per mode", n_s)
    f_hz = _require_positive("frequency", f_hz)
    b_hz = _require_positive("bandwidth", b_hz)
    return _in_float_range("N_s*h*f*B", f"n_s = {n_s!r}, f = {f_hz!r} Hz, B = {b_hz!r} Hz",
                           _ldexp_quotient((n_s, constants.h, f_hz, b_hz)))


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
    return _in_float_range("N_B = k_B*T/(h*f)", f"T = {t_kelvin!r} K, f = {f_hz!r} Hz",
                           constants.k_b * t_kelvin / photon_energy)


def t_eff_from_noise_power(
    p_b_watts: float,
    b_hz: float,
    constants: PhysicalConstants = TEXTBOOK,
) -> float:
    """Effective noise temperature T_eff = P_B / (k_B * B) implied by a noise
    power over a bandwidth, formed from mantissas and exponents, so that it
    reads inf or 0 only where T_eff itself leaves the float range, not where
    k_B * B does."""
    p_b_watts = _require_positive("noise power in watts", p_b_watts)
    b_hz = _require_positive("bandwidth", b_hz)
    return _ldexp_quotient((p_b_watts,), (constants.k_b, b_hz,))
