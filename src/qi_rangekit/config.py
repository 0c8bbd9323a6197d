"""Scenario configuration: the benchmark parameter set and JSON persistence.

The default :class:`ScenarioConfig` carries the benchmark scenario this
package reproduces: sigma = 1 m^2, A = 0.5 m^2, B = 1 GHz, tau = 1 s,
P_B = -63.82 dBm, SNR_min = 10 dB, P_d = 0.7, P_fa = 1e-6, and the
frequency set {7 GHz, 95 GHz, 1 THz}.  Configs persist as a flat JSON
object using the field names below; omitted fields fall back to these
defaults, unknown fields are rejected.  :class:`ScenarioConfig` is the one
scenario record: it checks the type and the domain of every field, and the
range chain reads sigma, A, SNR_min and M = round(tau*B) from it directly.

The table named by ``attenuation_table_path`` is loaded and checked once,
when the config is built; every range chain takes gamma from it.

The noise budget is specified as a noise *power*, so the effective
temperature and the per-frequency occupancy N_B are always derived, never
configured directly.
"""

from __future__ import annotations

import math
import os
import sys

from . import radiometry
from ._record import Record
from .constants import TEXTBOOK, PhysicalConstants
from .errors import ConfigError, DomainError
from .radiometry import _require_positive

_NUMBER_FIELDS = (
    "sigma_m2", "aperture_m2", "bandwidth_hz", "tau_s",
    "noise_power_dbm", "snr_min_db", "p_d", "p_fa",
)


def _as_float(name: str, value: object) -> float:
    """``value`` as a finite float; JSON gives ints of any size, so check it
    fits, and ``Infinity``, ``NaN`` or 1e400 as floats, so check those too."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number!r}")
    return number


class ScenarioConfig(Record):
    """The scenario, checked once on construction, which also builds the
    parts every range chain shares as derived (non-field) attributes:
    ``noise_power_watts`` and ``attenuation_table`` (``None`` when the path
    is lossless).  The fields, in order, and their defaults are those of
    ``_field_defaults``; :attr:`snr_min_linear` and :attr:`pulse_count` are
    computed from them."""

    _field_defaults = {
        "sigma_m2": 1.0,
        "aperture_m2": 0.5,
        "bandwidth_hz": 1e9,
        "tau_s": 1.0,
        "noise_power_dbm": -63.82,
        "snr_min_db": 10.0,
        "p_d": 0.7,
        "p_fa": 1e-6,
        "frequencies_hz": (7e9, 95e9, 1e12),
        "attenuation_table_path": None,
        "four_pi_exponent": 2,
    }
    _fields = tuple(_field_defaults)
    __slots__ = _fields + ("noise_power_watts", "attenuation_table")

    def _check(self) -> None:
        for name in _NUMBER_FIELDS:
            _as_float(name, getattr(self, name))
        if not isinstance(self.frequencies_hz, (list, tuple)):
            raise ConfigError(f"frequencies_hz must be a list, got {self.frequencies_hz!r}")
        frequencies = tuple(_as_float("frequencies_hz", f) for f in self.frequencies_hz)
        if not frequencies:
            raise ConfigError("frequencies_hz must not be empty")
        object.__setattr__(self, "frequencies_hz", frequencies)
        path = self.attenuation_table_path
        if not (path is None or isinstance(path, str)):
            raise ConfigError(f"attenuation_table_path must be a string or null, got {path!r}")
        if self.four_pi_exponent not in (2, 4):
            raise ConfigError(
                f"four_pi_exponent must be 2 or 4, got {self.four_pi_exponent!r}"
            )
        if not (0.0 < self.p_fa < self.p_d < 1.0):
            raise ConfigError(f"need 0 < p_fa < p_d < 1, got p_fa={self.p_fa!r}, p_d={self.p_d!r}")
        measurements = float(self.tau_s) * self.bandwidth_hz
        try:
            for f_hz in frequencies:
                _require_positive("frequencies_hz", f_hz)
            for name in ("sigma_m2", "aperture_m2", "tau_s", "bandwidth_hz"):
                _require_positive(name, getattr(self, name))
            try:
                linear = self.snr_min_linear
            except OverflowError:
                linear = math.inf
            _require_positive(f"linear SNR_min from snr_min_db = {self.snr_min_db!r}", linear)
            _require_positive("tau_s * bandwidth_hz", measurements)
            try:
                watts = radiometry.dbm_to_watts(self.noise_power_dbm)
            except DomainError:  # finite but past the float range in watts
                watts = math.inf
            _require_positive(f"noise_power_dbm = {self.noise_power_dbm!r} in watts", watts)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if self.pulse_count < 1:
            raise ConfigError(
                f"tau_s * bandwidth_hz = {measurements!r} rounds below 1 measurement"
            )
        object.__setattr__(self, "noise_power_watts", watts)
        table = None
        if path is not None:
            from .atmosphere import load_table

            table = load_table(path)
        object.__setattr__(self, "attenuation_table", table)

    # Derived scenario quantities -------------------------------------------

    @property
    def snr_min_linear(self) -> float:
        """The configured threshold SNR_min as a linear ratio."""
        return 10.0 ** (self.snr_min_db / 10.0)

    @property
    def pulse_count(self) -> int:
        """The measurement count M = round(tau * B)."""
        return round(self.tau_s * self.bandwidth_hz)

    def t_eff_kelvin(self, constants: PhysicalConstants = TEXTBOOK) -> float:
        """Effective noise temperature implied by the configured noise power."""
        return radiometry.t_eff_from_noise_power(
            self.noise_power_watts, self.bandwidth_hz, constants
        )

    def noise_occupancy(self, f_hz: float, constants: PhysicalConstants = TEXTBOOK) -> float:
        """Thermal photons per mode at a frequency, N_B = k_B*T_eff/(h*f).  That
        loses digits, or rounds to 0 or inf, where k_B*T_eff or N_B is not a
        normal float; there N_B is P_B/(h*f*B), mantissas and exponents apart."""
        t_eff = self.t_eff_kelvin(constants)
        if sys.float_info.min <= constants.k_b * t_eff < math.inf:
            n_b = radiometry.thermal_occupancy(t_eff, f_hz, constants)
            if n_b >= sys.float_info.min:
                return n_b
        f_hz = _require_positive("frequency", f_hz)
        p_b, b_hz = self.noise_power_watts, self.bandwidth_hz
        return radiometry._ldexp_ratio(
            "N_B = P_B/(h*f*B)", f"P_B = {p_b!r} W, f = {f_hz!r} Hz, B = {b_hz!r} Hz",
            (p_b,), (constants.h, f_hz, b_hz))


def dump_config(config: ScenarioConfig) -> str:
    """Serialize to JSON that :func:`parse_config` reloads identically."""
    import json

    payload = {name: getattr(config, name) for name in ScenarioConfig._fields}
    payload["frequencies_hz"] = list(config.frequencies_hz)
    return json.dumps(payload, indent=2) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    import json

    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ScenarioConfig._fields)
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ScenarioConfig(**payload)


def load_config(path: str | os.PathLike) -> ScenarioConfig:
    """Read a config file; an error names the path as given."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
