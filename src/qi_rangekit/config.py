"""Scenario configuration: the benchmark parameter set and JSON persistence.

The default :class:`ScenarioConfig` carries the benchmark scenario this
package reproduces; its fields and defaults are those of
``ScenarioConfig._field_defaults``, shown in README as :func:`dump_config`
writes them.  Configs persist as a flat JSON object of those field names;
omitted fields fall back to the defaults, unknown fields are rejected.
:class:`ScenarioConfig` is the one scenario record: it checks the type and
the domain of every field, and the range chain reads sigma, A, SNR_min and
M = round(tau*B) from it directly.  The range equation's (4*pi)^2 is no
setting: :mod:`.range_solver` fixes it.

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
from .errors import ConfigError, DomainError, _read_file, _require_finite, _require_positive


class ScenarioConfig(Record):
    """The scenario, checked once on construction, which also derives what
    every range chain reads as (non-field) slots: ``snr_min_linear``, the
    threshold SNR_min = 10^(snr_min_db/10) as a ratio, ``pulse_count``, the
    measurement count M = round(tau*B) of the checked float tau*B,
    ``noise_power_watts`` and ``attenuation_table`` (``None`` when the path
    is lossless).  The fields, in order, and their defaults are those of
    ``_field_defaults``; ``_field_rules`` holds the one rule of each number
    field, in field order, and a config of several faults names the first."""

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
    }
    _field_rules = {
        "sigma_m2": _require_positive, "aperture_m2": _require_positive,
        "bandwidth_hz": _require_positive, "tau_s": _require_positive,
        "noise_power_dbm": _require_finite, "snr_min_db": _require_finite,
        "p_d": _require_finite, "p_fa": _require_finite,
    }
    _fields = tuple(_field_defaults)
    __slots__ = _fields + ("snr_min_linear", "pulse_count", "noise_power_watts",
                           "attenuation_table")

    def _check(self) -> None:
        for name, rule in self._field_rules.items():
            rule(name, getattr(self, name), ConfigError)
        if not isinstance(self.frequencies_hz, (list, tuple)):
            raise ConfigError(f"frequencies_hz must be a list, got {self.frequencies_hz!r}")
        frequencies = tuple(_require_positive("frequencies_hz", f, ConfigError)
                            for f in self.frequencies_hz)
        if not frequencies:
            raise ConfigError("frequencies_hz must not be empty")
        object.__setattr__(self, "frequencies_hz", frequencies)
        path = self.attenuation_table_path
        if not (path is None or isinstance(path, str)):
            raise ConfigError(f"attenuation_table_path must be a string or null, got {path!r}")
        if not (0.0 < self.p_fa < self.p_d < 1.0):
            raise ConfigError(f"need 0 < p_fa < p_d < 1, got p_fa={self.p_fa!r}, p_d={self.p_d!r}")
        try:
            linear = 10.0 ** (self.snr_min_db / 10.0)
        except OverflowError:
            linear = math.inf
        _require_positive(f"linear SNR_min from snr_min_db = {self.snr_min_db!r}", linear,
                          ConfigError)
        measurements = float(self.tau_s) * self.bandwidth_hz
        _require_positive("tau_s * bandwidth_hz", measurements, ConfigError)
        try:
            watts = radiometry.dbm_to_watts(self.noise_power_dbm)
        except DomainError:  # finite but past the float range in watts
            watts = math.inf
        _require_positive(f"noise_power_dbm = {self.noise_power_dbm!r} in watts", watts,
                          ConfigError)
        pulse_count = round(measurements)
        if pulse_count < 1:
            raise ConfigError(
                f"tau_s * bandwidth_hz = {measurements!r} rounds below 1 measurement"
            )
        object.__setattr__(self, "snr_min_linear", linear)
        object.__setattr__(self, "pulse_count", pulse_count)
        object.__setattr__(self, "noise_power_watts", watts)
        table = None
        if path is not None:
            from .atmosphere import load_table

            table = load_table(path)
        object.__setattr__(self, "attenuation_table", table)

    def t_eff_kelvin(self, constants: PhysicalConstants = TEXTBOOK) -> float:
        """Effective noise temperature implied by the configured noise power."""
        return radiometry.t_eff_from_noise_power(
            self.noise_power_watts, self.bandwidth_hz, constants
        )

    def noise_occupancy(self, f_hz: float, constants: PhysicalConstants = TEXTBOOK) -> float:
        """Thermal photons per mode at a frequency: N_B = k_B*T_eff/(h*f) where
        k_B*T_eff is a normal float, a subnormal N_B included (the roundings
        of T_eff, k_B*T_eff and h*f leave it within 4 ulps of P_B/(h*f*B)),
        and else, where k_B*T_eff has lost digits or rounded to 0 or inf,
        P_B/(h*f*B), mantissas and exponents apart."""
        t_eff = self.t_eff_kelvin(constants)
        if sys.float_info.min <= constants.k_b * t_eff < math.inf:
            return radiometry.thermal_occupancy(t_eff, f_hz, constants)
        f_hz = _require_positive("frequency", f_hz)
        p_b, b_hz = self.noise_power_watts, self.bandwidth_hz
        return radiometry._in_float_range(
            "N_B = P_B/(h*f*B)", f"P_B = {p_b!r} W, f = {f_hz!r} Hz, B = {b_hz!r} Hz",
            radiometry._ldexp_quotient((p_b,), (constants.h, f_hz, b_hz)))


def dump_config(config: ScenarioConfig) -> str:
    """Serialize to JSON that :func:`parse_config` reloads identically."""
    import json

    payload = {name: getattr(config, name) for name in ScenarioConfig._fields}
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
    """Read a config file.  A :class:`ConfigError` names the path as given,
    ``config <path>: …`` (``cannot read config <path>: …`` where the file
    cannot be read); the error of a table the config names is the table's."""
    return _read_file(path, "config", lambda handle: parse_config(handle.read()), ConfigError)
