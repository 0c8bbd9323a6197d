"""Scenario config: benchmark defaults, JSON round trip, derived quantities."""

import json
import math
from fractions import Fraction

import pytest
from bench_scenario import sweep_attenuated_config
from reference_chain import threshold

from qi_rangekit.atmosphere import AttenuationTable, serialize_table
from qi_rangekit.config import ScenarioConfig, dump_config, load_config, parse_config
from qi_rangekit.constants import TEXTBOOK
from qi_rangekit.errors import ConfigError, DomainError, TableParseError
from qi_rangekit.radiometry import dbm_to_watts
from qi_rangekit.range_solver import Illumination, antenna_gain, range_chain, sweep_range


def flat_table(tmp_path):
    """A 0.5 dB/km table over 1-2000 GHz, written as CSV under ``tmp_path``."""
    path = tmp_path / "flat.csv"
    table = AttenuationTable(rows=((1.0, 0.5), (2000.0, 0.5)))
    path.write_text(serialize_table(table), encoding="utf-8")
    return path


def test_defaults_are_the_benchmark_scenario():
    cfg = ScenarioConfig()
    assert cfg.sigma_m2 == 1.0
    assert cfg.aperture_m2 == 0.5
    assert cfg.bandwidth_hz == 1e9
    assert cfg.tau_s == 1.0
    assert cfg.noise_power_dbm == -63.82
    assert cfg.snr_min_db == 10.0
    assert cfg.p_d == 0.7
    assert cfg.p_fa == 1e-6
    assert cfg.frequencies_hz == (7e9, 95e9, 1e12)
    assert cfg.attenuation_table_path is None
    assert cfg.four_pi_exponent == 2
    # derived: M = round(tau * B) and the threshold as a ratio
    assert cfg.pulse_count == 10**9
    assert cfg.snr_min_linear == pytest.approx(10.0, rel=1e-15)


def test_json_round_trip(tmp_path):
    cfg = ScenarioConfig(sigma_m2=2.5, snr_min_db=13.0, frequencies_hz=(1e10,))
    path = tmp_path / "scenario.json"
    path.write_text(dump_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg


def test_partial_config_uses_defaults():
    cfg = parse_config('{"snr_min_db": 12.0}')
    assert cfg.snr_min_db == 12.0
    assert cfg.sigma_m2 == 1.0


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        parse_config('{"sigma": 1.0}')


def test_invalid_json_rejected():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        parse_config('{"sigma_m2": -1.0}')
    with pytest.raises(ConfigError, match="sigma_m2"):
        parse_config('{"sigma_m2": 0}')
    with pytest.raises(ConfigError, match="p_fa"):
        parse_config('{"p_fa": 0.9, "p_d": 0.5}')
    with pytest.raises(ConfigError, match="p_d=1.0"):
        parse_config('{"p_d": 1.0}')
    with pytest.raises(ConfigError):
        parse_config('{"four_pi_exponent": 3}')
    with pytest.raises(ConfigError):
        parse_config('{"frequencies_hz": []}')
    # value checks made with radiometry's _require_positive and dbm_to_watts
    with pytest.raises(ConfigError, match="bandwidth"):
        parse_config('{"bandwidth_hz": 0}')
    with pytest.raises(ConfigError, match="aperture_m2"):
        parse_config('{"aperture_m2": -0.5}')
    with pytest.raises(ConfigError, match="snr_min_db"):
        parse_config('{"snr_min_db": Infinity}')
    with pytest.raises(ConfigError, match="noise_power_dbm"):
        parse_config('{"noise_power_dbm": NaN}')
    with pytest.raises(ConfigError, match="noise_power_dbm"):
        parse_config('{"noise_power_dbm": 1e4}')
    # tau * B = 0.4 rounds to zero measurements: rejected at load
    with pytest.raises(ConfigError, match="rounds below 1 measurement"):
        parse_config('{"tau_s": 4e-10}')


def test_overflowing_tau_times_b_rejected():
    # checked before rounding: round(inf) would raise OverflowError
    with pytest.raises(ConfigError, match=r"tau_s \* bandwidth_hz"):
        parse_config('{"tau_s": 1e200, "bandwidth_hz": 1e200}')


@pytest.mark.parametrize(
    "field, value",
    [("snr_min_db", 4000), ("snr_min_db", -4000), ("noise_power_dbm", -4000)],
    ids=["overflows", "underflows", "noise_power_underflows"],
)
def test_snr_min_db_without_a_finite_positive_linear_value_rejected(field, value):
    # 10^400 overflows the float range and 10^-400 rounds to 0; the noise
    # power, the other field given in dB, is checked the same way
    with pytest.raises(ConfigError, match=field):
        parse_config(json.dumps({field: value}))


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"noise_power_dbm": "x"}', "noise_power_dbm"),
        ('{"frequencies_hz": ["a"]}', "frequencies_hz"),
        ('{"attenuation_table_path": 5}', "attenuation_table_path"),
        ('{"p_fa": "x"}', "p_fa"),
        ('{"snr_min_db": null}', "snr_min_db"),
        ('{"tau_s": true}', "tau_s"),
        ('{"frequencies_hz": [7e9, false]}', "frequencies_hz"),
        ('{"frequencies_hz": 7e9}', "frequencies_hz"),
    ],
)
def test_wrong_json_types_rejected(text, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(text)


@pytest.mark.parametrize("frequencies_hz", [7e9, "7e9", None])
def test_frequencies_must_be_a_list(frequencies_hz):
    with pytest.raises(ConfigError, match="frequencies_hz must be a list"):
        ScenarioConfig(frequencies_hz=frequencies_hz)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sigma_m2": 0.0, "aperture_m2": 0.5}, "sigma_m2"),
        # tau * B = 0.1 rounds below one measurement
        ({"tau_s": 0.1, "bandwidth_hz": 1.0}, r"tau_s \* bandwidth_hz"),
        ({"p_d": 0.5, "p_fa": 0.6, "snr_min_db": 10.0}, "p_fa=0.6, p_d=0.5"),
        ({"p_d": 1.0, "p_fa": 1e-6, "snr_min_db": 10.0}, "p_d=1.0"),
    ],
    ids=["zero_sigma_m2", "no_whole_measurement", "p_fa_above_p_d", "p_d_of_1"],
)
def test_constructor_rejects_invalid_specs(fields, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**fields)


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"sigma_m2": 1%s}' % ("0" * 400), "sigma_m2"),
        ('{"noise_power_dbm": -1%s}' % ("0" * 400), "noise_power_dbm"),
        ('{"frequencies_hz": [7e9, 1%s]}' % ("0" * 400), "frequencies_hz"),
        # past Python's int-parsing digit limit: json.loads itself refuses it
        ('{"tau_s": 1%s}' % ("0" * 5000), "not valid JSON"),
    ],
    ids=["sigma_m2", "noise_power_dbm", "frequencies_hz", "past_int_digit_limit"],
)
def test_integers_too_large_for_a_float_rejected(text, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(text)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_derived_noise_quantities():
    cfg = ScenarioConfig()
    assert cfg.t_eff_kelvin() == pytest.approx(3.007e4, rel=1e-3)
    assert cfg.noise_occupancy(1e12) == pytest.approx(625.87, rel=1e-3)
    assert cfg.noise_occupancy(7e9) == pytest.approx(8.941e4, rel=1e-3)


@pytest.mark.parametrize("fields, f_hz", [
    # T_eff is subnormal and k_B * T_eff rounds to 0
    ({"noise_power_dbm": -3150, "bandwidth_hz": 1e15}, 1e12),
    # T_eff is normal, but k_B * T_eff rounds to 0 and N_B is normal
    ({"noise_power_dbm": -3200, "bandwidth_hz": 3.6e4}, 1e-20),
    # T_eff overflows, N_B is finite
    ({"noise_power_dbm": 100, "bandwidth_hz": 1e-300, "tau_s": 1e300}, 1e300),
], ids=["subnormal_t_eff", "k_b_t_rounds_to_0", "t_eff_overflows"])
def test_noise_occupancy_is_the_power_quotient_where_t_eff_loses_digits(fields, f_hz):
    config = ScenarioConfig(**fields, frequencies_hz=[f_hz])
    exact = Fraction(config.noise_power_watts) / (
        Fraction(TEXTBOOK.h) * Fraction(f_hz) * Fraction(config.bandwidth_hz))
    n_b = config.noise_occupancy(f_hz)
    assert abs(Fraction(n_b) - exact) <= 4 * Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("fields, f_hz, message", [
    ({"noise_power_dbm": 3000, "bandwidth_hz": 1e-300, "tau_s": 1e300}, 1e-30,
     "N_B = P_B/(h*f*B) overflows at P_B = 1e+297 W, f = 1e-30 Hz, B = 1e-300 Hz"),
    ({"noise_power_dbm": -3150, "bandwidth_hz": 1e15}, math.nan,
     "frequency must be positive and finite, got nan"),
], ids=["overflow", "nan_frequency"])
def test_noise_occupancy_from_the_power_names_what_it_refuses(fields, f_hz, message):
    config = ScenarioConfig(**fields)
    with pytest.raises(DomainError) as info:
        config.noise_occupancy(f_hz)
    assert str(info.value) == message


def test_range_chain_wires_scenario(tmp_path):
    cfg = ScenarioConfig()
    chain = range_chain(cfg, 1e12)
    assert threshold(chain, 1e-2, Illumination.QI) == 10.0 / (1.0 + 1.0 / 1e-2)
    assert chain.gamma_db_per_km == 0.0
    assert chain.n_b == pytest.approx(625.87, rel=1e-3)
    assert chain.pulse_count == 10**9

    table = flat_table(tmp_path)
    attenuated = range_chain(ScenarioConfig(attenuation_table_path=str(table)), 1e12)
    assert attenuated.gamma_db_per_km == pytest.approx(0.5, rel=1e-12)


def test_range_chain_reads_the_scenario_specs():
    cfg = ScenarioConfig(sigma_m2=2.0, aperture_m2=0.25, tau_s=2.6, bandwidth_hz=1.0,
                         snr_min_db=13.0)
    chain = range_chain(cfg, 1e12)
    gain = antenna_gain(0.25, 1e12)
    assert chain.head == 2.0 * gain * 0.25 * 3
    assert chain.snr_min == cfg.snr_min_linear == 10.0**1.3
    assert chain.pulse_count == cfg.pulse_count == 3
    assert cfg.noise_power_watts == dbm_to_watts(-63.82)
    # the built parts are not fields: equality and JSON see the 11 fields only
    assert ScenarioConfig._fields == (
        "sigma_m2", "aperture_m2", "bandwidth_hz", "tau_s", "noise_power_dbm",
        "snr_min_db", "p_d", "p_fa", "frequencies_hz", "attenuation_table_path",
        "four_pi_exponent",
    )
    assert "pulse_count" not in json.loads(dump_config(cfg))


def test_table_is_loaded_at_construction(tmp_path):
    assert ScenarioConfig().attenuation_table is None
    table = flat_table(tmp_path)
    cfg = ScenarioConfig(attenuation_table_path=str(table))
    assert cfg.attenuation_table.rows == ((1.0, 0.5), (2000.0, 0.5))
    # the loaded table is not a field either
    assert cfg == ScenarioConfig(attenuation_table_path=str(table))
    assert "attenuation_table" not in json.loads(dump_config(cfg))
    with pytest.raises(TableParseError, match="cannot read attenuation table"):
        ScenarioConfig(attenuation_table_path=str(tmp_path / "missing.csv"))


def test_attenuated_config_reaches_the_solve(tmp_path):
    cfg = load_config(sweep_attenuated_config(tmp_path))
    root = range_chain(cfg, 1e12).solve(1e-2, Illumination.CI)
    assert float(f"{root:.5g}") == 29.592
    [row] = [
        (f_hz, mode, point) for f_hz, mode, (r_max_m, _) in sweep_range(cfg, [1e-2])
        for point in r_max_m if f_hz == 1e12 and mode is Illumination.CI
    ]
    assert row[2] == root


def test_four_pi_exponent_passes_through():
    cfg = ScenarioConfig(four_pi_exponent=4)
    chain = range_chain(cfg, 1e12)
    assert chain.denominator == (4.0 * math.pi) ** 4 * chain.n_b


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(AttributeError):
        cfg.sigma_m2 = 2.0
