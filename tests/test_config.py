"""Scenario config: benchmark defaults, JSON round trip, derived quantities."""

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from bench_scenario import sweep_attenuated_config
from reference_chain import threshold

from qi_rangekit.atmosphere import AttenuationTable, serialize_table
from qi_rangekit.cli import main
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
    # derived: M = round(tau * B) and the threshold as a ratio
    assert cfg.pulse_count == 10**9
    assert cfg.snr_min_linear == pytest.approx(10.0, rel=1e-15)


def test_json_round_trip(tmp_path):
    cfg = ScenarioConfig(sigma_m2=2.5, snr_min_db=13.0, frequencies_hz=(1e10,))
    path = tmp_path / "scenario.json"
    path.write_text(dump_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg
    assert dump_config(load_config(path)) == dump_config(cfg)
    assert parse_config(dump_config(ScenarioConfig())) == ScenarioConfig()


def test_readme_config_example_is_the_dumped_default():
    # the README's "Scenario config" block lists every field with its
    # default, so a field added or removed cannot leave it behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == json.loads(dump_config(ScenarioConfig()))


def test_partial_config_uses_defaults():
    cfg = parse_config('{"snr_min_db": 12.0}')
    assert cfg.snr_min_db == 12.0
    assert cfg.sigma_m2 == 1.0


# configs dumped by earlier versions name four_pi_exponent, 2 or 4; the
# (4*pi)^2 is fixed, so they fail like any other unknown field
UNKNOWN_FIELDS = {
    "sigma": {"sigma": 1.0},
    "four_pi_exponent_2": {"four_pi_exponent": 2},
    "four_pi_exponent_4": {"four_pi_exponent": 4},
}


@pytest.mark.parametrize("fields", list(UNKNOWN_FIELDS.values()), ids=list(UNKNOWN_FIELDS))
def test_unknown_field_rejected(tmp_path, capsys, fields):
    [name] = fields
    with pytest.raises(ConfigError, match=f"unknown config fields: \\['{name}'\\]"):
        parse_config(json.dumps(fields))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    code = main(["--config", str(path), "range", "--ns", "1e-2", "--freq", "1e12"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert name in err


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
        parse_config('{"frequencies_hz": []}')
    # value checks made with errors' _require_positive and radiometry's dbm_to_watts
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


@pytest.mark.parametrize("fields, message", [
    ({"frequencies_hz": [7e9, -1.0]}, "frequencies_hz must be positive and finite, got -1.0"),
    ({"sigma_m2": 0.0}, "sigma_m2 must be positive and finite, got 0.0"),
    ({"aperture_m2": -1.0}, "aperture_m2 must be positive and finite, got -1.0"),
    ({"tau_s": 0.0}, "tau_s must be positive and finite, got 0.0"),
    ({"bandwidth_hz": -1.0}, "bandwidth_hz must be positive and finite, got -1.0"),
    ({"snr_min_db": -4000.0},
     "linear SNR_min from snr_min_db = -4000.0 must be positive and finite, got 0.0"),
    ({"tau_s": 1e-200, "bandwidth_hz": 1e-200},
     "tau_s * bandwidth_hz must be positive and finite, got 0.0"),
    ({"noise_power_dbm": 4000.0},
     "noise_power_dbm = 4000.0 in watts must be positive and finite, got inf"),
], ids=["frequencies_hz", "sigma_m2", "aperture_m2", "tau_s", "bandwidth_hz", "snr_min_linear",
        "tau_s_times_bandwidth_hz", "noise_power_watts"])
def test_each_positivity_check_raises_a_config_error(fields, message):
    # the positive rule of errors and its message, raised as the config's own error
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(**fields)
    assert (type(info.value), str(info.value)) == (ConfigError, message)


# Each number field's one rule: positive and finite, or finite.
POSITIVE_FIELDS = ("sigma_m2", "aperture_m2", "bandwidth_hz", "tau_s")
FINITE_FIELDS = ("noise_power_dbm", "snr_min_db", "p_d", "p_fa")
# A value of each kind as JSON text, and what each rule says of it (None:
# the finite rule passes it, and later checks decide).
SINGLE_FAULTS = {
    "str": ('"x"', "must be a number, got 'x'", "must be a number, got 'x'"),
    "bool": ("true", "must be a number, got True", "must be a number, got True"),
    "inf": ("Infinity", "must be positive and finite, got inf", "must be finite, got inf"),
    "nan": ("NaN", "must be positive and finite, got nan", "must be finite, got nan"),
    "zero": ("0", "must be positive and finite, got 0.0", None),
    "negative": ("-1", "must be positive and finite, got -1.0", None),
}
# What the finite fields' later checks say of 0 and -1 (None: a valid config).
FINITE_FIELD_EDGES = {
    ("noise_power_dbm", "0"): None,
    ("noise_power_dbm", "-1"): None,
    ("snr_min_db", "0"): None,
    ("snr_min_db", "-1"): None,
    ("p_d", "0"): "need 0 < p_fa < p_d < 1, got p_fa=1e-06, p_d=0",
    ("p_d", "-1"): "need 0 < p_fa < p_d < 1, got p_fa=1e-06, p_d=-1",
    ("p_fa", "0"): "need 0 < p_fa < p_d < 1, got p_fa=0, p_d=0.7",
    ("p_fa", "-1"): "need 0 < p_fa < p_d < 1, got p_fa=-1, p_d=0.7",
}


def _single_fault_cases():
    for kind, (value, positive, finite) in SINGLE_FAULTS.items():
        for field in POSITIVE_FIELDS:
            yield f"{field}-{kind}", f'{{"{field}": {value}}}', f"{field} {positive}"
        for field in FINITE_FIELDS:
            message = (f"{field} {finite}" if finite is not None
                       else FINITE_FIELD_EDGES[field, value])
            yield f"{field}-{kind}", f'{{"{field}": {value}}}', message
        for index in range(3):
            entries = ["7e9", "95e9", "1e12"]
            entries[index] = value
            yield (f"frequencies_hz.{index}-{kind}",
                   f'{{"frequencies_hz": [{", ".join(entries)}]}}', f"frequencies_hz {positive}")


SINGLE_FAULT_CASES = list(_single_fault_cases())


@pytest.mark.parametrize("text, message", [case[1:] for case in SINGLE_FAULT_CASES],
                         ids=[case[0] for case in SINGLE_FAULT_CASES])
def test_each_field_and_frequency_has_one_rule(text, message):
    # each number field and each frequency entry goes through its one rule
    # once, so an inf or NaN in a positive field reads as the library's
    # "positive and finite", not as a separate finite check
    if message is None:
        assert parse_config(text) == ScenarioConfig(**json.loads(text))
        return
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert (type(info.value), str(info.value)) == (ConfigError, message)


@pytest.mark.parametrize("fields, message", [
    ({"sigma_m2": 0, "p_d": "x"}, "sigma_m2 must be positive and finite, got 0.0"),
    ({"sigma_m2": 0, "frequencies_hz": []}, "sigma_m2 must be positive and finite, got 0.0"),
    ({"bandwidth_hz": 0, "tau_s": 0}, "bandwidth_hz must be positive and finite, got 0.0"),
], ids=["sigma_m2_before_p_d", "sigma_m2_before_frequencies_hz", "bandwidth_hz_before_tau_s"])
def test_a_config_of_several_faults_names_the_first_in_field_order(fields, message):
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(**fields)
    assert (type(info.value), str(info.value)) == (ConfigError, message)


def test_m_and_snr_min_are_derived_once_over_random_configs():
    rng = random.Random(47)
    for _ in range(2000):
        tau_s, bandwidth_hz = 10.0 ** rng.uniform(-6.0, 3.0), 10.0 ** rng.uniform(6.0, 12.0)
        snr_min_db = rng.uniform(-300.0, 300.0)
        config = ScenarioConfig(tau_s=tau_s, bandwidth_hz=bandwidth_hz, snr_min_db=snr_min_db)
        assert config.pulse_count == round(tau_s * bandwidth_hz)
        assert type(config.pulse_count) is int
        assert config.snr_min_linear == 10 ** (snr_min_db / 10)
        assert set(json.loads(dump_config(config))) == set(ScenarioConfig._fields)
    # derived slots, not properties, and not fields
    assert {"pulse_count", "snr_min_linear"} <= set(ScenarioConfig.__slots__)
    assert not {"pulse_count", "snr_min_linear"} & set(ScenarioConfig._fields)
    assert not any(isinstance(value, property) for value in vars(ScenarioConfig).values())


def test_m_is_the_round_of_the_checked_float_tau_times_b():
    # two integer fields multiply as floats, as every other pair does
    config = ScenarioConfig(tau_s=3, bandwidth_hz=10**17 + 1)
    assert config.pulse_count == round(3.0 * 1e17) == 3 * 10**17


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


@pytest.mark.parametrize("text, message", [
    ('{"sigma_m2": x}', "config is not valid JSON: Expecting value: line 1 column 14 (char 13)"),
    ("[1]", "config must be a JSON object"),
    ('{"sigma": 1}', "unknown config fields: ['sigma']"),
    ('{"sigma_m2": -1}', "sigma_m2 must be positive and finite, got -1.0"),
    ('{"frequencies_hz": []}', "frequencies_hz must not be empty"),
], ids=["not_json", "not_object", "unknown_field", "negative_sigma", "no_frequencies"])
def test_a_config_file_error_names_the_file(tmp_path, text, message):
    # text in memory keeps its message; the same text read from a file gains
    # the file's path, as the path was given
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    for given in (path, str(path)):
        with pytest.raises(ConfigError) as info:
            load_config(given)
        assert str(info.value) == f"config {path}: {message}"


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
    # k_B * T_eff = 1e-300 J is normal, and k_B*T_eff/(h*f) = 1.5e-312 is subnormal
    ({"noise_power_dbm": -2970, "bandwidth_hz": 1.0}, 1e45),
], ids=["subnormal_t_eff", "k_b_t_rounds_to_0", "t_eff_overflows", "subnormal_n_b"])
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
    # the built parts are not fields: equality and JSON see the 10 fields only
    assert ScenarioConfig._fields == (
        "sigma_m2", "aperture_m2", "bandwidth_hz", "tau_s", "noise_power_dbm",
        "snr_min_db", "p_d", "p_fa", "frequencies_hz", "attenuation_table_path",
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


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(AttributeError):
        cfg.sigma_m2 = 2.0
