"""Radiometry conversions, the quoted transmit-power values, and the
package's one number rule and one count rule at every public entry point
that takes a number or a count."""

import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qi_rangekit import cli
from qi_rangekit.atmosphere import AttenuationTable, bundled_table, form_factor, gamma_at
from qi_rangekit.cli import MAX_SWEEP_POINTS, MAX_TRIALS
from qi_rangekit.config import ScenarioConfig
from qi_rangekit.constants import CODATA, TEXTBOOK, PhysicalConstants
from qi_rangekit.detection_mc import (
    BlockState,
    detector_gain_experiment,
    exact_exceedance,
    return_states,
)
from qi_rangekit.errors import (
    ConfigError,
    DomainError,
    RangeKitError,
    TableValidationError,
    _require_finite,
    _require_non_negative,
    _require_positive,
)
from qi_rangekit.link_budget import albersheim_snr_min
from qi_rangekit.quantum_states import correlation_ratio, tmsv_covariance
from qi_rangekit.radiometry import (
    dbm_to_watts,
    t_eff_from_noise_power,
    thermal_occupancy,
    transmit_power,
    watts_to_dbm,
)
from qi_rangekit.range_solver import antenna_gain, range_chain, sweep_range
from reference_chain import noise_power, photons_per_mode

# Benchmark noise budget: P_B = -63.82 dBm over B = 1 GHz.
NOISE_POWER_DBM = -63.82
BANDWIDTH_HZ = 1e9


def test_quoted_microwave_power():
    dbm = watts_to_dbm(transmit_power(0.5, 7e9, 1e9))
    assert dbm == pytest.approx(-116.34, abs=0.01)


def test_quoted_terahertz_power():
    dbm = watts_to_dbm(transmit_power(1e-2, 1e12, 1e9))
    assert dbm == pytest.approx(-111.79, abs=0.01)


def test_unit_case_is_planck_constant():
    assert transmit_power(1.0, 1.0, 1.0) == TEXTBOOK.h
    assert transmit_power(1.0, 1.0, 1.0, CODATA) == CODATA.h


def test_default_constants_are_the_truncated_set():
    # The 3-significant-figure values are load-bearing: the quoted dBm
    # figures only reproduce with these, not with CODATA.
    assert TEXTBOOK.h == 6.63e-34
    assert TEXTBOOK.k_b == 1.38e-23
    assert TEXTBOOK.c == 3.0e8


def test_transmit_power_linear_in_each_argument():
    base = transmit_power(0.3, 5e9, 2e8)
    assert transmit_power(0.6, 5e9, 2e8) == pytest.approx(2.0 * base, rel=1e-15)
    assert transmit_power(0.3, 1e10, 2e8) == pytest.approx(2.0 * base, rel=1e-15)
    assert transmit_power(0.3, 5e9, 4e8) == pytest.approx(2.0 * base, rel=1e-15)


def test_photons_per_mode_round_trip():
    for n_s in np.logspace(-6, 3, 40):
        watts = transmit_power(n_s, 7e9, 1e9)
        assert photons_per_mode(watts, 7e9, 1e9) == pytest.approx(n_s, rel=1e-12)
    assert photons_per_mode(TEXTBOOK.h * 5e9 * 1e9, 5e9, 1e9) == pytest.approx(1.0, rel=1e-12)


def test_photons_per_mode_from_quoted_dbm():
    n_s = photons_per_mode(dbm_to_watts(-111.79), 1e12, 1e9)
    assert n_s == pytest.approx(1e-2, rel=3e-3)  # dBm value is rounded to 2 decimals


def test_dbm_round_trip():
    for dbm in (-150.0, -63.82, 0.0, 17.5):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)
    for watts in np.logspace(-20, 2, 25):
        assert dbm_to_watts(watts_to_dbm(watts)) == pytest.approx(watts, rel=1e-12)


def test_noise_temperature_inversion():
    p_b = dbm_to_watts(NOISE_POWER_DBM)
    t_eff = t_eff_from_noise_power(p_b, BANDWIDTH_HZ)
    assert t_eff == pytest.approx(3.007e4, rel=1e-3)
    # exact round trip with noise_power
    assert noise_power(t_eff, BANDWIDTH_HZ) == pytest.approx(p_b, rel=1e-12)
    assert watts_to_dbm(noise_power(t_eff, BANDWIDTH_HZ)) == pytest.approx(-63.82, abs=0.01)


def test_t_eff_trivial_case():
    assert t_eff_from_noise_power(TEXTBOOK.k_b * 300.0 * 1e9, 1e9) == pytest.approx(300.0, rel=1e-12)
    assert noise_power(1.0 / TEXTBOOK.k_b, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_derived_occupancies():
    t_eff = t_eff_from_noise_power(dbm_to_watts(NOISE_POWER_DBM), BANDWIDTH_HZ)
    assert thermal_occupancy(t_eff, 1e12) == pytest.approx(625.87, rel=1e-3)
    assert thermal_occupancy(t_eff, 7e9) == pytest.approx(8.941e4, rel=1e-3)


def test_unit_occupancy_at_crossover_frequency():
    for f_hz in (1e9, 1e12):
        t = TEXTBOOK.h * f_hz / TEXTBOOK.k_b
        assert thermal_occupancy(t, f_hz) == pytest.approx(1.0, rel=1e-12)


def test_noise_power_identity_frequency_cancels():
    t, b = 123.4, 7.7e8
    expected = TEXTBOOK.k_b * t * b
    for f_hz in (1e9, 6.5e10, 1e12):
        n_b = thermal_occupancy(t, f_hz)
        assert n_b * TEXTBOOK.h * f_hz * b == pytest.approx(expected, rel=1e-12)
        assert noise_power(t, b) == pytest.approx(expected, rel=1e-12)


DOMAIN_ERRORS = [
    (transmit_power, (0.0, 1e9, 1e9)),
    (transmit_power, (0.5, -1e9, 1e9)),
    (transmit_power, (0.5, 1e9, math.nan)),
    (photons_per_mode, (0.0, 1e9, 1e9)),
    (thermal_occupancy, (-3.0, 1e9)),
    (thermal_occupancy, (300.0, 0.0)),
    (noise_power, (0.0, 1e9)),
    (t_eff_from_noise_power, (0.0, 1e9)),
    (watts_to_dbm, (0.0,)),
    (dbm_to_watts, (math.inf,)),
    (dbm_to_watts, (1e4,)),
    (thermal_occupancy, (300.0, 1e-320)),  # h * f underflows to 0
    (thermal_occupancy, (1e300, 1e-30)),  # k_B * T / (h * f) overflows
    (thermal_occupancy, (1e-300, 1e300)),  # k_B * T / (h * f) underflows to 0
]


# each id is the call with its arguments, without spaces, so a failure (and
# the mutation check's report, which reads up to the first space) names it
@pytest.mark.parametrize("function, args", DOMAIN_ERRORS, ids=[
    f"{function.__name__}({','.join(map(repr, args))})" for function, args in DOMAIN_ERRORS])
def test_domain_errors(function, args):
    with pytest.raises(DomainError):
        function(*args)


def test_the_positive_and_non_negative_rules_part_at_zero():
    # 0 is the one finite value that the two rules treat differently
    assert _require_non_negative("x", 0) == 0.0
    with pytest.raises(DomainError) as info:
        _require_positive("x", 0)
    assert str(info.value) == "x must be positive and finite, got 0.0"
    assert _require_positive("x", 5e-324) == 5e-324
    with pytest.raises(DomainError) as info:
        _require_non_negative("x", -5e-324)
    assert str(info.value) == "x must be non-negative and finite, got -5e-324"
    # what passes comes back as a float
    assert type(_require_positive("x", 2)) is type(_require_non_negative("x", 2)) is float


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_the_positivity_rules_raise_the_error_the_caller_names(value):
    for rule, wording in ((_require_positive, "positive"),
                          (_require_non_negative, "non-negative")):
        with pytest.raises(ConfigError) as info:
            rule("x", value, ConfigError)
        assert (type(info.value), str(info.value)) == (
            ConfigError, f"x must be {wording} and finite, got {value!r}")


@pytest.mark.parametrize("args, message", [
    ((1e308, 1e30, 1e30), "N_s*h*f*B overflows at n_s = 1e+308, f = 1e+30 Hz, B = 1e+30 Hz"),
    ((5e-324, 1.0, 1.0), "N_s*h*f*B underflows to 0 at n_s = 5e-324, f = 1.0 Hz, B = 1.0 Hz"),
    # 6.6e-334 W, below the smallest subnormal
    ((1e-300, 1e-30, 1e30),
     "N_s*h*f*B underflows to 0 at n_s = 1e-300, f = 1e-30 Hz, B = 1e+30 Hz"),
], ids=["overflow", "underflow", "underflow_below_subnormal"])
def test_transmit_power_out_of_float_range_names_the_product(args, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        transmit_power(*args)


@pytest.mark.parametrize("args, expected", [
    ((1e300, 1e50, 1e-10), "6.630000000000001e+306"),  # N_s*h*f overflows
    ((1e-300, 1e10, 1e30), "6.63e-294"),  # N_s*h underflows to 0
    ((1e-320, 1e10, 1e30), "6.6299261894e-314"),  # a subnormal product
    ((1e-290, 1e10, 1e10), "6.630000000000001e-304"),  # N_s*h rounds to a subnormal
], ids=["partial_overflow", "partial_underflow", "subnormal", "partial_subnormal"])
def test_transmit_power_where_only_a_partial_product_leaves_the_float_range(args, expected):
    # the correctly rounded N_s * h * f * B, recomputed in 50-digit decimal
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        exact = Decimal(args[0]) * Decimal(TEXTBOOK.h) * Decimal(args[1]) * Decimal(args[2])
    assert repr(transmit_power(*args)) == repr(float(exact)) == expected


def test_transmit_power_keeps_the_plain_product_where_it_is_a_float():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_s, f_hz, b_hz = (float(v) for v in 10.0 ** rng.uniform(-60.0, 60.0, size=3))
        assert transmit_power(n_s, f_hz, b_hz) == n_s * TEXTBOOK.h * f_hz * b_hz


def test_t_eff_where_k_b_times_b_underflows_is_inf():
    # k_B * B underflows to 0 at B = 3e-309; T_eff itself overflows
    assert 1.38e-23 * 3e-309 == 0.0
    assert t_eff_from_noise_power(4.1495404263436325e-10, 3e-309) == math.inf


@pytest.mark.parametrize("constants", [TEXTBOOK, CODATA], ids=["textbook", "codata"])
def test_t_eff_keeps_the_plain_quotient_where_it_is_a_normal_float(constants):
    rng = random.Random(11)
    for _ in range(10_000):
        p_b, b_hz = 10.0 ** rng.uniform(-100.0, 100.0), 10.0 ** rng.uniform(-100.0, 100.0)
        assert t_eff_from_noise_power(p_b, b_hz, constants) == p_b / (constants.k_b * b_hz)


def test_watts_to_dbm_above_the_milliwatt_overflow():
    # watts / 1e-3 overflows above ~1.8e305 W; the dBm value does not
    assert watts_to_dbm(1e306) == pytest.approx(3090.0, rel=1e-15)
    assert watts_to_dbm(1.7976931348623157e308) == pytest.approx(3112.5471556, rel=1e-10)
    assert watts_to_dbm(1.0) == 10.0 * math.log10(1.0 / 1e-3)


# The public entry points that take a number, each as a call with that one
# number: (call, the name its message gives, the error it raises, a whole
# number it accepts, or None where it accepts none).
NUMBER_ENTRY_POINTS = {
    "transmit_power": (lambda x: transmit_power(x, 1e9, 1e9), "photons per mode", DomainError,
                       1.0),
    "thermal_occupancy": (lambda x: thermal_occupancy(x, 1e9), "temperature", DomainError,
                          300.0),
    "dbm_to_watts": (dbm_to_watts, "power in dBm", DomainError, -30.0),
    "watts_to_dbm": (watts_to_dbm, "power in watts", DomainError, 1.0),
    "antenna_gain": (lambda x: antenna_gain(x, 1e10), "antenna aperture", DomainError, 1.0),
    "gamma_at": (lambda x: gamma_at(bundled_table(), x), "frequency", DomainError, 60e9),
    "form_factor": (lambda x: form_factor(x, 1e3), "gamma", DomainError, 1.0),
    "correlation_ratio": (correlation_ratio, "n_s", DomainError, 1.0),
    "tmsv_covariance": (tmsv_covariance, "n_s", DomainError, 1.0),
    "return_states": (lambda x: return_states(x, 1.0, 3.0, 1.0), "eta", DomainError, 1.0),
    # the transmitter is checked as BlockState(s, s, c), under the record's names
    "return_states.s": (lambda x: return_states(0.5, 1.0, x, 1.0), "s_return", DomainError,
                        3.0),
    "return_states.c": (lambda x: return_states(0.5, 1.0, 3.0, x), "c", DomainError, 1.0),
    "exact_exceedance": (lambda x: exact_exceedance(BlockState(3.0, 3.0, 1.0), x), "threshold",
                         DomainError, 1.0),
    "BlockState.s_return": (lambda x: BlockState(x, 3.0, 1.0), "s_return", DomainError, 3.0),
    "BlockState.s_idler": (lambda x: BlockState(3.0, x, 1.0), "s_idler", DomainError, 3.0),
    "BlockState.c": (lambda x: BlockState(3.0, 3.0, x), "c", DomainError, 1.0),
    "albersheim_snr_min.p_d": (lambda x: albersheim_snr_min(x, 1e-6, 1), "p_d", DomainError,
                               None),
    "albersheim_snr_min.p_fa": (lambda x: albersheim_snr_min(0.7, x, 1), "p_fa", DomainError,
                                None),
    "RangeChain.replace": (lambda x: range_chain(ScenarioConfig(), 7e9).replace(n_b=x), "n_b",
                           DomainError, 2.0),
    # refused before it meets M: "1" times M = 10^9 would be a 1 GB string
    "RangeChain.replace.sigma_gain_area": (
        lambda x: range_chain(ScenarioConfig(), 7e9).replace(sigma_gain_area=x, pulse_count=3),
        "sigma_gain_area", DomainError, 2.0),
    "AttenuationTable": (lambda x: AttenuationTable(rows=((x, 1.0), (2e3, 1.0))),
                         "row 1: frequency", TableValidationError, 10.0),
    "sweep_range": (lambda x: list(sweep_range(ScenarioConfig(), [x])), "grid values",
                    DomainError, 1.0),
    "RangeChain.solutions": (
        lambda x: range_chain(ScenarioConfig(), 1e12).solutions([x]),
        "grid values", DomainError, 1.0),
    "PhysicalConstants": (lambda x: PhysicalConstants(h=x, k_b=1.0, c=1.0), "h", DomainError,
                          1.0),
}
HUGE_INT = 10**400
NOT_NUMBERS = {"str": "1", "bytes": b"1", "bool": True, "None": None, "list": [1.0],
               "huge_int": HUGE_INT}
# The public entry points that take a count or a detector state where a
# number may be given by mistake, each as a call with that one value, and
# the text of its own rule for a value: (call, text).
NOT_NUMBER_TEXTS = {
    "RangeChain.replace.pulse_count": (
        lambda x: range_chain(ScenarioConfig(), 7e9).replace(pulse_count=x),
        lambda value: (f"pulse_count must be at most {sys.float_info.max}, got {value!r}"
                       if value is HUGE_INT else f"pulse_count must be an integer, got {value!r}")),
    "exact_exceedance.state_shape": (
        lambda x: exact_exceedance(x, 0.5),
        lambda value: f"state must be a BlockState, got {value!r}"),
}


@pytest.mark.parametrize("kind", NOT_NUMBERS)
@pytest.mark.parametrize("entry", [*NUMBER_ENTRY_POINTS, *NOT_NUMBER_TEXTS])
def test_every_entry_point_refuses_what_is_not_a_number(entry, kind):
    # one rule, errors._as_number, with the entry point's own error; a
    # count or a state raises its own rule's DomainError
    value = NOT_NUMBERS[kind]
    if entry in NOT_NUMBER_TEXTS:
        call, text = NOT_NUMBER_TEXTS[entry]
        error, message = DomainError, text(value)
    else:
        call, name, error, _ = NUMBER_ENTRY_POINTS[entry]
        message = (f"{name} is an integer too large for a float" if value is HUGE_INT
                   else f"{name} must be a number, got {value!r}")
    with pytest.raises(RangeKitError) as info:
        call(value)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("entry", [entry for entry, (*_, number) in NUMBER_ENTRY_POINTS.items()
                                   if number is not None])
def test_every_entry_point_takes_an_int_and_a_numpy_float64(entry):
    call, _, _, number = NUMBER_ENTRY_POINTS[entry]
    assert call(np.float64(number)) == call(int(number)) == call(number)


def test_a_table_row_of_text_is_refused():
    with pytest.raises(TableValidationError) as info:
        AttenuationTable(rows=(("10", True), ("1e2", "2")))
    assert str(info.value) == "row 1: frequency must be a number, got '10'"


@pytest.mark.parametrize("value", [np.int64(1), np.float32(1.0), Decimal(1), Fraction(1)],
                         ids=["int64", "float32", "Decimal", "Fraction"])
def test_other_number_types_are_converted_by_the_caller(value):
    with pytest.raises(DomainError) as info:
        transmit_power(value, 1e9, 1e9)
    assert str(info.value) == f"photons per mode must be a number, got {value!r}"
    assert transmit_power(float(value), 1e9, 1e9) == transmit_power(1.0, 1e9, 1e9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, HUGE_INT])
def test_the_finite_rule_refuses_nan_inf_and_huge_ints(value):
    with pytest.raises(ConfigError) as info:
        _require_finite("x", value, ConfigError)
    assert str(info.value) == ("x is an integer too large for a float" if value is HUGE_INT
                               else f"x must be finite, got {value!r}")
    assert _require_finite("x", -2) == -2.0


def _mc(trials):
    args = SimpleNamespace(ns=0.1, eta=0.5, nb=1.0, trials=trials, seed=0)
    return list(cli._cmd_mc(args, ScenarioConfig()))


# The entry points that take a count, each as a call with that one count:
# (call, the name its message gives, the error it raises, the lowest count it
# accepts, and the bound of the highest, which is that count or, for M, the
# largest float, so that M times a float stays a float).
COUNT_ENTRY_POINTS = {
    "trials": (lambda x: detector_gain_experiment(0.1, 0.5, 1.0, x, 0), "trials", DomainError,
               10_000, 2**53),
    "seed": (lambda x: detector_gain_experiment(0.1, 0.5, 1.0, 10_000, x), "seed", DomainError,
             0, 2**64 - 1),
    "m": (lambda x: albersheim_snr_min(0.7, 1e-6, x), "m", DomainError, 1, 8096),
    "sweep --points": (lambda x: cli._log_grid(1e-3, 10.0, x), "--points", RangeKitError,
                       2, MAX_SWEEP_POINTS),
    "mc --trials": (_mc, "--trials", RangeKitError, 10_000, MAX_TRIALS),
    "RangeChain.replace.pulse_count": (
        lambda x: range_chain(ScenarioConfig(), 7e9).replace(sigma_gain_area=1e-300,
                                                             pulse_count=x),
        "pulse_count", DomainError, 1, sys.float_info.max),
}
# mc leaves the lower bound of its trial count to the library
LOWER_BOUND_NAMES = {"mc --trials": ("trials", DomainError)}
NOT_COUNTS = {"str": "7", "float": 7.9, "bool": True, "nan": math.nan, "inf": math.inf,
              "int64": np.int64(7)}


@pytest.mark.parametrize("kind", [*NOT_COUNTS, "below", "above"])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_entry_point_refuses_what_is_not_a_count_in_its_bounds(entry, kind):
    # one rule, errors._require_count, with the entry point's own error
    call, name, error, lo, hi = COUNT_ENTRY_POINTS[entry]
    if kind == "below":
        value = lo - 1
        name, error = LOWER_BOUND_NAMES.get(entry, (name, error))
        message = f"{name} must be >= {lo}, got {value!r}"
    elif kind == "above":
        value = int(hi) + 1
        message = f"{name} must be at most {hi}, got {value!r}"
    else:
        value = NOT_COUNTS[kind]
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(RangeKitError) as info:
        call(value)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_entry_point_takes_both_bounds(entry):
    call, _, _, lo, hi = COUNT_ENTRY_POINTS[entry]
    call(lo)
    call(int(hi))
