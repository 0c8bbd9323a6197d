"""Radiometry conversions and the quoted transmit-power values."""

import math
import re

import numpy as np
import pytest

from qi_rangekit.constants import CODATA, TEXTBOOK
from qi_rangekit.errors import DomainError
from qi_rangekit.radiometry import (
    dbm_to_watts,
    t_eff_from_noise_power,
    thermal_occupancy,
    transmit_power,
    watts_to_dbm,
)
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: transmit_power(0.0, 1e9, 1e9),
        lambda: transmit_power(0.5, -1e9, 1e9),
        lambda: transmit_power(0.5, 1e9, math.nan),
        lambda: photons_per_mode(0.0, 1e9, 1e9),
        lambda: thermal_occupancy(-3.0, 1e9),
        lambda: thermal_occupancy(300.0, 0.0),
        lambda: noise_power(0.0, 1e9),
        lambda: t_eff_from_noise_power(0.0, 1e9),
        lambda: watts_to_dbm(0.0),
        lambda: dbm_to_watts(math.inf),
        lambda: dbm_to_watts(1e4),
        lambda: thermal_occupancy(300.0, 1e-320),  # h * f underflows to 0
        lambda: thermal_occupancy(1e300, 1e-30),  # k_B * T / (h * f) overflows
        lambda: thermal_occupancy(1e-300, 1e300),  # k_B * T / (h * f) underflows to 0
    ],
)
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


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
], ids=["partial_overflow", "partial_underflow", "subnormal"])
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


def test_watts_to_dbm_above_the_milliwatt_overflow():
    # watts / 1e-3 overflows above ~1.8e305 W; the dBm value does not
    assert watts_to_dbm(1e306) == pytest.approx(3090.0, rel=1e-15)
    assert watts_to_dbm(1.7976931348623157e308) == pytest.approx(3112.5471556, rel=1e-10)
    assert watts_to_dbm(1.0) == 10.0 * math.log10(1.0 / 1e-3)
