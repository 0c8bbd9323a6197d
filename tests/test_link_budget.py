"""Gain, the reference transmissivity/SNR chain, and the Albersheim estimator."""

import json
import math
import re

import numpy as np
import pytest
from bench_scenario import SWEEP_ATTENUATED_JSON

from qi_rangekit.config import ScenarioConfig
from qi_rangekit.constants import CODATA, TEXTBOOK
from qi_rangekit.errors import DomainError, UnphysicalGeometryError
from qi_rangekit.link_budget import albersheim_snr_min
from qi_rangekit.radiometry import (
    dbm_to_watts,
    t_eff_from_noise_power,
    thermal_occupancy,
    transmit_power,
    watts_to_dbm,
)
from qi_rangekit.range_solver import antenna_gain, range_chain, sweep_range
from reference_chain import channel_transmissivity, noise_power, received_power, snr, snr_eff

FOUR_PI = 4.0 * math.pi


def test_antenna_gain_values():
    # G is the quotient by c**2 itself, to the bit, under both constant sets,
    # at every frequency and aperture of the benchmark and golden configs
    bench = json.loads(SWEEP_ATTENUATED_JSON.read_text(encoding="utf-8"))["frequencies_hz"]
    for constants in (TEXTBOOK, CODATA):
        for aperture_m2 in (0.5, 1e-6):
            for f_hz in (*bench, 7e9, 60e9, 95e9, 557e9):
                assert antenna_gain(aperture_m2, f_hz, constants) == (
                    FOUR_PI * aperture_m2 * f_hz**2 / constants.c**2)
    assert antenna_gain(0.5, 1e12) == pytest.approx(6.98e7, rel=1e-3)
    assert antenna_gain(0.5, 7e9) == pytest.approx(3.42e3, rel=1e-3)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_a_c_whose_square_leaves_the_float_range_is_refused_by_name(c):
    # c^2 overflows at 1e200 and underflows to 0 at 1e-200: the gain, the
    # chain and the sweep each raise the package's error naming c
    constants = TEXTBOOK.replace(c=c)
    message = re.escape(f"speed of light c = {c!r} m/s: c^2 overflows or underflows to 0")
    with pytest.raises(DomainError, match=message):
        antenna_gain(0.5, 1e12, constants)
    with pytest.raises(DomainError, match=message):
        range_chain(ScenarioConfig(), 1e12, constants)
    with pytest.raises(DomainError, match=message):
        list(sweep_range(ScenarioConfig(), [0.01], constants=constants))


@pytest.mark.parametrize("aperture_m2, f_hz, c, message", [
    # c^2 is subnormal, not 0, so the quotient overflows
    (0.5, 1e12, 1e-160, "overflows at A = 0.5 m^2, f = 1000000000000.0 Hz, c = 1e-160 m/s"),
    (1e10, 1e150, 3e8, "overflows at A = 10000000000.0 m^2, f = 1e+150 Hz, c = 300000000.0 m/s"),
    (1e-300, 1e-10, 3e8,
     "underflows to 0 at A = 1e-300 m^2, f = 1e-10 Hz, c = 300000000.0 m/s"),
], ids=["c_squared_subnormal", "overflow", "underflow"])
def test_a_gain_that_leaves_the_float_range_is_refused_by_name(aperture_m2, f_hz, c, message):
    # the gain, the chain and the sweep each name G, not the head it enters
    constants = TEXTBOOK.replace(c=c)
    config = ScenarioConfig(aperture_m2=aperture_m2, frequencies_hz=[f_hz])
    message = re.escape(f"antenna gain G = 4*pi*A*f^2/c^2 {message}")
    with pytest.raises(DomainError, match=message):
        antenna_gain(aperture_m2, f_hz, constants)
    with pytest.raises(DomainError, match=message):
        range_chain(config, f_hz, constants)
    with pytest.raises(DomainError, match=message):
        list(sweep_range(config, [0.01], constants=constants))


def test_unit_gain_aperture():
    wavelength = TEXTBOOK.c / 10e9
    assert antenna_gain(wavelength**2 / FOUR_PI, 10e9) == pytest.approx(1.0, rel=1e-12)


def test_transmissivity_closes_range_equation():
    # At the solved classical maximum range of the benchmark scenario,
    # eta * M * N_s / N_B must equal the 10 dB threshold.
    t_eff = t_eff_from_noise_power(dbm_to_watts(-63.82), 1e9)
    n_b = thermal_occupancy(t_eff, 1e12)
    n_s, m = 1e-2, round(1.0 * 1e9)
    gain = antenna_gain(0.5, 1e12)
    r_solved = (1.0 * gain * 0.5 * m * n_s / (FOUR_PI**2 * n_b * 10.0)) ** 0.25
    eta = channel_transmissivity(1.0, gain, 0.5, 1.0, r_solved)
    assert eta * m * n_s / n_b == pytest.approx(10.0, rel=1e-9)
    assert eta == pytest.approx(6.26e-4, rel=1e-3)


def test_transmissivity_scaling_laws():
    gain = antenna_gain(0.5, 95e9)
    base = channel_transmissivity(1.0, gain, 0.5, 1.0, 500.0)
    assert channel_transmissivity(1.0, gain, 0.5, 0.5, 500.0) == pytest.approx(
        0.25 * base, rel=1e-12
    )
    assert channel_transmissivity(1.0, gain, 0.5, 1.0, 1000.0) == pytest.approx(
        base / 16.0, rel=1e-12
    )
    assert channel_transmissivity(3.0, gain, 0.5, 1.0, 500.0) == pytest.approx(
        3.0 * base, rel=1e-12
    )
    # eta ~ A^2 at fixed frequency, since G ~ A
    doubled = channel_transmissivity(1.0, antenna_gain(1.0, 95e9), 1.0, 1.0, 500.0)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def test_transmissivity_guards():
    gain = antenna_gain(0.5, 1e12)
    with pytest.raises(UnphysicalGeometryError):
        channel_transmissivity(1.0, gain, 0.5, 1.0, 1.0)  # deep near field
    with pytest.raises(DomainError):
        channel_transmissivity(1.0, gain, 0.5, 1.0, -5.0)
    with pytest.raises(DomainError):
        channel_transmissivity(1.0, gain, 0.5, 1.5, 100.0)


def test_received_power():
    p_t = dbm_to_watts(-116.34)
    assert received_power(p_t, 1.0) == p_t
    assert watts_to_dbm(received_power(p_t, 1e-6)) == pytest.approx(-176.34, abs=1e-9)
    with pytest.raises(DomainError):
        received_power(p_t, 0.0)
    with pytest.raises(DomainError):
        received_power(p_t, 1.1)


def test_snr_values():
    assert snr(1.0, 0.7, 0.7) == pytest.approx(1.0, rel=1e-15)
    assert snr(1e-4, 0.5, 8.94e4) == pytest.approx(5.5928e-10, rel=1e-4)
    with pytest.raises(DomainError):
        snr(1e-4, 0.5, 0.0)


def test_snr_matches_power_ratio():
    # eta * N_s / N_B is identically P_r / P_B for consistent inputs.
    t_eff, f_hz, b_hz, eta, n_s = 290.0, 35e9, 5e8, 3.3e-7, 0.12
    n_b = thermal_occupancy(t_eff, f_hz)
    p_r = received_power(transmit_power(n_s, f_hz, b_hz), eta)
    p_b = noise_power(t_eff, b_hz)
    assert snr(eta, n_s, n_b) == pytest.approx(p_r / p_b, rel=1e-12)


def test_snr_eff():
    assert snr_eff(1e-4, 1, 0.5, 8.94e4) == snr(1e-4, 0.5, 8.94e4)
    assert snr_eff(1e-3, 10**9, 1e-2, 1e4) == pytest.approx(1.0, rel=1e-12)
    for m in (1, 7, 1000):
        assert snr_eff(0.5, m, 0.2, 3.0) / snr(0.5, 0.2, 3.0) == pytest.approx(
            float(m), rel=1e-15
        )
    with pytest.raises(DomainError):
        snr_eff(0.5, 0, 0.2, 3.0)


def test_albersheim_reference_point():
    # Frozen from the closed form: A = ln(0.62e6), B = ln(7/3),
    # SNR = (6.2 + 4.54/sqrt(1.44)) * log10(A + 0.12AB + 1.7B).
    assert albersheim_snr_min(0.7, 1e-6, 1) == pytest.approx(12.05728578901495, abs=1e-9)
    assert 11.5 <= albersheim_snr_min(0.7, 1e-6, 1) <= 12.5


def test_albersheim_half_detection_probability():
    a = math.log(0.62 / 1e-6)
    expected = (6.2 + 4.54 / math.sqrt(1.44)) * math.log10(a)
    assert albersheim_snr_min(0.5, 1e-6, 1) == pytest.approx(expected, rel=1e-12)


def test_albersheim_monotonicity():
    assert albersheim_snr_min(0.7, 1e-6, 100) < albersheim_snr_min(0.7, 1e-6, 1)
    for p_lo, p_hi in ((0.2, 0.5), (0.5, 0.8)):
        assert albersheim_snr_min(p_lo, 1e-6, 4) < albersheim_snr_min(p_hi, 1e-6, 4)
    assert albersheim_snr_min(0.7, 1e-4, 4) < albersheim_snr_min(0.7, 1e-6, 4)
    ms = [1, 4, 16, 64, 256, 1024, 4096]
    values = [albersheim_snr_min(0.7, 1e-6, m) for m in ms]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "p_d,p_fa,m",
    [(0.05, 1e-6, 1), (0.95, 1e-6, 1), (0.7, 1e-8, 1), (0.7, 1e-2, 1), (0.7, 1e-6, 9000)],
)
def test_albersheim_validity_box(p_d, p_fa, m):
    with pytest.raises(DomainError):
        albersheim_snr_min(p_d, p_fa, m)
