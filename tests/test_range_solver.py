"""Closed-form and implicit maximum-range solutions."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from qi_rangekit import atmosphere, range_solver
from qi_rangekit.atmosphere import bundled_table, form_factor
from qi_rangekit.config import ScenarioConfig
from qi_rangekit.constants import CODATA, TEXTBOOK
from qi_rangekit.errors import DomainError, NoDetectionError, UnphysicalGeometryError
from qi_rangekit.link_budget import (
    DetectionSpec,
    IntegrationSpec,
    RadarParams,
    antenna_gain,
    channel_transmissivity,
    snr_eff,
)
from qi_rangekit.radiometry import dbm_to_watts, t_eff_from_noise_power, thermal_occupancy
from qi_rangekit.range_solver import (
    Illumination,
    RangeProblem,
    link_at,
    quantum_advantage_factor,
    r_max,
    r_max_free,
    sensitivity_gain,
    sweep_range,
    sweep_ratio,
    threshold_linear,
)

# Benchmark scenario pieces (the package's default scenario).
RADAR = RadarParams(sigma_m2=1.0, aperture_m2=0.5)
DETECTION = DetectionSpec(p_d=0.7, p_fa=1e-6, snr_min_db=10.0)
INTEGRATION = IntegrationSpec(tau_s=1.0, bandwidth_hz=1e9)
T_EFF = t_eff_from_noise_power(dbm_to_watts(-63.82), 1e9)


def benchmark_problem(n_s=1e-2, f_hz=1e12, mode=Illumination.CI, gamma=0.0, **overrides):
    problem = RangeProblem(
        radar=RADAR,
        detection=DETECTION,
        integration=INTEGRATION,
        n_s=n_s,
        f_hz=f_hz,
        n_b=thermal_occupancy(T_EFF, f_hz),
        gamma_db_per_km=gamma,
        mode=mode,
    )
    return dataclasses.replace(problem, **overrides) if overrides else problem


def independent_snr_eff(problem: RangeProblem, r_m: float) -> float:
    """Recompute SNR_eff through the public link-budget chain."""
    gain = antenna_gain(problem.radar.aperture_m2, problem.f_hz, problem.constants)
    eta = channel_transmissivity(
        problem.radar.sigma_m2,
        gain,
        problem.radar.aperture_m2,
        form_factor(problem.gamma_db_per_km, r_m),
        r_m,
    )
    return snr_eff(eta, problem.integration.pulse_count, problem.n_s, problem.n_b)


def raw_snr_eff(problem: RangeProblem, r_m: float) -> float:
    """SNR_eff from the far-field formula without the eta <= 1 guard, so the
    reference bisection may probe the near field."""
    gain = antenna_gain(problem.radar.aperture_m2, problem.f_hz, problem.constants)
    chain = (
        problem.radar.sigma_m2
        * gain
        * problem.radar.aperture_m2
        * problem.integration.pulse_count
        * problem.n_s
    ) / ((4.0 * math.pi) ** problem.four_pi_exponent * problem.n_b)
    return chain * form_factor(problem.gamma_db_per_km, r_m) ** 2 / r_m**4


def bisection_root(problem: RangeProblem) -> float | None:
    """Reference solve: bisect [1e-6 m, r_max_free] to a relative width of
    1e-9; None when SNR_eff is below threshold already at 1e-6 m."""
    threshold = threshold_linear(problem)
    lo, hi = 1e-6, r_max_free(problem)
    if raw_snr_eff(problem, lo) < threshold:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= 1e-9 * mid:
            break
        if raw_snr_eff(problem, mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_advantage_factor_values():
    assert quantum_advantage_factor(1e-2) == pytest.approx(101.0**0.25, rel=1e-15)
    assert quantum_advantage_factor(1e-2) == pytest.approx(3.1702, abs=1e-4)
    assert quantum_advantage_factor(1.0) == pytest.approx(2.0**0.25, rel=1e-15)
    assert quantum_advantage_factor(1e12) == pytest.approx(1.0, rel=1e-9)
    assert sensitivity_gain(1e-2) == pytest.approx(101.0, rel=1e-15)
    with pytest.raises(DomainError):
        quantum_advantage_factor(0.0)


def test_free_space_benchmark_ranges():
    assert r_max_free(benchmark_problem()) == pytest.approx(137.088, abs=0.01)
    assert r_max_free(benchmark_problem(mode=Illumination.QI)) == pytest.approx(
        434.591, abs=0.01
    )


def test_four_pi_fourth_power_variant():
    literal = benchmark_problem(four_pi_exponent=4)
    assert r_max_free(literal) == pytest.approx(38.672, abs=0.01)
    # the two conventions differ by exactly (4*pi)^(1/2) in range
    assert r_max_free(benchmark_problem()) / r_max_free(literal) == pytest.approx(
        math.sqrt(4.0 * math.pi), rel=1e-12
    )


def test_threshold_doubling_scales_range():
    base = r_max_free(benchmark_problem())
    doubled = benchmark_problem(
        detection=DetectionSpec(p_d=0.7, p_fa=1e-6, snr_min_db=10.0 + 10.0 * math.log10(2.0))
    )
    assert r_max_free(doubled) == pytest.approx(base / 2.0**0.25, rel=1e-12)


def test_lossless_solution_equals_closed_form():
    for f_hz in (7e9, 95e9, 1e12):
        for n_s in (1e-3, 1e-2, 1e-1, 1.0):
            for mode in Illumination:
                problem = benchmark_problem(n_s=n_s, f_hz=f_hz, mode=mode)
                solution = r_max(problem)
                assert solution.converged
                assert solution.r_max_m == pytest.approx(r_max_free(problem), rel=1e-9)


def test_attenuated_solution_below_free_space_and_closed():
    problem = benchmark_problem(mode=Illumination.QI, gamma=3.0)
    solution = r_max(problem)
    assert solution.converged
    assert solution.r_max_m < r_max_free(problem)
    assert solution.r_max_m < 435.0
    # closure through the public chain, in dB against the mode threshold
    achieved = independent_snr_eff(problem, solution.r_max_m)
    residual_db = abs(10.0 * math.log10(achieved / threshold_linear(problem)))
    assert residual_db < 1e-6
    assert 1 <= solution.iterations <= 6  # Halley steps of the Lambert-W root


def test_root_straddles_threshold():
    problem = benchmark_problem(gamma=5.0)
    root = r_max(problem).r_max_m
    threshold = threshold_linear(problem)
    assert independent_snr_eff(problem, root * (1.0 - 1e-9)) >= threshold
    assert independent_snr_eff(problem, root * (1.0 + 1e-9)) <= threshold


def test_lambert_w_root_matches_bisection():
    problems = [
        benchmark_problem(n_s=n_s, f_hz=f_ghz * 1e9, mode=mode, gamma=gamma)
        for f_ghz, gamma in bundled_table().rows
        for n_s in (1e-3, 1e-2, 1.0, 10.0)
        for mode in Illumination
    ]
    problems += [
        benchmark_problem(n_s=n_s, mode=mode, gamma=gamma)
        for gamma in (1e-6, 1e6)
        for n_s in (1e-3, 1e-2, 1.0, 10.0)
        for mode in Illumination
    ]
    solved = 0
    for problem in problems:
        expected = bisection_root(problem)
        if expected is None:
            with pytest.raises(NoDetectionError):
                r_max(problem)
            continue
        solution = r_max(problem)
        assert solution.converged
        assert solution.r_max_m == pytest.approx(expected, rel=1e-9, abs=0.0)
        solved += 1
    assert solved > 0.9 * len(problems)


def random_problem(rng, mode, four_pi_exponent):
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    return RangeProblem(
        radar=RadarParams(sigma_m2=log_uniform(1e-2, 1e2), aperture_m2=log_uniform(1e-2, 2.0)),
        detection=DetectionSpec(p_d=0.7, p_fa=1e-6, snr_min_db=float(rng.uniform(3.0, 20.0))),
        integration=IntegrationSpec(
            tau_s=log_uniform(0.01, 2.0), bandwidth_hz=log_uniform(1e8, 2e9)
        ),
        n_s=log_uniform(1e-3, 10.0),
        f_hz=log_uniform(5e9, 1e12),
        n_b=log_uniform(10.0, 1e5),
        gamma_db_per_km=0.0 if rng.uniform() < 0.2 else log_uniform(0.01, 30.0),
        mode=mode,
        four_pi_exponent=four_pi_exponent,
    )


@pytest.mark.parametrize("mode", list(Illumination))
@pytest.mark.parametrize("four_pi_exponent", [2, 4])
def test_link_at_root_closes_the_solved_chain(four_pi_exponent, mode):
    rng = np.random.default_rng(1000 + four_pi_exponent)
    far = 0
    for _ in range(200):
        problem = random_problem(rng, mode, four_pi_exponent)
        root = r_max(problem).r_max_m
        threshold = threshold_linear(problem)
        snr_per_eta = problem.integration.pulse_count * problem.n_s / problem.n_b
        if threshold / snr_per_eta > 1.0:
            with pytest.raises(UnphysicalGeometryError, match="> 1 at range"):
                link_at(problem, root)
            continue
        f_form, eta = link_at(problem, root)
        assert eta * snr_per_eta == pytest.approx(threshold, rel=1e-12)
        if four_pi_exponent == 2:
            assert f_form == form_factor(problem.gamma_db_per_km, root)
            gain = antenna_gain(problem.radar.aperture_m2, problem.f_hz, problem.constants)
            reference = channel_transmissivity(
                problem.radar.sigma_m2, gain, problem.radar.aperture_m2, f_form, root
            )
            assert abs(eta - reference) <= 1e-15 * reference
        far += 1
    assert far > 150


def test_extreme_attenuation_still_solves():
    mild = r_max(benchmark_problem(gamma=0.0)).r_max_m
    harsh = r_max(benchmark_problem(gamma=1e6)).r_max_m
    assert 0.0 < harsh < mild


def test_no_detection_error():
    hopeless = RangeProblem(
        radar=RadarParams(sigma_m2=1e-12, aperture_m2=1e-6),
        detection=DETECTION,
        integration=IntegrationSpec(tau_s=1.0, bandwidth_hz=1.0),
        n_s=1e-3,
        f_hz=1.0,
        n_b=1e6,
    )
    with pytest.raises(NoDetectionError):
        r_max(hopeless)


def test_quantum_classical_ratio_law():
    for n_s in np.logspace(-3, 1, 20):
        ci = r_max(benchmark_problem(n_s=n_s, mode=Illumination.CI)).r_max_m
        qi = r_max(benchmark_problem(n_s=n_s, mode=Illumination.QI)).r_max_m
        assert qi / ci == pytest.approx(quantum_advantage_factor(n_s), rel=1e-9)
    # with attenuation the longer quantum path pays more, so the ratio shrinks
    for n_s in (1e-3, 1e-1):
        ci = r_max(benchmark_problem(n_s=n_s, gamma=4.0, mode=Illumination.CI)).r_max_m
        qi = r_max(benchmark_problem(n_s=n_s, gamma=4.0, mode=Illumination.QI)).r_max_m
        assert qi / ci < quantum_advantage_factor(n_s)


def test_monotonicity_in_scenario_knobs():
    base = benchmark_problem(gamma=1.0)
    r_base = r_max(base).r_max_m
    assert r_max(benchmark_problem(n_s=2e-2, gamma=1.0)).r_max_m > r_base
    assert (
        r_max(
            benchmark_problem(gamma=1.0, radar=RadarParams(sigma_m2=2.0, aperture_m2=0.5))
        ).r_max_m
        > r_base
    )
    assert (
        r_max(
            benchmark_problem(gamma=1.0, radar=RadarParams(sigma_m2=1.0, aperture_m2=1.0))
        ).r_max_m
        > r_base
    )
    assert (
        r_max(
            benchmark_problem(
                gamma=1.0, integration=IntegrationSpec(tau_s=2.0, bandwidth_hz=1e9)
            )
        ).r_max_m
        > r_base
    )
    assert r_max(benchmark_problem(gamma=2.0)).r_max_m < r_base
    assert (
        r_max(
            benchmark_problem(
                gamma=1.0, detection=DetectionSpec(p_d=0.7, p_fa=1e-6, snr_min_db=13.0)
            )
        ).r_max_m
        < r_base
    )


def test_problem_validation():
    with pytest.raises(DomainError):
        benchmark_problem(n_s=0.0)
    with pytest.raises(DomainError):
        benchmark_problem(gamma=-1.0)
    with pytest.raises(DomainError):
        benchmark_problem(four_pi_exponent=3)


BENCHMARK = ScenarioConfig()
BUNDLED_CSV = str(Path(atmosphere.__file__).parent / "data" / atmosphere._BUNDLED_NAME)
# sigma 1e-12 m^2, A 1e-6 m^2: the classical 7 GHz points below N_s ~ 3e-5
# have no detection range, every other point of the default grid has one.
FAINT = ScenarioConfig(sigma_m2=1e-12, aperture_m2=1e-6)


def test_sweep_range_single_point():
    rows = list(sweep_range(ScenarioConfig(frequencies_hz=(1e12,)), [1e-2]))
    assert [(n_s, f_hz) for n_s, f_hz, _, _ in rows] == [(1e-2, 1e12)] * 2
    assert [mode for _, _, mode, _ in rows] == [Illumination.CI, Illumination.QI]
    assert rows[0][3].r_max_m == pytest.approx(137.088, abs=0.01)
    assert rows[1][3].r_max_m == pytest.approx(434.591, abs=0.01)


def test_sweep_range_ordering_and_monotonicity():
    grid = list(np.logspace(-3, 0, 7))
    rows = list(sweep_range(ScenarioConfig(frequencies_hz=(7e9, 1e12)), grid))
    keys = list(dict.fromkeys((f_hz, mode) for _, f_hz, mode, _ in rows))
    assert keys == [
        (7e9, Illumination.CI),
        (7e9, Illumination.QI),
        (1e12, Illumination.CI),
        (1e12, Illumination.QI),
    ]
    assert [n_s for n_s, _, _, _ in rows] == grid * len(keys)
    curves = [
        [solution.r_max_m for _, _, _, solution in rows[start:start + len(grid)]]
        for start in range(0, len(rows), len(grid))
    ]
    for ci, qi in zip(curves[::2], curves[1::2]):
        assert all(q >= c for c, q in zip(ci, qi))
        for curve in (ci, qi):
            assert all(b > a for a, b in zip(curve, curve[1:]))


def test_sweep_range_is_lazy(monkeypatch):
    calls = []
    solve = range_solver._solve

    def counting_solve(chain_constant, threshold, gamma):
        calls.append(chain_constant)
        return solve(chain_constant, threshold, gamma)

    monkeypatch.setattr(range_solver, "_solve", counting_solve)
    rows = sweep_range(BENCHMARK, [1e-3, 1e-2, 1e-1])
    assert calls == []
    next(rows)
    assert len(calls) == 1


def test_sweep_range_marks_failures_as_absent():
    rows = list(sweep_range(FAINT, [1e-6, 1e-3]))
    assert rows[0][3] is None
    assert rows[1][3] is not None


def test_sweep_grid_validation():
    # raised by the call itself, before any row is drawn
    with pytest.raises(DomainError):
        sweep_range(BENCHMARK, [1e-2, 1e-3])
    with pytest.raises(DomainError):
        sweep_range(BENCHMARK, [])
    with pytest.raises(DomainError):
        sweep_ratio([0.0, 1.0])


@pytest.mark.parametrize("constants", [TEXTBOOK, CODATA], ids=["textbook", "codata"])
@pytest.mark.parametrize("four_pi_exponent", [2, 4])
@pytest.mark.parametrize("scenario", ["default", "bundled_table", "faint"])
def test_sweep_rows_equal_one_point_solutions(scenario, four_pi_exponent, constants):
    if scenario == "faint":
        config = dataclasses.replace(FAINT, four_pi_exponent=four_pi_exponent)
    elif scenario == "bundled_table":
        config = ScenarioConfig(
            frequencies_hz=tuple(f_ghz * 1e9 for f_ghz, _ in bundled_table().rows),
            attenuation_table_path=BUNDLED_CSV,
            four_pi_exponent=four_pi_exponent,
        )
    else:
        config = ScenarioConfig(four_pi_exponent=four_pi_exponent)
    frequencies = list(config.frequencies_hz)
    grid = [float(v) for v in np.logspace(-6, 3, 60)]
    rows = sweep_range(config, grid, constants=constants)
    expected_keys = [(n_s, f, mode) for f in frequencies for mode in Illumination for n_s in grid]
    absent = 0
    for (n_s, f_hz, mode, solution), key in zip(rows, expected_keys, strict=True):
        assert (n_s, f_hz, mode) == key
        problem = config.make_problem(n_s, f_hz, mode, constants)
        if solution is None:
            with pytest.raises(NoDetectionError):
                r_max(problem)
            absent += 1
        else:
            assert solution == r_max(problem)
    assert (absent > 0) == (scenario == "faint")


def test_sweep_builds_the_chain_once_per_frequency(monkeypatch):
    counts = {"antenna_gain": 0, "noise_occupancy": 0, "gamma_at": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        range_solver, "antenna_gain", counted("antenna_gain", range_solver.antenna_gain)
    )
    monkeypatch.setattr(
        ScenarioConfig,
        "noise_occupancy",
        counted("noise_occupancy", ScenarioConfig.noise_occupancy),
    )
    monkeypatch.setattr(atmosphere, "gamma_at", counted("gamma_at", atmosphere.gamma_at))

    def no_problem(*args, **kwargs):
        raise AssertionError("a sweep builds no RangeProblem")

    monkeypatch.setattr(RangeProblem, "__init__", no_problem)
    frequencies = [f_ghz * 1e9 for f_ghz, _ in bundled_table().rows][:5]
    config = ScenarioConfig(frequencies_hz=tuple(frequencies), attenuation_table_path=BUNDLED_CSV)
    grid = list(np.logspace(-3, 1, 40))
    rows = list(sweep_range(config, grid))
    assert len(rows) == len(frequencies) * 2 * len(grid)
    assert counts == dict.fromkeys(counts, len(frequencies))


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
def test_no_detection_is_read_off_the_root(table_path):
    # SNR_eff(R) strictly decreases, so "below threshold at 1 um" and
    # "root below 1 um" select the same points
    config = dataclasses.replace(FAINT, attenuation_table_path=table_path)
    grid = [float(v) for v in np.logspace(-6, 3, 60)]
    absent = 0
    for n_s, f_hz, mode, solution in sweep_range(config, grid):
        problem = config.make_problem(n_s, f_hz, mode)
        snr_at_near_zero = range_solver._snr_eff_at(
            range_solver._chain_constant(problem), problem.gamma_db_per_km, 1e-6
        )
        assert (solution is None) == (snr_at_near_zero < threshold_linear(problem))
        absent += solution is None
    assert absent > 0


def test_sweep_ratio_values():
    [(_, at_half)] = sweep_ratio([0.5])
    [(_, at_small)] = sweep_ratio([1e-4])
    assert at_half == pytest.approx(0.57735, abs=1e-5)
    assert at_small == pytest.approx(9.9995e-3, rel=1e-4)
    values = [ratio for _, ratio in sweep_ratio(list(np.logspace(-3, 2, 50)))]
    assert all(b > a for a, b in zip(values, values[1:]))
