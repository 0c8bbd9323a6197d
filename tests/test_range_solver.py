"""Closed-form and implicit maximum-range solutions."""

import math
from decimal import Decimal, localcontext
from operator import gt
from typing import NamedTuple

import numpy as np
import pytest
from bench_scenario import BUNDLED_CSV, sweep_attenuated_config
from reference_chain import channel_transmissivity, fourth_power_variant, snr_eff, threshold
from reference_root import DIGITS, reference_root, ulps

from qi_rangekit import atmosphere, range_solver
from qi_rangekit.atmosphere import bundled_table, form_factor
from qi_rangekit.cli import _log_grid
from qi_rangekit.config import ScenarioConfig, load_config
from qi_rangekit.constants import CODATA, TEXTBOOK, PhysicalConstants
from qi_rangekit.errors import DomainError, NoDetectionError, UnphysicalGeometryError
from qi_rangekit.quantum_states import correlation_ratio
from qi_rangekit.range_solver import (
    _FOUR_PI,
    Illumination,
    RangeChain,
    antenna_gain,
    range_chain,
    sweep_range,
)

BENCHMARK = ScenarioConfig()


class Point(NamedTuple):
    """One range question in the scenario's own terms.  The references below
    recompute its chain from these fields, without :func:`range_chain`."""

    config: ScenarioConfig
    n_s: float
    f_hz: float
    mode: Illumination = Illumination.CI
    gamma: float = 0.0
    constants: PhysicalConstants = TEXTBOOK
    four_pi_exponent: int = 2

    @property
    def chain(self) -> RangeChain:
        """The package's chain for this point, gamma set directly, and its
        (4*pi)^4 variant where ``four_pi_exponent`` is 4."""
        chain = range_chain(self.config, self.f_hz, self.constants)
        if self.four_pi_exponent == 4:
            chain = fourth_power_variant(chain)
        return chain.replace(gamma_db_per_km=self.gamma)

    def solve(self):
        return self.chain.solve(self.n_s, self.mode)

    def root(self):
        """The kernel's root, ``None`` without one; unlike :meth:`solve`,
        also a root in the near field."""
        return self.chain.solutions((self.n_s,), self.mode)[0][0]

    @property
    def threshold(self) -> float:
        """SNR_min, divided by 1 + 1/N_s for the quantum transmitter."""
        snr_min = self.config.snr_min_linear
        return snr_min / (1.0 + 1.0 / self.n_s) if self.mode is Illumination.QI else snr_min


def benchmark_point(n_s=1e-2, f_hz=1e12, mode=Illumination.CI, gamma=0.0, **fields):
    """A point of the benchmark scenario, config fields overridden by ``fields``."""
    return Point(ScenarioConfig(**fields), n_s, f_hz, mode, gamma)


def solve_outcome(chain, n_s, mode):
    """What :meth:`RangeChain.solve` gives: the root, or the status its
    exception stands for."""
    try:
        return chain.solve(n_s, mode)
    except NoDetectionError:
        return "no_detection"
    except UnphysicalGeometryError:
        return "near_field"
    except DomainError:
        return "overflow"


def column_outcomes(column):
    """Each point of a column as :func:`solve_outcome` reads it: the root
    where the status is ``ok``, else the status."""
    r_max_m, statuses = column
    return [root if status == "ok" else status
            for root, status in zip(r_max_m, statuses, strict=True)]


def make_chain(config, f_hz, n_b, gamma=0.0):
    """A chain built directly from a scenario, so that N_B is free."""
    gain = antenna_gain(config.aperture_m2, f_hz)
    return RangeChain(
        gamma_db_per_km=gamma,
        n_b=n_b,
        sigma_gain_area=config.sigma_m2 * gain * config.aperture_m2,
        snr_min=config.snr_min_linear,
        pulse_count=config.pulse_count,
    )


def independent_snr_eff(point: Point, r_m: float) -> float:
    """Recompute SNR_eff through the reference link-budget chain."""
    config = point.config
    gain = antenna_gain(config.aperture_m2, point.f_hz, point.constants)
    eta = channel_transmissivity(
        config.sigma_m2, gain, config.aperture_m2, form_factor(point.gamma, r_m), r_m
    )
    n_b = config.noise_occupancy(point.f_hz, point.constants)
    return snr_eff(eta, config.pulse_count, point.n_s, n_b)


def raw_snr_eff(point: Point, r_m: float) -> float:
    """SNR_eff from the far-field formula without the eta <= 1 guard, so the
    reference bisection may probe the near field."""
    config = point.config
    gain = antenna_gain(config.aperture_m2, point.f_hz, point.constants)
    chain = (
        config.sigma_m2 * gain * config.aperture_m2 * config.pulse_count * point.n_s
    ) / (
        (4.0 * math.pi) ** point.four_pi_exponent
        * config.noise_occupancy(point.f_hz, point.constants)
    )
    return chain * form_factor(point.gamma, r_m) ** 2 / r_m**4


def free_space_range(point: Point) -> float:
    """Closed-form range with absorption ignored: SNR_eff(R) = threshold at F = 1."""
    return (raw_snr_eff(point._replace(gamma=0.0), 1.0) / point.threshold) ** 0.25


def bisection_root(point: Point) -> float | None:
    """Reference solve: bisect [1e-6 m, free_space_range] to a relative width
    of 1e-9; None when SNR_eff is below threshold already at 1e-6 m."""
    threshold = point.threshold
    chain = raw_snr_eff(point._replace(gamma=0.0), 1.0)

    def snr(r_m):
        return chain * form_factor(point.gamma, r_m) ** 2 / r_m**4

    lo, hi = 1e-6, (chain / threshold) ** 0.25
    if snr(lo) < threshold:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= 1e-9 * mid:
            break
        if snr(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_advantage_factor_values():
    chain = range_chain(BENCHMARK, 1e12)

    def sensitivity_gain(n_s):
        """SNR-domain quantum gain: the classical over the quantum threshold."""
        return threshold(chain, n_s, Illumination.CI) / threshold(chain, n_s, Illumination.QI)

    def advantage_factor(n_s):
        return sensitivity_gain(n_s) ** 0.25

    assert advantage_factor(1e-2) == pytest.approx(101.0**0.25, rel=1e-15)
    assert advantage_factor(1e-2) == pytest.approx(3.1702, abs=1e-4)
    assert advantage_factor(1.0) == pytest.approx(2.0**0.25, rel=1e-15)
    assert advantage_factor(1e12) == pytest.approx(1.0, rel=1e-9)
    assert sensitivity_gain(1e-2) == pytest.approx(101.0, rel=1e-15)
    with pytest.raises(DomainError):
        advantage_factor(0.0)


def test_free_space_benchmark_ranges():
    assert benchmark_point().solve() == pytest.approx(137.088, abs=0.01)
    assert benchmark_point(mode=Illumination.QI).solve() == pytest.approx(
        434.591, abs=0.01
    )


def test_four_pi_fourth_power_variant():
    literal = fourth_power_variant(benchmark_point().chain).solve(1e-2, Illumination.CI)
    assert literal == pytest.approx(38.672, abs=0.01)
    # the two conventions differ by exactly (4*pi)^(1/2) in range
    assert benchmark_point().solve() / literal == pytest.approx(
        math.sqrt(4.0 * math.pi), rel=1e-12
    )


def test_eta_at_the_root_is_the_same_under_both_four_pi_conventions():
    # at the root eta = SNR_min * N_B / (M * photons) whatever the (4*pi)
    # exponent, so the (4*pi)^4 variant gives the same eta at this point
    chain = range_chain(BENCHMARK, 1e12)
    for mode, printed in zip(Illumination, ["0.000625873", "6.19677e-06"]):
        etas = [variant.link_at(variant.solve(1e-2, mode), 1e-2, mode)[1]
                for variant in (chain, fourth_power_variant(chain))]
        assert etas[1] == pytest.approx(etas[0], rel=1e-12)
        assert [f"{eta:.6g}" for eta in etas] == [printed, printed]


def test_threshold_doubling_scales_range():
    base = benchmark_point().solve()
    doubled = benchmark_point(snr_min_db=10.0 + 10.0 * math.log10(2.0))
    assert doubled.solve() == pytest.approx(base / 2.0**0.25, rel=1e-12)


def test_lossless_solution_equals_closed_form():
    for f_hz in (7e9, 95e9, 1e12):
        for n_s in (1e-3, 1e-2, 1e-1, 1.0):
            for mode in Illumination:
                point = benchmark_point(n_s=n_s, f_hz=f_hz, mode=mode)
                assert point.solve() == pytest.approx(free_space_range(point), rel=1e-9)


def test_attenuated_solution_below_free_space_and_closed():
    point = benchmark_point(mode=Illumination.QI, gamma=3.0)
    root = point.solve()
    assert root < free_space_range(point)
    assert root < 435.0
    # closure through the public chain, in dB against the mode threshold
    achieved = independent_snr_eff(point, root)
    residual_db = abs(10.0 * math.log10(achieved / point.threshold))
    assert residual_db < 1e-6


def test_root_straddles_threshold():
    point = benchmark_point(gamma=5.0)
    root = point.solve()
    threshold = point.threshold
    assert independent_snr_eff(point, root * (1.0 - 1e-9)) >= threshold
    assert independent_snr_eff(point, root * (1.0 + 1e-9)) <= threshold


def test_lambert_w_root_matches_bisection():
    points = [
        benchmark_point(n_s=n_s, f_hz=f_ghz * 1e9, mode=mode, gamma=gamma)
        for f_ghz, gamma in bundled_table().rows
        for n_s in (1e-3, 1e-2, 1.0, 10.0)
        for mode in Illumination
    ]
    points += [
        benchmark_point(n_s=n_s, mode=mode, gamma=gamma)
        for gamma in (1e-6, 1e6)
        for n_s in (1e-3, 1e-2, 1.0, 10.0)
        for mode in Illumination
    ]
    solved = 0
    for point in points:
        expected = bisection_root(point)
        if expected is None:
            assert point.root() is None
            with pytest.raises(NoDetectionError):
                point.solve()
            continue
        assert point.root() == pytest.approx(expected, rel=1e-9, abs=0.0)
        solved += 1
    assert solved > 0.9 * len(points)


def random_chain(rng, four_pi_exponent):
    """A chain of a random scenario, with its N_s, scenario and frequency;
    its denominator carries (4*pi)^``four_pi_exponent``, 2 or 4."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    config = ScenarioConfig(
        sigma_m2=log_uniform(1e-2, 1e2),
        aperture_m2=log_uniform(1e-2, 2.0),
        snr_min_db=float(rng.uniform(3.0, 20.0)),
        tau_s=log_uniform(0.01, 2.0),
        bandwidth_hz=log_uniform(1e8, 2e9),
    )
    n_s = log_uniform(1e-3, 10.0)
    f_hz = log_uniform(5e9, 1e12)
    n_b = log_uniform(10.0, 1e5)
    gamma = 0.0 if rng.uniform() < 0.2 else log_uniform(0.01, 30.0)
    chain = make_chain(config, f_hz, n_b, gamma)
    if four_pi_exponent == 4:
        chain = fourth_power_variant(chain)
    return chain, n_s, config, f_hz


@pytest.mark.parametrize("mode", list(Illumination))
@pytest.mark.parametrize("four_pi_exponent", [2, 4])
def test_link_at_root_closes_the_solved_chain(four_pi_exponent, mode):
    rng = np.random.default_rng(1000 + four_pi_exponent)
    far = 0
    for _ in range(200):
        chain, n_s, config, f_hz = random_chain(rng, four_pi_exponent)
        [root], _ = chain.solutions((n_s,), mode)
        mode_threshold = threshold(chain, n_s, mode)
        snr_per_eta = chain.pulse_count * n_s / chain.n_b
        f_form, eta, residual_db = chain.link_at(root, n_s, mode)
        assert eta * snr_per_eta == pytest.approx(mode_threshold, rel=1e-12)
        assert residual_db < 1e-12
        if mode_threshold / snr_per_eta > 1.0:
            assert eta > 1.0
            with pytest.raises(UnphysicalGeometryError, match="> 1 at range"):
                chain.solve(n_s, mode)
            continue
        assert chain.solve(n_s, mode) == root
        if four_pi_exponent == 2:
            assert f_form == form_factor(chain.gamma_db_per_km, root)
            gain = antenna_gain(config.aperture_m2, f_hz)
            reference = channel_transmissivity(
                config.sigma_m2, gain, config.aperture_m2, f_form, root
            )
            assert abs(eta - reference) <= 1e-15 * reference
        far += 1
    assert far > 150


@pytest.mark.parametrize("mode", list(Illumination))
def test_a_replaced_field_moves_the_root(mode):
    # the chain holds sigma*G*A, M and N_B once each, so a chain changed by
    # replace solves as one built fresh from the changed inputs
    chain = range_chain(BENCHMARK, 1e12)
    root = chain.solve(0.01, mode)
    fewer = chain.replace(pulse_count=chain.pulse_count // 16)
    fresh = range_chain(BENCHMARK.replace(tau_s=1 / 16), 1e12)
    assert fewer == fresh
    assert fewer.solve(0.01, mode) == fresh.solve(0.01, mode)
    assert fewer.link_at(root, 0.01, mode) == fresh.link_at(root, 0.01, mode)
    noisier = chain.replace(n_b=2.0 * chain.n_b)
    assert abs(noisier.solve(0.01, mode) - root / 2**0.25) <= 4 * math.ulp(root)
    brighter = chain.replace(sigma_gain_area=16.0 * chain.sigma_gain_area)
    assert abs(brighter.solve(0.01, mode) - 2.0 * root) <= 4 * math.ulp(2.0 * root)
    for changed in (fewer, noisier, brighter):
        changed_root = changed.solve(0.01, mode)
        assert changed_root != root
        assert changed.link_at(changed_root, 0.01, mode)[2] < 1e-12
    if mode is Illumination.CI:
        assert fewer.solve(0.01, mode) == pytest.approx(68.544, abs=1e-3)
        assert noisier.solve(0.01, mode) == pytest.approx(115.277, abs=1e-3)


def test_extreme_attenuation_still_solves():
    mild = benchmark_point(gamma=0.0).solve()
    harsh = benchmark_point(gamma=1e6).solve()
    assert 0.0 < harsh < mild


def test_no_detection_error():
    hopeless = make_chain(
        ScenarioConfig(sigma_m2=1e-12, aperture_m2=1e-6, tau_s=1.0, bandwidth_hz=1.0),
        f_hz=1.0,
        n_b=1e6,
    )
    with pytest.raises(NoDetectionError):
        hopeless.solve(1e-3, Illumination.CI)


def test_quantum_classical_ratio_law():
    for n_s in np.logspace(-3, 1, 20):
        ci = benchmark_point(n_s=n_s, mode=Illumination.CI).solve()
        qi = benchmark_point(n_s=n_s, mode=Illumination.QI).solve()
        assert qi / ci == pytest.approx((1.0 + 1.0 / n_s) ** 0.25, rel=1e-9)
    # with attenuation the longer quantum path pays more, so the ratio shrinks
    for n_s in (1e-3, 1e-1):
        ci = benchmark_point(n_s=n_s, gamma=4.0, mode=Illumination.CI).solve()
        qi = benchmark_point(n_s=n_s, gamma=4.0, mode=Illumination.QI).solve()
        assert qi / ci < (1.0 + 1.0 / n_s) ** 0.25
    # at 1 THz and N_s 1e-3: lossless, (1 + 1/N_s)^(1/4) within 4 ulp; with
    # absorption W0(k*x)/W0(x), the quotient of the reference roots within
    # 4 ulp, falling strictly toward 1 as gamma rises
    n_s, lossless = 1e-3, range_chain(BENCHMARK, 1e12)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        law = (1 + 1 / Decimal(n_s)).sqrt().sqrt()
    ratios = []
    for gamma in [0.0, *np.logspace(-4.0, 4.0, 81).tolist()]:
        chain = lossless.replace(gamma_db_per_km=gamma)
        ratio = chain.solve(n_s, Illumination.QI) / chain.solve(n_s, Illumination.CI)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            reference = (reference_root(chain, n_s, Illumination.QI)
                         / reference_root(chain, n_s, Illumination.CI))
        assert ulps(ratio, law if gamma == 0.0 else reference) <= 4.0
        ratios.append(ratio)
    assert all(map(gt, ratios, ratios[1:])) and ratios[-1] > 1.0


def test_monotonicity_in_scenario_knobs():
    r_base = benchmark_point(gamma=1.0).solve()
    assert benchmark_point(n_s=2e-2, gamma=1.0).solve() > r_base
    assert benchmark_point(gamma=1.0, sigma_m2=2.0).solve() > r_base
    assert benchmark_point(gamma=1.0, aperture_m2=1.0).solve() > r_base
    assert benchmark_point(gamma=1.0, tau_s=2.0).solve() > r_base
    assert benchmark_point(gamma=2.0).solve() < r_base
    assert benchmark_point(gamma=1.0, snr_min_db=13.0).solve() < r_base


def test_problem_validation():
    with pytest.raises(DomainError):
        benchmark_point(n_s=0.0).solve()
    with pytest.raises(DomainError):
        benchmark_point(gamma=-1.0).chain


# sigma 1e-12 m^2, A 1e-6 m^2: the classical 7 GHz points below N_s ~ 3e-5
# have no detection range, every other point of the default grid has one.
FAINT = ScenarioConfig(sigma_m2=1e-12, aperture_m2=1e-6)


def sweep_rows(config, grid, **kwargs):
    """The sweep's columns as ``(n_s, frequency_hz, mode, r_max_m)`` rows."""
    return [
        (n_s, f_hz, mode, r_max)
        for f_hz, mode, (r_max_m, _) in sweep_range(config, grid, **kwargs)
        for n_s, r_max in zip(grid, r_max_m, strict=True)
    ]


def test_sweep_range_single_point():
    rows = sweep_rows(ScenarioConfig(frequencies_hz=(1e12,)), [1e-2])
    assert [(n_s, f_hz) for n_s, f_hz, _, _ in rows] == [(1e-2, 1e12)] * 2
    assert [mode for _, _, mode, _ in rows] == [Illumination.CI, Illumination.QI]
    assert rows[0][3] == pytest.approx(137.088, abs=0.01)
    assert rows[1][3] == pytest.approx(434.591, abs=0.01)


def test_sweep_range_ordering_and_monotonicity():
    grid = list(np.logspace(-3, 0, 7))
    rows = sweep_rows(ScenarioConfig(frequencies_hz=(7e9, 1e12)), grid)
    keys = list(dict.fromkeys((f_hz, mode) for _, f_hz, mode, _ in rows))
    assert keys == [
        (7e9, Illumination.CI),
        (7e9, Illumination.QI),
        (1e12, Illumination.CI),
        (1e12, Illumination.QI),
    ]
    assert [n_s for n_s, _, _, _ in rows] == grid * len(keys)
    curves = [
        [r_max for _, _, _, r_max in rows[start:start + len(grid)]]
        for start in range(0, len(rows), len(grid))
    ]
    for ci, qi in zip(curves[::2], curves[1::2]):
        assert all(q >= c for c, q in zip(ci, qi))
        for curve in (ci, qi):
            assert all(b > a for a, b in zip(curve, curve[1:]))


def test_sweep_range_is_lazy(monkeypatch):
    # the call builds every chain; with a table every solved point of a
    # column takes one Lambert-W evaluation when the column is drawn
    chains, roots = [], []
    build, lambert_w0 = range_solver.range_chain, range_solver._lambert_w0

    def counting_chain(*args):
        chains.append(args[1])
        return build(*args)

    def counting_w0(x):
        roots.append(x)
        return lambert_w0(x)

    monkeypatch.setattr(range_solver, "range_chain", counting_chain)
    monkeypatch.setattr(range_solver, "_lambert_w0", counting_w0)
    config = ScenarioConfig(attenuation_table_path=BUNDLED_CSV)
    columns = sweep_range(config, [1e-3, 1e-2, 1e-1])
    assert (chains, roots) == (list(config.frequencies_hz), [])
    next(columns)
    assert (chains, len(roots)) == (list(config.frequencies_hz), 3)


# repr(r_max_m) and status of the solve; the lossless columns were recorded
# before the column kernel replaced the per-point solve, the attenuated ones
# when the attenuated root became W0(x) / (a/2), and the lossless QI N_s 0.1
# entries when the quantum transmitter entered as N_s + 1 photons.  Literal
# N_s values, so no grid arithmetic enters the comparison.
PINNED_SOLUTIONS = {
    ("lossless", 7e9, "ci"): [
        ("1.865622715108297", "ok"), ("5.899617034289644", "ok"), ("18.65622715108297", "ok"),
    ],
    ("lossless", 7e9, "qi"): [
        ("10.493789308093355", "ok"), ("10.744148250400523", "ok"), ("19.106097612092967", "ok"),
    ],
    ("lossless", 1e12, "ci"): [
        ("77.09039854395384", "ok"), ("243.78124512902218", "ok"), ("770.9039854395384", "ok"),
    ],
    ("lossless", 1e12, "qi"): [
        ("433.6195059408025", "ok"), ("443.9647223048636", "ok"), ("789.4933244583871", "ok"),
    ],
    ("bundled_table", 60e9, "ci"): [
        ("9.198454986867679", "ok"), ("28.15141119027738", "ok"), ("81.22586253315237", "ok"),
    ],
    ("bundled_table", 60e9, "qi"): [
        ("48.35650139545867", "ok"), ("49.419387591042266", "ok"), ("82.93880876952925", "ok"),
    ],
    ("bundled_table", 1e12, "ci"): [
        ("23.188169763265606", "ok"), ("36.600558854016654", "ok"), ("52.032316771003195", "ok"),
    ],
    ("bundled_table", 1e12, "qi"): [
        ("44.11299123065467", "ok"), ("44.42991166339142", "ok"), ("52.36808035007209", "ok"),
    ],
}
PINNED_N_S = (1e-3, 1e-1, 10.0)
PINNED_CONFIGS = {
    "lossless": ScenarioConfig(),
    "bundled_table": ScenarioConfig(attenuation_table_path=BUNDLED_CSV),
}


@pytest.mark.parametrize(
    "key", list(PINNED_SOLUTIONS), ids=lambda key: "{}-{:g}-{}".format(*key)
)
def test_solutions_are_bit_identical_to_the_recorded_solve(key):
    scenario, f_hz, mode = key
    chain = range_chain(PINNED_CONFIGS[scenario], f_hz)
    r_max_m, status = chain.solutions(PINNED_N_S, Illumination(mode))
    assert list(zip(map(repr, r_max_m), status)) == PINNED_SOLUTIONS[key]


@pytest.mark.parametrize("mode", list(Illumination), ids=lambda mode: mode.value)
@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
@pytest.mark.parametrize("config", [BENCHMARK, FAINT], ids=["default", "faint"])
def test_solutions_equal_one_point_solves(config, table_path, mode):
    config = config.replace(attenuation_table_path=table_path)
    grid = [float(v) for v in np.logspace(-6, 3, 60)]
    for f_hz in config.frequencies_hz:
        chain = range_chain(config, f_hz)
        assert column_outcomes(chain.solutions(grid, mode)) == [
            solve_outcome(chain, n_s, mode) for n_s in grid
        ]


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
@pytest.mark.parametrize("mode", list(Illumination), ids=lambda mode: mode.value)
def test_overflowing_chain_names_n_s(table_path, mode):
    # head * N_s / (denominator * threshold) overflows.  The lossless R_free^4
    # is then no float, so there is no range; the attenuated root
    # 2 W0(a R_free / 2) / a is one, taken with W0 from ln x.
    chain = range_chain(BENCHMARK.replace(attenuation_table_path=table_path), 1e12)
    if table_path is None:
        with pytest.raises(DomainError, match=r"n_s = 1e\+300 overflows the range chain"):
            chain.solve(1e300, mode)
    else:
        below, beyond = chain.solve(1e290, mode), chain.solve(1e300, mode)
        assert chain.solutions([1e300], mode)[1] == ["ok"]
        # R^4 exp(2aR) is proportional to N_s / threshold, and the threshold
        # is SNR_min at both points to within 1e-290
        a = chain.gamma_db_per_km * range_solver._A_PER_GAMMA
        growth = 4.0 * math.log(beyond / below) + 2.0 * a * (beyond - below)
        assert growth == pytest.approx(math.log(1e10), rel=1e-9)
    assert math.isfinite(chain.solve(1e290, mode))


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
def test_quantum_threshold_underflow_solves_the_same_ratio(table_path):
    # The textbook threshold SNR_min / (1 + 1/N_s) underflows to 0 at SNR_min
    # 1e-295 and N_s 1e-30, but the kernel solves at N_s + 1 photons against
    # SNR_min; scaling sigma*G*A and SNR_min by 1e100 keeps head * (N_s + 1)
    # / (denominator * SNR_min)
    chain = range_chain(BENCHMARK.replace(attenuation_table_path=table_path), 1e12)
    underflowing = chain.replace(snr_min=1e-295)
    scaled = chain.replace(snr_min=1e-195, sigma_gain_area=chain.sigma_gain_area * 1e100)
    assert threshold(underflowing, 1e-30, Illumination.QI) == 0.0
    root = underflowing.solve(1e-30, Illumination.QI)
    reference = scaled.solve(1e-30, Illumination.QI)
    assert root == pytest.approx(reference, rel=1e-14)
    assert underflowing.solutions([1e-30], Illumination.QI) == ([root], ["ok"])
    # below N_s ~5.6e-309 1/N_s overflows too; the range is the same N_s -> 0 limit
    [tiniest], [status] = underflowing.solutions([1e-310], Illumination.QI)
    assert status == "ok"
    assert tiniest == pytest.approx(root, rel=1e-14)
    # at SNR_min 1e-300 the lossless R_free^4 overflows: no range, named
    deeper = chain.replace(snr_min=1e-300)
    r_max_m, status = deeper.solutions([1e-30], Illumination.QI)
    if table_path is None:
        with pytest.raises(DomainError, match=r"n_s = 1e-30 overflows the range chain"):
            deeper.solve(1e-30, Illumination.QI)
        assert (r_max_m, status) == ([math.inf], ["overflow"])
    else:
        assert status == ["ok"]
        assert math.isfinite(deeper.solve(1e-30, Illumination.QI))


def test_sweep_range_marks_failures_as_absent():
    rows = sweep_rows(FAINT, [1e-6, 1e-3])
    assert rows[0][3] is None
    assert rows[1][3] is not None


def test_sweep_grid_validation():
    # raised by the call itself, before any row is drawn
    with pytest.raises(DomainError):
        sweep_range(BENCHMARK, [1e-2, 1e-3])
    with pytest.raises(DomainError):
        sweep_range(BENCHMARK, [])


@pytest.mark.parametrize("constants", [TEXTBOOK, CODATA], ids=["textbook", "codata"])
@pytest.mark.parametrize("four_pi_exponent", [2, 4])
@pytest.mark.parametrize("scenario", ["default", "bundled_table", "faint"])
def test_sweep_rows_equal_one_point_solutions(monkeypatch, scenario, four_pi_exponent, constants):
    if four_pi_exponent == 4:
        # no config names the (4*pi)^4 variant; the sweep reaches it through
        # chains whose sigma*G*A is replaced
        built = range_solver.range_chain
        monkeypatch.setattr(range_solver, "range_chain",
                            lambda *args: fourth_power_variant(built(*args)))
    if scenario == "faint":
        config = FAINT
    elif scenario == "bundled_table":
        config = ScenarioConfig(
            frequencies_hz=tuple(f_ghz * 1e9 for f_ghz, _ in bundled_table().rows),
            attenuation_table_path=BUNDLED_CSV,
        )
    else:
        config = BENCHMARK
    frequencies = list(config.frequencies_hz)
    grid = [float(v) for v in np.logspace(-6, 3, 60)]
    rows = sweep_rows(config, grid, constants=constants)
    expected_keys = [(n_s, f, mode) for f in frequencies for mode in Illumination for n_s in grid]
    table = config.attenuation_table
    absent = 0
    for (n_s, f_hz, mode, r_max), key in zip(rows, expected_keys, strict=True):
        assert (n_s, f_hz, mode) == key
        gamma = 0.0 if table is None else atmosphere.gamma_at(table, f_hz)
        expected = bisection_root(
            Point(config, n_s, f_hz, mode, gamma, constants, four_pi_exponent)
        )
        if r_max is None:
            assert expected is None
            absent += 1
        else:
            assert r_max == pytest.approx(expected, rel=1e-9, abs=0.0)
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
    frequencies = [f_ghz * 1e9 for f_ghz, _ in bundled_table().rows][:5]
    config = ScenarioConfig(frequencies_hz=tuple(frequencies), attenuation_table_path=BUNDLED_CSV)
    grid = list(np.logspace(-3, 1, 40))
    rows = sweep_rows(config, grid)
    assert len(rows) == len(frequencies) * 2 * len(grid)
    assert counts == dict.fromkeys(counts, len(frequencies))


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
def test_no_detection_is_read_off_the_root(table_path):
    # SNR_eff(R) strictly decreases, so "below threshold at 1 um" and
    # "root below 1 um" select the same points
    config = FAINT.replace(attenuation_table_path=table_path)
    grid = [float(v) for v in np.logspace(-6, 3, 60)]
    absent = 0
    for n_s, f_hz, mode, r_max in sweep_rows(config, grid):
        chain = range_chain(config, f_hz)
        snr_at_near_zero = (
            chain.head * n_s / chain.denominator * form_factor(chain.gamma_db_per_km, 1e-6) ** 2
            / 1e-6**4
        )
        assert (r_max is None) == (snr_at_near_zero < threshold(chain, n_s, mode))
        absent += r_max is None
    assert absent > 0


def test_sweep_ratio_values():
    assert correlation_ratio(0.5) == pytest.approx(0.57735, abs=1e-5)
    assert correlation_ratio(1e-4) == pytest.approx(9.9995e-3, rel=1e-4)
    values = [correlation_ratio(n_s) for n_s in np.logspace(-3, 2, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n_s", [1e-310, 5e-324])
def test_quantum_range_where_the_inverse_of_n_s_overflows(n_s):
    # The quantum range is the classical range at N_s + 1, so it tends to a
    # finite limit as N_s -> 0; below ~5.6e-309, where 1/N_s overflows, it
    # is still the exact root, not a division by zero.
    chain = range_chain(BENCHMARK, 1e12)
    root = chain.solve(n_s, Illumination.QI)
    assert ulps(root, reference_root(chain, n_s, Illumination.QI)) <= ULP_BOUND
    with pytest.raises(NoDetectionError):
        chain.solve(n_s, Illumination.CI)
    rows = sweep_rows(BENCHMARK, [n_s, 1e-300])
    assert all((row[3] is None) == (row[2] is Illumination.CI) for row in rows)


# The closed form, checked once against the decimal reference root ------------

ULP_BOUND = 4.0


def test_solutions_returns_two_lists_of_the_grid_length():
    grid = [1e-3, 1e-1, 10.0]
    result = range_chain(BENCHMARK, 1e12).solutions(grid, Illumination.QI)
    assert type(result) is tuple and len(result) == 2
    assert all(type(values) is list and len(values) == len(grid) for values in result)


@pytest.mark.parametrize("mode", list(Illumination), ids=lambda mode: mode.value)
@pytest.mark.parametrize("value, text", [
    (math.nan, "positive and finite, got nan"),
    (-1.0, "positive and finite, got -1.0"),
    ("x", "a number, got 'x'"),
    (True, "a number, got True"),
    (math.inf, "positive and finite, got inf"),
    (0.0, "positive and finite, got 0.0"),
], ids=["nan", "negative", "str", "bool", "inf", "zero"])
def test_solutions_refuses_a_grid_value_as_solve_and_sweep_range_do(value, text, mode):
    # each value is refused where it is reached, after the points before it
    chain = range_chain(BENCHMARK, 1e12)
    with pytest.raises(DomainError) as info:
        chain.solutions([1e-2, value], mode)
    assert str(info.value) == f"grid values must be {text}"


def test_solutions_solves_an_int_grid_value_as_its_float():
    chain = range_chain(BENCHMARK, 1e12)
    for mode in Illumination:
        assert chain.solutions([1, 2], mode) == chain.solutions([1.0, 2.0], mode)


def test_roots_are_within_4_ulp_of_the_reference_on_a_random_set():
    # N_s log-uniform in [1e-6, 1e4], gamma from the bundled table
    config = ScenarioConfig(attenuation_table_path=BUNDLED_CSV)
    chains = [range_chain(config, f_hz) for f_hz in (7e9, 60e9, 95e9, 183e9, 1e12)]
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(1000):
        chain = chains[rng.integers(len(chains))]
        mode = Illumination.QI if rng.uniform() < 0.5 else Illumination.CI
        n_s = float(10.0 ** rng.uniform(-6.0, 4.0))
        [root], [status] = chain.solutions([n_s], mode)
        assert status in ("ok", "near_field")
        worst = max(worst, ulps(root, reference_root(chain, n_s, mode)))
    assert worst <= ULP_BOUND


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
@pytest.mark.parametrize("f_hz", [7e9, 95e9, 1e12])
def test_quantum_roots_are_within_4_ulp_of_the_reference_at_subnormal_n_s(table_path, f_hz):
    # N_s from the smallest subnormal to 1e-300, where N_s + 1 is 1
    chain = range_chain(BENCHMARK.replace(attenuation_table_path=table_path), f_hz)
    grid = [float(v) for v in np.logspace(math.log10(5e-324), -300, 40)]
    r_max_m, status = chain.solutions(grid, Illumination.QI)
    assert status == ["ok"] * len(grid)
    worst = max(
        ulps(root, reference_root(chain, n_s, Illumination.QI))
        for n_s, root in zip(grid, r_max_m)
    )
    assert worst <= ULP_BOUND


def _edge_chain(gamma=0.0, **fields):
    return range_chain(BENCHMARK, 1e12).replace(gamma_db_per_km=gamma, **fields)


# (chain, N_s, mode) at each branch edge of the kernel
BRANCH_EDGES = {
    # lossless: the fourth root, at ordinary and extreme N_s
    "lossless-1e-3-qi": (_edge_chain(), 1e-3, Illumination.QI),
    "lossless-1e4-ci": (_edge_chain(), 1e4, Illumination.CI),
    "lossless-1e200-qi": (_edge_chain(), 1e200, Illumination.QI),
    # the textbook QI threshold SNR_min / (1 + 1/N_s) underflows to 0 at
    # SNR_min 1e-295; below ~5.6e-309 1/N_s overflows too
    "underflow-lossless-1e-30": (_edge_chain(snr_min=1e-295), 1e-30, Illumination.QI),
    "underflow-lossless-5e-324": (_edge_chain(snr_min=1e-295), 5e-324, Illumination.QI),
    "underflow-450-1e-30": (_edge_chain(450.0, snr_min=1e-295), 1e-30, Illumination.QI),
    "underflow-450-1e-310": (_edge_chain(450.0, snr_min=1e-295), 1e-310, Illumination.QI),
    "underflow-450-deeper": (_edge_chain(450.0, snr_min=1e-300), 1e-30, Illumination.QI),
    # a subnormal N_s, which keeps few digits, where N_s + 1 is 1
    "subnormal-n_s-1e12-qi": (_edge_chain(), 1e-323, Illumination.QI),
    "subnormal-n_s-7e9-qi": (range_chain(BENCHMARK, 7e9), 1.5e-323, Illumination.QI),
    "subnormal-n_s-450-qi": (_edge_chain(450.0), 1e-323, Illumination.QI),
    # a large x = a R_free / 2 on the main path, where R_free exp(-W0(x))
    # would lose about ln x ulp
    "large-x-1e200-ci": (_edge_chain(450.0), 1e200, Illumination.CI),
    "large-x-1e280-qi": (_edge_chain(450.0), 1e280, Illumination.QI),
    # R_free^4 overflows with attenuation
    "overflow-450-1e300-ci": (_edge_chain(450.0), 1e300, Illumination.CI),
    "overflow-450-1e307-qi": (_edge_chain(450.0), 1e307, Illumination.QI),
    "overflow-0.1-1e300-ci": (_edge_chain(0.1), 1e300, Illumination.CI),
    # x = a R_free / 2 beyond Halley's range: W0 from ln x
    "ln-x": (_edge_chain(1e6, sigma_gain_area=1e291, n_b=1e-302, snr_min=1e-300), 1e300,
             Illumination.CI),
    # a subnormal gamma, where a/2 underflows to 0 and the root is R_free
    "subnormal-gamma": (_edge_chain(5e-324), 1e-2, Illumination.CI),
    # a/2 > 0, but x = a R_free / 2 is subnormal: W0(x) / x rounds to 1
    "subnormal-x": (_edge_chain(1e-310), 1e-2, Illumination.CI),
    # a tiny gamma where R_free^4 overflows
    "tiny-gamma-overflow": (_edge_chain(1e-300), 1e300, Illumination.CI),
}


@pytest.mark.parametrize("edge", list(BRANCH_EDGES))
def test_roots_are_within_4_ulp_of_the_reference_at_each_branch_edge(edge):
    chain, n_s, mode = BRANCH_EDGES[edge]
    if edge == "subnormal-gamma":
        assert 0.5 * chain.gamma_db_per_km * range_solver._A_PER_GAMMA == 0.0
    if edge == "ln-x":
        logs = map(math.log, (chain.head, n_s, 1.0 / chain.denominator, 1.0 / chain.snr_min))
        ln_half_a = math.log(0.5 * chain.gamma_db_per_km * range_solver._A_PER_GAMMA)
        assert ln_half_a + 0.25 * sum(logs) > math.log(range_solver._X_HALLEY_MAX)
    [root], [status] = chain.solutions([n_s], mode)
    assert status == "ok"
    assert ulps(root, reference_root(chain, n_s, mode)) <= ULP_BOUND


def test_x_beyond_halley_range_on_the_main_path_is_no_detection_not_nan():
    # a huge gamma puts x = a R_free / 2 above 1e305, where Halley's w e^w
    # overflows; W0 from ln x gives a root far below near-zero range
    chain = _edge_chain(1e300)
    r_max_m, status = chain.solutions([2.8e29, 1e40, 1e60], Illumination.CI)
    assert r_max_m == [None] * 3
    assert status == ["no_detection"] * 3


@pytest.mark.parametrize("mode", list(Illumination), ids=lambda mode: mode.value)
def test_r_free_beyond_the_float_range_is_overflow_not_nan(mode):
    # R_free^4 overflows, and so does R_free itself, a quotient of fourth
    # roots; the attenuated root of an infinite R_free is no number
    chain = RangeChain(gamma_db_per_km=1.0, n_b=1e-318, sigma_gain_area=1e308, snr_min=1e-320,
                       pulse_count=1)
    assert chain.solutions([1e308], mode) == ([math.inf], ["overflow"])


@pytest.mark.parametrize("mode", list(Illumination), ids=lambda mode: mode.value)
def test_a_root_on_a_status_boundary_is_ok(mode):
    # no_detection is a root below 1 um and near_field is eta > 1, so a root
    # of exactly 1 um, and one where eta is exactly 1, are ok; photons is
    # N_s + extra = 1 + extra, so head * photons / denominator is 1e-24 and 1
    # with no rounding left
    photons = 1.0 + mode.extra_photons
    at_near_zero = RangeChain(gamma_db_per_km=0.0, n_b=0.5,
                              sigma_gain_area=1e-24 / photons * _FOUR_PI**2 * 0.5,
                              snr_min=1.0, pulse_count=1)
    assert at_near_zero.head * photons / at_near_zero.denominator == 1e-24
    assert at_near_zero.solutions([1.0], mode) == ([1e-6], ["ok"])
    assert at_near_zero.solve(1.0, mode) == 1e-6
    at_unit_eta = RangeChain(gamma_db_per_km=0.0, n_b=photons, sigma_gain_area=_FOUR_PI**2,
                             snr_min=1.0, pulse_count=1)
    assert at_unit_eta.solutions([1.0], mode) == ([1.0], ["ok"])
    assert at_unit_eta.solve(1.0, mode) == 1.0
    assert at_unit_eta.link_at(1.0, 1.0, mode)[1] == 1.0


def test_solve_refuses_exactly_the_near_field_status_on_the_attenuated_benchmark_grid(tmp_path):
    # the sweep_attenuated benchmark: 24 frequencies x 250 N_s x 2 modes; no
    # point of it lies near the boundary, so eta from link_at at the root
    # agrees with the status too
    config = load_config(sweep_attenuated_config(tmp_path))
    grid = _log_grid(1e-3, 10.0, 250)
    near_field = points = 0
    for f_hz, mode, (r_max_m, statuses) in sweep_range(config, grid):
        chain = range_chain(config, f_hz)
        for n_s, root, status in zip(grid, r_max_m, statuses, strict=True):
            points += 1
            assert status in ("ok", "near_field")
            assert (chain.link_at(root, n_s, mode)[1] > 1.0) == (status == "near_field")
            try:
                solved = chain.solve(n_s, mode)
            except UnphysicalGeometryError:
                assert status == "near_field"
                near_field += 1
            else:
                assert (status, solved) == ("ok", root)
    assert (points, near_field) == (12000, 180)


def ulp_neighbours(x, count):
    """The ``count`` floats below ``x``, ``x`` and the ``count - 1`` above it."""
    for _ in range(count):
        x = math.nextafter(x, 0.0)
    neighbours = []
    for _ in range(2 * count):
        neighbours.append(x)
        x = math.nextafter(x, math.inf)
    return neighbours


@pytest.mark.parametrize("table_path", [None, BUNDLED_CSV], ids=["lossless", "bundled_table"])
@pytest.mark.parametrize("f_hz", [7e9, 60e9, 95e9, 557e9, 1e12])
def test_solve_refuses_exactly_the_near_field_status_at_the_boundary(table_path, f_hz):
    # N_s within 400 ulp of SNR_min * N_B / M - extra, where eta at the root
    # is 1; eta formed from the root there can round to the other side of 1
    # than the status's quotient.  For QI the boundary is negative here.
    chain = range_chain(BENCHMARK.replace(attenuation_table_path=table_path), f_hz)
    near_field = points = 0
    for mode in Illumination:
        boundary = chain.snr_min * chain.n_b / chain.pulse_count - mode.extra_photons
        if boundary <= 0.0:
            continue
        grid = ulp_neighbours(boundary, 400)
        column = chain.solutions(grid, mode)
        assert column_outcomes(column) == [solve_outcome(chain, n_s, mode) for n_s in grid]
        near_field += column[1].count("near_field")
        points += len(grid)
    assert points == 800
    assert 0 < near_field < points


def test_sweep_range_marks_a_frequency_outside_the_table_span():
    # 2 THz lies past the bundled table; its columns have no range, and the
    # 7 GHz columns are those of a sweep of 7 GHz alone
    config = ScenarioConfig(attenuation_table_path=BUNDLED_CSV, frequencies_hz=(7e9, 2e12))
    grid = [1e-3, 1e-1, 10.0]
    columns = list(sweep_range(config, grid))
    assert [(f_hz, mode) for f_hz, mode, _ in columns] == [
        (7e9, Illumination.CI), (7e9, Illumination.QI),
        (2e12, Illumination.CI), (2e12, Illumination.QI),
    ]
    for _, _, column in columns[2:]:
        assert column == ([None] * 3, ["out_of_span"] * 3)
    alone = list(sweep_range(config.replace(frequencies_hz=(7e9,)), grid))
    assert columns[:2] == alone
