"""Closed-form transmitter covariances against the truncated Fock oracle."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from qi_rangekit.errors import CutoffError, DomainError
from qi_rangekit.quantum_states import (
    IDLER_I,
    IDLER_Q,
    SIGNAL_I,
    SIGNAL_Q,
    TAIL_TOLERANCE,
    _diagonal_moments,
    _dot,
    _poisson_tail,
    _product_moments,
    _smallest_cutoff,
    _tmsv_tail,
    coherent_covariance,
    coherent_covariance_oracle,
    correlation_ratio,
    tmsv_covariance,
    tmsv_covariance_oracle,
)


def geometric_cutoff(n_s: float) -> int:
    """Reference cutoff in closed form: the smallest n_max >= 1 whose geometric
    TMSV tail (n_s/(n_s + 1))^(n_max + 1) is below TAIL_TOLERANCE."""
    ratio = n_s / (n_s + 1.0)
    if ratio == 0.0:
        return 1
    # math.log(ratio) < 0, so the bound flips.
    return max(1, math.ceil(math.log(TAIL_TOLERANCE) / math.log(ratio)) - 1)


def tmsv_cutoff(n_s: float) -> int:
    """The TMSV oracle's default cutoff."""
    return _smallest_cutoff(n_s, partial(_tmsv_tail, n_s))


def test_tmsv_vacuum_limit():
    cov = np.asarray(tmsv_covariance(0.0))
    assert np.array_equal(cov, np.eye(4))


def test_tmsv_at_half_photon():
    cov = np.asarray(tmsv_covariance(0.5))
    c_q = 2.0 * math.sqrt(0.75)
    assert cov[SIGNAL_I, SIGNAL_I] == 2.0
    assert cov[IDLER_Q, IDLER_Q] == 2.0
    assert cov[SIGNAL_I, IDLER_I] == pytest.approx(c_q, abs=1e-15)
    assert cov[SIGNAL_Q, IDLER_Q] == pytest.approx(-c_q, abs=1e-15)
    assert cov[SIGNAL_I, SIGNAL_Q] == 0.0
    assert cov[SIGNAL_I, IDLER_Q] == 0.0


def test_tmsv_matches_oracle_at_half_photon():
    oracle = np.asarray(tmsv_covariance_oracle(0.5))
    assert np.abs(oracle - np.asarray(tmsv_covariance(0.5))).max() < 1e-9


def test_coherent_model_matrix():
    assert np.array_equal(coherent_covariance(0.0), np.eye(4))
    cov = np.asarray(coherent_covariance(0.5))
    assert cov[SIGNAL_I, SIGNAL_I] == 2.0
    assert cov[SIGNAL_I, IDLER_I] == 1.0
    assert cov[SIGNAL_Q, IDLER_Q] == -1.0


def test_coherent_hyperbola_identity():
    cov = np.asarray(coherent_covariance(2.0))
    s = cov[SIGNAL_I, SIGNAL_I]
    c = cov[SIGNAL_I, IDLER_I]
    assert s**2 - c**2 == pytest.approx(4.0 * 2.0 + 1.0, rel=1e-15)


def test_correlation_ratio_values():
    assert correlation_ratio(0.5) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert correlation_ratio(1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert correlation_ratio(1e9) > 1.0 - 1e-9
    # sqrt(10/11), correctly rounded
    assert correlation_ratio(10.0) == 0.9534625892455924


def test_correlation_ratio_cross_checks_covariances():
    for n_s in (0.03, 0.5, 2.0, 40.0):
        c_q = np.asarray(tmsv_covariance(n_s))[SIGNAL_I, IDLER_I]
        c_c = np.asarray(coherent_covariance(n_s))[SIGNAL_I, IDLER_I]
        assert correlation_ratio(n_s) == pytest.approx(c_c / c_q, rel=1e-14)
        assert c_q > c_c


def test_correlation_ratio_strictly_monotone():
    grid = np.logspace(-4, 4, 1000)
    values = [correlation_ratio(n) for n in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_tmsv_hyperbola_identity_over_grid():
    # The identity is exact algebraically; in float64 the residual of the
    # subtraction scales with s^2 (last-bit rounding of c), so the check is
    # relative to that scale.  For s^2 <= ~1e6 this is as strict as 1e-9
    # against the unit identity value itself.
    for n_s in np.logspace(-4, 4, 60):
        cov = np.asarray(tmsv_covariance(n_s))
        s = cov[SIGNAL_I, SIGNAL_I]
        c = cov[SIGNAL_I, IDLER_I]
        assert abs(s**2 - c**2 - 1.0) <= 1e-9 * max(1.0, s**2)
    for n_s in np.logspace(-4, 2, 40):
        cov = np.asarray(tmsv_covariance(n_s))
        s = cov[SIGNAL_I, SIGNAL_I]
        c = cov[SIGNAL_I, IDLER_I]
        assert s**2 - c**2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_s", [0.01, 0.1, 0.5, 1.0, 5.0])
def test_oracle_equivalence(n_s):
    oracle = np.asarray(tmsv_covariance_oracle(n_s))  # rule-compliant default cutoff
    assert np.abs(oracle - np.asarray(tmsv_covariance(n_s))).max() < 1e-9


@pytest.mark.parametrize("n_s", [20.0, 50.0])
def test_oracle_finite_at_large_photon_number(n_s):
    # the state coefficients overflow unless built in log space (n_max >= 566)
    closed = np.asarray(tmsv_covariance(n_s))
    oracle = np.asarray(tmsv_covariance_oracle(n_s))
    assert np.isfinite(oracle).all()
    assert np.abs(oracle - closed).max() <= 1e-8 * np.abs(closed).max()


def test_oracle_small_photon_number():
    oracle = np.asarray(tmsv_covariance_oracle(0.01))
    assert oracle[SIGNAL_I, SIGNAL_I] == pytest.approx(1.02, abs=1e-9)
    assert oracle[SIGNAL_I, IDLER_I] == pytest.approx(2.0 * math.sqrt(0.01 * 1.01), abs=1e-9)


def test_oracle_recovers_mean_photon_number():
    # <n> = (<I^2> + <Q^2> - 1)/2 per mode; entries are 2x the moments.
    cov = np.asarray(tmsv_covariance_oracle(0.5))
    recovered = (cov[SIGNAL_I, SIGNAL_I] + cov[SIGNAL_Q, SIGNAL_Q] - 2.0) / 4.0
    assert recovered == pytest.approx(0.5, abs=1e-10)


def test_covariances_exactly_symmetric():
    for cov in (
        tmsv_covariance(0.7),
        coherent_covariance(0.7),
        tmsv_covariance_oracle(0.7),
        coherent_covariance_oracle(0.7),
    ):
        cov = np.asarray(cov)
        assert np.array_equal(cov, cov.T)


def test_coherent_oracle_vacuum():
    assert np.abs(np.asarray(coherent_covariance_oracle(0.0)) - np.eye(4)).max() < 1e-12
    # the mean photon number per mode N_s/2 rounds to 0 at N_s = 5e-324, so
    # the state is the vacuum there, to the bit, not a coherent state of that N_s
    assert coherent_covariance_oracle(5e-324) == coherent_covariance_oracle(0.0)
    assert coherent_covariance_oracle(1e-323)[SIGNAL_I][IDLER_I] > 0.0


def test_tmsv_oracle_vacuum():
    # like the coherent pair, n_s = 0 is the vacuum: c = [1, 0], n_max = 1
    assert tmsv_cutoff(0.0) == 1
    assert np.abs(np.asarray(tmsv_covariance_oracle(0.0)) - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(
    "fn", [tmsv_covariance, coherent_covariance, tmsv_covariance_oracle, coherent_covariance_oracle]
)
def test_matrices_are_tuples_of_four_float_rows(fn):
    matrix = fn(0.7)
    assert type(matrix) is tuple and len(matrix) == 4
    for row in matrix:
        assert type(row) is tuple and len(row) == 4
        assert all(type(v) is float for v in row)


def test_coherent_oracle_i_sector_matches_model():
    oracle = np.asarray(coherent_covariance_oracle(0.5))
    assert oracle[SIGNAL_I, SIGNAL_I] == pytest.approx(2.0, abs=1e-9)
    assert oracle[SIGNAL_I, IDLER_I] == pytest.approx(1.0, abs=1e-9)


def test_coherent_oracle_q_sector_deviates_from_model():
    # Real-amplitude product state: unit Q variance, no Q-sector correlation.
    oracle = np.asarray(coherent_covariance_oracle(0.5))
    assert oracle[SIGNAL_Q, IDLER_Q] == pytest.approx(0.0, abs=1e-9)
    assert oracle[SIGNAL_Q, SIGNAL_Q] == pytest.approx(1.0, abs=1e-9)


def test_min_fock_cutoff_tail_rule():
    for n_s in (0.01, 0.5, 5.0):
        n_max = tmsv_cutoff(n_s)
        ratio = n_s / (n_s + 1.0)
        assert ratio ** (n_max + 1) < 1e-12
        assert ratio**n_max >= 1e-12 or n_max == 1


def test_coherent_oracle_i_sector_at_large_photon_number():
    # Past N_s ~1500 the first Poisson tail term underflows below the mean;
    # the tail must still read ~1 there, not 0, or n_max = 1 passes.
    closed = np.asarray(coherent_covariance(2000.0))
    oracle = np.asarray(coherent_covariance_oracle(2000.0))
    i_sector = np.ix_([SIGNAL_I, IDLER_I], [SIGNAL_I, IDLER_I])
    assert np.abs(oracle[i_sector] - closed[i_sector]).max() <= 1e-8 * np.abs(closed).max()


def test_bisected_coherent_cutoff_matches_a_plain_scan():
    # The whole domain, up to the ci CutoffError boundary near N_s 3491.26.
    # Below the mean the tail reads 1.0 and is not summed; from N_s ~260 the
    # bisection probes cutoffs there.  A plain scan starts at the first n with
    # n + 1 >= lam, as every n below it reads 1.0.
    grid = [0.0, *np.logspace(-300, -3, 8), *np.logspace(-2, math.log10(3491.25), 42)]
    for n_s in grid:
        lam = n_s / 2.0
        tail = partial(_poisson_tail, lam)
        start = max(1, math.ceil(lam) - 1)
        assert all(tail(n) == 1.0 for n in range(1, start))
        tails = [tail(start)]
        while tails[-1] >= TAIL_TOLERANCE:
            tails.append(tail(start + len(tails)))
        assert tails == sorted(tails, reverse=True)
        assert _smallest_cutoff(n_s, tail) == start + len(tails) - 1
    assert _smallest_cutoff(1000.0, partial(_poisson_tail, 500.0)) == 665  # ci N_s 1000: dim 666
    # far below the mean the first tail term underflows; the tail still reads 1
    assert _poisson_tail(1000.0, 1) == 1.0
    with pytest.raises(CutoffError):
        coherent_covariance_oracle(3492.0)


def test_cutoff_tail_must_fall_below_the_tolerance():
    # a step tail that equals TAIL_TOLERANCE at n = 5: the cutoff is the
    # first n whose tail is below it, 6, not 5
    def tail(n):
        return 1.0 if n < 5 else TAIL_TOLERANCE if n == 5 else TAIL_TOLERANCE / 2.0

    assert _smallest_cutoff(1.0, tail) == 6


def test_bisected_tmsv_cutoff_matches_the_geometric_closed_form():
    # The closed form is checked against its defining inequality first, so a
    # rounding slip in either rule shows.  Up to N_s 73.5 the cutoff is at most
    # 2044; from 74 up no cutoff below the oracle bound meets the tail rule.
    for n_s in [*np.logspace(-10, math.log10(73.5), 131), 0.0, 5e-324, 1e-300, 72.0, 73.0]:
        n_max = geometric_cutoff(n_s)
        ratio = n_s / (n_s + 1.0)
        assert ratio ** (n_max + 1) < TAIL_TOLERANCE
        assert n_max == 1 or ratio**n_max >= TAIL_TOLERANCE
        assert tmsv_cutoff(n_s) == n_max
    assert tmsv_cutoff(10.0) == 289 and tmsv_cutoff(20.0) == 566
    assert tmsv_cutoff(73.5) == geometric_cutoff(73.5) == 2044
    assert geometric_cutoff(74.0) >= 2048
    with pytest.raises(CutoffError, match="oracle bound of 2048"):
        tmsv_cutoff(74.0)


def test_oracle_size_bounded_before_any_array():
    # An input that fails fast even without the bound, so no multi-GB oracle is built.
    with pytest.raises(CutoffError, match="oracle bound of 2048"):
        coherent_covariance_oracle(5000.0)


def test_min_fock_cutoff_rejects_unbounded_tail():
    # n_s / (n_s + 1) rounds to 1.0: no finite cutoff, not a ZeroDivisionError.
    for n_s in (1e16, 1e17, 1e300):
        with pytest.raises(CutoffError, match="oracle bound of 2048"):
            tmsv_covariance_oracle(n_s)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        tmsv_covariance(bad if bad != 0.0 else -0.5)
    with pytest.raises(DomainError):
        correlation_ratio(bad)


def test_coherent_rejects_negative():
    with pytest.raises(DomainError):
        coherent_covariance(-0.1)
    with pytest.raises(DomainError):
        coherent_covariance_oracle(-0.1)


def dense_second_moments(psi: np.ndarray) -> np.ndarray:
    """Reference: the ladder operators as dense matrices, a[n-1, n] = sqrt(n)."""
    dim = psi.shape[0]
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    psi_c = psi.astype(complex)
    applied = [
        (a @ psi_c + a.T @ psi_c) / math.sqrt(2.0),
        (a @ psi_c - a.T @ psi_c) / (1j * math.sqrt(2.0)),
        (psi_c @ a.T + psi_c @ a) / math.sqrt(2.0),
        (psi_c @ a.T - psi_c @ a) / (1j * math.sqrt(2.0)),
    ]
    return np.array([[2.0 * np.vdot(x, y).real for y in applied] for x in applied])


def assert_close_to_dense(moments, psi: np.ndarray) -> None:
    reference = dense_second_moments(psi)
    assert np.abs(np.asarray(moments) - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("dim", [2, 5, 40])
def test_second_moments_match_dense_ladder_operators(dim):
    # The structured kernels add the same non-zero products as the dense
    # matrices, in another order, so they agree to rounding, not bit for bit.
    rng = np.random.Generator(np.random.PCG64(dim))
    for coeffs in (np.exp(-0.3 * np.arange(dim)), rng.standard_normal(dim)):
        coeffs = coeffs / np.linalg.norm(coeffs)
        assert_close_to_dense(_diagonal_moments(coeffs.tolist()), np.diag(coeffs))
    a, b = (rng.standard_normal(dim) for _ in range(2))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    assert_close_to_dense(_product_moments(a.tolist(), b.tolist()), np.outer(a, b))


def test_dot_adds_left_to_right_on_every_python():
    # 1e16 + 1.0 rounds back to 1e16, so the 1.0 is lost before -1e16 comes;
    # math.fsum, and the built-in sum from Python 3.12 on, keep it: 1.0
    assert _dot([1e16, 1.0, -1e16], [1.0] * 3) == 0.0
    assert _dot([1.0, 1e16, -1e16], [1.0] * 3) == 0.0
    assert _dot([1e16, -1e16, 1.0], [1.0] * 3) == 1.0


def traced_peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "oracle, n_s", [(coherent_covariance_oracle, 1000.0), (tmsv_covariance_oracle, 50.0)]
)
def test_oracle_memory_grows_with_the_cutoff_not_its_square(oracle, n_s):
    # dim 666 and 1396: a dense dim x dim complex array alone would take 7 and 31 MB.
    assert traced_peak_bytes(oracle, n_s) < 1_000_000


@pytest.mark.parametrize("n_s", [1e154, 1.5e154, 1e200, 1e300, 8.9e307])
def test_tmsv_cross_entry_past_the_product_overflow(n_s):
    # n_s * (n_s + 1) overflows above ~1.3e154; C_q = 2*sqrt(n_s*(n_s + 1))
    # is still finite, and equals 2*n_s to double precision there
    cov = tmsv_covariance(n_s)
    assert cov[SIGNAL_I][IDLER_I] == pytest.approx(2.0 * n_s, rel=1e-15)
    assert cov[SIGNAL_Q][IDLER_Q] == -cov[SIGNAL_I][IDLER_I]


def test_tmsv_cross_entry_unchanged_below_the_product_overflow():
    for n_s in (1e-3, 0.5, 20.0, 1e150):
        assert tmsv_covariance(n_s)[SIGNAL_I][IDLER_I] == 2.0 * math.sqrt(n_s * (n_s + 1.0))


@pytest.mark.parametrize("covariance", [tmsv_covariance, coherent_covariance])
def test_overflowing_diagonal_names_n_s(covariance):
    # 2*n_s + 1 overflows just above 8.98e307
    assert math.isfinite(covariance(8.98e307)[SIGNAL_I][SIGNAL_I])
    with pytest.raises(DomainError, match=r"n_s = 1e\+308 is too large"):
        covariance(1e308)


@pytest.mark.parametrize("n_s", [1e-310, 5e-324, 5.5e-309])
def test_correlation_ratio_where_the_inverse_overflows(n_s):
    # 1/n_s overflows below ~5.6e-309; the ratio is then sqrt(n_s), not 0
    assert correlation_ratio(n_s) == pytest.approx(math.sqrt(n_s / (1.0 + n_s)), rel=1e-12)
    assert correlation_ratio(n_s) > 0.0


def test_correlation_ratio_is_continuous_across_the_inverse_overflow():
    below, above = 5.56e-309, 5.57e-309  # 1/below overflows, 1/above does not
    assert 1.0 / below == math.inf and 1.0 / above < math.inf
    assert correlation_ratio(below) < correlation_ratio(above)
    assert correlation_ratio(below) == pytest.approx(correlation_ratio(above), rel=1e-2)
