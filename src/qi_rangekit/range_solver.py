"""Maximum-range solutions for classical and quantum illumination.

With no atmospheric loss the range equation closes in a fourth root,

    R_max = (sigma * G * A * M * N_s / ((4*pi)^2 * N_B * SNR_min))^(1/4),

and the quantum transmitter extends it by (1 + 1/N_s)^(1/4), implemented as
a threshold rescaling SNR_min -> SNR_min / (1 + 1/N_s) so the range ratio
holds by construction.  With absorption the round-trip form factor is
F(R)^2 = exp(-2aR), a = gamma * ln(10) / 10^4 (gamma in dB/km, R in m), and
the threshold crossing solves R^4 * exp(2aR) = R_free^4.  That equation has
a closed form via Lambert W0, the principal branch of w * e^w = x,

    R_max = (2/a) * W0(a * R_free / 2) = R_free * exp(-W0(a * R_free / 2)),

with W0 evaluated by Halley's method in plain floating point.

Note the (4*pi) exponent: back-substituting the transmissivity into the
effective SNR gives (4*pi)^2 in the denominator, and that convention also
reproduces the expected range magnitudes.  The fourth power sometimes seen
in print is available behind ``four_pi_exponent=4`` for comparison runs.

:func:`r_max` evaluates the SNR chain from the raw far-field formula
without the eta <= 1 guard, and only at the root, for the residual.  As
SNR_eff(R) strictly decreases, "below threshold at near-zero range" is
"root below near-zero range", so no-detection is read off the root.  The
guard applies in :func:`link_at`, which reports F and eta at a range from
the same chain, (4*pi) exponent included.

One solve step, ``_solve``, serves both entry points, and :func:`r_max` is
its one-point case.  :func:`sweep_range` solves a config at its frequencies
with gamma from its table.  It builds what does not depend on N_s once per
frequency and shares it between that frequency's (frequency, mode) rows:
the head sigma*G*A*M, the denominator (4*pi)^k * N_B, gamma and SNR_min.
Per N_s it forms only the chain constant head * N_s / denominator, the mode
threshold, the fourth root and W0.  The multiplication order is the one
:func:`r_max` uses, so every sweep row equals the one-point solution bit
for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from . import atmosphere
from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, NoDetectionError
from .link_budget import (
    _FOUR_PI, DetectionSpec, IntegrationSpec, RadarParams, _require_far_field, antenna_gain,
)
from .quantum_states import correlation_ratio
from .radiometry import _require_non_negative, _require_positive

if TYPE_CHECKING:
    from .config import ScenarioConfig

# a [1/m] per gamma [dB/km], where F(R)^2 = exp(-2aR).
_A_PER_GAMMA = math.log(10.0) / 1e4

# "Near-zero range" [m] for the no-detection test.
_NEAR_ZERO_RANGE_M = 1e-6
_RESIDUAL_TOL_DB = 1e-6
# Halley's method from w = log1p(x) takes at most 6 steps for x in [1e-15, 1e10].
_HALLEY_REL_TOL = 1e-15
_HALLEY_MAX_STEPS = 16


class Illumination(enum.Enum):
    """Transmitter choice: classical (coherent pair) or quantum (entangled pair)."""

    CI = "ci"
    QI = "qi"


@dataclass(frozen=True)
class RangeProblem:
    """One maximum-range question: scenario physics plus transmitter mode."""

    radar: RadarParams
    detection: DetectionSpec
    integration: IntegrationSpec
    n_s: float
    f_hz: float
    n_b: float
    gamma_db_per_km: float = 0.0
    mode: Illumination = Illumination.CI
    four_pi_exponent: int = 2
    constants: PhysicalConstants = TEXTBOOK

    def __post_init__(self) -> None:
        _require_positive("n_s", self.n_s)
        _require_positive("f_hz", self.f_hz)
        _require_positive("n_b", self.n_b)
        _require_non_negative("gamma", self.gamma_db_per_km)
        if self.four_pi_exponent not in (2, 4):
            raise DomainError(
                f"four_pi_exponent must be 2 or 4, got {self.four_pi_exponent!r}"
            )


@dataclass(frozen=True)
class RangeSolution:
    """Solved maximum range with solver diagnostics; ``iterations`` counts
    the Halley steps of the Lambert-W evaluation (0 when lossless)."""

    r_max_m: float
    residual_db: float
    iterations: int
    converged: bool


def quantum_advantage_factor(n_s: float) -> float:
    """Range-domain quantum gain (1 + 1/n_s)^(1/4); approaches 1 as n_s grows."""
    n_s = _require_positive("n_s", n_s)
    return (1.0 + 1.0 / n_s) ** 0.25


def sensitivity_gain(n_s: float) -> float:
    """SNR-domain quantum gain 1 + 1/n_s used to rescale the threshold."""
    n_s = _require_positive("n_s", n_s)
    return 1.0 + 1.0 / n_s


def threshold_linear(problem: RangeProblem) -> float:
    """Mode-adjusted detection threshold (linear): the configured SNR_min,
    divided by 1 + 1/N_s for the quantum transmitter."""
    threshold = problem.detection.snr_min_linear
    if problem.mode is Illumination.QI:
        threshold /= sensitivity_gain(problem.n_s)
    return threshold


def _chain_head(
    radar: RadarParams, integration: IntegrationSpec, f_hz: float, constants: PhysicalConstants
) -> float:
    """sigma*G*A*M, the part of the chain constant before N_s."""
    gain = antenna_gain(radar.aperture_m2, f_hz, constants)
    return radar.sigma_m2 * gain * radar.aperture_m2 * integration.pulse_count


def _chain_constant(problem: RangeProblem) -> float:
    """sigma*G*A*M*N_s / ((4*pi)^k * N_B): SNR_eff(R) = const * F(R)^2 / R^4."""
    head = _chain_head(problem.radar, problem.integration, problem.f_hz, problem.constants)
    return head * problem.n_s / (_FOUR_PI**problem.four_pi_exponent * problem.n_b)


def _form_factor(gamma_db_per_km: float, r_m: float) -> float:
    # Raw far-field evaluation; see module docstring.
    return 10.0 ** (-gamma_db_per_km * (r_m / 1000.0) / 10.0)


def _snr_eff_at(chain_constant: float, gamma_db_per_km: float, r_m: float) -> float:
    return chain_constant * _form_factor(gamma_db_per_km, r_m) ** 2 / r_m**4


def link_at(problem: RangeProblem, r_m: float) -> tuple[float, float]:
    """One-way form factor F and transmissivity eta at range ``r_m``, from
    the chain :func:`r_max` solves (its ``four_pi_exponent`` included).

    At the root, eta * M * N_s / N_B is the mode-adjusted threshold.  Raises
    :class:`UnphysicalGeometryError` where eta > 1 (near field).
    """
    r_m = _require_positive("range", r_m)
    f_form = _form_factor(problem.gamma_db_per_km, r_m)
    snr_per_eta = problem.integration.pulse_count * problem.n_s / problem.n_b
    eta = _chain_constant(problem) * f_form**2 / r_m**4 / snr_per_eta
    return f_form, _require_far_field(eta, r_m)


def _lambert_w0(x: float) -> tuple[float, int]:
    """Principal-branch Lambert W of ``x >= 0`` (w * e^w = x) and the number
    of Halley steps taken from the start w = log1p(x)."""
    w = math.log1p(x)
    for steps in range(1, _HALLEY_MAX_STEPS + 1):
        e_w = math.exp(w)
        f = w * e_w - x
        step = f / (e_w * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= _HALLEY_REL_TOL * w:
            break
    return w, steps


def r_max_free(problem: RangeProblem) -> float:
    """Closed-form maximum range with absorption ignored (F = 1).

    For the quantum mode this equals the classical result times
    (1 + 1/N_s)^(1/4), via the threshold rescaling.
    """
    return (_chain_constant(problem) / threshold_linear(problem)) ** 0.25


def r_max(problem: RangeProblem) -> RangeSolution:
    """Maximum range with absorption: the unique R where SNR_eff(R) crosses
    the mode-adjusted threshold.

    Closed form R_free * exp(-W0(a * R_free / 2)); see the module docstring.
    With gamma = 0 that is R_free itself.  ``converged`` reports the closure
    of the forward SNR chain at the root.  Raises :class:`NoDetectionError`
    when the target is already below threshold at near-zero range.
    """
    return _solve(_chain_constant(problem), threshold_linear(problem), problem.gamma_db_per_km)


def _solve(chain_constant: float, threshold: float, gamma: float) -> RangeSolution:
    """The solve step of :func:`r_max` and :func:`sweep_range`."""
    r_free = (chain_constant / threshold) ** 0.25
    root, iterations = r_free, 0
    if gamma > 0.0:
        w, iterations = _lambert_w0(0.5 * gamma * _A_PER_GAMMA * r_free)
        root = r_free * math.exp(-w)
    if root < _NEAR_ZERO_RANGE_M:
        raise NoDetectionError(
            f"SNR_eff at {_NEAR_ZERO_RANGE_M} m is already below threshold; "
            "no detection range exists"
        )

    residual = abs(10.0 * math.log10(_snr_eff_at(chain_constant, gamma, root) / threshold))
    return RangeSolution(
        r_max_m=root,
        residual_db=residual,
        iterations=iterations,
        converged=residual < _RESIDUAL_TOL_DB,
    )


def _validated_grid(n_s_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(v) for v in n_s_grid)
    if not grid:
        raise DomainError("grid must not be empty")
    previous = None
    for value in grid:
        _require_positive("grid values", value)
        if previous is not None and value <= previous:
            raise DomainError("grid must be strictly increasing")
        previous = value
    return grid


def sweep_range(
    config: ScenarioConfig,
    n_s_grid: Sequence[float],
    *,
    constants: PhysicalConstants = TEXTBOOK,
) -> Iterator[tuple[float, float, Illumination, RangeSolution | None]]:
    """Solve r_max over the (N_s, frequency, mode) product grid of a scenario:
    the grid, the configured frequencies and the modes CI, QI.

    Yields ``(n_s, frequency_hz, mode, solution)`` rows lazily, frequency-major,
    then mode, then N_s; ``solution`` is ``None`` where no detection range
    exists, never a zero range.  Each row equals
    ``r_max(config.make_problem(n_s, f, mode, constants))``, gamma included.

    Gamma, N_B, the chain head sigma*G*A*M and the denominator
    (4*pi)^k * N_B are built and checked once per frequency and shared by
    that frequency's (frequency, mode) rows; per point only the chain
    constant, the mode threshold and the solve remain.  The grid is
    validated on the call.
    """
    grid = _validated_grid(n_s_grid)
    table = config.attenuation_table
    snr_min = config.detection.snr_min_linear
    four_pi_k = _FOUR_PI**config.four_pi_exponent

    def rows() -> Iterator[tuple[float, float, Illumination, RangeSolution | None]]:
        for f_hz in config.frequencies_hz:
            gamma = 0.0 if table is None else atmosphere.gamma_at(table, f_hz)
            n_b = _require_positive("n_b", config.noise_occupancy(f_hz, constants))
            head = _chain_head(config.radar, config.integration, f_hz, constants)
            denominator = four_pi_k * n_b
            for mode in Illumination:
                quantum = mode is Illumination.QI
                for n_s in grid:
                    threshold = snr_min / (1.0 + 1.0 / n_s) if quantum else snr_min
                    try:
                        solution = _solve(head * n_s / denominator, threshold, gamma)
                    except NoDetectionError:
                        solution = None
                    yield n_s, f_hz, mode, solution

    return rows()


def sweep_ratio(n_s_grid: Sequence[float]) -> Iterator[tuple[float, float]]:
    """Classical/quantum correlation ratio over an N_s grid, as lazy
    ``(n_s, ratio)`` rows.  The grid is validated on the call."""
    grid = _validated_grid(n_s_grid)
    return ((n_s, correlation_ratio(n_s)) for n_s in grid)
