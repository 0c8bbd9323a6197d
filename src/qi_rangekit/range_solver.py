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

The range chain of a scenario at one frequency is one object,
:class:`RangeChain`, built by :func:`range_chain`.  Its solve kernel,
:meth:`RangeChain.solutions`, solves one column: one mode across a grid of
N_s values, with the chain's fields and the mode test read once per column.
``range`` solves a one-point column through :meth:`RangeChain.solve`;
:func:`sweep_range` builds one chain per configured frequency and solves one
column per mode, so a sweep row and the one-point solution are the same
computation.

The kernel evaluates the SNR chain from the raw far-field formula without
the eta <= 1 guard, and only at the root, for the residual.  As SNR_eff(R)
strictly decreases, "below threshold at near-zero range" is "root below
near-zero range", so no-detection is read off the root.  The guard applies
in :meth:`RangeChain.link_at`, which reports F and eta at a range from the
same chain, (4*pi) exponent included.
"""

from __future__ import annotations

import enum
import math
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import atmosphere
from ._record import Record
from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, NoDetectionError
from .link_budget import _FOUR_PI, _require_far_field, antenna_gain
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


class RangeSolution(NamedTuple):
    """Solved maximum range with solver diagnostics; ``iterations`` counts
    the Halley steps of the Lambert-W evaluation (0 when lossless)."""

    r_max_m: float
    residual_db: float
    iterations: int
    converged: bool


def _form_factor(gamma_db_per_km: float, r_m: float) -> float:
    # Raw far-field evaluation; see module docstring.
    return 10.0 ** (-gamma_db_per_km * (r_m / 1000.0) / 10.0)


def _snr_eff_at(chain_constant: float, gamma_db_per_km: float, r_m: float) -> float:
    return chain_constant * _form_factor(gamma_db_per_km, r_m) ** 2 / r_m**4


def _quantum_threshold(snr_min: float, n_s: float) -> float:
    # The quantum transmitter's threshold rescaling; see module docstring.
    inverse = 1.0 / n_s
    if inverse == math.inf:  # N_s below ~5.6e-309, where 1 + N_s is 1
        return snr_min * n_s
    return snr_min / (1.0 + inverse)


class RangeChain(Record):
    """The range chain of a scenario at one frequency,
    SNR_eff(R) = head * N_s / denominator * F(R)^2 / R^4, with
    ``head`` = sigma*G*A*M, ``denominator`` = (4*pi)^k * N_B, ``snr_min``
    the configured threshold (linear) and ``pulse_count`` M.

    Built by :func:`range_chain`; the mode enters only through
    :meth:`threshold`, so one chain serves both modes at every N_s.
    """

    __slots__ = _fields = (
        "gamma_db_per_km", "n_b", "head", "denominator", "snr_min", "pulse_count",
    )

    def _check(self) -> None:
        _require_positive("n_b", self.n_b)
        _require_non_negative("gamma", self.gamma_db_per_km)

    def threshold(self, n_s: float, mode: Illumination) -> float:
        """Mode-adjusted detection threshold (linear): SNR_min, divided by
        1 + 1/N_s for the quantum transmitter."""
        n_s = _require_positive("n_s", n_s)
        if mode is Illumination.QI:
            return _quantum_threshold(self.snr_min, n_s)
        return self.snr_min

    def solve(self, n_s: float, mode: Illumination) -> RangeSolution:
        """Maximum range with absorption: the unique R where SNR_eff(R)
        crosses the mode-adjusted threshold.

        The one-point column of :meth:`solutions`, with N_s checked.  Raises
        :class:`NoDetectionError` when the target is already below threshold
        at near-zero range, and :class:`DomainError` when N_s is so large
        that the chain overflows and no finite range comes out.
        """
        n_s = _require_positive("n_s", n_s)
        [solution] = self.solutions((n_s,), mode)
        if solution is None:
            raise NoDetectionError(
                f"SNR_eff at {_NEAR_ZERO_RANGE_M} m is already below threshold; "
                "no detection range exists"
            )
        if not math.isfinite(solution.r_max_m):
            raise DomainError(
                f"n_s = {n_s!r} overflows the range chain: head * N_s / "
                "((4*pi)^k * N_B * threshold) exceeds the float range"
            )
        return solution

    def solutions(
        self, n_s_grid: Iterable[float], mode: Illumination
    ) -> Iterator[RangeSolution | None]:
        """Solve one column lazily: a :class:`RangeSolution` per N_s of
        ``n_s_grid`` in ``mode``, or ``None`` where no detection range exists
        (the target is already below threshold at near-zero range).

        Closed form R_free * exp(-W0(a * R_free / 2)); see the module
        docstring.  With gamma = 0 that is R_free itself.  ``converged``
        reports the closure of the forward SNR chain at the root.  The grid
        is not checked: every value must be positive and finite, as
        :meth:`solve` and :func:`sweep_range` ensure.
        """
        head, denominator, snr_min = self.head, self.denominator, self.snr_min
        gamma = self.gamma_db_per_km
        half_a = 0.5 * gamma * _A_PER_GAMMA
        quantum = mode is Illumination.QI
        for n_s in n_s_grid:
            threshold = _quantum_threshold(snr_min, n_s) if quantum else snr_min
            chain_constant = head * n_s / denominator
            r_free = (chain_constant / threshold) ** 0.25
            root, iterations = r_free, 0
            if gamma > 0.0:
                w, iterations = _lambert_w0(half_a * r_free)
                root = r_free * math.exp(-w)
            if root < _NEAR_ZERO_RANGE_M:
                yield None
                continue
            snr_at_root = _snr_eff_at(chain_constant, gamma, root)
            residual = abs(10.0 * math.log10(snr_at_root / threshold))
            yield RangeSolution(root, residual, iterations, residual < _RESIDUAL_TOL_DB)

    def link_at(self, n_s: float, r_m: float) -> tuple[float, float]:
        """One-way form factor F and transmissivity eta at range ``r_m``,
        from the chain :meth:`solve` solves.

        At the root, eta * M * N_s / N_B is the mode-adjusted threshold.
        Raises :class:`UnphysicalGeometryError` where eta > 1 (near field).
        """
        n_s = _require_positive("n_s", n_s)
        r_m = _require_positive("range", r_m)
        f_form = _form_factor(self.gamma_db_per_km, r_m)
        snr_per_eta = self.pulse_count * n_s / self.n_b
        eta = self.head * n_s / self.denominator * f_form**2 / r_m**4 / snr_per_eta
        return f_form, _require_far_field(eta, r_m)


def range_chain(
    config: ScenarioConfig, f_hz: float, constants: PhysicalConstants = TEXTBOOK
) -> RangeChain:
    """The range chain of ``config`` at ``f_hz``: gamma from the config's
    attenuation table (0 without one, so the path is lossless) and N_B from
    its noise power.  Raises :class:`FrequencySpanError` outside the table
    span."""
    table = config.attenuation_table
    gamma = 0.0 if table is None else atmosphere.gamma_at(table, f_hz)
    n_b = config.noise_occupancy(f_hz, constants)
    radar, pulse_count = config.radar, config.integration.pulse_count
    gain = antenna_gain(radar.aperture_m2, f_hz, constants)
    return RangeChain(
        gamma_db_per_km=gamma,
        n_b=n_b,
        head=radar.sigma_m2 * gain * radar.aperture_m2 * pulse_count,
        denominator=_FOUR_PI**config.four_pi_exponent * n_b,
        snr_min=config.detection.snr_min_linear,
        pulse_count=pulse_count,
    )


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
    """Solve the range over the (N_s, frequency, mode) product grid of a
    scenario: the grid, the configured frequencies and the modes CI, QI.

    Yields ``(n_s, frequency_hz, mode, solution)`` rows lazily, frequency-major,
    then mode, then N_s; ``solution`` is ``None`` where no detection range
    exists, never a zero range.  One chain ``range_chain(config, f, constants)``
    is built per frequency, and each (frequency, mode) is one column of
    :meth:`RangeChain.solutions` over the grid, so each row equals
    ``chain.solve(n_s, mode)``.  The grid is validated on the call.
    """
    grid = _validated_grid(n_s_grid)

    def rows() -> Iterator[tuple[float, float, Illumination, RangeSolution | None]]:
        for f_hz in config.frequencies_hz:
            chain = range_chain(config, f_hz, constants)
            for mode in Illumination:
                yield from zip(grid, repeat(f_hz), repeat(mode), chain.solutions(grid, mode))

    return rows()


def sweep_ratio(n_s_grid: Sequence[float]) -> Iterator[tuple[float, float]]:
    """Classical/quantum correlation ratio over an N_s grid, as lazy
    ``(n_s, ratio)`` rows.  The grid is validated on the call."""
    grid = _validated_grid(n_s_grid)
    return ((n_s, correlation_ratio(n_s)) for n_s in grid)
