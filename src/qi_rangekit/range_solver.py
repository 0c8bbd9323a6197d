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
N_s values, in one loop that fills the plain lists of a :class:`RangeColumn`
(no object per point), with the chain's fields and the mode test read once
per column.  ``range`` solves a one-point column through
:meth:`RangeChain.solve`; :func:`sweep_range` builds one chain per configured
frequency when called and solves its columns lazily, one per (frequency,
mode), so a sweep row and the one-point solution are the same computation.

Where the closed form leaves the float range -- the QI threshold
SNR_min / (1 + 1/N_s) underflows to 0, or R_free^4 = head * N_s /
(denominator * threshold) overflows -- the kernel takes the same closed form
in another arrangement: the lossless R_free^4 as head / denominator *
(1 + N_s) / SNR_min for QI, with N_s cancelled, and, with absorption, W0
taken from ln x = ln(a/2) + ln R_free, so an attenuated root that is a float
comes out as one.  Where the lossless R_free^4 is still beyond the float
range (R_free above ~1.3e77 m, although R_free itself may be a float), the
root reads inf and the point has no finite range: the residual, and eta in
:meth:`RangeChain.link_at`, take R^4.

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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from ._record import Record
from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, NoDetectionError
from .link_budget import _FOUR_PI, _require_far_field, antenna_gain
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
# _lambert_w0 takes x = e^ln_x up to this ln x; its Halley step forms
# w * e^w, which overflows for x above ~1e305.
_LN_X_HALLEY_MAX = 500.0
# 10 * log10(x) = _DB_PER_LN * ln(x)
_DB_PER_LN = 10.0 / math.log(10.0)


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


class RangeColumn(Record):
    """One solved column, as four lists with one entry per N_s of the grid:
    ``r_max_m`` (``None`` where no detection range exists), ``residual_db``
    (``None`` there too), ``iterations`` and ``converged`` (``False`` there).

    Iterating it yields a :class:`RangeSolution` per point, or ``None`` where
    no detection range exists, built on demand.
    """

    __slots__ = _fields = ("r_max_m", "residual_db", "iterations", "converged")

    def __iter__(self) -> Iterator[RangeSolution | None]:
        for solution in zip(self.r_max_m, self.residual_db, self.iterations, self.converged):
            yield None if solution[0] is None else RangeSolution._make(solution)


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

    def solutions(self, n_s_grid: Iterable[float], mode: Illumination) -> RangeColumn:
        """Solve one column: the maximum range at each N_s of ``n_s_grid`` in
        ``mode``, as a :class:`RangeColumn`; no detection range exists where
        the target is already below threshold at near-zero range.

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
        column = RangeColumn([], [], [], [])
        add_r, add_residual, add_steps, add_converged = (
            column.r_max_m.append, column.residual_db.append,
            column.iterations.append, column.converged.append,
        )
        log10, exp, inf = math.log10, math.exp, math.inf
        near_zero, tolerance = _NEAR_ZERO_RANGE_M, _RESIDUAL_TOL_DB
        for n_s in n_s_grid:
            threshold = _quantum_threshold(snr_min, n_s) if quantum else snr_min
            chain_constant = head * n_s / denominator
            if threshold == 0.0 or (ratio := chain_constant / threshold) == inf:
                root, residual, steps = self._beyond_float_range(n_s, mode)
                converged = residual is not None and residual < tolerance
            else:
                root = r_free = ratio**0.25
                steps = 0
                if gamma > 0.0:
                    w, steps = _lambert_w0(half_a * r_free)
                    root = r_free * exp(-w)
                # the residual only after this test: root**4 may be ~0 below it
                if root < near_zero:
                    root = residual = None
                    converged = False
                else:
                    snr_at_root = _snr_eff_at(chain_constant, gamma, root)
                    residual = abs(10.0 * log10(snr_at_root / threshold))
                    converged = residual < tolerance
            add_r(root)
            add_residual(residual)
            add_steps(steps)
            add_converged(converged)
        return column

    def _beyond_float_range(
        self, n_s: float, mode: Illumination
    ) -> tuple[float | None, float | None, int]:
        """``(root, residual_db, iterations)`` of a point where the QI
        threshold underflows to 0 or R_free^4 overflows; see the module
        docstring.  The root is ``None`` below near-zero range, and inf where
        the lossless R_free^4 overflows."""
        head, denominator, snr_min = self.head, self.denominator, self.snr_min
        half_a = 0.5 * self.gamma_db_per_km * _A_PER_GAMMA
        # N_s / threshold, which may not be a float: (1 + N_s) / SNR_min for QI
        if mode is Illumination.QI:
            n_s_per_snr = 1.0 + n_s
            ln_threshold = math.log(snr_min) + math.log(n_s) - math.log1p(n_s)
        else:
            n_s_per_snr = n_s
            ln_threshold = math.log(snr_min)
        ln_r_free = 0.25 * (math.log(head) + math.log(n_s) - math.log(denominator) - ln_threshold)
        if half_a == 0.0:
            root, steps = (head / denominator * n_s_per_snr / snr_min) ** 0.25, 0
        else:
            w, steps = _lambert_w0_of_log(math.log(half_a) + ln_r_free)
            root = w / half_a
        if root < _NEAR_ZERO_RANGE_M:
            return None, None, steps
        # ln(SNR_eff(R) / threshold) = 4 ln R_free - 2aR - 4 ln R
        residual = abs(4.0 * _DB_PER_LN * (ln_r_free - half_a * root - math.log(root)))
        return root, residual, steps

    def link_at(self, n_s: float, r_m: float) -> tuple[float, float]:
        """One-way form factor F and transmissivity eta at range ``r_m``,
        from the chain :meth:`solve` solves.

        At the root, eta * M * N_s / N_B is the mode-adjusted threshold;
        eta itself, SNR_eff(R) * N_B / (M * N_s), does not depend on N_s,
        which is only checked.  Raises :class:`UnphysicalGeometryError`
        where eta > 1 (near field).
        """
        _require_positive("n_s", n_s)
        r_m = _require_positive("range", r_m)
        f_form = _form_factor(self.gamma_db_per_km, r_m)
        eta = self.head / self.denominator * f_form**2 / r_m**4 * self.n_b / self.pulse_count
        return f_form, _require_far_field(eta, r_m)


def range_chain(
    config: ScenarioConfig, f_hz: float, constants: PhysicalConstants = TEXTBOOK
) -> RangeChain:
    """The range chain of ``config`` at ``f_hz``: gamma from the config's
    attenuation table (0 without one, so the path is lossless) and N_B from
    its noise power.  Raises :class:`FrequencySpanError` outside the table
    span."""
    table = config.attenuation_table
    if table is None:
        gamma = 0.0
    else:
        from . import atmosphere

        gamma = atmosphere.gamma_at(table, f_hz)
    n_b = config.noise_occupancy(f_hz, constants)
    pulse_count = config.pulse_count
    gain = antenna_gain(config.aperture_m2, f_hz, constants)
    return RangeChain(
        gamma_db_per_km=gamma,
        n_b=n_b,
        head=config.sigma_m2 * gain * config.aperture_m2 * pulse_count,
        denominator=_FOUR_PI**config.four_pi_exponent * n_b,
        snr_min=config.snr_min_linear,
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


def _lambert_w0_of_log(ln_x: float) -> tuple[float, int]:
    """Principal-branch Lambert W of x = e^``ln_x``, also where x exceeds the
    float range, and the number of iteration steps taken.  Large x solves
    w + ln w = ln x by Newton's method from w = ln x - ln ln x."""
    if ln_x <= _LN_X_HALLEY_MAX:
        return _lambert_w0(math.exp(ln_x))
    w = ln_x - math.log(ln_x)
    for steps in range(1, _HALLEY_MAX_STEPS + 1):
        step = (w + math.log(w) - ln_x) / (1.0 + 1.0 / w)
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
) -> Iterator[tuple[float, Illumination, RangeColumn]]:
    """Solve the range over the (N_s, frequency, mode) product grid of a
    scenario: the grid, the configured frequencies and the modes CI, QI.

    Yields one ``(frequency_hz, mode, column)`` per (frequency, mode),
    frequency first, then CI before QI; ``column`` is the
    :class:`RangeColumn` of :meth:`RangeChain.solutions` over the grid, so
    each of its points equals ``chain.solve(n_s, mode)``, and its range is
    ``None`` where no detection range exists, never a zero range.  The call
    validates the grid and builds one chain ``range_chain(config, f,
    constants)`` per frequency, so an invalid grid, a frequency outside the
    table span or an unusable frequency raises before any column; the
    columns are solved lazily.
    """
    grid = _validated_grid(n_s_grid)
    chains = [(f_hz, range_chain(config, f_hz, constants)) for f_hz in config.frequencies_hz]
    return (
        (f_hz, mode, chain.solutions(grid, mode)) for f_hz, chain in chains for mode in Illumination
    )


def sweep_ratio(n_s_grid: Sequence[float]) -> Iterator[tuple[float, float]]:
    """Classical/quantum correlation ratio over an N_s grid, as lazy
    ``(n_s, ratio)`` rows.  The grid is validated on the call."""
    from .quantum_states import correlation_ratio

    grid = _validated_grid(n_s_grid)
    return ((n_s, correlation_ratio(n_s)) for n_s in grid)
