"""Maximum-range solutions for classical and quantum illumination.

With no atmospheric loss the range equation closes in a fourth root,

    R_max = (sigma * G * A * M * N_s / ((4*pi)^2 * N_B * SNR_min))^(1/4),

and the quantum transmitter extends it by (1 + 1/N_s)^(1/4).  As
N_s * (1 + 1/N_s) = N_s + 1, the quantum range at N_s is the classical range
at N_s + 1: each transmitter adds its extra photons
(:attr:`Illumination.extra_photons`, 0 for CI and 1 for QI) to N_s, and the
chain is solved at photons = N_s + extra against SNR_min itself.  With
absorption the round-trip form factor is F(R)^2 = exp(-2aR),
a = gamma * ln(10) / 10^4 (gamma in dB/km, R in m), and the threshold
crossing solves R^4 * exp(2aR) = R_free^4.  That equation has a closed form
via Lambert W0, the principal branch of w * e^w = x,

    R_max = (2/a) * W0(a * R_free / 2),

with W0 evaluated by Halley's method in plain floating point.

The (4*pi) exponent is fixed at 2: back-substituting the transmissivity
into the effective SNR gives (4*pi)^2 in the denominator, and that
convention also reproduces the expected range magnitudes (137 m CI and
435 m QI at 1 THz, N_s = 0.01).  :func:`range_chain` builds it, and the
fourth power sometimes seen in print is one
``chain.replace(sigma_gain_area=chain.sigma_gain_area / (4*pi)**2)`` away.

The range chain of a scenario at one frequency is one object,
:class:`RangeChain`, built by :func:`range_chain`.  Its solve kernel,
:meth:`RangeChain.solutions`, solves one column: one mode across a grid of
N_s values, in one loop that fills and returns two plain lists, the roots
and the statuses (no object per point), with the chain's fields, their
fourth roots and the mode test read once per column.  ``range`` solves a
one-point column through :meth:`RangeChain.solve`; :func:`sweep_range`
builds one chain per configured frequency when called and solves its
columns lazily, one per (frequency, mode), so a sweep row and the one-point
solution are the same computation.

Where R_free^4 = head * photons / (denominator * SNR_min) overflows, the
kernel takes the same closed form in another arrangement: the lossless
R_free^4 as head / denominator * photons / SNR_min, and, with absorption,
R_free as a quotient of fourth roots that are each a float, so an attenuated
root that is a float comes out as one.  Every attenuated root is
W0(x) / (a/2), x = a * R_free / 2, with W0 taken from ln x where x is
beyond Halley's range, and R_free where x is below the normal floats (there
W0(x) / x rounds to 1).  Where the lossless R_free^4 is still beyond the
float range (R_free above ~1.3e77 m, although R_free itself may be a
float), the root reads inf, and so it does with absorption where R_free
itself is beyond the float range.

The kernel computes the root and one status per point, and nothing else:

* ``ok`` -- a far-field root;
* ``no_detection`` -- no root: as SNR_eff(R) strictly decreases, "below
  threshold at near-zero range" is "root below near-zero range", so this is
  read off the root;
* ``near_field`` -- a root where eta > 1.  At the root eta * M * photons /
  N_B is SNR_min, so that is SNR_min * N_B > M * photons, with no range
  evaluation;
* ``overflow`` -- the root is inf: the lossless R_free^4 overflows, or,
  with absorption, R_free itself does.

:func:`sweep_range` adds ``out_of_span`` for a frequency outside the table
span.  The status is the one near-field decision: :meth:`RangeChain.solve`
refuses a ``near_field`` point, and :meth:`RangeChain.link_at` only
evaluates F, eta and the closure residual at a range from the same chain,
denominator included.  The closure of the forward chain at the root is
checked once, in the tests, against a high-precision reference root.

This module holds all of the link budget that the range path runs: the
antenna gain G = 4*pi*A / lambda^2 (:func:`antenna_gain`).  F is
:func:`qi_rangekit.atmosphere.form_factor`, which :meth:`RangeChain.link_at`
imports when called, as an attenuated :func:`range_chain` imports
``gamma_at``, so a lossless sweep never loads ``atmosphere``.  The (4*pi)^2
transmissivity/SNR chain, SNR = eta * N_s / N_B, is kept in the tests as the
reference the closure tests compare against.
"""

from __future__ import annotations

import enum
import math
import sys
from operator import le

from ._record import Record
from .constants import TEXTBOOK, PhysicalConstants
from .errors import DomainError, FrequencySpanError, NoDetectionError, UnphysicalGeometryError
from .errors import _as_number, _require_count, _require_non_negative, _require_positive
from .radiometry import _in_float_range, _ldexp_quotient

# true for static checkers only: the annotations' names cost no import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

    from .config import ScenarioConfig

_FOUR_PI = 4.0 * math.pi
# a [1/m] per gamma [dB/km], where F(R)^2 = exp(-2aR).
_A_PER_GAMMA = math.log(10.0) / 1e4

# "Near-zero range" [m] for the no-detection test.
_NEAR_ZERO_RANGE_M = 1e-6
# The smallest normal float.
_MIN_NORMAL = sys.float_info.min
# Halley's method from w = log1p(x) takes at most 6 steps for x in [1e-15, 1e10].
_HALLEY_REL_TOL = 1e-15
_HALLEY_MAX_STEPS = 16
# _lambert_w0 takes x up to this; its Halley step forms w * e^w, which
# overflows for x above ~1e305.  Above it W0 comes from ln x.
_X_HALLEY_MAX = 1e217


class Illumination(enum.Enum):
    """Transmitter choice: classical (coherent pair) or quantum (entangled pair)."""

    CI = "ci"
    QI = "qi"

    @property
    def extra_photons(self) -> float:
        """Photons the transmitter adds to N_s in the range equation: 0 for
        CI, 1 for QI, whose (1 + 1/N_s) gain makes N_s act as N_s + 1."""
        return 1.0 if self is Illumination.QI else 0.0


def antenna_gain(
    aperture_m2: float, f_hz: float, constants: PhysicalConstants = TEXTBOOK
) -> float:
    """Antenna gain G = 4*pi*A/lambda^2 = 4*pi*A*f^2/c^2 (dimensionless).
    Raises :class:`DomainError` where f^2 overflows (f above ~1.34e154 Hz),
    where the constants' c^2 overflows or underflows to 0, and, naming G,
    where G itself overflows or underflows to 0."""
    aperture_m2 = _require_positive("antenna aperture", aperture_m2)
    f_hz = _require_positive("frequency", f_hz)
    try:
        f_squared = f_hz**2
    except OverflowError:
        raise DomainError(f"frequency {f_hz!r} Hz is too large: f^2 overflows") from None
    try:
        return _in_float_range("antenna gain G = 4*pi*A*f^2/c^2", f"A = {aperture_m2!r} m^2, "
                               f"f = {f_hz!r} Hz, c = {constants.c!r} m/s",
                               _FOUR_PI * aperture_m2 * f_squared / constants.c**2)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"speed of light c = {constants.c!r} m/s: c^2 overflows or underflows to 0"
        ) from None


class RangeChain(Record):
    """The range chain of a scenario at one frequency,
    SNR_eff(R) = head * photons / denominator * F(R)^2 / R^4, from its
    fields ``sigma_gain_area`` sigma*G*A, ``pulse_count`` M, ``n_b`` N_B,
    ``snr_min`` the configured threshold (linear) and ``gamma_db_per_km``.
    Each input is a field once: ``head`` = sigma*G*A*M and ``denominator``
    = (4*pi)^2 * N_B are derived from the fields on every construction, so a
    chain changed by :meth:`~Record.replace` solves as one built fresh.

    Built by :func:`range_chain`; the mode enters only through the
    photons the solve kernel forms per point, N_s + extra photons (N_s + 1
    for the quantum transmitter), so one chain serves both modes at every
    N_s.
    """

    _fields = ("gamma_db_per_km", "n_b", "sigma_gain_area", "snr_min", "pulse_count")
    __slots__ = _fields + ("head", "denominator")

    def _check(self) -> None:
        n_b = _require_positive("n_b", self.n_b)
        # M and the number rule first: a string times M = 10^9 is a 1 GB string
        pulse_count = _require_count("pulse_count", self.pulse_count, 1, sys.float_info.max)
        head = _as_number("sigma_gain_area", self.sigma_gain_area) * pulse_count
        object.__setattr__(self, "head", _require_positive(
            "head (sigma_m2 * G * aperture_m2 * M)", head))
        object.__setattr__(self, "denominator", _require_positive(
            "denominator ((4*pi)^k * N_B)", _FOUR_PI**2 * n_b))
        _require_positive("snr_min", self.snr_min)
        _require_non_negative("gamma", self.gamma_db_per_km)

    def solve(self, n_s: float, mode: Illumination) -> float:
        """Maximum range with absorption: the unique R where SNR_eff(R), at
        N_s + the mode's extra photons, crosses SNR_min.

        The one-point column of :meth:`solutions`, with N_s checked, and
        the root only where its status is ``ok``.  Raises
        :class:`NoDetectionError` when the target is already below threshold
        at near-zero range, :class:`DomainError` when N_s is so large that
        the chain overflows and no finite range comes out, and
        :class:`UnphysicalGeometryError` when the root lies in the near
        field, where eta = SNR_min * N_B / (M * photons) exceeds 1.
        """
        n_s = _require_positive("n_s", n_s)
        [root], [status] = self.solutions((n_s,), mode)
        if status == "no_detection":
            raise NoDetectionError(
                f"SNR_eff at {_NEAR_ZERO_RANGE_M} m is already below threshold; "
                "no detection range exists"
            )
        if status == "overflow":
            raise DomainError(
                f"n_s = {n_s!r} overflows the range chain: head * photons / "
                "((4*pi)^k * N_B * SNR_min), photons N_s (CI) or N_s + 1 (QI), "
                "exceeds the float range"
            )
        if status == "near_field":
            eta = self.snr_min * self.n_b / (self.pulse_count * (n_s + mode.extra_photons))
            raise UnphysicalGeometryError(
                f"computed transmissivity {eta!r} > 1 at range {root!r} m; "
                "the far-field model does not apply this close to the antenna"
            )
        return root

    def solutions(
        self, n_s_grid: Iterable[float], mode: Illumination
    ) -> tuple[list[float | None], list[str]]:
        """Solve one column: the maximum range and the status at each N_s of
        ``n_s_grid`` in ``mode``, as two lists with one entry per N_s,
        ``(r_max_m, status)``.  ``r_max_m`` holds the closed-form root
        (``None`` where none exists) and ``status`` the point's outcome:
        ``"ok"``, ``"no_detection"``, ``"near_field"`` or ``"overflow"``
        (range inf); see the module docstring.

        Closed form (2/a) * W0(a * R_free / 2).  With gamma = 0 that is
        R_free itself.  Each grid value takes the package's positive rule,
        raising :class:`DomainError` that names ``grid values`` as it is
        reached; an exact float in range pays one type test and one chained
        comparison.
        """
        head, denominator, snr_min = self.head, self.denominator, self.snr_min
        n_b, pulse_count = self.n_b, self.pulse_count
        half_a = 0.5 * self.gamma_db_per_km * _A_PER_GAMMA
        # fourth roots that are each a float, for R_free where R_free^4 overflows
        head_root = head**0.25
        under_root = denominator**0.25 * snr_min**0.25
        extra = mode.extra_photons
        r_max_m: list[float | None] = []
        statuses: list[str] = []
        add_r, add_status = r_max_m.append, statuses.append
        inf, near_zero = math.inf, _NEAR_ZERO_RANGE_M
        for n_s in n_s_grid:
            if type(n_s) is not float or not 0.0 < n_s < inf:
                n_s = _require_positive("grid values", n_s)
            photons = n_s + extra
            if (ratio := head * photons / denominator / snr_min) != inf:
                root = ratio**0.25
            elif half_a > 0.0:
                root = head_root * photons**0.25 / under_root
            else:
                root = (head / denominator * photons / snr_min) ** 0.25
            # not gamma > 0: a subnormal gamma leaves a/2 = 0; an R_free past
            # the float range stays inf
            if half_a > 0.0 and root != inf:
                root = _attenuated_root(half_a, root)
            if root < near_zero:
                root, status = None, "no_detection"
            elif root == inf:
                status = "overflow"
            elif snr_min * n_b > pulse_count * photons:
                status = "near_field"
            else:
                status = "ok"
            add_r(root)
            add_status(status)
        return r_max_m, statuses

    def link_at(self, r_m: float, n_s: float, mode: Illumination) -> tuple[float, float, float]:
        """``(F, eta, residual_db)`` at range ``r_m`` on the chain :meth:`solve`
        solves at ``n_s`` in ``mode``: the one-way form factor, the
        transmissivity eta = head * F^2 * N_B / (denominator * R^4 * M), which
        does not depend on N_s, and the closure residual |10 log10(SNR_eff(R)
        / SNR_min)|, 0 at an exact root.  SNR_eff(R) / SNR_min = head * F^2 *
        photons / (denominator * R^4 * SNR_min), photons N_s + the mode's
        extra photons, does not pass through eta, so the residual keeps its
        digits where eta is subnormal.  Each quotient is formed from mantissas
        and exponents, so it reads inf or 0 (the residual inf) only where it
        does so itself.  It only evaluates: eta may exceed 1 at a range in the
        near field, which :meth:`solve` refuses for a root.
        """
        from .atmosphere import form_factor

        r_m = _require_positive("range", r_m)
        photons = _require_positive("n_s", n_s) + mode.extra_photons
        f_form = form_factor(self.gamma_db_per_km, r_m)
        head_f2 = (self.head, f_form, f_form)
        denominator_r4 = (self.denominator, r_m, r_m, r_m, r_m)
        eta = _ldexp_quotient((*head_f2, self.n_b), (*denominator_r4, self.pulse_count))
        closure = _ldexp_quotient((*head_f2, photons), (*denominator_r4, self.snr_min))
        residual_db = abs(10.0 * math.log10(closure)) if 0.0 < closure < math.inf else math.inf
        return f_form, eta, residual_db


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
    gain = antenna_gain(config.aperture_m2, f_hz, constants)
    return RangeChain(
        gamma_db_per_km=gamma,
        n_b=n_b,
        sigma_gain_area=config.sigma_m2 * gain * config.aperture_m2,
        snr_min=config.snr_min_linear,
        pulse_count=config.pulse_count,
    )


def _attenuated_root(half_a: float, r_free: float) -> float:
    """The attenuated root (2/a) * W0(x), x = a * R_free / 2, of ``half_a``
    = a/2 > 0.  Where x is not a normal float, W0(x) / (a/2) would lose
    digits, but W0(x) / x rounds to 1, so the root is R_free."""
    x = half_a * r_free
    if x < _MIN_NORMAL:
        return r_free
    if x <= _X_HALLEY_MAX:
        return _lambert_w0(x) / half_a
    # x may exceed the float range: Newton's method on w + ln w = ln x from
    # w = ln x - ln ln x
    ln_x = math.log(half_a) + math.log(r_free)
    w = ln_x - math.log(ln_x)
    for _ in range(_HALLEY_MAX_STEPS):
        step = (w + math.log(w) - ln_x) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= _HALLEY_REL_TOL * w:
            break
    return w / half_a


def _lambert_w0(x: float) -> float:
    """Principal-branch Lambert W of ``x >= 0`` (w * e^w = x), by Halley's
    method from w = log1p(x)."""
    w = math.log1p(x)
    for _ in range(_HALLEY_MAX_STEPS):
        e_w = math.exp(w)
        f = w * e_w - x
        step = f / (e_w * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= _HALLEY_REL_TOL * w:
            break
    return w


def _validated_grid(n_s_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(_require_positive("grid values", v) for v in n_s_grid)
    if not grid:
        raise DomainError("grid must not be empty")
    if any(map(le, grid[1:], grid)):
        raise DomainError("grid must be strictly increasing")
    return grid


def sweep_range(
    config: ScenarioConfig,
    n_s_grid: Sequence[float],
    *,
    constants: PhysicalConstants = TEXTBOOK,
) -> Iterator[tuple[float, Illumination, tuple[list[float | None], list[str]]]]:
    """Solve the range over the (N_s, frequency, mode) product grid of a
    scenario: the grid, the configured frequencies and the modes CI, QI.

    Yields one ``(frequency_hz, mode, (r_max_m, status))`` per (frequency,
    mode), frequency first, then CI before QI; the pair is the two lists
    :meth:`RangeChain.solutions` returns over the grid, so each of its
    points is the one-point solve, and at a frequency outside the table span
    it holds range ``None`` and status ``"out_of_span"`` at every point.
    The call validates the grid and builds one chain ``range_chain(config,
    f, constants)`` per frequency, so an invalid grid or any other unusable
    frequency raises before any column; the columns are solved lazily.
    """
    grid = _validated_grid(n_s_grid)
    chains = []
    for f_hz in config.frequencies_hz:
        try:
            chains.append((f_hz, range_chain(config, f_hz, constants)))
        except FrequencySpanError:
            chains.append((f_hz, None))
    return (
        (f_hz, mode, chain.solutions(grid, mode) if chain is not None
         else ([None] * len(grid), ["out_of_span"] * len(grid)))
        for f_hz, chain in chains for mode in Illumination
    )

