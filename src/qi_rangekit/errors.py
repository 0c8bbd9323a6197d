"""Exception types shared across the package, its one number rule and one
count rule, and its one reader and one writer of files.

Everything derives from :class:`RangeKitError` so callers (notably the CLI)
can map any package failure to a stable exit code in one place.  Every file
the package opens goes through :func:`_read_file` or :func:`_write_file`, so
each file error names the path as given, in one of three forms:
``cannot read <kind> <path>: <reason>`` for a file that cannot be opened or
decoded as UTF-8, ``<kind> <path>: <message>`` for one whose contents are
malformed or invalid, and ``cannot write <path>: <reason>`` for an output.

:func:`_as_number` holds the package's one number rule: an ``int`` or
``float`` that is not a ``bool``, an int only where it fits a float.
:func:`_require_finite`, :func:`_require_positive` and
:func:`_require_non_negative` start from it and add the package's one
finite, positive-and-finite and non-negative-and-finite rule.
:func:`_require_count` holds the one count rule: an ``int`` that is not a
``bool``, from a lower to an upper bound, for every trial count, seed,
pulse count and grid size the package takes.  Each raises the error class
its caller names (:class:`DomainError` by default), so the config, the
attenuation table, the physical constants and the CLI raise their own
errors with the same message.  This module imports no other module of the
package, so every module, :mod:`.constants` included, checks its numbers
with these rules.
"""

from __future__ import annotations

import math

# true for static checkers only: the annotations' names cost no import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from os import PathLike
    from typing import TextIO, TypeVar

    T = TypeVar("T")


class RangeKitError(Exception):
    """Base class for all qi_rangekit errors."""


class DomainError(RangeKitError, ValueError):
    """An input is outside the physical/mathematical domain of an operation."""


class CutoffError(RangeKitError, ValueError):
    """No Fock cutoff below ``MAX_FOCK_STATES`` meets the oracles' tail rule."""


class TableParseError(RangeKitError, ValueError):
    """An attenuation CSV is unreadable or malformed (bad header, unparsable row)."""


class TableValidationError(RangeKitError, ValueError):
    """An attenuation table violates its ordering/sign invariants."""


class FrequencySpanError(RangeKitError, ValueError):
    """A frequency lookup fell outside the table span; no extrapolation.

    Carries the valid span so callers can report it.
    """

    def __init__(self, message: str, span_ghz: tuple[float, float]):
        super().__init__(message)
        self.span_ghz = span_ghz


class UnphysicalGeometryError(RangeKitError, ValueError):
    """A range root lies in the near field, where the transmissivity exceeds 1
    and the far-field model does not apply: ``RangeChain.solve`` refuses a
    ``near_field`` point; ``RangeChain.link_at`` only evaluates F, eta and
    the residual."""


class CovarianceNotPSDError(RangeKitError, ValueError):
    """A matrix that must be positive semi-definite is not, beyond round-off:
    its smallest eigenvalue is below -8 ulp of max(1, its largest |entry|).
    For a detector state (``detection_mc.BlockState``) the matrix is
    V + i*Omega, so the state breaks the uncertainty relation (which also
    covers a V that is no covariance); for a plain covariance, V itself.

    Carries the offending (most negative) eigenvalue.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NoDetectionError(RangeKitError):
    """The target is undetectable even at near-zero range."""


class ConfigError(RangeKitError, ValueError):
    """A scenario configuration file could not be loaded or validated."""


def _as_number(name: str, value: object, error: type[Exception] = DomainError) -> float:
    """``value`` as a float: an int or float, not a bool, nor an int past
    the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is an integer too large for a float") from None


def _require_count(name: str, value: object, lo: float, hi: float,
                   error: type[Exception] = DomainError) -> int:
    """``value``, an int that is not a bool, from ``lo`` to ``hi``; a bound
    of -inf or inf leaves that end open."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise error(f"{name} must be >= {lo}, got {value!r}")
    if value > hi:
        raise error(f"{name} must be at most {hi}, got {value!r}")
    return value


def _require_finite(name: str, value: object, error: type[Exception] = DomainError) -> float:
    value = _as_number(name, value, error)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: object, error: type[Exception] = DomainError) -> float:
    if type(value) is not float:  # an exact float, as in every hot loop, needs no conversion
        value = _as_number(name, value, error)
    if not math.isfinite(value) or value <= 0.0:
        raise error(f"{name} must be positive and finite, got {value!r}")
    return value


def _require_non_negative(name: str, value: object,
                          error: type[Exception] = DomainError) -> float:
    value = _as_number(name, value, error)
    if not math.isfinite(value) or value < 0.0:
        raise error(f"{name} must be non-negative and finite, got {value!r}")
    return value


def _read_file(path: str | PathLike, kind: str, parse: Callable[[TextIO], T],
               *errors: type[RangeKitError]) -> T:
    """``parse`` of the open UTF-8 file at ``path``, a ``<kind>`` file, read
    without the byte-order mark it may start with.  An ``OSError``, or a
    ``UnicodeDecodeError`` also where ``parse`` iterates the lines, raises
    the first of ``errors`` as ``cannot read <kind> <path>: …``; one of
    ``errors`` from ``parse`` is raised again as its own type, prefixed
    ``<kind> <path>: ``.  Any other error, such as that of a table a config
    names, passes as it is."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return parse(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise errors[0](f"cannot read {kind} {path}: {exc}") from exc
    except errors as exc:
        raise type(exc)(f"{kind} {path}: {exc}") from exc


def _write_file(path: str, chunks: Iterable[str]) -> None:
    """Write the strings of ``chunks`` to ``path`` as UTF-8, one ``write``
    each; an ``OSError`` raises ``cannot write <path>: …``."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise RangeKitError(f"cannot write {path}: {exc}") from exc
