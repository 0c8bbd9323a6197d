"""Exception types shared across the package, and its one reader and one
writer of files.

Everything derives from :class:`RangeKitError` so callers (notably the CLI)
can map any package failure to a stable exit code in one place.  Every file
the package opens goes through :func:`_read_file` or :func:`_write_file`, so
each file error names the path as given, in one of three forms:
``cannot read <kind> <path>: <reason>`` for a file that cannot be opened or
decoded as UTF-8, ``<kind> <path>: <message>`` for one whose contents are
malformed or invalid, and ``cannot write <path>: <reason>`` for an output.
"""

from __future__ import annotations

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
    """A covariance matrix is not positive semi-definite beyond round-off.

    Carries the offending (most negative) eigenvalue.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NoDetectionError(RangeKitError):
    """The target is undetectable even at near-zero range."""


class ConfigError(RangeKitError, ValueError):
    """A scenario configuration file could not be loaded or validated."""


def _read_file(path: str | PathLike, kind: str, parse: Callable[[TextIO], T],
               *errors: type[RangeKitError]) -> T:
    """``parse`` of the open UTF-8 file at ``path``, a ``<kind>`` file.  An
    ``OSError``, or a ``UnicodeDecodeError`` also where ``parse`` iterates
    the lines, raises the first of ``errors`` as ``cannot read <kind> <path>:
    …``; one of ``errors`` from ``parse`` is raised again as its own type,
    prefixed ``<kind> <path>: ``.  Any other error, such as that of a table a
    config names, passes as it is."""
    try:
        with open(path, encoding="utf-8") as handle:
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
