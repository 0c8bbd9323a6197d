"""Atmospheric absorption: tabulated gamma(f) and the propagation form factor.

Absorption coefficients are carried as a sorted table of
(frequency [GHz], gamma [dB/km]) knots ingested from CSV; the bundled
default transcribes anchor points of the ITU-R P.676 sea-level gaseous
attenuation curve.  Lookups interpolate linearly in log-frequency and
log-gamma, since gamma spans many decades between the microwave windows
and the absorption lines; a knot with gamma = 0 would break the log, so
segments touching one fall back to linear in gamma.  Queries outside the
table span raise rather than extrapolate.

The one-way power transmission over range R is F = 10^(-gamma * R / 10)
with R in km; round-trip paths enter the link budget as F^2 exactly once.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right

from ._record import Record
from .errors import FrequencySpanError, TableParseError, TableValidationError, _read_file
from .errors import _require_non_negative, _require_positive

# true for static checkers only: the annotations' names cost no import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

CSV_HEADER = "frequency_ghz,gamma_db_per_km"

_BUNDLED_NAME = "gaseous_attenuation_sea_level.csv"


class AttenuationTable(Record):
    """Sorted (frequency [GHz], gamma [dB/km]) knots, ``rows``, held as the
    floats their checks return, with a provenance string, ``source``."""

    __slots__ = _fields = ("rows", "source")
    _field_defaults = {"source": ""}

    def _check(self) -> None:
        if len(self.rows) < 2:
            raise TableValidationError(
                f"attenuation table needs at least 2 rows, got {len(self.rows)}"
            )
        rows = []
        for index, (f_ghz, gamma) in enumerate(self.rows, start=1):
            f_ghz = _require_positive(f"row {index}: frequency", f_ghz, TableValidationError)
            gamma = _require_non_negative(f"row {index}: gamma", gamma, TableValidationError)
            if rows and f_ghz <= rows[-1][0]:
                raise TableValidationError(
                    f"row {index}: frequency {f_ghz!r} GHz is not strictly greater "
                    f"than the previous row's {rows[-1][0]!r} GHz"
                )
            rows.append((f_ghz, gamma))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def span_ghz(self) -> tuple[float, float]:
        return (self.rows[0][0], self.rows[-1][0])


def parse_table(lines: Iterable[str], source: str = "") -> AttenuationTable:
    """Parse CSV text lines into a validated table.

    Expects the exact header ``frequency_ghz,gamma_db_per_km``; lines
    starting with ``#`` and blank lines are ignored.
    """
    rows: list[tuple[float, float]] | None = None  # a list from the header on
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            if line != CSV_HEADER:
                raise TableParseError(
                    f"line {lineno}: expected header {CSV_HEADER!r}, got {line!r}"
                )
            rows = []
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TableParseError(
                f"line {lineno}: expected 2 comma-separated fields, got {line!r}"
            )
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise TableParseError(f"line {lineno}: unparsable number in {line!r}") from exc
    if rows is None:
        raise TableParseError("empty input: missing header line")
    return AttenuationTable(rows=tuple(rows), source=source)


def load_table(path: str | os.PathLike) -> AttenuationTable:
    """Load a table from a CSV file (text in memory goes to :func:`parse_table`).

    A relative path is resolved against the working directory; the table's
    ``source`` and any error name the path as given: an unreadable file's
    message starts ``cannot read attenuation table <path>:``, a malformed or
    invalid one's ``attenuation table <path>:``.
    """
    return _read_table(path, os.fspath(path))


def _read_table(path: str | os.PathLike, source: str) -> AttenuationTable:
    # the file's lines as its handle yields them, so error line numbers are
    # the file's own
    return _read_file(path, "attenuation table", lambda lines: parse_table(lines, source),
                      TableParseError, TableValidationError)


def serialize_table(table: AttenuationTable) -> str:
    """CSV text that :func:`parse_table` reads back to an identical table.

    Floats use repr (shortest round-trip decimal), so the round trip is exact.
    """
    lines = [CSV_HEADER]
    lines.extend(f"{f!r},{g!r}" for f, g in table.rows)
    return "\n".join(lines) + "\n"


def bundled_table() -> AttenuationTable:
    """The packaged sea-level gaseous-attenuation reference table, read as
    :func:`load_table` reads a file from the data file beside this module,
    and built and checked once."""
    path = os.path.join(os.path.dirname(__file__), "data", _BUNDLED_NAME)
    return _read_table(path, f"bundled:{_BUNDLED_NAME}")


def gamma_at(table: AttenuationTable, f_hz: float) -> float:
    """Absorption coefficient [dB/km] at frequency ``f_hz``.

    Interpolates between the bracketing knots, linearly in (log f, log gamma);
    exact at knots.  Segments with a zero-gamma endpoint interpolate gamma
    linearly (still against log f).  Raises outside the table span.
    """
    f_ghz = _require_positive("frequency", f_hz) / 1e9
    lo_ghz, hi_ghz = table.span_ghz
    if not (lo_ghz <= f_ghz <= hi_ghz):
        raise FrequencySpanError(
            f"frequency {f_ghz!r} GHz outside table span [{lo_ghz!r}, {hi_ghz!r}] GHz",
            span_ghz=(lo_ghz, hi_ghz),
        )
    # first knot above f_ghz; (f_ghz, inf) sorts after a knot at f_ghz itself
    idx = bisect_right(table.rows, (f_ghz, math.inf))
    f0, g0 = table.rows[idx - 1]
    if f_ghz == f0:  # a knot, the last one included
        return g0
    f1, g1 = table.rows[idx]
    t = (math.log(f_ghz) - math.log(f0)) / (math.log(f1) - math.log(f0))
    if g0 > 0.0 and g1 > 0.0:
        return math.exp((1.0 - t) * math.log(g0) + t * math.log(g1))
    return (1.0 - t) * g0 + t * g1


def form_factor(gamma_db_per_km: float, r_m: float) -> float:
    """One-way power transmission 10^(-gamma * R_km / 10) over range ``r_m``.

    Equals 1 at zero range and decreases strictly with range when gamma > 0.
    """
    gamma_db_per_km = _require_non_negative("gamma", gamma_db_per_km)
    r_m = _require_non_negative("range", r_m)
    return 10.0 ** (-gamma_db_per_km * (r_m / 1000.0) / 10.0)
