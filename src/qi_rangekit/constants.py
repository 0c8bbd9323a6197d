"""Physical constants.

The default constant set is deliberately truncated to 3 significant figures
(h = 6.63e-34 J s, k_B = 1.38e-23 J/K, c = 3e8 m/s) so that the worked
link-budget numbers this package reproduces come out at their quoted
precision.  A CODATA set is available for callers who prefer exact SI values;
every function that touches a constant takes an optional ``constants``
argument and defaults to :data:`TEXTBOOK`.  A constant set is checked once,
when it is built, so no function checks the constants it is given.
"""

from __future__ import annotations

import math

from . import errors
from ._record import Record


class PhysicalConstants(Record):
    """Planck constant ``h`` [J s], Boltzmann constant ``k_b`` [J/K], speed of
    light ``c`` [m/s], each checked on construction by the package's positive
    rule (:func:`~qi_rangekit.errors._require_positive`), which raises
    :class:`~qi_rangekit.errors.DomainError`, and held as the float it returns.
    A ``c`` whose square c^2, the divisor of every antenna gain, overflows or
    underflows to 0 raises :class:`~qi_rangekit.errors.DomainError` too."""

    __slots__ = _fields = ("h", "k_b", "c")

    def _check(self) -> None:
        for field in self._fields:
            object.__setattr__(self, field, errors._require_positive(field, getattr(self, field)))
        if not 0.0 < self.c * self.c < math.inf:
            raise errors.DomainError(
                f"speed of light c = {self.c!r} m/s: c^2 overflows or underflows to 0")


TEXTBOOK = PhysicalConstants(h=6.63e-34, k_b=1.38e-23, c=3.0e8)

CODATA = PhysicalConstants(h=6.62607015e-34, k_b=1.380649e-23, c=299792458.0)
