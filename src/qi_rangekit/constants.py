"""Physical constants.

The default constant set is deliberately truncated to 3 significant figures
(h = 6.63e-34 J s, k_B = 1.38e-23 J/K, c = 3e8 m/s) so that the worked
link-budget numbers this package reproduces come out at their quoted
precision.  A CODATA set is available for callers who prefer exact SI values;
every function that touches a constant takes an optional ``constants``
argument and defaults to :data:`TEXTBOOK`.
"""

from __future__ import annotations

from ._record import Record


class PhysicalConstants(Record):
    """Planck constant ``h`` [J s], Boltzmann constant ``k_b`` [J/K], speed of
    light ``c`` [m/s]."""

    __slots__ = _fields = ("h", "k_b", "c")


TEXTBOOK = PhysicalConstants(h=6.63e-34, k_b=1.38e-23, c=3.0e8)

CODATA = PhysicalConstants(h=6.62607015e-34, k_b=1.380649e-23, c=299792458.0)
