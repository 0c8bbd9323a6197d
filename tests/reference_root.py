"""High-precision reference root of the range equation for the tests.

The package forms the maximum range in floating point, from a fourth root
(lossless) or from Lambert W0 (attenuated).  This module recomputes the same
root in ``decimal`` at 70 significant digits, taking the chain's float fields
and N_s as exact inputs, so a test can bound the package's root in ulps:

    threshold = SNR_min                    (CI)
              = SNR_min * N_s / (1 + N_s)  (QI, i.e. SNR_min / (1 + 1/N_s))
    R_free    = sqrt(sqrt(head * N_s / (denominator * threshold)))
    R_max     = R_free                     (gamma = 0)
              = W0(x) / (a/2), x = (a/2) * R_free, a = gamma * ln(10) / 1e4

W0 solves w + ln w = ln x by Newton's method.  That function is increasing
and concave in w, so from a start below the root (x / (1 + x) <= W0(x))
every step stays below it and the iterates increase to it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

from qi_rangekit.range_solver import Illumination, RangeChain

DIGITS = 70


def reference_root(chain: RangeChain, n_s: float, mode: Illumination) -> Decimal:
    """The exact maximum range of ``chain`` at ``n_s`` in ``mode``, to
    about :data:`DIGITS` significant digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        n_s_exact = Decimal(n_s)
        threshold = Decimal(chain.snr_min)
        if mode is Illumination.QI:
            threshold = threshold * n_s_exact / (1 + n_s_exact)
        r_free_4 = Decimal(chain.head) * n_s_exact / (Decimal(chain.denominator) * threshold)
        r_free = r_free_4.sqrt().sqrt()
        half_a = Decimal(chain.gamma_db_per_km) * Decimal(10).ln() / 20000
        if half_a == 0:
            return r_free
        x = half_a * r_free
        ln_x = x.ln()
        w = x / (1 + x)
        for _ in range(200):
            step = (w + w.ln() - ln_x) / (1 + 1 / w)
            w -= step
            if abs(step) <= w.scaleb(-(DIGITS - 5)):
                break
        else:
            raise ArithmeticError(f"W0 of {x} did not converge")
        return w / half_a


def ulps(value: float, reference: Decimal) -> float:
    """Distance of ``value`` from ``reference`` in units of the last place of
    the float nearest to ``reference``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference))))
