"""Monte Carlo verification of the detector's SNR gain, and its exact tails.

The return channel and receiver are this package's own constructions (the
analytic chain stops at the SNR ratio): a lossy thermal channel mixes the
signal mode with the background, and the receiver correlates the returned
mode against the retained idler through the statistic
D = I_R*I_I - Q_R*Q_I.  Both transmitters, under both hypotheses, leave
the returned mode and the idler in a block-form state, which is carried as
one :class:`BlockState` (s_return, s_idler, c): in the package-wide "2x
symmetrized second moment" convention (``E[x x^T] = cov / 2``) the modes' I
and Q variances are s_return and s_idler, their I sectors are correlated by
c, their Q sectors by -c, and I and Q are uncorrelated.  Then
D = a*E1 + b*E2 exactly, with a >= 0 >= b and E1, E2 independent Exp(1)
variables.  That is an asymmetric Laplace law, and :func:`exact_exceedance`
gives its tails in closed form: the detector's ROC point at threshold t is
(exact_exceedance(present, t), exact_exceedance(absent, t)).

A state is checked once, when its record is built, against the uncertainty
relation V + i*Omega >= 0 that every Gaussian state satisfies (vacuum
variance 1; Weedbrook et al., Rev. Mod. Phys. 84, 621, 2012), with
Omega = diag(J, J) and J = [[0, 1], [-1, 0]] in the order
(I_R, Q_R, I_I, Q_I).  For a block-form state V + i*Omega is unitarily
equivalent to [[s_r + 1, c], [c, s_i - 1]] (+) [[s_r - 1, c], [c, s_i + 1]],
a direct sum of two real 2x2 blocks, so its smallest eigenvalue is
p + q - hypot(|p - q| + 1, 2r) with p, q, r = s_r/2, s_i/2, c/2.  That
value is at most V's own smallest eigenvalue, so the one check also makes V
a covariance.  The check allows round-off alone: it refuses a value below
-8 ulp of max(1, largest |entry|), where the worst computed on 1.2 million
physical states (both transmitters' blocks and their return states) was
-2 ulp.

:func:`detector_gain_experiment` needs only the sample mean of D under each
hypothesis.  The sum of n independent draws of D is exactly a*G1 + b*G2,
with G1, G2 independent Gamma(n, 1) variables, so each hypothesis takes two
gamma draws at any trial count, and its variance a^2 + b^2 is known
exactly; one pass per transmitter forms both from the scales.  The
absent-hypothesis variance is the same for both transmitters, so the
quantum/classical deflection-SNR ratio is exactly C_q^2/C_c^2 = 1 + 1/N_s
for any eta and N_B; the experiment's estimate is checked against that
value with a z-score wherever the classical shift is resolved at the trial
count (:data:`MIN_RESOLUTION`).

The gamma variables are drawn by Marsaglia and Tsang's method (ACM Trans.
Math. Softw. 26, 363, 2000) over Box-Muller normals, from nothing but
``random.Random(seed).random()``: that stream is the one Python promises to
keep across versions (``gammavariate`` and ``gauss`` carry no such promise),
so a fixed seed gives bit-identical output wherever libm's ``log``, ``cos``
and ``sqrt`` agree.  The module needs nothing beyond the standard library.
"""

from __future__ import annotations

import math
import random

from ._record import Record
from .errors import CovarianceNotPSDError, DomainError, _as_number, _require_count
from .errors import _require_finite, _require_non_negative, _require_positive
from .quantum_states import coherent_block, tmsv_block
from .radiometry import _root_product

#: Smallest classical mean shift, in standard errors of the shift at the
#: trial count, at which the gain experiment's ratio and first-order error
#: describe the gain.  Below it the shift is buried in noise and ``mc``
#: reports the point as unresolved.
MIN_RESOLUTION = 5.0


def _check_psd(smallest_eigenvalue: float, largest_entry: float, matrix: str) -> None:
    # Round-off in the smallest eigenvalue is a few ulp of the largest
    # |entry| (or of 1, the vacuum's variance, below it), so the bound is
    # 8 ulp of max(1, largest |entry|); on a sample of 1.2 million physical
    # states the computed value never fell below -2 ulp of that scale.
    # Below the bound the matrix is genuinely not PSD.
    if smallest_eigenvalue < -8.0 * math.ulp(max(1.0, largest_entry)):
        raise CovarianceNotPSDError(
            f"{matrix} has eigenvalue {smallest_eigenvalue!r} below the PSD tolerance",
            eigenvalue=smallest_eigenvalue,
        )


class BlockState(Record):
    """A detector state (s_return, s_idler, c), see the module docstring,
    checked once on construction: each field by the package's finite rule
    (and held as the float it returns), then the uncertainty relation by
    :func:`_check_psd` on the smallest eigenvalue of V + i*Omega, which
    raises :class:`~qi_rangekit.errors.CovarianceNotPSDError`.

    It derives the (non-field) slot ``scales``, the pair (a, b),
    a >= 0 >= b, with d = I_R*I_I - Q_R*Q_I = a*E1 + b*E2 for independent
    Exp(1) variables E1, E2.  With p, q, r = s_r/2, s_i/2, c/2, d is the sum
    of two independent copies of a product x1*x2 of Gaussians with
    covariance [[p, r], [r, q]] (the I pair, and the Q pair with r negated).
    Diagonalising one copy gives ((r + sqrt(pq))*z1^2 + (r - sqrt(pq))*z2^2)
    / 2, and two halved chi-square(1) variables add up to one Exp(1)
    variable, so a = r + sqrt(pq) and b = r - sqrt(pq); the clamps keep the
    signs where rounding leaves |r| above sqrt(pq).  Every quantity is read
    from the halved entries, so that none can overflow.
    """

    _fields = ("s_return", "s_idler", "c")
    __slots__ = _fields + ("scales",)

    def _check(self) -> None:
        for field in self._fields:
            object.__setattr__(self, field, _require_finite(field, getattr(self, field)))
        p, q, r = self.s_return / 2.0, self.s_idler / 2.0, self.c / 2.0
        _check_psd(p + q - math.hypot(abs(p - q) + 1.0, 2.0 * r), max(map(abs, self._values())),
                   "state breaks the uncertainty relation: V + i*Omega")
        root = _root_product(p, q)
        object.__setattr__(self, "scales", (max(r + root, 0.0), min(r - root, 0.0)))


def return_states(eta: float, n_b: float, s: float, c: float) -> tuple[BlockState, BlockState]:
    """(present, absent) states of a lossy thermal return channel applied to
    a transmitter of block (s, c), e.g. ``tmsv_block(n_s)``, which must
    itself be a state: it is checked as ``BlockState(s, s, c)``.

    Under the target-present hypothesis the signal mode returns with
    transmissivity ``eta`` mixed into a background of ``n_b`` photons per
    mode: its diagonal becomes 2*(eta*N_s + (1 - eta)*N_B) + 1 and the
    cross entry scales by sqrt(eta).  Under target-absent the returned mode
    is pure thermal (diagonal 2*N_B + 1) with no idler correlation.
    """
    eta = _as_number("eta", eta)
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must be in (0, 1], got {eta!r}")
    n_b = _require_non_negative("n_b", n_b)
    BlockState(s, s, c)
    # Mean photon number encoded in the signal diagonal s = 2*N_s + 1.
    # Quartering first keeps the sum finite above N_s ~4.5e307 and is exact.
    n_s = s / 4.0 + s / 4.0 - 0.5
    present = BlockState(2.0 * (eta * n_s + (1.0 - eta) * n_b) + 1.0, s, c * math.sqrt(eta))
    return present, BlockState(2.0 * n_b + 1.0, s, 0.0)


def _standard_normal(rng: random.Random) -> float:
    """One N(0, 1) draw by Box-Muller (the cosine branch) from two
    ``random()`` draws."""
    radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))  # 1 - random() is in (0, 1]
    return radius * math.cos(2.0 * math.pi * rng.random())


def _gamma(shape: float, rng: random.Random) -> float:
    """One Gamma(shape, 1) draw, shape >= 1, by Marsaglia and Tsang's method.

    With d = shape - 1/3, c = 1/sqrt(9d), a standard normal x and
    v = (1 + c*x)^3 > 0, d*v has the Gamma(shape, 1) law once accepted with
    probability exp(x^2/2 + d - d*v + d*ln v); the squeeze
    u < 1 - 0.0331*x^4 accepts most proposals without a logarithm.  The
    acceptance rate is above 0.95 for every shape >= 1.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _standard_normal(rng)
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = 1.0 - rng.random()
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2 or math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            return d * v


def _sample_mean(a: float, b: float, n: int, rng: random.Random) -> float:
    """Mean of ``n`` independent draws of D = a*E1 + b*E2, drawn as their
    exact sum a*G1 + b*G2 with G1, G2 independent Gamma(n, 1)."""
    return (a * _gamma(n, rng) + b * _gamma(n, rng)) / n


def exact_exceedance(state: BlockState, t: float) -> float:
    """Exact P(D > t) of the correlation statistic in ``state``, a
    :class:`BlockState` as :func:`return_states` gives.

    D = a*E1 + b*E2 (a >= 0 >= b) is asymmetric Laplace: its moment
    generating function 1/((1 - a*s)(1 - b*s)) splits into
    a/(a - b) / (1 - a*s) plus (-b)/(a - b) / (1 - b*s), so D equals a*E
    with probability a/(a - b) and b*E otherwise, for one Exp(1) variable
    E.  Its tails are a/(a - b) * exp(-t/a) for t >= 0 and
    1 - (-b)/(a - b) * exp(-t/b) for t < 0.  The detector's ROC point at
    threshold t is (exact_exceedance(present, t), exact_exceedance(absent, t)).
    """
    if not isinstance(state, BlockState):
        raise DomainError(f"state must be a BlockState, got {state!r}")
    a, b = state.scales
    t = _as_number("threshold", t)
    if math.isnan(t):
        raise DomainError(f"threshold must be a number, got {t!r}")
    weight = a / (a - b) if a > 0.0 else 0.0
    if t >= 0.0:
        return weight * math.exp(-t / a) if a > 0.0 else 0.0
    return 1.0 - (1.0 - weight) * math.exp(-t / b) if b < 0.0 else 1.0


class GainExperimentResult(Record):
    """Measured quantum-over-classical deflection-SNR ratio with its error.

    ``resolution`` is the exact classical mean shift in standard errors of
    its estimate at ``trials``; where it is below :data:`MIN_RESOLUTION`
    (``resolved`` is false), ratio and error describe noise, not the gain.
    """

    __slots__ = _fields = (
        "ratio", "standard_error", "deflection_quantum", "deflection_classical", "trials",
        "resolution",
    )

    @property
    def resolved(self) -> bool:
        return self.resolution >= MIN_RESOLUTION


def detector_gain_experiment(
    n_s: float,
    eta: float,
    n_b: float,
    trials: int,
    seed: int,
) -> GainExperimentResult:
    """Estimate the detector's quantum/classical SNR-gain ratio empirically.

    Builds the present/absent return states of both transmitters at the same
    (n_s, eta, n_b), then makes one pass over the two transmitters, quantum
    then classical.  Each pass forms the exact variance a^2 + b^2 of both
    hypotheses once, draws the mean of D over ``trials`` modes from its exact
    sum (two gamma draws, present then absent, from one
    ``random.Random(seed)``), and gives the deflection SNR
    (E[D|present] - E[D|absent])^2 / Var[D|absent] with the first-order
    relative variance of its estimate: the variances are exact, so only the
    mean shift carries noise.  The reported standard error of the ratio
    propagates the noise of both deflections.

    The classical pass's exact moments also give its mean shift in standard
    errors, sqrt((Var[D|present] + Var[D|absent]) / trials), as
    ``resolution``.  The first-order error holds where it is well above 1;
    below :data:`MIN_RESOLUTION` the result is reported as unresolved.
    """
    # up to 2**53 every count is exact as a float, as the draws take it
    trials = _require_count("trials", trials, 10_000, 2**53)
    n_s = _require_positive("n_s", n_s)
    n_b = _require_positive("n_b", n_b)
    rng = random.Random(_require_count("seed", seed, 0, 2**64 - 1))

    # The quantum, then the classical transmitter.  Where their blocks are
    # finite, the absent diagonal 2*N_B + 1 is the one entry of a return
    # state that can overflow.
    blocks = [block(n_s) for block in (tmsv_block, coherent_block)]
    if 2.0 * n_b + 1.0 == math.inf:
        raise DomainError(
            f"n_s = {n_s!r} with n_b = {n_b!r} overflows the return-channel covariance"
        )
    states = [return_states(eta, n_b, *block) for block in blocks]
    # No reported quantity changes when all eight scales are multiplied by
    # one factor, so they are divided by the power of two that brings the
    # largest into [0.5, 1): exactly, and so that the squares below cannot
    # overflow at any N_s.
    exponent = math.frexp(max(abs(x) for pair in states for state in pair
                              for x in state.scales))[1]

    # Each pass gives (deflection, relative variance of its estimate, exact
    # mean shift in standard errors of its estimate); the result reports the
    # last only for the classical transmitter.
    passes = []
    for present, absent in states:
        a_p, b_p, a_a, b_a = (math.ldexp(x, -exponent) for x in present.scales + absent.scales)
        var_present, var_absent = a_p * a_p + b_p * b_p, a_a * a_a + b_a * b_a
        shift = _sample_mean(a_p, b_p, trials, rng) - _sample_mean(a_a, b_a, trials, rng)
        passes.append((
            shift**2 / var_absent,
            4.0 * (var_present + var_absent) / (trials * shift**2),
            ((a_p + b_p) - (a_a + b_a)) / math.sqrt((var_present + var_absent) / trials),
        ))
    (deflection_q, rel_var_q, _), (deflection_c, rel_var_c, resolution) = passes
    ratio = deflection_q / deflection_c

    return GainExperimentResult(
        ratio=ratio,
        standard_error=ratio * math.sqrt(rel_var_q + rel_var_c),
        deflection_quantum=deflection_q,
        deflection_classical=deflection_c,
        trials=trials,
        resolution=resolution,
    )
