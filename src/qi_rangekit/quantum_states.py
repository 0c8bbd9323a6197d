"""Signal/idler correlation matrices for the two transmitter states.

Two transmitters are modeled: a two-mode squeezed vacuum (entangled
signal/idler pair from CW parametric down-conversion) and a pair of
correlated coherent states obtained by splitting one coherent field.  Each
is in block form, fixed by (S, C) (:func:`tmsv_block`, :func:`coherent_block`).
This module also builds each one's 4x4 quadrature covariance matrix from
its block, and an independent oracle that recomputes the same matrix as
expectation values in a truncated Fock space.  The oracles apply the
truncated ladder operators to the state's Fock coefficients and sum the
products; no closed-form moment enters.  Both take those coefficients from
one builder, :func:`_fock_amplitudes`: the cutoff from the tail rule, each
amplitude from its logarithm, and the vacuum where the state's parameter is
0.  They follow each state's structure: the TMSV is diagonal,
sum_n c_n |n, n>, so every quadrature applied to it lies on two
off-diagonals, and the coherent pair is a product, so every moment
factorises into two single-mode sums.  Both hold O(n_max) numbers, in plain
Python lists, so the module does not load numpy.

Both states' amplitudes are real, so the oracles need no complex number:
I maps the amplitudes to a real list and Q to -i times one, every moment
where two I's or two Q's meet is summed from real lists, and the four
cells where an I meets a Q are exactly 0.  Each dot product adds its terms
left to right (:func:`_dot`), so an oracle prints the same bytes on every
Python.

Every function that returns a matrix returns it as a tuple of four row
tuples of floats, ``cov[j][k]``; ``numpy.asarray`` turns it into a 4x4 array.

Matrix convention
-----------------
Rows/columns are ordered (I_S, Q_S, I_I, Q_I), the in-phase and quadrature
voltage operators of signal then idler, with I = (a + a^dag)/sqrt(2) and
Q = (a - a^dag)/(i sqrt(2)).  Each entry is *twice* the symmetrized
non-central second moment, ``2 * <(R_j R_k + R_k R_j)/2>``.  Under this
normalization the TMSV matrix has diagonal S = 2*N_s + 1 and cross entries
+/- C_q with C_q = 2*sqrt(N_s*(N_s + 1)); the coherent pair has the same
diagonal with C_c = 2*N_s.

Known model/oracle discrepancy: the coherent-pair *model* matrix assigns
S to all four diagonal entries and -C_c to the (Q_S, Q_I) entry, but the
actual product state |alpha> x |alpha> with real alpha = sqrt(N_s/2) has
unit Q-variance and zero Q-sector cross correlation.  The model matrix is
what downstream computations use; the oracle reports the product-state
moments as computed so the difference stays visible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from functools import partial, reduce
from operator import add, mul

from .errors import CutoffError, DomainError, _require_non_negative, _require_positive
from .radiometry import _root_product

# Index order of the quadrature basis.
SIGNAL_I, SIGNAL_Q, IDLER_I, IDLER_Q = 0, 1, 2, 3

#: Maximum probability mass the truncated state expansion may discard.
TAIL_TOLERANCE = 1e-12

#: Largest Fock dimension n_max + 1 an oracle may use.  The oracles hold
#: O(n_max) numbers, so the bound limits the cutoff search and the run
#: time, not memory.
MAX_FOCK_STATES = 2048

#: A 4x4 matrix as four row tuples, indexed ``cov[j][k]``.
Matrix = tuple[tuple[float, ...], ...]

_SQRT2 = math.sqrt(2.0)


def _block_covariance(s: float, c: float) -> Matrix:
    """The 4x4 matrix with diagonal blocks diag(s, s) and signal/idler
    cross blocks diag(c, -c), in the order (I_S, Q_S, I_I, Q_I)."""
    return (
        (s, 0.0, c, 0.0),
        (0.0, s, 0.0, -c),
        (c, 0.0, s, 0.0),
        (0.0, -c, 0.0, s),
    )


def _diagonal(n_s: float) -> float:
    """S = 2*n_s + 1 for a checked n_s >= 0; DomainError where it overflows
    (n_s above ~9e307), as no covariance matrix of that state is finite."""
    s = 2.0 * n_s + 1.0
    if s == math.inf:
        raise DomainError(f"n_s = {n_s!r} is too large: the diagonal 2*n_s + 1 overflows")
    return s


def tmsv_block(n_s: float) -> tuple[float, float]:
    """(S, C_q) of the entangled (two-mode squeezed vacuum) pair: diagonal
    S = 2*n_s + 1 and cross entries +/- C_q = 2*sqrt(n_s*(n_s + 1)).

    ``n_s = 0`` is admitted as the documented vacuum limit (S = 1, C_q = 0).
    Raises :class:`DomainError` where S overflows.
    """
    n_s = _require_non_negative("n_s", n_s)
    s = _diagonal(n_s)
    return s, 2.0 * _root_product(n_s, n_s + 1.0)


def coherent_block(n_s: float) -> tuple[float, float]:
    """(S, C_c) of the classical transmitter's model matrix: diagonal
    S = 2*n_s + 1 and cross entries +/- C_c = 2*n_s.  It describes the
    classically correlated pair of opposite phases, a Gaussian mixture of
    |alpha>|alpha*> with |alpha|^2 ~ Exp(mean n_s), not a coherent state,
    although the paper's abstract says "coherent state" (see the module
    docstring for the product coherent state the oracle computes).  Raises
    :class:`DomainError` where S overflows.
    """
    n_s = _require_non_negative("n_s", n_s)
    return _diagonal(n_s), 2.0 * n_s


def tmsv_covariance(n_s: float) -> Matrix:
    """Covariance matrix of the entangled pair, built from :func:`tmsv_block`."""
    return _block_covariance(*tmsv_block(n_s))


def coherent_covariance(n_s: float) -> Matrix:
    """Model covariance matrix of the classical transmitter, built from
    :func:`coherent_block`: the opposite-phase mixture of |alpha>|alpha*>
    with |alpha|^2 ~ Exp(mean n_s), not a coherent state."""
    return _block_covariance(*coherent_block(n_s))


def correlation_ratio(n_s: float) -> float:
    """Classical-to-quantum cross-correlation ratio C_c/C_q.

    Equals (1 + 1/n_s)^(-1/2), taken as sqrt(n_s / (n_s + 1)), the same
    N_s + 1 as the quantum range: strictly inside (0, 1) and monotone
    increasing in n_s, approaching 1 from below as n_s grows.
    """
    n_s = _require_positive("n_s", n_s)
    return math.sqrt(n_s / (n_s + 1.0))


def _tmsv_tail(n_s: float, n_max: int) -> float:
    """Thermal-weight mass sum_{n > n_max} n_s^n / (n_s + 1)^(n+1) of the TMSV."""
    return (n_s / (n_s + 1.0)) ** (n_max + 1)


def _poisson_tail(lam: float, n_max: int) -> float:
    """Upper-tail Poisson mass P[N > n_max] for mean ``lam``, non-increasing
    in ``n_max``, summed upward from n_max + 1: at or above the mean the terms
    only fall, so the small tails the cutoff rule tests carry no cancellation
    (a first term that underflows counts as 0).  Below the mean it reads 1.0:
    the true tail is at least 1/2 there, as a Poisson median is at least
    lam - ln 2 > n_max (Choi, Proc. AMS 121, 245, 1994), so the rule decides
    the same."""
    if lam == 0.0:
        return 0.0
    k = n_max + 1
    if k < lam:
        return 1.0
    term = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
    total = 0.0
    while term > total * 1e-18 + 1e-300:
        total += term
        k += 1
        term *= lam / k
    return total


def _smallest_cutoff(n_s: float, tail) -> int:
    """Smallest n_max < MAX_FOCK_STATES with tail(n_max) < TAIL_TOLERANCE, by
    bisection over the non-increasing ``tail`` of the state at ``n_s``."""
    cutoffs = range(1, MAX_FOCK_STATES)
    index = bisect_left(cutoffs, True, key=lambda n: tail(n) < TAIL_TOLERANCE)
    if index == len(cutoffs):
        raise CutoffError(
            f"the tail rule at n_s={n_s!r} needs more than the oracle bound of "
            f"{MAX_FOCK_STATES} Fock states"
        )
    return cutoffs[index]


def _fock_amplitudes(n_s: float, x: float, tail, log_amplitude) -> list[float]:
    """The Fock amplitudes [exp(log_amplitude(n, x)) for n = 0 .. n_max] of a
    single-mode state with parameter ``x`` >= 0 (the TMSV's N_s, or the
    coherent amplitude's mean photon number), where ``n_max`` is the
    smallest cutoff at which ``tail(x, n_max)`` meets the tail rule
    (:func:`_smallest_cutoff`, which names ``n_s`` where none does).  At
    x = 0 the state is the vacuum [1, 0, ..., 0], where log(x) is undefined."""
    n_max = _smallest_cutoff(n_s, partial(tail, x))
    if x > 0.0:
        return [math.exp(log_amplitude(n, x)) for n in range(n_max + 1)]
    return [1.0] + [0.0] * n_max


def _ladder_pair(v: Sequence[float]) -> tuple[list[float], list[float]]:
    """(a v, a^dag v) for one mode's Fock coefficients ``v[n]``, truncated.

    a|n> = sqrt(n)|n-1> and a^dag|n> = sqrt(n+1)|n+1> shift the coefficients
    by one level with a sqrt(n) weight, with a^dag|n_max> dropped, so they
    are applied as shifted lists, not as matrices.
    """
    root = [math.sqrt(n) for n in range(1, len(v))]
    lowered = [r * x for r, x in zip(root, v[1:])] + [0.0]
    raised = [0.0] + [r * x for r, x in zip(root, v)]
    return lowered, raised


def _quadratures(
    lowered: Sequence[float], raised: Sequence[float]
) -> tuple[list[float], list[float]]:
    """(I v, i Q v) from a v and a^dag v, as (a v +/- a^dag v)/sqrt(2).

    I = (a + a^dag)/sqrt(2) and Q = (a - a^dag)/(i sqrt(2)), so for real v
    both lists are real: Q v is -i times the second.
    """
    return ([(x + y) / _SQRT2 for x, y in zip(lowered, raised)],
            [(x - y) / _SQRT2 for x, y in zip(lowered, raised)])


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    """sum_n x_n y_n, added left to right from 0.0.

    That is how CPython up to 3.11 adds floats in the built-in ``sum``, and
    it gives the same bytes on every Python.  The ``sum`` of 3.12 on and
    ``math.fsum`` compensate the round-off, so a term lost beside a large
    one comes back: ``[1e16, 1.0, -1e16]`` adds to 0.0 here, to 1.0 there.
    """
    return reduce(add, map(mul, x, y), 0.0)


def _moment_matrix(applied, inner) -> Matrix:
    """4x4 matrix of 2x symmetrized moments from the four states R_j|psi>,
    each held as the real list r_j with R_j|psi> = r_j for an I and -i r_j
    for a Q (:func:`_quadratures`).

    <psi| R_j R_k |psi> = <R_j psi | R_k psi>.  Where two I's or two Q's
    meet, the phases cancel and it is the real ``inner(applied[j],
    applied[k])``, the symmetrized moment.  Where an I meets a Q it is
    +/- i times a real number, whose real part, the symmetrized moment, is
    0, so those four cells stay 0 and are not computed.
    """
    cov = [[0.0] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(j, 4, 2):  # k - j even: an I with an I, or a Q with a Q
            cov[j][k] = cov[k][j] = 2.0 * inner(applied[j], applied[k])
    return tuple(tuple(row) for row in cov)


def _diagonal_moments(coeffs: Sequence[float]) -> Matrix:
    """Moment matrix of the two-mode state sum_n c_n |n, n>, real c_n.

    A ladder operator on either mode moves every coefficient of the diagonal
    state one step off the diagonal, so each R_j|psi> lives on the two
    off-diagonals (n, n+1) and (n+1, n) of the coefficient matrix and is
    stored as those two length-n_max lists, concatenated.  The lists are the
    shifted coefficients :func:`_ladder_pair` gives for ``coeffs``, with
    a^dag|n_max> dropped there.  The inner product of two such states is the
    plain dot product of the lists.
    """
    lowered, raised = _ladder_pair(coeffs)
    upper, lower = lowered[:-1], raised[1:]  # sqrt(n+1) c_{n+1}, sqrt(n+1) c_n
    zero = [0.0] * len(upper)
    # (above, below) the diagonal for a_S, a_S^dag, a_I, a_I^dag.
    i_s, q_s = _quadratures(upper + zero, zero + lower)
    i_i, q_i = _quadratures(zero + upper, lower + zero)
    return _moment_matrix((i_s, q_s, i_i, q_i), _dot)


def _product_moments(a: Sequence[float], b: Sequence[float]) -> Matrix:
    """Moment matrix of the product state (sum_m a_m|m>) x (sum_n b_n|n>),
    real a_m and b_n.

    Signal operators act on ``a`` and idler operators on ``b`` alone, so each
    R_j|psi> is kept as its two single-mode factors and every moment is the
    product of two single-mode dot products.
    """
    applied = [(r_a, b) for r_a in _quadratures(*_ladder_pair(a))]
    applied += [(a, r_b) for r_b in _quadratures(*_ladder_pair(b))]
    return _moment_matrix(applied, lambda x, y: _dot(x[0], y[0]) * _dot(x[1], y[1]))


def tmsv_covariance_oracle(n_s: float) -> Matrix:
    """Recompute the entangled-pair covariance by truncated Fock sums.

    The state is sum_n c_n |n, n> with c_n = sqrt(n_s^n / (n_s + 1)^(n+1));
    all sixteen second moments are summed from its n_max + 1 coefficients
    (see :func:`_diagonal_moments`).  ``n_s = 0`` is the vacuum, c = [1, 0, ...].
    ``n_max`` is the smallest cutoff below MAX_FOCK_STATES that satisfies
    the tail rule, found by bisection over the geometric tail
    (n_s/(n_s + 1))^(n_max + 1); CutoffError where none does (n_s from 74
    up, including where n_s/(n_s + 1) rounds to 1).
    """
    n_s = _require_non_negative("n_s", n_s)
    # sqrt(n_s^n / (n_s + 1)^(n+1)) in log space; the powers overflow past n ~ 300.
    return _diagonal_moments(_fock_amplitudes(
        n_s, n_s, _tmsv_tail, lambda n, x: 0.5 * (n * math.log(x) - (n + 1) * math.log1p(x))))


def coherent_covariance_oracle(n_s: float) -> Matrix:
    """Second-moment matrix of the literal product coherent state.

    Uses alpha = sqrt(n_s/2), real and positive, for both modes; each
    moment is a product of two single-mode truncated sums over the Poisson
    amplitudes (see :func:`_product_moments`).  The I-sector entries
    reproduce the model matrix (2*n_s + 1 diagonal, 2*n_s cross); the
    Q-sector comes out as the product state actually gives it (variance 1,
    zero cross correlation), which is the documented deviation from the
    model's -C_c entry.  ``n_max`` comes from the tail rule as in
    :func:`tmsv_covariance_oracle`, with the Poisson tail of mean n_s/2 in
    place of the geometric one.
    """
    n_s = _require_non_negative("n_s", n_s)
    lam = n_s / 2.0  # photons per mode, |alpha|^2
    # exp(-lam/2) * alpha^n / sqrt(n!) in log space; alpha = sqrt(lam).
    amplitudes = _fock_amplitudes(n_s, lam, _poisson_tail, lambda n, x: (
        -x / 2.0 + 0.5 * n * math.log(x) - 0.5 * math.lgamma(n + 1)))
    return _product_moments(amplitudes, amplitudes)
