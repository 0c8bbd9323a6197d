"""Signal/idler correlation matrices for the two transmitter states.

Two transmitters are modeled: a two-mode squeezed vacuum (entangled
signal/idler pair from CW parametric down-conversion) and a pair of
correlated coherent states obtained by splitting one coherent field.  Each
is in block form, fixed by (S, C) (:func:`tmsv_block`, :func:`coherent_block`).
This module also builds each one's 4x4 quadrature covariance matrix from
its block, and an independent oracle that recomputes the same matrix as
expectation values in a truncated Fock space.  The oracles apply the
truncated ladder operators to the state's Fock coefficients and sum the
products; no closed-form moment enters.  They follow each state's
structure: the TMSV is diagonal, sum_n c_n |n, n>, so every quadrature
applied to it lies on two off-diagonals, and the coherent pair is a
product, so every moment factorises into two single-mode sums.  Both hold
O(n_max) numbers, in plain Python lists, so the module does not load numpy.

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
from functools import partial

from .errors import CutoffError, DomainError
from .radiometry import _require_non_negative, _require_positive

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
_I_SQRT2 = 1j * _SQRT2


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
    product = n_s * (n_s + 1.0)
    if product == math.inf:  # n_s above ~1.3e154
        return s, 2.0 * math.sqrt(n_s) * math.sqrt(n_s + 1.0)
    return s, 2.0 * math.sqrt(product)


def coherent_block(n_s: float) -> tuple[float, float]:
    """(S, C_c) of the classical transmitter's model matrix: diagonal
    S = 2*n_s + 1 and cross entries +/- C_c = 2*n_s.  It describes the
    classically correlated phase-conjugate pair, a Gaussian mixture of
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
    :func:`coherent_block`: the phase-conjugate mixture of |alpha>|alpha*>
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
    in ``n_max``.

    Summed from the term next to the cut away from the mean, where the terms
    only fall: upward from n_max + 1 at or above the mean (no cancellation
    in the small tails the cutoff rule tests), else downward from n_max as
    1 - P[N <= n_max].  A first term that underflows counts as 0.
    """
    if lam == 0.0:
        return 0.0
    upper = n_max + 1 >= lam
    k = n_max + 1 if upper else n_max
    term = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
    total = 0.0
    while term > total * 1e-18 + 1e-300:
        total += term
        term *= lam / (k + 1) if upper else k / lam
        k += 1 if upper else -1
    return total if upper else 1.0 - total


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


def _ladder_pair(v: Sequence[complex]) -> tuple[list[complex], list[complex]]:
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
    lowered: Sequence[complex], raised: Sequence[complex]
) -> tuple[list[complex], list[complex]]:
    """(I v, Q v) from a v and a^dag v: I = (a + a^dag)/sqrt(2), Q = (a - a^dag)/(i sqrt(2))."""
    return ([(x + y) / _SQRT2 for x, y in zip(lowered, raised)],
            [(x - y) / _I_SQRT2 for x, y in zip(lowered, raised)])


def _vdot(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """<x|y> = sum_n conj(x_n) y_n."""
    return sum(a.conjugate() * b for a, b in zip(x, y))


def _moment_matrix(applied, inner) -> Matrix:
    """4x4 matrix of 2x symmetrized moments from the four states R_j|psi>.

    <psi| R_j R_k |psi> = <R_j psi | R_k psi> = ``inner(applied[j],
    applied[k])``; its real part is the symmetrized moment since swapping
    j, k conjugates the product.
    """
    cov = [[0.0] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(j, 4):
            cov[j][k] = cov[k][j] = 2.0 * inner(applied[j], applied[k]).real
    return tuple(tuple(row) for row in cov)


def _diagonal_moments(coeffs: Sequence[float]) -> Matrix:
    """Moment matrix of the two-mode state sum_n c_n |n, n>.

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
    return _moment_matrix((i_s, q_s, i_i, q_i), _vdot)


def _product_moments(a: Sequence[complex], b: Sequence[complex]) -> Matrix:
    """Moment matrix of the product state (sum_m a_m|m>) x (sum_n b_n|n>).

    Signal operators act on ``a`` and idler operators on ``b`` alone, so each
    R_j|psi> is kept as its two single-mode factors and every moment is the
    product of two single-mode inner products.
    """
    applied = [(r_a, b) for r_a in _quadratures(*_ladder_pair(a))]
    applied += [(a, r_b) for r_b in _quadratures(*_ladder_pair(b))]
    return _moment_matrix(applied, lambda x, y: _vdot(x[0], y[0]) * _vdot(x[1], y[1]))


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
    n_max = _smallest_cutoff(n_s, partial(_tmsv_tail, n_s))
    if n_s > 0.0:
        # sqrt(n_s^n / (n_s + 1)^(n+1)) in log space; the powers overflow past n ~ 300.
        log_n_s, log1p_n_s = math.log(n_s), math.log1p(n_s)
        coeffs = [math.exp(0.5 * (n * log_n_s - (n + 1) * log1p_n_s)) for n in range(n_max + 1)]
    else:
        coeffs = [1.0] + [0.0] * n_max
    return _diagonal_moments(coeffs)


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
    n_max = _smallest_cutoff(n_s, partial(_poisson_tail, lam))
    if lam > 0.0:
        # exp(-lam/2) * alpha^n / sqrt(n!) in log space; alpha = sqrt(lam).
        log_lam = math.log(lam)
        amplitudes = [math.exp(-lam / 2.0 + 0.5 * n * log_lam - 0.5 * math.lgamma(n + 1))
                      for n in range(n_max + 1)]
    else:
        amplitudes = [1.0] + [0.0] * n_max
    return _product_moments(amplitudes, amplitudes)
