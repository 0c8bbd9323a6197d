"""Monte Carlo verification of the covariance synthesis and SNR chain.

Quadrature statistics of both transmitter states are exactly Gaussian, so
sampling the 4x4 covariance is an exact simulation.  Under the package-wide
"2x symmetrized second moment" convention, a covariance matrix ``cov``
corresponds to Gaussian vectors with ``E[x x^T] = cov / 2``;
:func:`sample_quadratures` and :func:`estimate_covariance` are inverse to
each other around that convention.

The return channel and receiver are this package's own constructions (the
analytic chain stops at the SNR ratio): a lossy thermal channel mixes the
signal mode with the background, and the receiver correlates the returned
mode against the retained idler through the statistic
D = I_R*I_I - Q_R*Q_I.  Both transmitters keep the I and Q sectors
uncorrelated, so D = a*E1 + b*E2 exactly, with a >= 0 >= b and E1, E2
independent Exp(1) variables.  That is an asymmetric Laplace law: D equals
a*E with probability a/(a - b) and b*E otherwise, for one Exp(1) variable
E, and :func:`exact_exceedance` gives its tails in closed form.
:func:`detector_gain_experiment` and :func:`roc_estimate` draw D through
that mixture, one exponential per mode instead of four Gaussian
quadratures, in blocks of a fixed size: each block is reduced to its
shifted sums (moments) or its exceedance counts before the next is drawn,
so memory does not grow with the trial count; the ``mc`` command bounds
the trial count up front (``cli.MAX_TRIALS``) to bound its run time.  The
absent-hypothesis variance of D is the same for both transmitters, so the
quantum/classical deflection-SNR ratio is exactly C_q^2/C_c^2 = 1 + 1/N_s
for any eta and N_B; the experiment's estimate is checked against that
value with a z-score.

Randomness is pinned to NumPy's PCG64 generator; fixed seeds reproduce
bit-identical streams, and internal sub-streams are split with
``SeedSequence.spawn`` so concurrent batches stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CovarianceNotPSDError, DomainError, InsufficientTrialsError
from .radiometry import _require_non_negative, _require_positive

_PSD_TOLERANCE = -1e-9
# Draws of the detector statistic held at once: a 512 kB buffer.
_BLOCK_TRIALS = 1 << 16


def _rng(seed_or_sequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_or_sequence))


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def _symmetric_4x4(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (4, 4) or not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise DomainError(f"{name} must be a symmetric 4x4 matrix")
    return matrix


def _checked_eigh(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cov, eigenvalues, eigenvectors) of a symmetric PSD 4x4 covariance.

    Eigenvalues below -1e-9 mean the matrix is genuinely not a covariance
    and raise with the offending value.
    """
    cov = _symmetric_4x4(cov, "covariance")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    smallest = float(eigenvalues.min())
    if smallest < _PSD_TOLERANCE:
        raise CovarianceNotPSDError(
            f"covariance has eigenvalue {smallest!r} below the PSD tolerance",
            eigenvalue=smallest,
        )
    return cov, eigenvalues, eigenvectors


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T = cov / 2, clamping round-off negatives."""
    _, eigenvalues, eigenvectors = _checked_eigh(cov)
    clamped = np.clip(eigenvalues, 0.0, None)
    return eigenvectors * np.sqrt(clamped / 2.0)


def sample_quadratures(cov: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` zero-mean Gaussian quadrature vectors consistent with ``cov``.

    Returns an (n, 4) array whose 2x sample second moments estimate ``cov``.
    Deterministic: the same seed yields bit-identical output.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n!r}")
    factor = _gaussian_factor(cov)
    return _rng(_validate_seed(seed)).standard_normal(size=(n, 4)) @ factor.T


def estimate_covariance(samples: np.ndarray) -> np.ndarray:
    """2x the sample non-central second-moment matrix (exactly symmetric)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 4:
        raise DomainError(f"samples must be (n, 4), got shape {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    moment = samples.T @ samples
    moment = (moment + moment.T) / 2.0
    return 2.0 * moment / n


@dataclass(frozen=True)
class ReturnChannelModel:
    """Lossy thermal return channel applied to a transmitter covariance.

    ``base`` is the 4x4 signal/idler covariance at the transmitter.  Under
    the target-present hypothesis the signal mode returns with transmissivity
    ``eta`` mixed into a background of ``n_b`` photons per mode: its diagonal
    becomes 2*(eta*N_s + (1 - eta)*N_B) + 1 and the signal/idler cross block
    scales by sqrt(eta).  Under target-absent the returned mode is pure
    thermal (diagonal 2*N_B + 1) with no idler correlation.
    """

    eta: float
    n_b: float
    base: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and 0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must be in (0, 1], got {self.eta!r}")
        _require_non_negative("n_b", self.n_b)
        object.__setattr__(self, "base", _symmetric_4x4(self.base, "base covariance"))

    def _signal_photons(self) -> float:
        # Mean photon number encoded in the signal diagonal block.
        return (self.base[0, 0] + self.base[1, 1] - 2.0) / 4.0

    def present_covariance(self) -> np.ndarray:
        out = self.base.copy()
        s_return = 2.0 * (self.eta * self._signal_photons() + (1.0 - self.eta) * self.n_b) + 1.0
        out[0, 0] = out[1, 1] = s_return
        out[0, 1] = out[1, 0] = 0.0
        root_eta = math.sqrt(self.eta)
        out[0:2, 2:4] *= root_eta
        out[2:4, 0:2] *= root_eta
        return out

    def absent_covariance(self) -> np.ndarray:
        out = self.base.copy()
        out[0:2, 0:2] = (2.0 * self.n_b + 1.0) * np.eye(2)
        out[0:2, 2:4] = 0.0
        out[2:4, 0:2] = 0.0
        return out


def _statistic_scales(cov: np.ndarray) -> tuple[float, float]:
    """Scales (a, b), a >= 0 >= b, with d = I_R*I_I - Q_R*Q_I = a*E1 + b*E2
    for independent Exp(1) variables E1, E2.

    ``cov`` must have uncorrelated I and Q sectors, with I block
    [[2p, 2r], [2r, 2q]] and Q block [[2p, -2r], [-2r, 2q]], as both
    transmitters have with the target present or absent.  Then d is the
    sum of two independent copies of a product x1*x2 of Gaussians with
    covariance [[p, r], [r, q]].  Diagonalising one copy gives
    ((r + sqrt(pq))*z1^2 + (r - sqrt(pq))*z2^2) / 2, and two halved
    chi-square(1) variables add up to one Exp(1) variable, so
    a = r + sqrt(pq) and b = r - sqrt(pq); |r| <= sqrt(pq) as cov is PSD.
    """
    cov, _, _ = _checked_eigh(cov)
    s_i, s_q, c = cov[0, 0], cov[2, 2], cov[0, 2]
    block = np.array(
        [[s_i, 0.0, c, 0.0], [0.0, s_i, 0.0, -c], [c, 0.0, s_q, 0.0], [0.0, -c, 0.0, s_q]]
    )
    if not np.array_equal(cov, block):
        raise DomainError(
            "covariance must have uncorrelated I and Q sectors with equal "
            "variances and opposite cross entries"
        )
    p, q, r = float(s_i) / 2.0, float(s_q) / 2.0, float(c) / 2.0
    root = math.sqrt(max(p * q, 0.0))
    return max(r + root, 0.0), min(r - root, 0.0)


def _positive_weight(a: float, b: float) -> float:
    # P(D = a*E) in the mixture form of D = a*E1 + b*E2; see _statistic_blocks.
    return a / (a - b) if a > 0.0 else 0.0


def _statistic_blocks(
    a: float, b: float, n: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """``n`` exact draws of D = a*E1 + b*E2 (a >= 0 >= b), in blocks of at
    most ``_BLOCK_TRIALS``.

    D is asymmetric Laplace: its moment generating function
    1/((1 - a*s)(1 - b*s)) splits into a/(a - b) / (1 - a*s) plus
    (-b)/(a - b) / (1 - b*s), so D equals a*E with probability a/(a - b)
    and b*E otherwise, for one Exp(1) variable E.  So a block of k draws takes
    K ~ Binomial(k, a/(a - b)) and k exponentials, and scales the first K by
    a and the rest by b.  The block is not in draw order, but its multiset
    has the law of k independent draws, which is all that order-free
    reductions (moments, exceedance counts) see.

    Every block is a view of one reused buffer, valid until the next one
    is drawn; the caller may overwrite it.
    """
    weight = _positive_weight(a, b)
    buffer = np.empty(min(n, _BLOCK_TRIALS))
    for start in range(0, n, _BLOCK_TRIALS):
        block = buffer[: min(_BLOCK_TRIALS, n - start)]
        positive = int(rng.binomial(block.size, weight))
        rng.standard_exponential(out=block)
        block[:positive] *= a
        block[positive:] *= b
        yield block


def _statistic_moments(cov: np.ndarray, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """(mean, variance) of ``n`` exact draws of D under ``cov``, reduced a
    block at a time about the exact mean a + b, so that the shifted sums
    stay small and the variance needs no second pass."""
    a, b = _statistic_scales(cov)
    mean = a + b
    total = total_square = 0.0
    for block in _statistic_blocks(a, b, n, rng):
        block -= mean
        total += float(block.sum())
        total_square += float(block @ block)
    shift = total / n
    return mean + shift, total_square / n - shift * shift


def _exceedance_fractions(
    cov: np.ndarray, thresholds: Sequence[float], n: int, rng: np.random.Generator
) -> tuple[float, ...]:
    """Fraction of ``n`` exact draws of D under ``cov`` above each threshold."""
    a, b = _statistic_scales(cov)
    counts = [0] * len(thresholds)
    for block in _statistic_blocks(a, b, n, rng):
        for i, t in enumerate(thresholds):
            counts[i] += int(np.count_nonzero(block > t))
    return tuple(count / n for count in counts)


def exact_exceedance(cov: np.ndarray, t: float) -> float:
    """Exact P(D > t) of the correlation statistic under ``cov`` (block form
    as for :func:`roc_estimate`, else DomainError).

    With D = a*E1 + b*E2, a >= 0 >= b, the asymmetric Laplace tails are
    a/(a - b) * exp(-t/a) for t >= 0 and 1 - (-b)/(a - b) * exp(-t/b) for
    t < 0.
    """
    a, b = _statistic_scales(cov)
    t = float(t)
    if t >= 0.0:
        return _positive_weight(a, b) * math.exp(-t / a) if a > 0.0 else 0.0
    return 1.0 - (1.0 - _positive_weight(a, b)) * math.exp(-t / b) if b < 0.0 else 1.0


def _deflection_with_noise(
    present: tuple[float, float], absent: tuple[float, float], n: int
) -> tuple[float, float]:
    """Deflection SNR (E[D|p] - E[D|a])^2 / Var[D|a] and the first-order
    relative variance of its estimate (mean-shift noise dominates; the
    variance-estimate contribution is higher order and ignored), from the
    (mean, variance) of ``n`` draws under each hypothesis."""
    (mean_present, var_present), (mean_absent, var_absent) = present, absent
    shift = mean_present - mean_absent
    deflection = shift**2 / var_absent
    relative_variance = 4.0 * (var_present + var_absent) / (n * shift**2)
    return deflection, relative_variance


@dataclass(frozen=True)
class GainExperimentResult:
    """Measured quantum-over-classical deflection-SNR ratio with its error."""

    ratio: float
    standard_error: float
    deflection_quantum: float
    deflection_classical: float
    trials: int


def detector_gain_experiment(
    n_s: float,
    eta: float,
    n_b: float,
    trials: int,
    seed: int,
) -> GainExperimentResult:
    """Estimate the detector's quantum/classical SNR-gain ratio empirically.

    Builds present/absent return channels for both transmitters at the same
    (n_s, eta, n_b), draws D exactly for ``trials`` modes through each, and
    forms the deflection SNR (E[D|present] - E[D|absent])^2 / Var[D|absent]
    per transmitter.  The reported standard error of the ratio propagates
    the mean-shift estimation noise of both deflections (first order).  It
    holds where the classical shift is resolved; where the shifts are buried
    in noise it is large but no longer describes the ratio's spread.
    """
    from .quantum_states import coherent_covariance, tmsv_covariance

    trials = int(trials)
    if trials < 10_000:
        raise DomainError(f"need at least 1e4 trials, got {trials!r}")
    n_s = _require_positive("n_s", n_s)
    n_b = _require_positive("n_b", n_b)

    streams = iter(np.random.SeedSequence(_validate_seed(seed)).spawn(4))
    deflections = []
    for base in (tmsv_covariance(n_s), coherent_covariance(n_s)):
        model = ReturnChannelModel(eta=eta, n_b=n_b, base=base)
        present, absent = (
            _statistic_moments(cov, trials, _rng(next(streams)))
            for cov in (model.present_covariance(), model.absent_covariance())
        )
        deflections.append(_deflection_with_noise(present, absent, trials))

    (deflection_q, rel_var_q), (deflection_c, rel_var_c) = deflections
    ratio = deflection_q / deflection_c
    standard_error = ratio * math.sqrt(rel_var_q + rel_var_c)

    return GainExperimentResult(
        ratio=ratio,
        standard_error=standard_error,
        deflection_quantum=deflection_q,
        deflection_classical=deflection_c,
        trials=trials,
    )


@dataclass(frozen=True)
class RocEstimate:
    """Empirical operating points: (p_fa, p_d) per threshold."""

    thresholds: tuple[float, ...]
    p_d: tuple[float, ...]
    p_fa: tuple[float, ...]
    trials: int


def roc_estimate(
    cov_present: np.ndarray,
    cov_absent: np.ndarray,
    thresholds: Sequence[float],
    trials: int,
    seed: int,
) -> RocEstimate:
    """Empirical ROC of the correlation detector between two hypotheses.

    Present/absent draws of D are made exactly and independently (split
    seed streams), which needs both covariances in the phase-conjugate block
    form (else DomainError); each threshold yields their exceedance
    fractions, counted a block of draws at a time.  :func:`exact_exceedance`
    gives the values they estimate.  A p_fa probed below 10/trials cannot be
    resolved and raises :class:`InsufficientTrialsError`.
    """
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise DomainError("thresholds must not be empty")

    stream_present, stream_absent = np.random.SeedSequence(_validate_seed(seed)).spawn(2)
    p_d = _exceedance_fractions(cov_present, thresholds, trials, _rng(stream_present))
    p_fa = _exceedance_fractions(cov_absent, thresholds, trials, _rng(stream_absent))

    floor = 10.0 / trials
    smallest = min(p_fa)
    if smallest < floor:
        raise InsufficientTrialsError(
            f"smallest probed p_fa {smallest!r} is below the 10/trials floor "
            f"{floor!r}; increase trials or relax the threshold"
        )
    return RocEstimate(thresholds=thresholds, p_d=p_d, p_fa=p_fa, trials=trials)
