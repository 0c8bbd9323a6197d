"""Reference Gaussian sampler for the tests.

Quadrature statistics of both transmitter states are exactly Gaussian, so
sampling the 4x4 covariance is an exact simulation.  Under the package-wide
"2x symmetrized second moment" convention, a covariance matrix ``cov``
corresponds to Gaussian vectors with ``E[x x^T] = cov / 2``;
:func:`sample_quadratures` and :func:`estimate_covariance` are inverse to
each other around that convention.  The draws come from NumPy's PCG64
generator, so a fixed seed reproduces them bit-identically.  The tests use
this sampler to check the library's closed forms against draws that share
none of its formulas.
"""

import math

import numpy as np

from qi_rangekit.detection_mc import _check_psd
from qi_rangekit.errors import DomainError
from qi_rangekit.errors import _require_count


def state_covariance(state) -> np.ndarray:
    """The 4x4 covariance, in the order (I_R, Q_R, I_I, Q_I), of a detector
    state, a ``BlockState`` (s_return, s_idler, c): diagonal (s_return,
    s_return, s_idler, s_idler), I sectors correlated by c, Q sectors by -c."""
    s_r, s_i, c = state.s_return, state.s_idler, state.c
    return np.array(
        [[s_r, 0.0, c, 0.0], [0.0, s_r, 0.0, -c], [c, 0.0, s_i, 0.0], [0.0, -c, 0.0, s_i]]
    )


def _gaussian_factor(cov) -> np.ndarray:
    """Factor L with L @ L.T = cov / 2 of a finite, symmetric (to 1e-12) PSD
    4x4 covariance, clamping round-off negatives."""
    matrix = np.asarray(cov, dtype=float)
    # also false for nan and inf entries
    if matrix.shape != (4, 4) or not np.all(np.abs(matrix - matrix.T) <= 1e-12):
        raise DomainError("covariance must be a symmetric 4x4 matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    _check_psd(float(eigenvalues.min()), float(np.abs(matrix).max()), "covariance")
    return eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None) / 2.0)


def sample_quadratures(cov, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` zero-mean Gaussian quadrature vectors consistent with ``cov``.

    Returns an (n, 4) array whose 2x sample second moments estimate ``cov``.
    Deterministic: the same seed yields bit-identical output.
    """
    n = _require_count("sample count", n, 1, math.inf)
    factor = _gaussian_factor(cov)
    rng = np.random.Generator(np.random.PCG64(_require_count("seed", seed, 0, 2**64 - 1)))
    return rng.standard_normal(size=(n, 4)) @ factor.T


def estimate_covariance(samples) -> np.ndarray:
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
