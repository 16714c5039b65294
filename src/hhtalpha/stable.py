"""Impulsiveness-index machinery for symmetric alpha-stable samples.

Quantile-ratio estimation of the characteristic exponent (McCulloch's
fractile method, symmetric case) and a Chambers-Mallows-Stuck sampler used
both as a test oracle and as a synthetic impulsive-noise source.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .signal import whole_number

MIN_SAMPLES = 100

# McCulloch's (1986) symmetric-case table: the quantile spread ratio
# nu = (x95 - x05) / (x75 - x25) of a standard symmetric alpha-stable law per
# alpha, with alpha strictly decreasing and nu strictly increasing.
TABLE_ALPHA = np.array([2.0, 1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3,
                        1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5])
TABLE_NU = np.array([2.4388, 2.512, 2.608, 2.7369, 2.9115, 3.148, 3.4635, 3.8824,
                     4.4468, 5.2172, 6.314, 7.9098, 10.448, 14.8378, 23.4831, 44.2813])
TABLE_ALPHA.flags.writeable = TABLE_NU.flags.writeable = False


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float


def alpha_from_nu(nu):
    """Alpha for each quantile ratio in `nu`, read off the table by
    piecewise-linear interpolation and clamped to [0.5, 2.0].

    Elementwise; NaN passes through.
    """
    # np.interp needs ascending x, and holds the end rows (2.0, 0.5) outside the table
    return np.interp(nu, TABLE_NU, TABLE_ALPHA)


def default_lookup():
    """The symmetric quantile-ratio table as (TABLE_ALPHA, TABLE_NU)."""
    return TABLE_ALPHA, TABLE_NU


# The fractiles the quantile spread ratio reads: x05, x25, x75, x95.
FRACTILES = np.array([0.05, 0.25, 0.75, 0.95])


def hazen_ranks(n: int):
    """Order-statistic ranks and weights of the Hazen fractiles of n samples.

    Returns (ranks, gamma): ranks[:4] are the floor ranks of the four
    fractiles, ranks[4:] the next ranks, and gamma their interpolation
    weights, with the virtual index computed exactly as numpy's "hazen"
    quantile method does (Hyndman & Fan 1996, definition 5).
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    virtual = n * FRACTILES + (0.5 + FRACTILES * (1 - 0.5 - 0.5)) - 1
    floor = np.floor(virtual)
    ranks = floor.astype(np.intp)
    return np.concatenate((ranks, ranks + 1)), virtual - floor


def nu_from_order_stats(stats, gamma):
    """Quantile spread ratio (x95 - x05) / (x75 - x25) from order statistics.

    `stats[..., :4]` and `stats[..., 4:]` hold the values at the floor and
    next ranks of `hazen_ranks`, `gamma` its weights; the fractiles are
    interpolated the way numpy does, so the result is bit-equal to one read
    from numpy's "hazen" quantiles.  NaN where the interquartile range is
    zero; +inf or NaN, as numpy gives, where a fractile reads a +-inf
    statistic, with no warning.  A float for one set, else one value per row.
    """
    lo, hi = stats[..., :4], stats[..., 4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = hi - lo
        q05, q25, q75, q95 = np.moveaxis(
            np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma), -1, 0)
        iqr = q75 - q25
        nu = np.where(iqr > 0.0, (q95 - q05) / iqr, np.nan)
    return float(nu) if nu.ndim == 0 else nu


def nu_alpha(samples):
    """Quantile spread ratio (x95 - x05) / (x75 - x25) over the last axis.

    Reads the 8 order statistics of `hazen_ranks` with one sort (numpy's
    SIMD sort beats a partition on 9 kth values).  NaN where the
    interquartile range is zero or a sample is NaN, +inf or NaN where a
    fractile reads a +-inf sample.  A float for 1-D input, else one value
    per row (the last axis is reduced; use `.ravel()` to pool).
    """
    samples = np.asarray(samples, dtype=np.float64)
    ranks, gamma = hazen_ranks(samples.shape[-1] if samples.ndim else 0)
    # NaN sorts last, so the largest value shows whether a row holds one
    ordered = np.sort(samples, axis=-1)
    stats = np.where(np.isnan(ordered[..., -1:]), np.nan, ordered[..., ranks])
    return nu_from_order_stats(stats, gamma)


def estimate_alpha(samples) -> AlphaEstimate:
    """Estimate the characteristic exponent from the quantile spread ratio.

    Uses the symmetric-case table; the result is clamped to [0.5, 2.0].
    Scale and shift invariant by construction.  Raises ValueError for a NaN
    or infinite sample, and for zero interquartile range.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite input: every sample must be finite")
    nu = nu_alpha(samples)
    if np.isnan(nu):
        raise ValueError("degenerate input: zero interquartile range")
    return AlphaEstimate(alpha=float(alpha_from_nu(nu)))


def sample_sas(alpha: float, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. standard symmetric alpha-stable variates.

    Chambers-Mallows-Stuck construction:
        X = sin(alpha*U)/cos(U)**(1/alpha) * (cos(U - alpha*U)/W)**((1-alpha)/alpha)
    with U ~ uniform(-pi/2, pi/2) and W ~ exponential(1).  alpha = 2 gives a
    Gaussian with variance 2; alpha = 1 gives a standard Cauchy.  `n` is a whole
    number >= 0; `seed` is one too, or a SeedSequence, Generator or None.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    n = whole_number(n, "n", 0)
    if isinstance(seed, numbers.Real):
        seed = whole_number(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
    w = rng.exponential(1.0, size=n)
    if alpha == 1.0:
        return np.tan(u)
    return (
        np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
    )
