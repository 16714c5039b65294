"""Impulsiveness-index machinery for symmetric alpha-stable samples.

Quantile-ratio estimation of the characteristic exponent (McCulloch's
fractile method, symmetric case) and a Chambers-Mallows-Stuck sampler used
both as a test oracle and as a synthetic impulsive-noise source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources

import numpy as np

ALPHA_MIN_TABLE = 0.5
ALPHA_MAX_TABLE = 2.0
MIN_SAMPLES = 100


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    nu_alpha: float
    sample_count: int


@dataclass(frozen=True)
class AlphaLookup:
    """Monotone map between the quantile ratio nu and alpha.

    `alpha` is strictly decreasing, `nu` strictly increasing; inversion is a
    piecewise-linear interpolation clamped to the table domain.
    """

    alpha: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    provenance: str = "published-table"

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if alpha.shape != nu.shape or alpha.ndim != 1 or len(alpha) < 1:
            raise ValueError("alpha and nu must be matching 1-D arrays")
        if len(alpha) > 1:
            if not np.all(np.diff(alpha) < 0):
                raise ValueError("alpha grid must be strictly decreasing")
            if not np.all(np.diff(nu) > 0):
                raise ValueError("nu values must be strictly increasing in the grid")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "nu", nu)

    def alpha_from_nu(self, nu):
        """Alpha for each quantile ratio in `nu`, clamped to [0.5, 2.0].

        Elementwise; NaN passes through.
        """
        # np.interp needs ascending x; alpha is descending along ascending nu
        return np.clip(np.interp(nu, self.nu, self.alpha), ALPHA_MIN_TABLE, ALPHA_MAX_TABLE)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# provenance: {self.provenance}\n")
            for a, v in zip(self.alpha, self.nu):
                fh.write(f"{a:.6f} {v:.6f}\n")

    @classmethod
    def load(cls, path) -> "AlphaLookup":
        provenance = "unknown"
        alphas, nus = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "provenance:" in line:
                        provenance = line.split("provenance:", 1)[1].strip()
                    continue
                a, v = line.split()
                alphas.append(float(a))
                nus.append(float(v))
        return cls(np.array(alphas), np.array(nus), provenance)


@cache
def default_lookup() -> AlphaLookup:
    """The symmetric quantile-ratio table shipped with the package."""
    path = resources.files("hhtalpha").joinpath("data/mcculloch_symmetric.txt")
    with resources.as_file(path) as p:
        return AlphaLookup.load(p)


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
    zero; a float for one set of statistics, else one value per row.
    """
    lo, hi = stats[..., :4], stats[..., 4:]
    diff = hi - lo
    q05, q25, q75, q95 = np.moveaxis(
        np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma), -1, 0)
    iqr = q75 - q25
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = np.where(iqr > 0.0, (q95 - q05) / iqr, np.nan)
    return float(nu) if nu.ndim == 0 else nu


def nu_alpha(samples):
    """Quantile spread ratio (x95 - x05) / (x75 - x25) over the last axis.

    Reads the 8 order statistics of `hazen_ranks` with one partial sort.
    NaN where the interquartile range is zero or a sample is NaN.  A float
    for 1-D input, else one value per row (the last axis is reduced; use
    `.ravel()` to pool).
    """
    samples = np.asarray(samples, dtype=np.float64)
    ranks, gamma = hazen_ranks(samples.shape[-1] if samples.ndim else 0)
    # NaN sorts last, so the largest value shows whether a row holds one
    part = np.partition(samples, (*ranks, -1), axis=-1)
    stats = np.where(np.isnan(part[..., -1:]), np.nan, part[..., ranks])
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
    return AlphaEstimate(alpha=float(default_lookup().alpha_from_nu(nu)), nu_alpha=nu,
                         sample_count=samples.size)


def sample_sas(alpha: float, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. standard symmetric alpha-stable variates.

    Chambers-Mallows-Stuck construction:
        X = sin(alpha*U)/cos(U)**(1/alpha) * (cos(U - alpha*U)/W)**((1-alpha)/alpha)
    with U ~ uniform(-pi/2, pi/2) and W ~ exponential(1).  alpha = 2 gives a
    Gaussian with variance 2; alpha = 1 gives a standard Cauchy.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
    w = rng.exponential(1.0, size=n)
    if alpha == 1.0:
        return np.tan(u)
    return (
        np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / w) ** ((1.0 - alpha) / alpha)
    )


def build_lookup(alphas, per_point_n: int, trials: int, seed) -> AlphaLookup:
    """Monte-Carlo fallback table: average nu over CMS sample sets per grid alpha.

    The alpha grid must be strictly increasing within [0.5, 2.0]; the
    resulting nu values must come out strictly decreasing in alpha or the
    grid is rejected.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if len(alphas) < 1 or (len(alphas) > 1 and not np.all(np.diff(alphas) > 0)):
        raise ValueError("alphas must be strictly increasing")
    if np.any(alphas < ALPHA_MIN_TABLE) or np.any(alphas > ALPHA_MAX_TABLE):
        raise ValueError("alphas must lie within [0.5, 2.0]")
    nus = np.empty(len(alphas))
    for i, a in enumerate(alphas):
        vals = [
            nu_alpha(sample_sas(a, per_point_n, np.random.SeedSequence([seed, i, t])))
            for t in range(trials)
        ]
        nus[i] = np.mean(vals)
    if len(alphas) > 1 and not np.all(np.diff(nus) < 0):
        raise ValueError("generated table is not monotone; increase per_point_n/trials")
    # store with alpha descending / nu ascending like the published table
    return AlphaLookup(alphas[::-1].copy(), nus[::-1].copy(), provenance="monte-carlo")
