"""Empirical mode decomposition (sifting) and its noise-ensemble variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fork import fork_sum
from .signal import Signal, whole_number

# Shortest signal `emd` and `eemd` decompose.
MIN_LENGTH = 16
# Sifting stops once SD (Huang et al. 1998) falls below SIFT_SD_THRESHOLD, or
# after MAX_SIFT_ITERS passes; envelopes mirror BOUNDARY_PAD_EXTREMA extrema
# beyond each end of the signal.
SIFT_SD_THRESHOLD = 0.2
MAX_SIFT_ITERS = 100
BOUNDARY_PAD_EXTREMA = 2


@dataclass(frozen=True)
class EemdConfig:
    max_modes: int = 10
    ensemble_size: int = 50
    ensemble_snr_db: float = 30.0
    master_seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_modes", 1), ("ensemble_size", 1), ("master_seed", 0)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, minimum))
        if not self.ensemble_snr_db > -np.inf:
            raise ValueError(f"ensemble_snr_db must be a number of dB or +inf (no added "
                             f"noise), got {self.ensemble_snr_db}")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes plus the leftover trend of one signal.

    `modes` is a (mode_count, source_len) array, one mode per row, and
    `residual` the source_len-long trend; the sample rate stays with the
    decomposed `Signal`.
    """

    modes: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        if np.ndim(self.modes) != 2 or np.shape(self.modes)[1] != len(self.residual):
            raise ValueError("modes must be a (mode_count, len(residual)) array")

    @property
    def source_len(self) -> int:
        return len(self.residual)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def total(self) -> np.ndarray:
        """Sum of all modes plus the residual."""
        out = self.residual.copy()
        for mode in self.modes:
            out += mode
        return out


def find_extrema(x: np.ndarray):
    """Locate strict local maxima and minima of a 1-D array.

    Returns ((max_idx, max_val), (min_idx, min_val)).  A flat plateau
    contributes the floor-midpoint of its index range once; endpoints are
    never extrema.
    """
    # float steps, so an unsigned input cannot wrap round in the difference
    x = np.asarray(x, dtype=np.float64)
    d = np.diff(x)
    # equal neighbours form a plateau; only the steps between plateaus count
    change = np.flatnonzero(d != 0)
    rising = d[change] > 0
    # plateau j spans change[j] + 1 .. change[j + 1]; a peak rises into it and
    # falls out of it, a trough the reverse
    peak = np.flatnonzero(rising[:-1] & ~rising[1:])
    trough = np.flatnonzero(~rising[:-1] & rising[1:])
    max_idx = (change[peak] + change[peak + 1] + 1) // 2
    min_idx = (change[trough] + change[trough + 1] + 1) // 2
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def _natural_spline(t: np.ndarray, y: np.ndarray, length: int) -> np.ndarray:
    """Natural cubic spline through (t, y), evaluated at 0..length-1.

    `t` must be strictly increasing.  The second derivatives come from one
    tridiagonal solve; each segment's cubic is then repeated over the grid
    points it covers and evaluated by Horner's rule into one fresh array.
    """
    h = np.diff(t)
    slope = np.diff(y) / h
    # second derivatives; the natural end conditions keep m[0] = m[-1] = 0
    m = np.zeros(len(t))
    if len(t) > 2:
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * np.diff(slope)
        if len(t) == 3:
            # LAPACK's wrapper rejects the empty off-diagonals of a 1 x 1 system
            m[1] = rhs[0] / diag[0]
        else:
            from scipy.linalg.lapack import dgtsv

            *_, m[1:-1], info = dgtsv(h[1:-1], diag, h[1:-1], rhs,
                                      overwrite_d=True, overwrite_b=True)
            if info:
                raise np.linalg.LinAlgError("singular spline system")
    coef = np.empty((5, len(h)))
    coef[0] = (m[1:] - m[:-1]) / (6.0 * h)
    coef[1] = 0.5 * m[:-1]
    coef[2] = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    coef[3] = y[:-1]
    coef[4] = t[:-1]
    # grid point k lies on segment i when ceil(t[i]) <= k < ceil(t[i + 1]);
    # the end segments reach out to the ends of the grid
    edges = np.clip(np.ceil(t), 0, length).astype(np.intp)
    edges[0], edges[-1] = 0, length
    cubic, quad, lin, const, dx = np.repeat(coef, np.diff(edges), axis=1)
    # dx overwrites the repeated segment starts: the offset of each grid point
    np.subtract(np.arange(length, dtype=np.float64), dx, out=dx)
    # out must not be a row of the repeated buffer, or it would keep all of it alive
    out = cubic * dx
    out += quad
    out *= dx
    out += lin
    out *= dx
    out += const
    return out


def envelope(indices: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Natural cubic spline through extrema, with mirrored boundary points.

    Up to BOUNDARY_PAD_EXTREMA extrema are reflected beyond each end of
    [0, length) before fitting, to tame end swings; an extremum at index 0 or
    length-1 is its own mirror image and is not repeated.  The spline is
    evaluated on the integer grid 0..length-1.  Grid points outside the knot
    range follow the polynomial of the nearest end segment (extrapolation, as
    CubicSpline's default).

    Raises ValueError for non-finite indices or values, indices that are not
    strictly increasing inside [0, length-1], or fewer than 2 knots after
    mirroring.
    """
    indices = np.asarray(indices, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not (np.all(np.isfinite(indices)) and np.all(np.isfinite(values))):
        raise ValueError("envelope points must be finite")
    if len(indices) > 0:
        if not (indices[0] >= 0 and indices[-1] <= length - 1 and np.all(np.diff(indices) > 0)):
            raise ValueError("envelope indices must be strictly increasing within [0, length-1]")
        k = min(BOUNDARY_PAD_EXTREMA, len(indices))
        # the extrema mirrored at each end, less one lying on the end itself
        head = slice(1 if indices[0] == 0 else 0, k)
        tail = slice(len(indices) - k, -1 if indices[-1] == length - 1 else None)
        values = np.concatenate([values[head][::-1], values, values[tail][::-1]])
        indices = np.concatenate([-indices[head][::-1], indices,
                                  2 * (length - 1) - indices[tail][::-1]])
    if len(indices) < 2:
        raise ValueError("need at least 2 envelope points after mirroring")
    return _natural_spline(indices, values, length)


def _mean_envelope(x: np.ndarray):
    (max_i, max_v), (min_i, min_v) = find_extrema(x)
    if len(max_i) < 2 or len(min_i) < 2:
        return None
    mean = envelope(max_i, max_v, len(x))
    mean += envelope(min_i, min_v, len(x))
    mean *= 0.5
    return mean


def sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one oscillatory mode by repeated mean-envelope subtraction.

    Stops when SD = sum((h_prev - h)**2) / sum(h_prev**2) drops below
    SIFT_SD_THRESHOLD or MAX_SIFT_ITERS is reached.  Returns None when x has
    fewer than 2 maxima or 2 minima, so no mode can be extracted.
    """
    h = np.array(x, dtype=np.float64)
    for i in range(MAX_SIFT_ITERS):
        mean = _mean_envelope(h)
        if mean is None:
            if i == 0:
                return None
            break
        denom = np.sum(h * h)
        if denom == 0.0:
            break
        sd = np.sum(mean * mean) / denom
        h -= mean
        if sd < SIFT_SD_THRESHOLD:
            break
    return h


def _check_length(signal: Signal) -> None:
    if len(signal) < MIN_LENGTH:
        raise ValueError(f"signal too short to decompose (need >= {MIN_LENGTH} samples)")


def emd(signal: Signal, max_modes: int = 10) -> ImfSet:
    """Decompose a signal into oscillatory modes plus a residual trend.

    Modes are extracted from the running residual until max_modes are found
    or the residual has fewer than 2 maxima or 2 minima.  The sum of all
    modes plus the residual reproduces the input to round-off.
    """
    max_modes = whole_number(max_modes, "max_modes", 1)
    _check_length(signal)
    residual = signal.samples.copy()
    modes = np.empty((max_modes, len(residual)))
    count = 0
    while count < max_modes:
        imf = sift(residual)
        if imf is None:
            break
        modes[count] = imf
        residual -= imf
        count += 1
    return ImfSet(modes[:count], residual)


def eemd(signal: Signal, cfg: EemdConfig = EemdConfig()) -> ImfSet:
    """Noise-ensemble decomposition.

    Runs plain EMD on cfg.ensemble_size white-Gaussian-noise-perturbed copies
    of the signal (noise level set by cfg.ensemble_snr_db relative to the
    signal variance) and averages the m-th modes across trials.  The residual
    is defined as the input minus the summed averaged modes, so completeness
    holds exactly.  Fully deterministic given cfg.master_seed.

    The trials run through `fork_sum`, on forked workers or in the calling
    process, and each adds its modes into one shared sum in trial order, so
    the output is bit-identical either way.
    """
    _check_length(signal)
    x = signal.samples
    std_x = float(np.std(x))
    if np.isinf(cfg.ensemble_snr_db) or std_x == 0.0:
        noise_std = 0.0
    else:
        noise_std = std_x * 10.0 ** (-cfg.ensemble_snr_db / 20.0)
    if noise_std == 0.0:
        # every trial would be identical; the ensemble degenerates to plain EMD
        return emd(signal, cfg.max_modes)

    def trial(n: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n]))
        noisy = x + noise_std * rng.standard_normal(len(x))
        return emd(Signal(noisy, signal.sample_rate), cfg.max_modes).modes

    # loaded before the fork, or every worker would import LAPACK for its first spline
    import scipy.linalg.lapack  # noqa: F401

    acc, rows = fork_sum(trial, cfg.ensemble_size, (cfg.max_modes, len(x)))
    produced = max(rows)
    residual = x - acc[:produced].sum(axis=0) / cfg.ensemble_size
    return ImfSet(acc[:produced] / cfg.ensemble_size, residual)
