"""Empirical mode decomposition (sifting) and its noise-ensemble variant."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .signal import Signal

# Shortest signal `emd` and `eemd` decompose.
MIN_LENGTH = 16


@dataclass(frozen=True)
class EmdConfig:
    max_modes: int = 10
    sift_sd_threshold: float = 0.2
    max_sift_iters: int = 100
    boundary_pad_extrema: int = 2

    def __post_init__(self):
        if self.max_modes < 1:
            raise ValueError("max_modes must be >= 1")
        if self.sift_sd_threshold <= 0:
            raise ValueError("sift_sd_threshold must be positive")
        if self.max_sift_iters < 1:
            raise ValueError("max_sift_iters must be >= 1")


@dataclass(frozen=True)
class EemdConfig:
    emd: EmdConfig = field(default_factory=EmdConfig)
    ensemble_size: int = 50
    ensemble_snr_db: float = 30.0
    master_seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes plus the leftover trend of one signal."""

    modes: tuple
    residual: Signal

    @property
    def source_len(self) -> int:
        return len(self.residual)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def mode_matrix(self) -> np.ndarray:
        """Modes stacked as a (mode_count, source_len) array."""
        if not self.modes:
            return np.empty((0, self.source_len))
        return np.stack([m.samples for m in self.modes])

    def total(self) -> np.ndarray:
        """Sum of all modes plus the residual."""
        out = self.residual.samples.copy()
        for m in self.modes:
            out += m.samples
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
    change = np.flatnonzero(d)
    rising = d[change] > 0
    falling = ~rising
    # plateau j spans change[j] + 1 .. change[j + 1]
    mid = (change[:-1] + change[1:] + 1) // 2
    max_idx = mid[rising[:-1] & falling[1:]]
    min_idx = mid[falling[:-1] & rising[1:]]
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def _natural_spline(t: np.ndarray, y: np.ndarray, length: int) -> np.ndarray:
    """Natural cubic spline through (t, y), evaluated at 0..length-1.

    The second derivatives come from one tridiagonal solve; each segment's
    cubic is then repeated over the grid points it covers.
    """
    h = np.diff(t)
    if np.any(h <= 0):
        raise ValueError("envelope indices must be strictly increasing")
    slope = np.diff(y) / h
    # second derivatives; the natural end conditions keep m[0] = m[-1] = 0
    m = np.zeros(len(t))
    if len(t) > 2:
        bands = np.empty((3, len(t) - 2))
        bands[0, 1:] = h[1:-1]
        bands[1] = 2.0 * (h[:-1] + h[1:])
        bands[2, :-1] = h[1:-1]
        m[1:-1] = solve_banded((1, 1), bands, 6.0 * np.diff(slope),
                               overwrite_ab=True, overwrite_b=True, check_finite=False)
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
    cubic, quad, lin, const, start = np.repeat(coef, np.diff(edges), axis=1)
    dx = np.arange(length) - start
    return ((cubic * dx + quad) * dx + lin) * dx + const


def envelope(indices: np.ndarray, values: np.ndarray, length: int, pad: int) -> np.ndarray:
    """Natural cubic spline through extrema, with mirrored boundary points.

    Up to `pad` extrema are reflected beyond each end of [0, length) before
    fitting, to tame end swings.  The spline is evaluated on the integer grid
    0..length-1.  Grid points outside the knot range follow the polynomial of
    the nearest end segment (extrapolation, as CubicSpline's default).

    Raises ValueError for fewer than 2 knots after mirroring, non-finite
    indices or values, or indices that are not strictly increasing.
    """
    indices = np.asarray(indices, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if pad > 0 and len(indices) > 0:
        k = min(pad, len(indices))
        left_t = -indices[:k][::-1]
        left_v = values[:k][::-1]
        right_t = 2 * (length - 1) - indices[-k:][::-1]
        right_v = values[-k:][::-1]
        indices = np.concatenate([left_t, indices, right_t])
        values = np.concatenate([left_v, values, right_v])
        # mirroring can duplicate knots when an extremum sits at an end
        indices, keep = np.unique(indices, return_index=True)
        values = values[keep]
    if len(indices) < 2:
        raise ValueError("need at least 2 envelope points after mirroring")
    if not (np.all(np.isfinite(indices)) and np.all(np.isfinite(values))):
        raise ValueError("envelope points must be finite")
    return _natural_spline(indices, values, length)


def _mean_envelope(x: np.ndarray, pad: int):
    (max_i, max_v), (min_i, min_v) = find_extrema(x)
    if len(max_i) < 2 or len(min_i) < 2:
        return None
    upper = envelope(max_i, max_v, len(x), pad)
    lower = envelope(min_i, min_v, len(x), pad)
    return 0.5 * (upper + lower)


def sift(x: np.ndarray, cfg: EmdConfig) -> np.ndarray | None:
    """Extract one oscillatory mode by repeated mean-envelope subtraction.

    Stops when SD = sum((h_prev - h)**2) / sum(h_prev**2) drops below
    cfg.sift_sd_threshold or cfg.max_sift_iters is reached.  Returns None
    when x has fewer than 2 maxima or 2 minima, so no mode can be extracted.
    """
    h = np.array(x, dtype=np.float64)
    for i in range(cfg.max_sift_iters):
        mean = _mean_envelope(h, cfg.boundary_pad_extrema)
        if mean is None:
            if i == 0:
                return None
            break
        denom = np.sum(h * h)
        if denom == 0.0:
            break
        sd = np.sum(mean * mean) / denom
        h = h - mean
        if sd < cfg.sift_sd_threshold:
            break
    return h


def _check_length(signal: Signal) -> None:
    if len(signal) < MIN_LENGTH:
        raise ValueError(f"signal too short to decompose (need >= {MIN_LENGTH} samples)")


def emd(signal: Signal, cfg: EmdConfig = EmdConfig()) -> ImfSet:
    """Decompose a signal into oscillatory modes plus a residual trend.

    Modes are extracted from the running residual until cfg.max_modes are
    found or the residual has fewer than 2 maxima or 2 minima.  The sum of
    all modes plus the residual reproduces the input to round-off.
    """
    _check_length(signal)
    residual = signal.samples.copy()
    modes = []
    for _ in range(cfg.max_modes):
        imf = sift(residual, cfg)
        if imf is None:
            break
        modes.append(Signal(imf, signal.sample_rate))
        residual = residual - imf
    return ImfSet(tuple(modes), Signal(residual, signal.sample_rate))


def eemd(signal: Signal, cfg: EemdConfig = EemdConfig()) -> ImfSet:
    """Noise-ensemble decomposition.

    Runs plain EMD on cfg.ensemble_size white-Gaussian-noise-perturbed copies
    of the signal (noise level set by cfg.ensemble_snr_db relative to the
    signal variance) and averages the m-th modes across trials.  The residual
    is defined as the input minus the summed averaged modes, so completeness
    holds exactly.  Fully deterministic given cfg.master_seed.
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
        return emd(signal, cfg.emd)
    acc = np.zeros((cfg.emd.max_modes, len(x)))
    produced = 0
    for n in range(cfg.ensemble_size):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n]))
        trial = x + noise_std * rng.standard_normal(len(x))
        imfs = emd(Signal(trial, signal.sample_rate), cfg.emd)
        produced = max(produced, imfs.mode_count)
        for m, mode in enumerate(imfs.modes):
            acc[m] += mode.samples
    modes = tuple(
        Signal(acc[m] / cfg.ensemble_size, signal.sample_rate) for m in range(produced)
    )
    residual = x - acc[:produced].sum(axis=0) / cfg.ensemble_size if produced else x.copy()
    return ImfSet(modes, Signal(residual, signal.sample_rate))
