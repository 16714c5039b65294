"""Empirical mode decomposition (sifting) and its noise-ensemble variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fork import fork_sum, shared_zeros
from .signal import Signal, snr_gain, whole_number

# Shortest signal `emd` and `eemd` decompose.
MIN_LENGTH = 16
# Sifting stops once the ratio of sums sum((h_prev - h)**2) / sum(h_prev**2)
# falls below SIFT_SD_THRESHOLD, or after MAX_SIFT_ITERS passes; envelopes
# mirror BOUNDARY_PAD_EXTREMA extrema beyond each end of the signal.
SIFT_SD_THRESHOLD = 0.2
MAX_SIFT_ITERS = 100
BOUNDARY_PAD_EXTREMA = 2
# A spline gathers its coefficient rows through a segment index when its
# knots are dense, fewer than DENSE_KNOTS grid points per segment, and
# repeats them otherwise: np.repeat pays per segment, the gather per point.
# In the bench's noisy speech, mode 1 has about 3.5 points per segment,
# mode 2 about 9 and mode 3 about 21: gathering mode 2 as well as mode 1
# took 3.7 % less time per 9.6 s EMD trial, gathering mode 3 too gave that
# back.
DENSE_KNOTS = 10


@dataclass(frozen=True)
class EemdConfig:
    max_modes: int = 10
    ensemble_size: int = 50
    ensemble_snr_db: float = 30.0
    master_seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_modes", 1), ("ensemble_size", 1), ("master_seed", 0)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, minimum))
        snr_gain(self.ensemble_snr_db, "ensemble_snr_db", 20.0, "+inf (no added noise)")


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
    never extrema.  NaN samples are accepted: a step into or out of NaN
    counts as falling.  Raises ValueError unless x is 1-D.
    """
    # float steps, so an unsigned input cannot wrap round in the difference
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"find_extrema needs a 1-D array, got {x.ndim} dimensions")
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
    tridiagonal solve.  Each segment's cubic is then expanded over the grid
    points it covers, by one gather through a segment index when the knots
    are dense (fewer than DENSE_KNOTS grid points per segment) and by
    `np.repeat` otherwise, and evaluated by Horner's rule into one fresh
    array.  Both expansions give the same rows, so the same bytes.
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
    counts = np.diff(edges)
    if DENSE_KNOTS * len(h) > length:
        cubic, quad, lin, const, dx = coef.take(np.repeat(np.arange(len(h)), counts), axis=1)
    else:
        cubic, quad, lin, const, dx = np.repeat(coef, counts, axis=1)
    # dx overwrites the expanded segment starts: the offset of each grid point
    np.subtract(np.arange(length, dtype=np.float64), dx, out=dx)
    # out must not be a row of the expanded buffer, or it would keep all of it alive
    out = cubic * dx
    out += quad
    out *= dx
    out += lin
    out *= dx
    out += const
    return out


def _mirrored_spline(indices: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """`envelope` without its input checks, which hold for the extrema that
    `find_extrema` returns from a finite 1-D array of `length` samples."""
    indices = np.asarray(indices, dtype=np.float64)
    if len(indices) > 0:
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


def envelope(indices: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Natural cubic spline through extrema, with mirrored boundary points.

    Up to BOUNDARY_PAD_EXTREMA extrema are reflected beyond each end of
    [0, length) before fitting, to tame end swings; an extremum at index 0 or
    length-1 is its own mirror image and is not repeated.  The spline is
    evaluated on the integer grid 0..length-1.  Grid points outside the knot
    range follow the polynomial of the nearest end segment (extrapolation, as
    CubicSpline's default).

    Raises ValueError naming the argument for a length that is not a whole
    number, indices and values that are not 1-D arrays of one length,
    non-finite indices or values, indices that are not strictly increasing
    inside [0, length-1], or fewer than 2 knots after mirroring.
    """
    length = whole_number(length, "length")
    indices = np.asarray(indices, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if indices.ndim != 1 or indices.shape != values.shape:
        raise ValueError("envelope indices and values must be 1-D arrays of one length, "
                         f"got shapes {indices.shape} and {values.shape}")
    if not (np.all(np.isfinite(indices)) and np.all(np.isfinite(values))):
        raise ValueError("envelope points must be finite")
    if len(indices) > 0 and not (indices[0] >= 0 and indices[-1] <= length - 1
                                 and np.all(np.diff(indices) > 0)):
        raise ValueError("envelope indices must be strictly increasing within [0, length-1]")
    return _mirrored_spline(indices, values, length)


def _mean_envelope(x: np.ndarray):
    """Mean of the upper and lower envelopes of a finite 1-D float64 array,
    or None when it has fewer than 2 maxima or 2 minima."""
    (max_i, max_v), (min_i, min_v) = find_extrema(x)
    if len(max_i) < 2 or len(min_i) < 2:
        return None
    mean = _mirrored_spline(max_i, max_v, len(x))
    mean += _mirrored_spline(min_i, min_v, len(x))
    mean *= 0.5
    return mean


def sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one oscillatory mode by repeated mean-envelope subtraction.

    Stops when SD = sum((h_prev - h)**2) / sum(h_prev**2) drops below
    SIFT_SD_THRESHOLD or MAX_SIFT_ITERS is reached.  Returns None when x has
    fewer than 2 maxima or 2 minima, so no mode can be extracted.  Raises
    ValueError unless x is 1-D and finite, checked once: its passes then
    fit their envelopes without `envelope`'s checks.
    """
    h = np.array(x, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError(f"sift needs a 1-D array, got {h.ndim} dimensions")
    if not np.all(np.isfinite(h)):
        raise ValueError("sift needs finite samples")
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


def _sift_modes(residual: np.ndarray, max_modes: int):
    """Yield up to max_modes modes, sifted one at a time from `residual`,
    which each mode is taken out of before it is yielded."""
    for _ in range(max_modes):
        imf = sift(residual)
        if imf is None:
            return
        residual -= imf
        yield imf
        del imf  # the next mode is sifted without this one


def emd(signal: Signal, max_modes: int = EemdConfig.max_modes) -> ImfSet:
    """Decompose a signal into oscillatory modes plus a residual trend.

    `eemd`'s single noise-free trial, which a noise-free ensemble runs
    whatever its size: modes are sifted out of a running residual until
    max_modes are found or it has fewer than 2 maxima or 2 minima.  As in
    `eemd`, the residual returned is the input minus the summed modes, so
    the two add up to the input to round-off.  LAPACK loads before the trial.
    """
    return eemd(signal, EemdConfig(max_modes, ensemble_size=1, ensemble_snr_db=np.inf))


def eemd(signal: Signal, cfg: EemdConfig = EemdConfig(), score=None, scores=None) -> ImfSet:
    """Noise-ensemble decomposition.

    Runs plain EMD on cfg.ensemble_size white-Gaussian-noise-perturbed copies
    of the signal (noise level set by cfg.ensemble_snr_db relative to the
    signal variance) and averages the m-th modes across trials.  The residual
    is defined as the input minus the summed averaged modes, so completeness
    holds exactly.  Fully deterministic given cfg.master_seed.  A noise-free
    ensemble (+inf dB, or a constant input) runs one trial of the input
    itself, whatever cfg.ensemble_size says: that trial is `emd`.

    The trials run through `fork_sum`, on forked workers or in the calling
    process.  Each adds every mode into one shared sum as soon as it has
    sifted it, in trial order per mode, so the output is bit-identical either
    way.  The averaged modes are that sum, divided in place: the caller holds
    no second copy of them.

    With `score`, a function of one sequence, `scores` receives
    [score(input), score(mode 1), ...].  The same workers compute them: the
    input's first, then each averaged mode's as soon as the last trial has
    added that mode, while the trials sift the modes after it.
    """
    if len(signal) < MIN_LENGTH:
        raise ValueError(f"signal too short to decompose (need >= {MIN_LENGTH} samples)")
    x = signal.samples
    # 0 at +inf dB (no added noise) and on a constant input
    gain = snr_gain(cfg.ensemble_snr_db, "ensemble_snr_db", 20.0, "+inf (no added noise)")
    noise_std = float(np.std(x)) * gain
    # without noise every trial would be the same one
    trials = cfg.ensemble_size if noise_std else 1

    def trial(n: int):
        if not noise_std:
            return _sift_modes(x.copy(), cfg.max_modes)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n]))
        return _sift_modes(x + noise_std * rng.standard_normal(len(x)), cfg.max_modes)

    def follow(m: int) -> np.ndarray:
        return score(x if m < 0 else acc[m] / trials)

    # loaded before the fork, or every worker would import LAPACK for its first spline
    import scipy.linalg.lapack  # noqa: F401

    try:
        acc = shared_zeros((cfg.max_modes, len(x)))
    except (OverflowError, OSError) as exc:
        # mmap takes no size past a machine word, and refuses a mapping with ENOMEM
        too_many = f"max_modes of {cfg.max_modes} is too many to hold at {len(x)} samples"
        raise ValueError(too_many) from exc
    rows, follow_ups = fork_sum(trial, trials, acc, None if score is None else follow)
    modes = acc[: max(rows)]
    residual = x - modes.sum(axis=0) / trials
    modes /= trials
    if score is not None:
        scores[:] = follow_ups
    return ImfSet(modes, residual)
