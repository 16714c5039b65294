"""Empirical mode decomposition (sifting) and its noise-ensemble variant."""

from __future__ import annotations

import mmap
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_banded

from .signal import Signal

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
        if self.max_modes < 1:
            raise ValueError("max_modes must be >= 1")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if not self.ensemble_snr_db > -np.inf:
            raise ValueError(f"ensemble_snr_db must be a number of dB or +inf (no added "
                             f"noise), got {self.ensemble_snr_db}")


@dataclass(frozen=True)
class ImfSet:
    """Ordered oscillatory modes plus the leftover trend of one signal.

    `modes` is a (mode_count, source_len) array, one mode per row, and
    `residual` the source_len-long trend.
    """

    modes: np.ndarray
    residual: np.ndarray
    sample_rate: int

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


def sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one oscillatory mode by repeated mean-envelope subtraction.

    Stops when SD = sum((h_prev - h)**2) / sum(h_prev**2) drops below
    SIFT_SD_THRESHOLD or MAX_SIFT_ITERS is reached.  Returns None when x has
    fewer than 2 maxima or 2 minima, so no mode can be extracted.
    """
    h = np.array(x, dtype=np.float64)
    for i in range(MAX_SIFT_ITERS):
        mean = _mean_envelope(h, BOUNDARY_PAD_EXTREMA)
        if mean is None:
            if i == 0:
                return None
            break
        denom = np.sum(h * h)
        if denom == 0.0:
            break
        sd = np.sum(mean * mean) / denom
        h = h - mean
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
    if max_modes < 1:
        raise ValueError("max_modes must be >= 1")
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
    return ImfSet(modes[:count], residual, signal.sample_rate)


@dataclass
class _Trials:
    """One EEMD ensemble: its noisy trials and the running sum of their modes.

    `acc` is the (max_modes, length) sum; a trial adds its modes only when
    `turn.value` equals its number, so the additions happen in trial order
    whichever process runs the trial, and the sum's bytes never depend on it.
    """

    signal: Signal
    noise_std: float
    cfg: EemdConfig
    acc: np.ndarray
    turn: object
    cond: object
    held: np.ndarray | None = None

    def run(self, n: int) -> int:
        """EMD of the n-th noisy copy, added into `acc` in turn; returns its mode count."""
        rows = self.acc[:0]  # no rows, unless the EMD below returns
        try:
            rng = np.random.default_rng(np.random.SeedSequence([self.cfg.master_seed, n]))
            x = self.signal.samples
            noisy = x + self.noise_std * rng.standard_normal(len(x))
            rows = emd(Signal(noisy, self.signal.sample_rate), self.cfg.max_modes).modes
        finally:
            # a trial that raised still takes its turn, so later trials never wait on it
            with self.cond:
                self.cond.wait_for(lambda: self.turn.value == n)
                self.acc[: len(rows)] += rows
                self.turn.value = n + 1
                self.cond.notify_all()
        # Keep this trial's modes until the next trial in this process ends.
        # Freed together with its temporaries, they let malloc hand the top of
        # the heap back to the system, and the next trial faults it all in
        # again: about 15 % more CPU time per trial on a 2.4 s input at 16 kHz.
        self.held = rows
        return len(rows)


# The ensemble a pool worker serves; set by the pool's initializer, so only
# worker processes ever hold one.
_worker_trials = None


def _enter_worker(trials: _Trials) -> None:
    global _worker_trials
    _worker_trials = trials


def _worker_run(n: int) -> int:
    return _worker_trials.run(n)


def _worker_count(ensemble_size: int) -> int:
    """Processes for the trials: one per usable core, at most one per trial.

    1 (the trials run in the calling process) where the platform lacks fork
    or sched_getaffinity, or where the caller runs other threads: a forked
    child can inherit a lock another thread held, and then never gets it.
    """
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), ensemble_size)


def eemd(signal: Signal, cfg: EemdConfig = EemdConfig()) -> ImfSet:
    """Noise-ensemble decomposition.

    Runs plain EMD on cfg.ensemble_size white-Gaussian-noise-perturbed copies
    of the signal (noise level set by cfg.ensemble_snr_db relative to the
    signal variance) and averages the m-th modes across trials.  The residual
    is defined as the input minus the summed averaged modes, so completeness
    holds exactly.  Fully deterministic given cfg.master_seed.

    The trials run in forked worker processes, one per usable core, where the
    platform has fork; otherwise, or when the caller runs other threads, they
    run in the calling process.  Each trial adds its modes into one shared sum
    in trial order, so the output is bit-identical either way.  Pinning the
    process to one core (`taskset -c 0`) runs the trials in-process.
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
    # anonymous shared memory, mapped before any fork, so the workers' sums land here
    shared = mmap.mmap(-1, cfg.max_modes * len(x) * np.dtype(np.float64).itemsize)
    acc = np.frombuffer(shared, dtype=np.float64).reshape(cfg.max_modes, len(x))
    workers = _worker_count(cfg.ensemble_size)
    if workers == 1:
        trials = _Trials(signal, noise_std, cfg, acc, SimpleNamespace(value=0), threading.Condition())
        produced = max(map(trials.run, range(cfg.ensemble_size)))
    else:
        context = multiprocessing.get_context("fork")
        trials = _Trials(signal, noise_std, cfg, acc, context.Value("q", 0, lock=False),
                         context.Condition())
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_enter_worker,
                                 initargs=(trials,)) as pool:
            produced = max(pool.map(_worker_run, range(cfg.ensemble_size)))
    residual = x - acc[:produced].sum(axis=0) / cfg.ensemble_size
    return ImfSet(acc[:produced] / cfg.ensemble_size, residual, signal.sample_rate)
