"""Objective speech quality and intelligibility measures.

LLR (LPC spectral distance), frequency-weighted segmental SNR, the
short-time envelope-correlation intelligibility score, and the logistic
mapping from scores to intelligibility percentages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal import Signal, resample

# Logistic mapping coefficients f(d) = 100 / (1 + exp(a*d + b))
STOI_MAP_A = -13.45
STOI_MAP_B = 9.36

_EPS = 1e-15


@dataclass(frozen=True)
class MetricConfig:
    frame_ms: float = 32.0
    hop_ms: float = 16.0
    lpc_order: int = 16
    n_bands: int = 25                  # fwSNRseg triangular bands
    band_lo_hz: float = 50.0
    band_hi_hz: float = 8000.0
    active_floor_db: float = 40.0      # frames this far below peak are skipped
    # envelope-correlation intelligibility constants
    stoi_rate: int = 10000
    stoi_frame: int = 256
    stoi_hop: int = 128
    stoi_nfft: int = 512
    stoi_bands: int = 15
    stoi_min_freq: float = 150.0
    stoi_seg_frames: int = 30
    stoi_clip_db: float = -15.0
    stoi_dyn_range_db: float = 40.0

    def __post_init__(self):
        for name in ("frame_ms", "hop_ms", "stoi_rate", "stoi_frame", "stoi_hop",
                     "stoi_nfft", "stoi_bands", "stoi_seg_frames"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be >= 1")
        if self.stoi_nfft < self.stoi_frame:
            raise ValueError("stoi_nfft must be at least stoi_frame")


@dataclass
class MetricReport:
    llr: float | None = None
    fwsnrseg_db: float | None = None
    stoi: float | None = None
    stoi_pct: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def map_intelligibility(d: float, a: float, b: float) -> float:
    """Logistic mapping from an objective score to an intelligibility %."""
    return 100.0 / (1.0 + np.exp(a * d + b))


def _check_pair(clean: Signal, processed: Signal) -> None:
    if len(clean) != len(processed):
        raise ValueError("clean and processed lengths differ")
    if clean.sample_rate != processed.sample_rate:
        raise ValueError("clean and processed sample rates differ")


def _frame_pair(clean: Signal, processed: Signal, cfg: MetricConfig):
    """Windowed frame matrices plus the active-frame mask (clean energy
    within cfg.active_floor_db of the loudest frame)."""
    n = int(round(cfg.frame_ms * clean.sample_rate / 1000.0))
    hop = int(round(cfg.hop_ms * clean.sample_rate / 1000.0))
    if n < 1 or hop < 1:
        raise ValueError(f"frame_ms and hop_ms must each span at least one sample "
                         f"at {clean.sample_rate} Hz")
    if len(clean) < n:
        raise ValueError("signal shorter than one analysis frame")
    win = np.hanning(n)
    c = sliding_window_view(clean.samples, n)[::hop] * win
    p = sliding_window_view(processed.samples, n)[::hop] * win
    energy = np.sum(c * c, axis=1)
    active = energy >= energy.max() * 10.0 ** (-cfg.active_floor_db / 10.0)
    return c, p, active


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of x with the same row of y, each summed the
    way np.dot sums one pair of vectors."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _autocorr(rows: np.ndarray, order: int) -> np.ndarray:
    """Lags 0..order of each row's autocorrelation, shape (rows, order + 1)."""
    n = rows.shape[1]
    return np.stack([_row_dots(rows[:, : n - k], rows[:, k:]) for k in range(order + 1)],
                    axis=1)


def _lpc(r: np.ndarray):
    """Levinson-Durbin on every row of r (autocorrelation lags 0..order,
    lag 0 positive) at once: LPC coefficients [1, a_1 .. a_order] per row,
    and which rows kept a positive prediction error throughout.  A row whose
    error drops to <= 0 keeps that iteration's coefficients and is left
    alone from then on."""
    rows, order = r.shape[0], r.shape[1] - 1
    # reversed copy: r_(i-1) .. r_1 becomes a forward slice, summed as np.dot sums it
    lags_down = r[:, ::-1].copy()
    a = np.zeros_like(r)
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    live = np.ones(rows, dtype=bool)
    for i in range(1, order + 1):
        acc = r[:, i] + _row_dots(a[:, 1:i], lags_down[:, order - i + 1 : order])
        # k = 0 on a frozen row leaves its coefficients and error as they are
        k = np.divide(-acc, err, out=np.zeros(rows), where=live)
        a[:, 1:i + 1] += k[:, None] * a[:, i - 1::-1]
        err *= 1.0 - k * k
        live &= err > 0.0
    return a, live


def llr(clean: Signal, processed: Signal, cfg: MetricConfig = MetricConfig()) -> float:
    """LPC log-likelihood ratio, averaged over active frames.

    Per frame: log(a_p R_c a_p' / a_c R_c a_c'), clamped to [0, 2], with R_c
    the clean-frame autocorrelation matrix.  0 when processed == clean.
    Frames where either signal or either quadratic form is not positive are
    skipped, and so are those whose clean LPC recursion broke down (its
    prediction error reached <= 0, so a_c R_c a_c' is round-off).
    """
    _check_pair(clean, processed)
    c_frames, p_frames, active = _frame_pair(clean, processed, cfg)
    order = cfg.lpc_order
    if c_frames.shape[1] <= order:
        raise ValueError("analysis frame shorter than the LPC order")
    rc = _autocorr(c_frames[active], order)
    rp = _autocorr(p_frames[active], order)
    usable = (rc[:, 0] > 0.0) & (rp[:, 0] > 0.0)
    rc, rp = rc[usable], rp[usable]
    coefs, live = _lpc(np.concatenate([rc, rp]))
    # a R_c a' from the Toeplitz structure: r_0 sum(a_i^2) + 2 sum_k r_k sum_i a_i a_(i+k)
    weights = rc * np.r_[1.0, np.full(order, 2.0)]
    forms = _autocorr(coefs, order)
    den = np.sum(forms[: len(rc)] * weights, axis=1)
    num = np.sum(forms[len(rc):] * weights, axis=1)
    scored = (num > 0.0) & (den > 0.0) & live[: len(rc)]
    if not scored.any():
        raise ValueError("no usable frames for LLR")
    return float(np.mean(np.clip(np.log(num[scored] / den[scored]), 0.0, 2.0)))


def _triangular_bank(n_bands: int, lo: float, hi: float, freqs: np.ndarray) -> np.ndarray:
    """Triangular filters with centers spaced on a mel-like log scale."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = imel(np.linspace(mel(lo), mel(hi), n_bands + 2))
    bank = np.zeros((n_bands, len(freqs)))
    for j in range(n_bands):
        f0, f1, f2 = edges[j], edges[j + 1], edges[j + 2]
        up = (freqs - f0) / max(f1 - f0, _EPS)
        down = (f2 - freqs) / max(f2 - f1, _EPS)
        bank[j] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return bank


def fwsnrseg(clean: Signal, processed: Signal, cfg: MetricConfig = MetricConfig()) -> float:
    """Frequency-weighted segmental SNR in dB.

    Band magnitudes from triangular filters over the power spectrum; band
    weights are (clean magnitude)**0.2; per-band SNR clamped to [-10, 35] dB;
    averaged over active frames.  Identical inputs score the 35 dB ceiling.
    """
    _check_pair(clean, processed)
    c_frames, p_frames, active = _frame_pair(clean, processed, cfg)
    n = c_frames.shape[1]
    freqs = np.fft.rfftfreq(n, 1.0 / clean.sample_rate)
    hi = min(cfg.band_hi_hz, clean.sample_rate / 2.0)
    bank = _triangular_bank(cfg.n_bands, cfg.band_lo_hz, hi, freqs)
    cs = np.abs(np.fft.rfft(c_frames[active], axis=1))
    ps = np.abs(np.fft.rfft(p_frames[active], axis=1))
    xb = np.sqrt(cs ** 2 @ bank.T)
    yb = np.sqrt(ps ** 2 @ bank.T)
    err = (xb - yb) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(xb ** 2 / err)
    snr = np.clip(np.nan_to_num(snr, nan=35.0, posinf=35.0, neginf=-10.0), -10.0, 35.0)
    weights = xb ** 0.2
    frame_scores = np.sum(weights * snr, axis=1) / np.maximum(np.sum(weights, axis=1), _EPS)
    if frame_scores.size == 0:
        raise ValueError("no active frames for fwSNRseg")
    return float(np.mean(frame_scores))


def _octave_band_matrix(cfg: MetricConfig) -> np.ndarray:
    """Binary one-third-octave band assignment over the rfft bins."""
    freqs = np.fft.rfftfreq(cfg.stoi_nfft, 1.0 / cfg.stoi_rate)
    centers = cfg.stoi_min_freq * 2.0 ** (np.arange(cfg.stoi_bands) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    mat = np.zeros((cfg.stoi_bands, len(freqs)))
    for j in range(cfg.stoi_bands):
        mat[j, (freqs >= lo[j]) & (freqs < hi[j])] = 1.0
    return mat


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the rows with row i starting at sample i*hop, (rows - 1)*hop +
    frame samples long.  Each hop-sized piece of every frame is added in one
    step, so each sample sums its frames in ascending row order."""
    count, n = frames.shape
    pieces = -(-n // hop)
    out = np.zeros((count + pieces - 1, hop))
    # piece j of frame i lands in block i + j: descending j is ascending i
    for j in reversed(range(pieces)):
        part = frames[:, j * hop : (j + 1) * hop]
        out[j : j + count, : part.shape[1]] += part
    return out.ravel()[: (count - 1) * hop + n]


def _remove_silent_frames(x: np.ndarray, y: np.ndarray, cfg: MetricConfig):
    n, hop = cfg.stoi_frame, cfg.stoi_hop
    win = np.hanning(n + 2)[1:-1]
    xf = sliding_window_view(x, n)[::hop] * win
    yf = sliding_window_view(y, n)[::hop] * win
    energy = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + _EPS)
    # the loudest frame always passes, so at least one frame is kept
    keep = energy > energy.max() - cfg.stoi_dyn_range_db
    return _overlap_add(xf[keep], hop), _overlap_add(yf[keep], hop)


def stoi(clean: Signal, processed: Signal, cfg: MetricConfig = MetricConfig()) -> float:
    """Short-time envelope-correlation intelligibility score in [0, 1].

    Both signals are resampled to 10 kHz; silent frames are removed; band
    envelopes from a 512-point DFT (256-sample Hann frames, 50% overlap) are
    grouped into 15 one-third-octave bands from 150 Hz; correlations of
    normalized, clipped 30-frame segments are averaged over bands and time.
    """
    _check_pair(clean, processed)
    if clean.duration < 0.5:
        raise ValueError("signals shorter than 0.5 s are not supported")
    x = resample(clean, cfg.stoi_rate).samples
    y = resample(processed, cfg.stoi_rate).samples
    x, y = _remove_silent_frames(x, y, cfg)
    n, hop = cfg.stoi_frame, cfg.stoi_hop
    if len(x) < n + cfg.stoi_seg_frames * hop:
        raise ValueError("too little active signal for the segment analysis")
    win = np.hanning(n + 2)[1:-1]
    X = np.fft.rfft(sliding_window_view(x, n)[::hop] * win, cfg.stoi_nfft, axis=1)
    Y = np.fft.rfft(sliding_window_view(y, n)[::hop] * win, cfg.stoi_nfft, axis=1)
    octmat = _octave_band_matrix(cfg)
    # band envelopes, shape (bands, frames)
    Xb = np.sqrt(octmat @ (np.abs(X) ** 2).T)
    Yb = np.sqrt(octmat @ (np.abs(Y) ** 2).T)
    N = cfg.stoi_seg_frames
    clip = 10.0 ** (-cfg.stoi_clip_db / 20.0)
    # every N-frame segment at once, shape (bands, segments, N)
    xs = sliding_window_view(Xb, N, axis=1)
    ys = sliding_window_view(Yb, N, axis=1)
    scale = np.linalg.norm(xs, axis=2, keepdims=True) / (
        np.linalg.norm(ys, axis=2, keepdims=True) + _EPS
    )
    ys = np.minimum(ys * scale, xs * (1.0 + clip))
    xc = xs - xs.mean(axis=2, keepdims=True)
    yc = ys - ys.mean(axis=2, keepdims=True)
    denom = np.linalg.norm(xc, axis=2) * np.linalg.norm(yc, axis=2)
    corr = np.sum(xc * yc, axis=2) / np.maximum(denom, _EPS)
    d = float(np.mean(corr))
    return float(np.clip(d, 0.0, 1.0))


def evaluate(clean: Signal, processed: Signal, which=("llr", "fwsnrseg", "stoi"),
             cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Compute the requested metrics for a clean/processed pair."""
    if not which:
        raise ValueError("no metric requested")
    unknown = [name for name in which if name not in ("llr", "fwsnrseg", "stoi")]
    if unknown:
        raise ValueError(f"unknown metric: {unknown[0]!r}")
    report = MetricReport()
    for name in which:
        if name == "llr":
            report.llr = llr(clean, processed, cfg)
        elif name == "fwsnrseg":
            report.fwsnrseg_db = fwsnrseg(clean, processed, cfg)
        elif name == "stoi":
            report.stoi = stoi(clean, processed, cfg)
            report.stoi_pct = float(map_intelligibility(report.stoi, STOI_MAP_A, STOI_MAP_B))
    return report
