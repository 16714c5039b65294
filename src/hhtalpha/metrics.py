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

# The measures `evaluate` computes, by name.
METRICS = ("llr", "fwsnrseg", "stoi")

_EPS = 1e-15


# LLR and fwSNRseg: 32 ms Hann frames every 16 ms, LPC order 16, 25
# triangular bands over 50-8000 Hz; frames more than 40 dB below the loudest
# clean frame are skipped.
FRAME_MS = 32.0
HOP_MS = 16.0
LPC_ORDER = 16
N_BANDS = 25
BAND_LO_HZ = 50.0
BAND_HI_HZ = 8000.0
ACTIVE_FLOOR_DB = 40.0
# A Levinson-Durbin row stops once its prediction error falls to
# LPC_ERR_FLOOR times its lag-0 autocorrelation: below that the error is
# round-off, whatever the signal's scale.
LPC_ERR_FLOOR = 1e-10
# Envelope-correlation intelligibility (Taal et al. 2011): 10 kHz, 256-sample
# frames every 128 samples with a 512-point DFT, 15 one-third-octave bands
# from 150 Hz, 30-frame segments clipped at -15 dB, and frames more than
# 40 dB below the loudest removed as silent.
STOI_RATE = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_NFFT = 512
STOI_BANDS = 15
STOI_MIN_FREQ = 150.0
STOI_SEG_FRAMES = 30
STOI_CLIP_DB = -15.0
STOI_DYN_RANGE_DB = 40.0


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


def map_intelligibility(d: float) -> float:
    """Logistic mapping from an objective score to an intelligibility %."""
    return 100.0 / (1.0 + np.exp(STOI_MAP_A * d + STOI_MAP_B))


def _check_pair(clean: Signal, processed: Signal) -> None:
    if len(clean) != len(processed):
        raise ValueError("clean and processed lengths differ")
    if clean.sample_rate != processed.sample_rate:
        raise ValueError("clean and processed sample rates differ")


def _active_frames(clean: Signal, processed: Signal):
    """Windowed (clean, processed) frame matrices of the active frames only:
    those whose clean energy is within ACTIVE_FLOOR_DB of the loudest frame."""
    _check_pair(clean, processed)
    n = int(round(FRAME_MS * clean.sample_rate / 1000.0))
    hop = int(round(HOP_MS * clean.sample_rate / 1000.0))
    if n < 1 or hop < 1:
        raise ValueError(f"analysis frames and hops must each span at least one sample "
                         f"at {clean.sample_rate} Hz")
    if len(clean) < n:
        raise ValueError("signal shorter than one analysis frame")
    win = np.hanning(n)
    c = sliding_window_view(clean.samples, n)[::hop] * win
    energy = np.sum(c * c, axis=1)
    active = energy >= energy.max() * 10.0 ** (-ACTIVE_FLOOR_DB / 10.0)
    return c[active], sliding_window_view(processed.samples, n)[::hop][active] * win


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row of x with the same row of y, each summed the
    way np.dot sums one pair of vectors."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _autocorr(rows: np.ndarray) -> np.ndarray:
    """Lags 0..LPC_ORDER of each row's autocorrelation, shape (rows, LPC_ORDER + 1)."""
    n = rows.shape[1]
    return np.stack([_row_dots(rows[:, : n - k], rows[:, k:]) for k in range(LPC_ORDER + 1)],
                    axis=1)


def _lpc(r: np.ndarray):
    """Levinson-Durbin on every row of r (autocorrelation lags 0..order,
    lag 0 positive) at once: LPC coefficients [1, a_1 .. a_order] per row,
    and which rows kept their prediction error above LPC_ERR_FLOOR * r_0
    throughout.  A row whose error drops to that floor keeps that
    iteration's coefficients and is left alone from then on."""
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
        live &= err > LPC_ERR_FLOOR * r[:, 0]
    return a, live


def llr(clean: Signal, processed: Signal) -> float:
    """LPC log-likelihood ratio, averaged over active frames.

    Per frame: log(a_p R_c a_p' / a_c R_c a_c'), clamped to [0, 2], with R_c
    the clean-frame autocorrelation matrix.  0 when processed == clean.
    Frames where either signal or either quadratic form is not positive are
    skipped, and so are those whose clean LPC recursion broke down (its
    prediction error fell to LPC_ERR_FLOOR of the frame's power, so
    a_c R_c a_c' is round-off).
    """
    return _llr(*_active_frames(clean, processed))


def _llr(c_frames: np.ndarray, p_frames: np.ndarray) -> float:
    """`llr` of the active (clean, processed) frame matrices."""
    if c_frames.shape[1] <= LPC_ORDER:
        raise ValueError(f"analysis frame of {c_frames.shape[1]} samples is not longer than "
                         f"the LPC order {LPC_ORDER}")
    rc = _autocorr(c_frames)
    rp = _autocorr(p_frames)
    usable = (rc[:, 0] > 0.0) & (rp[:, 0] > 0.0)
    rc, rp = rc[usable], rp[usable]
    coefs, live = _lpc(np.concatenate([rc, rp]))
    # a R_c a' from the Toeplitz structure: r_0 sum(a_i^2) + 2 sum_k r_k sum_i a_i a_(i+k)
    weights = rc * np.r_[1.0, np.full(LPC_ORDER, 2.0)]
    forms = _autocorr(coefs)
    den = np.sum(forms[: len(rc)] * weights, axis=1)
    num = np.sum(forms[len(rc):] * weights, axis=1)
    scored = (num > 0.0) & (den > 0.0) & live[: len(rc)]
    if not scored.any():
        raise ValueError("no usable frames for LLR")
    return float(np.mean(np.clip(np.log(num[scored] / den[scored]), 0.0, 2.0)))


def _triangular_bank(hi: float, freqs: np.ndarray) -> np.ndarray:
    """N_BANDS triangular filters over BAND_LO_HZ..hi, centers on a mel-like log scale."""
    mel = 2595.0 * np.log10(1.0 + np.array([BAND_LO_HZ, hi]) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(*mel, N_BANDS + 2) / 2595.0) - 1.0)
    # one row per band: its lower edge, centre and upper edge
    f0, f1, f2 = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (freqs - f0) / np.maximum(f1 - f0, _EPS)
    down = (f2 - freqs) / np.maximum(f2 - f1, _EPS)
    return np.clip(np.minimum(up, down), 0.0, 1.0)


def fwsnrseg(clean: Signal, processed: Signal) -> float:
    """Frequency-weighted segmental SNR in dB.

    Band magnitudes from triangular filters over the power spectrum; band
    weights are (clean magnitude)**0.2; per-band SNR clamped to [-10, 35] dB;
    averaged over active frames.  Identical inputs score the 35 dB ceiling.
    """
    return _fwsnrseg(*_active_frames(clean, processed), clean.sample_rate)


def _fwsnrseg(c_frames: np.ndarray, p_frames: np.ndarray, rate: int) -> float:
    """`fwsnrseg` of the active (clean, processed) frame matrices."""
    n = c_frames.shape[1]
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    hi = min(BAND_HI_HZ, rate / 2.0)
    bank = _triangular_bank(hi, freqs)
    cs = np.abs(np.fft.rfft(c_frames, axis=1))
    ps = np.abs(np.fft.rfft(p_frames, axis=1))
    xb = np.sqrt(cs ** 2 @ bank.T)
    yb = np.sqrt(ps ** 2 @ bank.T)
    err = (xb - yb) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(xb ** 2 / err)
    snr = np.clip(np.nan_to_num(snr, nan=35.0, posinf=35.0, neginf=-10.0), -10.0, 35.0)
    weights = xb ** 0.2
    frame_scores = np.sum(weights * snr, axis=1) / np.maximum(np.sum(weights, axis=1), _EPS)
    return float(np.mean(frame_scores))


def _octave_band_matrix() -> np.ndarray:
    """Binary one-third-octave band assignment over the rfft bins."""
    freqs = np.fft.rfftfreq(STOI_NFFT, 1.0 / STOI_RATE)
    centers = STOI_MIN_FREQ * 2.0 ** (np.arange(STOI_BANDS) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return ((freqs >= lo[:, None]) & (freqs < hi[:, None])).astype(np.float64)


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum of the STOI_FRAME-sample rows with row i starting at sample
    i*STOI_HOP, (rows + 1)*STOI_HOP samples long.  Each half of every frame is
    added in one step, so each sample sums its frames in ascending row order."""
    # STOI_FRAME is 2 * STOI_HOP, so block i + 1 adds the second half of row i
    # before the first half of row i + 1
    out = np.zeros((len(frames) + 1, STOI_HOP))
    out[1:] += frames[:, STOI_HOP:]
    out[:-1] += frames[:, :STOI_HOP]
    return out.ravel()


def _remove_silent_frames(x: np.ndarray, y: np.ndarray, win: np.ndarray):
    n, hop = STOI_FRAME, STOI_HOP
    xf = sliding_window_view(x, n)[::hop] * win
    yf = sliding_window_view(y, n)[::hop] * win
    energy = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + _EPS)
    # the loudest frame always passes, so at least one frame is kept
    keep = energy > energy.max() - STOI_DYN_RANGE_DB
    return _overlap_add(xf[keep]), _overlap_add(yf[keep])


def stoi(clean: Signal, processed: Signal) -> float:
    """Short-time envelope-correlation intelligibility score in [0, 1].

    Both signals are resampled to 10 kHz; silent frames are removed; band
    envelopes from a 512-point DFT (256-sample Hann frames, 50% overlap) are
    grouped into 15 one-third-octave bands from 150 Hz; correlations of
    normalized, clipped 30-frame segments are averaged over bands and time.
    """
    _check_pair(clean, processed)
    if clean.duration < 0.5:
        raise ValueError("signals shorter than 0.5 s are not supported")
    x = resample(clean, STOI_RATE).samples
    y = resample(processed, STOI_RATE).samples
    n, hop, N = STOI_FRAME, STOI_HOP, STOI_SEG_FRAMES
    win = np.hanning(n + 2)[1:-1]
    x, y = _remove_silent_frames(x, y, win)
    if len(x) < n + N * hop:
        raise ValueError("too little active signal for the segment analysis")
    X = np.fft.rfft(sliding_window_view(x, n)[::hop] * win, STOI_NFFT, axis=1)
    Y = np.fft.rfft(sliding_window_view(y, n)[::hop] * win, STOI_NFFT, axis=1)
    octmat = _octave_band_matrix()
    # band envelopes, shape (bands, frames)
    Xb = np.sqrt(octmat @ (np.abs(X) ** 2).T)
    Yb = np.sqrt(octmat @ (np.abs(Y) ** 2).T)
    clip = 10.0 ** (-STOI_CLIP_DB / 20.0)
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


def evaluate(clean: Signal, processed: Signal, which=METRICS) -> MetricReport:
    """Compute the metrics named in the iterable `which` for a clean/processed
    pair, framing it once."""
    if isinstance(which, str):
        raise ValueError(f"which is a sequence of metric names, got the string {which!r}")
    which = tuple(which)
    if not which:
        raise ValueError("no metric requested")
    unknown = [name for name in which if name not in METRICS]
    if unknown:
        raise ValueError(f"unknown metric: {unknown[0]!r}")
    report = MetricReport()
    # STOI first, so its peak never lands on top of the LLR/fwSNRseg frame matrices
    if "stoi" in which:
        report.stoi = stoi(clean, processed)
        report.stoi_pct = float(map_intelligibility(report.stoi))
    if "llr" in which or "fwsnrseg" in which:
        frames = _active_frames(clean, processed)
        if "llr" in which:
            report.llr = _llr(*frames)
        if "fwsnrseg" in which:
            report.fwsnrseg_db = _fwsnrseg(*frames, clean.sample_rate)
    return report
