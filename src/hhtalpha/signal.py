"""Signal container, mono WAV I/O, framing, per-frame order statistics,
windowing and overlap-add."""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

# Overlap sums below this level are treated as "no window coverage" and the
# corresponding output samples are emitted as zero.
OVERLAP_EPS = 1e-8


@dataclass(frozen=True)
class Signal:
    """Mono sample sequence with its sample rate.

    Samples are stored as a float64 array, nominally in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("Signal requires a 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("Signal samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FrameGrid:
    """Overlapping frame layout: frames of `frame_len` samples every `step`."""

    frame_len: int
    step: int
    count: int
    total_len: int


def hann_window(length: int) -> np.ndarray:
    """Half-sample-centred Hann window, w[k] = 0.5 * (1 - cos(2*pi*(k + 0.5)/length)).

    Symmetric, strictly positive, and sums to a constant under any hop
    length/k with integer k >= 2 (at hop = length the sum is the window itself).
    """
    k = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (k + 0.5) / length))


def frame_grid(total_len: int, frame_len: int, step: int) -> FrameGrid:
    """Lay out overlapping frames over a signal of `total_len` samples.

    Frame q covers [q*step, q*step + frame_len); frames running past the end
    are zero-padded.  The count is the smallest Q with Q*step >= total_len,
    so every sample is covered by at least one frame.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    if step <= 0 or step > frame_len:
        raise ValueError("step must satisfy 0 < step <= frame_len")
    if total_len < 0:
        raise ValueError("total_len must be non-negative")
    count = math.ceil(total_len / step)
    return FrameGrid(frame_len=frame_len, step=step, count=count, total_len=total_len)


def extract_frames(samples: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Cut `samples` into the grid's frames as a (count, frame_len) array.

    Positions past the end of the signal are zero.  The result is a
    read-only strided view of one zero-padded copy of `samples`; frames
    share memory, so copy it before writing.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) != grid.total_len:
        raise ValueError("sample count does not match grid.total_len")
    padded = np.zeros(max(grid.count - 1, 0) * grid.step + grid.frame_len)
    padded[: grid.total_len] = samples
    return sliding_window_view(padded, grid.frame_len)[:: grid.step][: grid.count]


def frame_order_stats(samples: np.ndarray, grid: FrameGrid, ranks) -> np.ndarray:
    """Order statistics `ranks` of every frame, as a (count, len(ranks)) array.

    Row q equals np.sort(extract_frames(samples, grid)[q])[ranks], computed
    without a frames matrix: frame 0 is sorted once, and each later frame
    removes from the sorted window the `step` samples that left it and
    merges in the `step` that entered.  Memory is O(total_len + frame_len)
    whatever the overlap.
    """
    frames = extract_frames(samples, grid)
    ranks = np.asarray(ranks, dtype=np.intp)
    out = np.empty((grid.count, len(ranks)))
    if grid.count == 0:
        return out
    n, step = grid.frame_len, grid.step
    # frame q drops frames[q - 1, :step] and takes in frames[q, n - step:]
    leaving = np.sort(frames[:-1, :step], axis=1)
    entering = np.sort(frames[1:, n - step:], axis=1)
    offset = np.arange(step)
    keep = np.ones(n, dtype=bool)
    window = np.sort(frames[0])
    out[0] = window[ranks]
    for q in range(1, grid.count):
        gone = leaving[q - 1]
        # the k-th of several equal leaving values removes the k-th equal slot
        slots = np.searchsorted(window, gone) + offset - np.searchsorted(gone, gone)
        keep[slots] = False
        # a stable sort of two sorted runs is one linear merge
        window = np.concatenate((window[keep], entering[q - 1]))
        window.sort(kind="stable")
        keep[slots] = True
        out[q] = window[ranks]
    return out


def overlap_add(sources: np.ndarray, choice, grid: FrameGrid, window: np.ndarray) -> np.ndarray:
    """Overlap-add windowed frames, each cut from its chosen source row.

    Frame q is window * sources[choice[q]] over [q*step, q*step + frame_len),
    zero past the end of the signal.  Each output sample is divided by the
    window-overlap sum P(t) = sum_q w(t - q*step); samples where
    P(t) < OVERLAP_EPS are emitted as 0.  The output has grid.total_len
    samples, each summed over its frames in ascending q.
    """
    sources = np.asarray(sources, dtype=np.float64)
    if sources.ndim != 2 or sources.shape[1] != grid.total_len:
        raise ValueError("sources must be a (rows, grid.total_len) array")
    if np.shape(choice) != (grid.count,):
        raise ValueError("choice needs one source row per frame of the grid")
    if len(window) != grid.frame_len:
        raise ValueError("window length does not match grid.frame_len")
    acc = np.zeros(grid.total_len)
    overlap = np.zeros(grid.total_len)
    for q, row in enumerate(choice):
        span = slice(q * grid.step, q * grid.step + grid.frame_len)
        chunk = sources[row, span]
        w = window[: len(chunk)]
        acc[span] += chunk * w
        overlap[span] += w
    return np.divide(acc, overlap, out=np.zeros(grid.total_len), where=overlap >= OVERLAP_EPS)


def read_wav(path) -> Signal:
    """Read a mono PCM16 or float32 WAV file.

    PCM16 samples are scaled by 1/32768 so that -32768 maps to -1.0.  A file
    cut short of the size its header gives is rejected (scipy only warns), as
    is one cut inside its header (scipy's struct unpacking fails).  Every
    error names the file.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
        try:
            rate, data = wavfile.read(path)
        except (wavfile.WavFileWarning, struct.error) as exc:
            raise ValueError(f"truncated WAV {path}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"unreadable WAV {path}: {exc}") from None
    if data.ndim != 1:
        raise ValueError(f"expected mono WAV, got {data.shape[1]} channels: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"non-finite samples in {path}")
    else:
        raise ValueError(f"unsupported WAV encoding {data.dtype}: {path}")
    return Signal(samples, rate)


def write_wav(signal: Signal, path) -> None:
    """Write a Signal as a float32 mono WAV file (lossless round-trip)."""
    wavfile.write(path, signal.sample_rate, signal.samples.astype(np.float32))


def resample(signal: Signal, target_rate: int) -> Signal:
    """Polyphase rate conversion to `target_rate` Hz.

    Output length is round(len * target/source).
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == signal.sample_rate:
        return signal
    g = math.gcd(target_rate, signal.sample_rate)
    up = target_rate // g
    down = signal.sample_rate // g
    # imported here: scipy.signal costs ~1 s and ~45 MB at import, and only resampling uses it
    from scipy.signal import resample_poly

    out = resample_poly(signal.samples, up, down)
    want = round(len(signal) * target_rate / signal.sample_rate)
    if len(out) > want:
        out = out[:want]
    elif len(out) < want:
        out = np.pad(out, (0, want - len(out)))
    return Signal(out, target_rate)
