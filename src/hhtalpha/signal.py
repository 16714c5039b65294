"""Signal container, mono WAV I/O, framing, per-frame order statistics,
windowing and overlap-add.

The package imports scipy modules inside the functions that use them, so
`import hhtalpha` loads none and a call pays only for the modules it needs:
WAV I/O imports `scipy.io` and resampling `scipy.signal` here, and the
spline in `emd` imports LAPACK.
"""

from __future__ import annotations

import math
import numbers
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Frames whose order statistics frame_order_stats reads from one merge of
# the sorted window.
ORDER_STATS_BLOCK = 16


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
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", whole_number(self.sample_rate, "sample_rate", 1))

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


def whole_number(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int; ValueError naming `name` unless it is a whole number
    (16000.0 and numpy integers pass) within float range and of at least
    `minimum`, when one is given."""
    try:
        if not (isinstance(value, numbers.Real) and float(value).is_integer()):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
    except OverflowError:
        raise ValueError(f"{name} must lie within float range, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def snr_gain(snr_db, name: str, per: float, no_noise: str) -> float:
    """10 ** (-snr_db / per), the noise gain of an SNR of `snr_db` dB (per is
    20 for an amplitude, 10 for a power); ValueError naming `name` unless
    `snr_db` is a number or +inf (`no_noise`, gain 0) whose gain is a float."""
    if not snr_db > -np.inf:
        raise ValueError(f"{name} must be a number of dB or {no_noise}, got {snr_db}")
    try:
        return 10.0 ** (-float(snr_db) / per)
    except OverflowError:
        raise ValueError(f"{name} of {snr_db} dB is too low: its noise gain overflows") from None


@dataclass(frozen=True)
class FrameGrid:
    """Overlapping frame layout: frame q covers [q*step, q*step + frame_len).

    Both sizes are whole numbers with 0 < step <= frame_len; ValueError
    names the one that is not.
    """

    frame_len: int
    step: int

    def __post_init__(self):
        frame_len, step = whole_number(self.frame_len, "frame_len"), whole_number(self.step, "step")
        if frame_len <= 0:
            raise ValueError(f"frame_len must be positive, got {frame_len}")
        if step <= 0 or step > frame_len:
            raise ValueError(f"step must satisfy 0 < step <= frame_len = {frame_len}, got {step}")
        object.__setattr__(self, "frame_len", frame_len)
        object.__setattr__(self, "step", step)

    def count(self, total_len: int) -> int:
        """ceil(total_len / step), the fewest frames that cover `total_len` samples."""
        return math.ceil(total_len / self.step)


def hann_window(length: int) -> np.ndarray:
    """Half-sample-centred Hann window, w[k] = 0.5 * (1 - cos(2*pi*(k + 0.5)/length)).

    Symmetric, positive below about 3e8 samples (longer windows round their
    edge weights to 0.0), and sums to a constant under any hop
    length/k with integer k >= 2 (at hop = length the sum is the window itself).
    Raises ValueError unless `length` is a whole number of at least 1.
    """
    k = np.arange(whole_number(length, "length", 1))
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (k + 0.5) / length))


def extract_frames(samples: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Cut `samples` into the grid's frames as a (frames, frame_len) array.

    Positions past the end of the signal are zero.  The result is a
    read-only strided view of one zero-padded copy of `samples`; frames
    share memory, so copy it before writing.
    """
    samples = np.asarray(samples, dtype=np.float64)
    count = grid.count(len(samples))
    padded = np.zeros(max(count - 1, 0) * grid.step + grid.frame_len)
    padded[: len(samples)] = samples
    return sliding_window_view(padded, grid.frame_len)[:: grid.step][:count]


def frame_order_stats(samples: np.ndarray, grid: FrameGrid, ranks) -> np.ndarray:
    """Order statistics `ranks` of every frame, as a (frames, len(ranks)) array.

    Row q equals np.sort(extract_frames(samples, grid)[q])[ranks], computed
    without a frames matrix.  Frame 0 is sorted once.  After it, each block
    of up to ORDER_STATS_BLOCK frames merges all the samples that enter
    during the block into the sorted window in one stable merge, and each
    merged value carries its sample offset.  Frame j of the block is that
    merged run less two sets of positions: the samples that left before it
    and the ones that enter after it.  Those positions, sorted per frame,
    turn each rank into one binary search and one lookup in the merged run.
    Dropping the block's leaving samples gives the next block's window.
    Memory is O(len(samples) + frame_len) whatever the overlap.  Raises
    ValueError for a rank that is not an integer in 0..frame_len-1.

    Each index array has the dtype its consumer takes, so numpy converts
    none of them per block.  The sample offsets are np.intp: they index the
    scatter into `position`, and a narrower index array is copied to intp
    on every fancy assignment.  The merged positions, the removed rows, the
    ramp and the row lifts applied to them and the lifted ranks searched for
    in them use `_index_dtype`, int32 below 2**31: the rows sort as int32,
    and the in-place arithmetic and the binary search run without a casting
    loop.
    """
    frames = extract_frames(samples, grid)
    count = len(frames)
    ranks = np.asarray(ranks)
    n, step = grid.frame_len, grid.step
    if ranks.dtype.kind not in "iu" or np.any((ranks < 0) | (ranks >= n)):
        raise ValueError(f"ranks must lie in 0..{n - 1} as integers, the positions of a sorted frame")
    ranks = ranks.astype(np.intp)
    out = np.empty((count, len(ranks)))
    if count == 0:
        return out
    # a block takes in at most a quarter frame, so it never reaches past the
    # window's samples and its (block x block*step) position rows stay O(frame_len)
    block = max(1, min(ORDER_STATS_BLOCK, n // (4 * step)))
    size = n + block * step
    # the last row of a block lifts its positions by (block - 1) * (n + 1)
    pos = _index_dtype((block + 1) * size)
    # the window, then the block's entering samples; offsets count from the window's start
    values, offsets = np.empty(size), np.empty(size, dtype=np.intp)
    merged, merged_offsets = np.empty(size), np.empty(size, dtype=np.intp)
    position = np.empty(size, dtype=pos)  # merged position of each sample offset
    keep = np.empty(size, dtype=bool)
    ramp = np.arange(size, dtype=pos)
    # row j of a block is lifted by j*(n+1), so the block searches as one
    # ascending run, and reads the merged run j*width lower; the lifts and
    # the queries are built once
    row = np.arange(block)[:, np.newaxis]
    lift = (row * (n + 1)).astype(pos)
    queries = ranks.astype(pos) + lift
    offsets[:n] = np.argsort(frames[0], kind="stable")
    np.take(frames[0], offsets[:n], out=values[:n])
    out[0] = values[ranks]
    for first in range(1, count, block):
        rows = min(block, count - first)
        width = rows * step
        m = n + width
        # the block's last frame ends with every sample the block takes in
        entering = frames[first + rows - 1, n - width :]
        order = np.argsort(entering)
        np.take(entering, order, out=values[n:m])
        np.add(order, n, out=offsets[n:m])
        # a stable sort of two sorted runs is one merge; an entering value
        # goes after the window's values equal to it
        perm = np.argsort(values[:m], kind="stable")
        np.take(values[:m], perm, out=merged[:m])
        np.take(offsets[:m], perm, out=merged_offsets[:m])
        position[merged_offsets[:m]] = ramp[:m]
        # frame first+j lacks the window's first (j+1)*step samples and the
        # entering ones from (j+1)*step on: row j is one slice of the entering
        # samples' positions followed by the leaving ones'
        removed = np.concatenate((position[n:m], position[:width]))
        removed = np.sort(sliding_window_view(removed, width)[step::step], axis=1)
        # the i-th removed position less i counts the kept values below it
        removed -= ramp[:width]
        removed += lift[:rows]
        below = np.searchsorted(removed.ravel(), queries[:rows], side="right")
        # the kept value of rank r sits past the removed positions below it
        below += ranks - row[:rows] * width
        out[first : first + rows] = merged[below]
        # the samples at offsets below width leave with the block
        np.greater_equal(merged_offsets[:m], width, out=keep[:m])
        np.compress(keep[:m], merged[:m], out=values[:n])
        np.compress(keep[:m], merged_offsets[:m], out=offsets[:n])
        offsets[:n] -= width
    return out


def _index_dtype(bound: int):
    """The narrower signed integer type that holds 0..bound."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def overlap_add(modes: np.ndarray, kept, grid: FrameGrid) -> np.ndarray:
    """Overlap-add Hann-windowed frames, each the sum of its kept leading modes.

    Frame q is w * (modes[0] + ... + modes[kept[q] - 1]), w = hann_window(frame_len),
    over [q*step, q*step + frame_len), zero past the end of the signal and where
    kept[q] is 0.  Each output sample is divided by the window-overlap sum
    P(t) = sum_q w(t - q*step) wherever P(t) > 0, however small; a sample no
    window weight reaches is emitted as 0.  The output has one sample per
    column of `modes`.

    The sum is taken by mode, sum_m modes[m] * W_m / P, where W_m is the window
    mass of the frames that keep mode m.  Frames add their window once each into
    one running mass, by descending kept count, so the mass passes through every
    W_m on its way to P.  Memory beyond the modes is that mass and one
    accumulator, O(samples + frame_len).  Time is frames * frame_len adds plus
    len(modes) * samples multiply-adds, at any step, and no BLAS call is made.
    Raises ValueError unless each kept count is an integer in 0..len(modes).
    """
    modes = np.asarray(modes, dtype=np.float64)
    if modes.ndim != 2:
        raise ValueError("modes must be a 2-D (rows, samples) array")
    length = modes.shape[1]
    count = grid.count(length)
    kept = np.asarray(kept)
    if kept.shape != (count,):
        raise ValueError("kept needs one mode count per frame of the grid")
    if kept.dtype.kind not in "iu" or np.any((kept < 0) | (kept > len(modes))):
        raise ValueError(f"kept counts must be integers in 0..{len(modes)}, the leading modes")
    step, n = grid.step, grid.frame_len
    w = hann_window(n)
    # frames go in by descending kept count: once those keeping m or more
    # modes are in, `mass` is W_(m-1), and once all are in it is P
    mass = np.zeros(max(count - 1, 0) * step + n)
    acc = np.zeros(length)
    for m in range(len(modes), -1, -1):
        for q in np.flatnonzero(kept == m):
            mass[q * step : q * step + n] += w
        if m:
            acc += modes[m - 1] * mass[:length]
    overlap = mass[:length]
    return np.divide(acc, overlap, out=np.zeros(length), where=overlap > 0)


def read_wav(path) -> Signal:
    """Read a mono PCM16 or float32 WAV file.

    PCM16 samples are scaled by 1/32768 so that -32768 maps to -1.0.  A file
    cut short of the size its header gives is rejected (scipy only warns), as
    is one cut inside its header (scipy's struct unpacking fails).  Every
    error names the file.
    """
    from scipy.io import wavfile

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
    if rate == 0:
        raise ValueError(f"sample rate 0 Hz in the header of {path}")
    return Signal(samples, rate)


def write_wav(signal: Signal, path) -> None:
    """Write a Signal as a float32 mono WAV file, each sample rounded to
    float32.  A sample beyond float32's range raises ValueError naming the
    file, before the file is opened."""
    from scipy.io import wavfile

    with np.errstate(over="ignore"):
        samples = signal.samples.astype(np.float32)
    if np.isinf(samples).any():
        raise ValueError(f"samples beyond float32's range for {path}")
    wavfile.write(path, signal.sample_rate, samples)


def resample(signal: Signal, target_rate: int) -> Signal:
    """Polyphase rate conversion to `target_rate` Hz.

    Output length is round(len * target/source).
    """
    target_rate = whole_number(target_rate, "target_rate", 1)
    if target_rate == signal.sample_rate:
        return signal
    g = math.gcd(target_rate, signal.sample_rate)
    up = target_rate // g
    down = signal.sample_rate // g
    from scipy.signal import resample_poly

    out = resample_poly(signal.samples, up, down)
    # resample_poly returns ceil(len * up / down) samples, never fewer than wanted
    want = round(len(signal) * target_rate / signal.sample_rate)
    return Signal(out[:want], target_rate)
