import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import hhtalpha.signal as signal_module
from hhtalpha import FrameGrid, Signal, hann_window, overlap_add, read_wav, resample, write_wav
from hhtalpha.signal import extract_frames, frame_order_stats
from hhtalpha.stable import alpha_from_nu, hazen_ranks, nu_from_order_stats

from conftest import OWN_PEAK, fresh_python


def test_signal_rejects_nan():
    with pytest.raises(ValueError):
        Signal(np.array([0.0, np.nan]), 16000)


def test_signal_rejects_two_dimensional_samples():
    with pytest.raises(ValueError, match="1-D sample array"):
        Signal(np.zeros((2, 4)), 16000)


def test_signal_rejects_bad_rate():
    with pytest.raises(ValueError):
        Signal(np.zeros(4), 0)


def test_signal_rejects_fractional_rate():
    with pytest.raises(ValueError, match="16000.7"):
        Signal(np.zeros(4), 16000.7)
    for rate in (16000.0, np.int64(16000), np.float64(16000)):
        sig = Signal(np.zeros(4), rate)
        assert sig.sample_rate == 16000 and type(sig.sample_rate) is int


class TestWav:
    def test_pcm16_scaling(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "pcm.wav"
        data = np.array([-32768, 0, 16384, 32767], dtype=np.int16)
        wavfile.write(path, 16000, data)
        sig = read_wav(path)
        assert sig.sample_rate == 16000
        assert sig.samples[0] == -1.0
        assert sig.samples[2] == 0.5

    def test_float32_round_trip(self, tmp_path):
        t = np.arange(16000) / 16000
        sig = Signal(np.sin(2 * np.pi * 440 * t).astype(np.float32), 16000)
        path = tmp_path / "sine.wav"
        write_wav(sig, path)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, sig.samples)

    def test_empty_signal(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(Signal(np.zeros(0), 16000), path)
        assert len(read_wav(path)) == 0

    def test_sample_beyond_float32_names_the_file(self, tmp_path):
        # float32 would store 1e39 as inf, a file read_wav rejects
        path = tmp_path / "big.wav"
        with pytest.raises(ValueError, match=re.escape(f"beyond float32's range for {path}")):
            write_wav(Signal([0.5, 1e39], 16000), path)
        assert not path.exists()

    def test_non_finite_names_the_file(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "nan.wav"
        wavfile.write(path, 16000, np.array([0.0, np.nan, 0.5], dtype=np.float32))
        with pytest.raises(ValueError, match=re.escape(f"non-finite samples in {path}")):
            read_wav(path)

    # cut in the samples, and in the fmt chunk right after its size field
    @pytest.mark.parametrize("dtype, cut", [(np.float32, 40_000), (np.int16, 38_444),
                                            (np.int16, 20)])
    def test_truncated_names_the_file(self, tmp_path, dtype, cut):
        from scipy.io import wavfile
        path = tmp_path / "cut.wav"
        wavfile.write(path, 16000, np.zeros(38400, dtype=dtype))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"truncated WAV {path}: ")):
            read_wav(path)

    # an empty file, and a float32 file cut inside its header
    @pytest.mark.parametrize("cut", [0, 50])
    def test_unreadable_names_the_file(self, tmp_path, cut):
        path = tmp_path / "bad.wav"
        write_wav(Signal(np.zeros(38400), 16000), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"unreadable WAV {path}: ")):
            read_wav(path)

    def test_unknown_chunk_still_reads(self, tmp_path):
        import struct

        from scipy.io import wavfile
        path = tmp_path / "chunk.wav"
        wavfile.write(path, 16000, np.arange(100, dtype=np.int16))
        data = path.read_bytes() + b"abcd" + struct.pack("<I", 4) + b"\0" * 4
        path.write_bytes(data[:4] + struct.pack("<I", len(data) - 8) + data[8:])
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            sig = read_wav(path)
        np.testing.assert_array_equal(sig.samples, np.arange(100) / 32768.0)

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)

    def test_int32_pcm_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "int32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(ValueError, match=re.escape(f"unsupported WAV encoding int32: {path}")):
            read_wav(path)

    def test_zero_sample_rate_names_the_file(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "zero.wav"
        wavfile.write(path, 0, np.zeros(100, dtype=np.int16))
        with pytest.raises(ValueError, match=re.escape(f"sample rate 0 Hz in the header of {path}")):
            read_wav(path)

    def test_header_round_trip(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "f.wav"
        wavfile.write(path, 16000, np.zeros(38400, dtype=np.int16))
        sig = read_wav(path)
        assert len(sig) == 38400 and sig.sample_rate == 16000


class TestFrameGrid:
    def test_paper_operating_point(self):
        assert FrameGrid(10240, 128).count(38400) == 300

    def test_single_frame(self):
        assert FrameGrid(10240, 10240).count(10240) == 1

    def test_step_above_frame_rejected(self):
        with pytest.raises(ValueError):
            FrameGrid(100, 200)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="frame_len must be positive"):
            FrameGrid(0, 1)

    @pytest.mark.parametrize("sizes, message", [
        ((200, 50.5), "step must be a whole number, got 50.5"),
        ((200.5, 50), "frame_len must be a whole number, got 200.5"),
        ((200, "50"), "step must be a whole number, got '50'"),
    ])
    def test_fractional_size_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            FrameGrid(*sizes)

    @pytest.mark.parametrize("frame_len, step, message", [
        (256, 0, r"step must satisfy 0 < step <= frame_len = 256, got 0"),
        (256, 257, r"step must satisfy 0 < step <= frame_len = 256, got 257"),
        (256, -128, r"step must satisfy 0 < step <= frame_len = 256, got -128"),
        (-256, 128, "frame_len must be positive, got -256"),
        (256.5, 128, "frame_len must be a whole number, got 256.5"),
        (256, 0.5, "step must be a whole number, got 0.5"),
    ])
    def test_built_directly_checks_its_sizes(self, frame_len, step, message):
        # the grid itself owns the size rules: nothing reaches overlap_add
        # with a step of 0 or a step that leaves samples uncovered
        with pytest.raises(ValueError, match=re.escape(message)):
            FrameGrid(frame_len=frame_len, step=step)

    def test_whole_sizes_stored_as_int(self):
        grid = FrameGrid(np.int64(200), 50.0)
        assert grid == FrameGrid(200, 50)
        assert all(type(v) is int for v in (grid.frame_len, grid.step))
        assert type(grid.count(1000)) is int

    def test_full_coverage(self):
        grid = FrameGrid(64, 17)
        covered = np.zeros(1000, bool)
        for q in range(grid.count(1000)):
            covered[q * grid.step : q * grid.step + grid.frame_len] = True
        assert covered.all()


class TestOverlapAdd:
    def test_interior_overlap_sum_is_40(self):
        grid = FrameGrid(10240, 128)
        win = hann_window(10240)
        total = np.zeros((grid.count(38400) - 1) * grid.step + grid.frame_len)
        for q in range(grid.count(38400)):
            total[q * grid.step : q * grid.step + grid.frame_len] += win
        assert total[20000] == pytest.approx(40.0, abs=1e-9)

    def test_rectangular_partition_identity(self, monkeypatch):
        monkeypatch.setattr(signal_module, "hann_window", np.ones)
        x = np.arange(1024, dtype=float)
        grid = FrameGrid(256, 256)
        rec = overlap_add(x[np.newaxis], np.ones(grid.count(1024), int), grid)
        np.testing.assert_array_equal(rec, x)

    def test_cola_identity_constant(self):
        grid = FrameGrid(10240, 128)
        rec = overlap_add(np.ones((1, 38400)), np.ones(grid.count(38400), int), grid)
        assert np.max(np.abs(rec - 1.0)) < 1e-10

    def test_cola_identity_random(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20000)
        grid = FrameGrid(2048, 256)
        rec = overlap_add(x[np.newaxis], np.ones(grid.count(20000), int), grid)
        assert np.max(np.abs(rec - x)) < 1e-8

    def test_long_frames_cover_the_signal_edges(self):
        # the Hann weight at a 16384-sample frame's first sample is 9.2e-9
        grid = FrameGrid(16384, 128)
        rec = overlap_add(np.ones((1, 48000)), np.ones(grid.count(48000), int), grid)
        np.testing.assert_array_equal(rec, 1.0)

    def test_frame_count_mismatch_rejected(self):
        grid = FrameGrid(256, 128)
        with pytest.raises(ValueError):
            overlap_add(np.zeros((1, 1024)), np.zeros(3, int), grid)

    def test_each_frame_sums_its_kept_leading_modes(self, monkeypatch):
        monkeypatch.setattr(signal_module, "hann_window", np.ones)
        modes = np.array([np.full(12, 1.0), np.full(12, 10.0), np.full(12, 100.0)])
        grid = FrameGrid(3, 3)
        rec = overlap_add(modes, [0, 1, 2, 3], grid)
        np.testing.assert_array_equal(rec, np.repeat([0.0, 1.0, 11.0, 111.0], 3))

    @pytest.mark.parametrize("row", [-1, 2, 1.0])
    def test_choice_outside_source_rows_rejected(self, row):
        # mode m is kept where kept > m, which would read -1 as no mode and
        # 1.0 as one mode; a count must be a whole in-range integer instead
        modes = np.ones((1, 16))
        grid = FrameGrid(8, 4)
        with pytest.raises(ValueError, match=r"integers in 0\.\.1"):
            overlap_add(modes, np.full(grid.count(16), row), grid)

    def test_shape_mismatch_rejected(self):
        grid = FrameGrid(256, 128)
        choice = np.zeros(grid.count(1024), int)
        with pytest.raises(ValueError, match=r"2-D \(rows, samples\) array"):
            overlap_add(np.zeros(1024), choice, grid)

    @pytest.mark.parametrize("frame_len, step", [(4, 4), (8, 4)])
    def test_empty_signal_gives_empty_output(self, frame_len, step):
        out = overlap_add(np.zeros((2, 0)), np.zeros(0, int), FrameGrid(frame_len, step))
        assert out.shape == (0,)

    def test_small_step_memory_is_a_few_frames(self):
        # at step 4 each sample sits in 1024 frames: a matmul's copy of the
        # frame indicator's Toeplitz rows would take 9600 x 1024 values (79 MB)
        # and a frames matrix 9600 x 4096, in buffers that tracemalloc does not
        # see, so the peak RSS of a fresh process is checked, in KiB (Linux)
        grown = int(fresh_python(OVERLAP_ADD_RSS))
        assert grown < 16 * 1024


OVERLAP_ADD_RSS = OWN_PEAK + """
import resource
import numpy as np
from hhtalpha import FrameGrid, overlap_add
grid = FrameGrid(4096, 4)
# a first call keeps one-time costs out of the measured growth
overlap_add(np.ones((2, 4096)), np.full(grid.count(4096), 2), grid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
overlap_add(np.ones((2, 38400)), np.full(grid.count(38400), 2), grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestWindow:
    def test_hann_symmetric_positive(self):
        win = hann_window(512)
        np.testing.assert_allclose(win, win[::-1])
        assert np.all(win >= 0)
        assert np.argmax(win) in (255, 256)

    @pytest.mark.parametrize("length, message", [
        (2.5, "length must be a whole number, got 2.5"),
        (0, "length must be >= 1, got 0"),
    ])
    def test_size_that_is_not_a_positive_whole_number_rejected(self, length, message):
        with pytest.raises(ValueError, match=message):
            hann_window(length)


class TestResample:
    def test_sine_preserved(self):
        t = np.arange(16000) / 16000
        sig = Signal(np.sin(2 * np.pi * 1000 * t), 16000)
        out = resample(sig, 10000)
        tt = np.arange(len(out)) / 10000
        ref = np.sin(2 * np.pi * 1000 * tt)
        core = slice(200, len(out) - 200)  # skip filter edges
        # quadrature projection so the sampling phase does not bias the amplitude
        seg = out.samples[core]
        cos_ref = np.cos(2 * np.pi * 1000 * tt[core])
        amp = np.hypot(2 * np.mean(seg * ref[core]), 2 * np.mean(seg * cos_ref))
        assert abs(amp - 1.0) < 0.01
        assert np.max(np.abs(seg - ref[core])) < 0.02

    def test_identity(self):
        sig = Signal(np.arange(100.0), 16000)
        assert resample(sig, 16000) is sig

    def test_length_ratio(self):
        sig = Signal(np.zeros(10240), 16000)
        assert len(resample(sig, 10000)) == 6400

    def test_fractional_rate_rejected(self):
        sig = Signal(np.zeros(10240), 16000)
        with pytest.raises(ValueError, match="10000.5"):
            resample(sig, 10000.5)
        assert resample(sig, np.int64(10000)).sample_rate == 10000
        assert len(resample(sig, 10000.0)) == 6400


SCIPY_LOAD_STEPS = """
import json, sys
import hhtalpha, hhtalpha.cli

def loaded():
    return sorted(m for m in ("scipy.io", "scipy.linalg", "scipy.signal") if m in sys.modules)

steps = {"import": sorted(m for m in sys.modules if m.startswith("scipy"))}
clean, noise, mixed = sys.argv[1:]
hhtalpha.read_wav(clean)
steps["read_wav"] = loaded()
assert hhtalpha.cli.main(["synth-noise", "--alpha", "1.5", "--duration", "0.5",
                          "--out", noise]) == 0
steps["synth-noise"] = loaded()
assert hhtalpha.cli.main(["mix", "--clean", clean, "--noise", noise, "--snr-db", "0",
                          "--out", mixed]) == 0
steps["mix"] = loaded()
hhtalpha.resample(hhtalpha.Signal([0.0] * 64, 16000), 8000)
steps["resample"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_modules_load_at_first_use(tmp_path):
    """Importing the package and its CLI loads no scipy module; WAV I/O loads
    only scipy.io, and resampling scipy.signal."""
    clean = tmp_path / "clean.wav"
    write_wav(Signal(np.sin(np.arange(8000.0)), 16000), clean)
    paths = [str(clean), str(tmp_path / "noise.wav"), str(tmp_path / "mix.wav")]
    steps = json.loads(fresh_python(SCIPY_LOAD_STEPS, *paths))
    # scipy.signal itself imports scipy.linalg
    assert "scipy.signal" in steps.pop("resample")
    assert steps == {"import": [], "read_wav": ["scipy.io"], "synth-noise": ["scipy.io"],
                     "mix": ["scipy.io"]}


def test_extract_frames_zero_pads():
    grid = FrameGrid(8, 4)
    frames = extract_frames(np.arange(10.0), grid)
    assert frames.shape == (3, 8)
    np.testing.assert_array_equal(frames[2], [8, 9, 0, 0, 0, 0, 0, 0])
    assert not frames.flags.writeable
    assert extract_frames(np.zeros(0), FrameGrid(8, 4)).shape == (0, 8)
    stats = frame_order_stats(np.arange(10.0), grid, np.arange(8))
    np.testing.assert_array_equal(stats[2], [0, 0, 0, 0, 0, 0, 8, 9])


def sorted_frames(x, grid):
    """Reference: every zero-padded frame, fully sorted."""
    count = grid.count(len(x))
    padded = np.pad(x, (0, count * grid.step + grid.frame_len))
    return np.sort(sliding_window_view(padded, grid.frame_len)[:: grid.step][:count], axis=1)


def tie_heavy(rng, n):
    """Small integers with a long run of zeros: most values repeat."""
    x = rng.integers(-3, 4, n).astype(np.float64)
    x[n // 5 : n // 2] = 0.0
    return x


def mixed_zeros(rng, n):
    """Tie-heavy values whose zeros are -0.0 and +0.0 at random."""
    x = tie_heavy(rng, n)
    x[(x == 0.0) & (rng.random(n) < 0.5)] = -0.0
    return x


SOURCES = {"continuous": lambda rng, n: rng.standard_cauchy(n), "tie_heavy": tie_heavy,
           "mixed_zeros": mixed_zeros}


def reference_frame_order_stats(samples, grid, ranks):
    """Reference: one sliding sorted window, advanced one frame at a time.
    Frame q removes the `step` samples that left frame q-1 and merges in the
    `step` that entered."""
    frames = extract_frames(samples, grid)
    ranks = np.asarray(ranks, dtype=np.intp)
    out = np.empty((len(frames), len(ranks)))
    if len(frames) == 0:
        return out
    n, step = grid.frame_len, grid.step
    # frame q drops frames[q - 1, :step] and takes in frames[q, n - step:]
    leaving = np.sort(frames[:-1, :step], axis=1)
    entering = np.sort(frames[1:, n - step:], axis=1)
    offset = np.arange(step)
    keep = np.ones(n, dtype=bool)
    window = np.sort(frames[0])
    out[0] = window[ranks]
    for q in range(1, len(frames)):
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


@st.composite
def frame_layouts(draw):
    """(length, frame_len, step, ranks): a step that divides the frame, one
    that need not, or the whole frame; count * step often runs past the end
    and the last block of frames is often short.  The ranks are the Hazen
    ranks, both ends and a few more."""
    frame_len = draw(st.integers(100, 600))
    kind = draw(st.sampled_from(["divides", "any", "frame"]))
    if kind == "divides":
        step = draw(st.sampled_from([d for d in range(1, frame_len + 1) if frame_len % d == 0]))
    elif kind == "any":
        step = draw(st.integers(1, frame_len))
    else:
        step = frame_len
    extra = draw(st.lists(st.integers(0, frame_len - 1), max_size=6))
    return draw(st.integers(0, 3000)), frame_len, step, extra


class TestFrameOrderStats:
    # (length, frame_len, step): steps that do and do not divide the frame,
    # step == frame_len, count * step past the end, a signal shorter than a
    # frame, no frames at all
    GRIDS = [(1000, 128, 32), (1000, 128, 48), (1031, 200, 7), (777, 100, 100),
             (1030, 256, 64), (50, 128, 48), (0, 128, 32)]

    @pytest.mark.parametrize("source", ["tie_heavy", "continuous"])
    @pytest.mark.parametrize("n, frame_len, step", GRIDS)
    def test_equals_sorted_frames(self, n, frame_len, step, source):
        rng = np.random.default_rng(n + step)
        x = tie_heavy(rng, n) if source == "tie_heavy" else rng.standard_cauchy(n)
        grid = FrameGrid(frame_len, step)
        expected = sorted_frames(x, grid)
        every_rank = frame_order_stats(x, grid, np.arange(frame_len))
        assert every_rank.shape == (grid.count(n), frame_len)
        np.testing.assert_array_equal(every_rank, expected)
        ranks = [frame_len - 1, 0, 3, 3]
        np.testing.assert_array_equal(frame_order_stats(x, grid, ranks), expected[:, ranks])

    @given(layout=frame_layouts(), source=st.sampled_from(sorted(SOURCES)),
           seed=st.integers(0, 2**32 - 1))
    @example(layout=(2056, 512, 8, []), source="continuous", seed=0)  # full blocks of 16
    @example(layout=(2999, 512, 7, [3, 3]), source="tie_heavy", seed=1)  # short last block
    # 15 frames: the only block is partial, 14 of 16
    @example(layout=(120, 512, 8, []), source="continuous", seed=5)
    @example(layout=(3000, 512, 8, []), source="mixed_zeros", seed=2)
    @example(layout=(1000, 128, 128, []), source="mixed_zeros", seed=3)
    @example(layout=(0, 128, 32, []), source="continuous", seed=4)
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_reference(self, layout, source, seed):
        n, frame_len, step, extra = layout
        grid = FrameGrid(frame_len, step)
        x = SOURCES[source](np.random.default_rng(seed), n)
        hazen, gamma = hazen_ranks(frame_len)
        ranks = np.concatenate((hazen, [0, frame_len - 1], extra)).astype(np.intp)
        got = frame_order_stats(x, grid, ranks)
        expected = reference_frame_order_stats(x, grid, ranks)
        if source == "mixed_zeros":
            # which of two equal zeros sits at a rank may differ; the alphas may not
            np.testing.assert_array_equal(got, expected)
            got, expected = (alpha_from_nu(nu_from_order_stats(stats[:, :8], gamma))
                             for stats in (got, expected))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_wide_positions_match_reference(self, monkeypatch):
        # the int64 positions a frame too long for int32 needs, on a small grid
        assert signal_module._index_dtype(np.iinfo(np.int32).max) is np.int32
        assert signal_module._index_dtype(np.iinfo(np.int32).max + 1) is np.int64
        monkeypatch.setattr(signal_module, "_index_dtype", lambda bound: np.int64)
        x = np.random.default_rng(4).standard_cauchy(3000)
        grid = FrameGrid(512, 7)
        ranks = np.arange(512)
        assert (frame_order_stats(x, grid, ranks).tobytes()
                == reference_frame_order_stats(x, grid, ranks).tobytes())

    @pytest.mark.parametrize("rank", [-1, 8, 100, 0.5, 2.0])
    def test_rank_outside_frame_rejected(self, rank):
        with pytest.raises(ValueError, match=r"ranks must lie in 0\.\.7"):
            frame_order_stats(np.arange(10.0), FrameGrid(8, 4), [0, rank])

    @pytest.mark.parametrize("step", [1, 7, 2560 // 16, 2560 // 2, 2560])
    def test_memory_independent_of_step(self, step):
        # the block buffers stay O(frame_len) at any step; a frames matrix
        # (2560 frames over each sample at step 1) would not fit
        n, frame_len = 16000, 2560
        x = np.random.default_rng(6).standard_cauchy(n)
        grid = FrameGrid(frame_len, step)
        ranks = hazen_ranks(frame_len)[0]
        tracemalloc.start()
        try:
            frame_order_stats(x, grid, ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - grid.count(n) * len(ranks) * 8 <= 6 * (n + frame_len) * 8
