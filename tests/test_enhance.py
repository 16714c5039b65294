import dataclasses
import importlib
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import hhtalpha
import hhtalpha.signal as signal_module
from hhtalpha import (
    EemdConfig,
    EnhanceConfig,
    FrameGrid,
    Signal,
    alpha_from_nu,
    analyse,
    eemd,
    enhance,
    profile_alpha,
    reconstruct,
    sample_sas,
)
from hhtalpha.emd import ImfSet
from hhtalpha.enhance import apply_selection

from conftest import make_speech_proxy, mix_at_snr, within

# the package re-exports the function `enhance`, which shadows the submodule name
enhance_module = importlib.import_module("hhtalpha.enhance")
fork_module = importlib.import_module("hhtalpha._fork")

FAST_EEMD = EemdConfig(max_modes=6, ensemble_size=3, ensemble_snr_db=30.0, master_seed=1)


def small_cfg(**kw):
    defaults = dict(eemd=FAST_EEMD, frame_len=2048, step=256)
    defaults.update(kw)
    return EnhanceConfig(**defaults)


def test_public_names_resolve():
    for name in hhtalpha.__all__:
        assert getattr(hhtalpha, name) is not None, name


def test_frame_shorter_than_estimator_minimum_rejected():
    with pytest.raises(ValueError, match="frame_len"):
        EnhanceConfig(frame_len=64, step=32)
    EnhanceConfig(frame_len=100, step=32)


@pytest.mark.parametrize("setting, value, message", [
    ("mu", 0.0, r"mu must lie in \(0, 1\]"),
    ("alpha_min", 0.4, r"alpha_min must lie in \[0.5, 2.0\]"),
    ("threshold_combine", "max", "threshold_combine must be 'floor' or 'literal_min'"),
    ("step", 0, "step must satisfy 0 < step <= frame_len"),
    ("frame_len", 2048.5, "frame_len must be a whole number, got 2048.5"),
    ("frame_len", np.nan, "frame_len must be a whole number, got nan"),
    ("step", 128.5, "step must be a whole number, got 128.5"),
    ("step", "128", "step must be a whole number, got '128'"),
])
def test_setting_out_of_range_rejected(setting, value, message):
    with pytest.raises(ValueError, match=message):
        EnhanceConfig(**{setting: value})


def test_whole_frame_sizes_stored_as_int():
    cfg = EnhanceConfig(frame_len=np.float64(2048), step=128.0)
    assert (cfg.frame_len, cfg.step) == (2048, 128)
    assert type(cfg.frame_len) is int and type(cfg.step) is int


def thresholds(alpha_u, cfg):
    """The thresholds apply_selection sets for frames whose noisy alpha is alpha_u."""
    alpha_u = np.atleast_1d(alpha_u)
    return apply_selection(np.zeros((len(alpha_u), 1)), alpha_u, cfg).thresholds


def cuts(per_mode, rho):
    """The cut indices apply_selection picks at threshold rho per frame: with
    mu = 1 and alpha_min = 0.5 the threshold is the frame's noisy alpha."""
    per_mode = np.atleast_2d(per_mode)
    rho = np.broadcast_to(rho, per_mode.shape[:1])
    return apply_selection(per_mode, rho, small_cfg(mu=1.0, alpha_min=0.5)).cut_index


class TestThreshold:
    def test_floor_passes_scaled_value(self):
        assert thresholds(1.6, small_cfg()) == pytest.approx([1.28])

    def test_floor_engages(self):
        assert thresholds(1.0, small_cfg()) == pytest.approx([1.1])

    def test_literal_min(self):
        cfg = small_cfg(threshold_combine="literal_min")
        assert thresholds(1.0, cfg) == pytest.approx([0.8])

    @pytest.mark.parametrize("mode", ["floor", "literal_min"])
    def test_elementwise(self, mode):
        cfg = small_cfg(threshold_combine=mode)
        alpha_u = np.array([0.5, 1.0, 1.375, 1.6, 2.0])
        np.testing.assert_array_equal(thresholds(alpha_u, cfg),
                                      [thresholds(a, cfg)[0] for a in alpha_u])


class TestSelectCut:
    def test_last_below(self):
        assert cuts([1.0, 1.05, 1.2, 1.9, 2.0], 1.25) == [3]

    def test_empty_selection(self):
        assert cuts([1.9, 2.0], 1.1) == [0]

    def test_interior_above_threshold_kept(self):
        # "last mode below" keeps the above-threshold mode in between
        assert cuts([1.0, 1.3, 1.05, 2.0], 1.1) == [3]

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alphas = rng.uniform(0.5, 2.0, size=8)
            rhos = np.sort(rng.uniform(0.5, 2.0, size=4))
            one_by_one = [cuts(alphas, r)[0] for r in rhos]
            assert one_by_one == sorted(one_by_one)
            # selecting over all frames at once equals one frame at a time
            matrix = np.tile(alphas, (len(rhos), 1))
            np.testing.assert_array_equal(cuts(matrix, rhos), one_by_one)

    def test_profile_is_finished_and_frozen(self):
        prof = apply_selection(np.array([[1.0, 2.0], [1.5, 1.8]]), np.array([1.2, 1.4]),
                               small_cfg())
        assert prof.thresholds.shape == prof.cut_index.shape == (2,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prof.cut_index = np.zeros(2, dtype=int)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frames x modes"):
            apply_selection(np.array([1.0, 1.3]), np.array([1.2, 1.4]), small_cfg())
        with pytest.raises(ValueError, match="one noisy value per frame"):
            apply_selection(np.ones((3, 2)), np.array([1.2, 1.4]), small_cfg())


class TestProfileAlpha:
    def test_stable_mode_frame(self):
        n = 20480
        mode = sample_sas(1.2, n, 3)
        imfs = ImfSet(mode[np.newaxis], np.zeros(n))
        grid = FrameGrid(10240, 10240)
        per_mode, _ = profile_alpha(imfs, mode, grid)
        assert per_mode.shape == (2, 1)
        assert np.all(np.abs(per_mode - 1.2) < 0.1)

    def test_degenerate_frame_sentinel(self):
        n = 3000
        x = np.zeros(n)
        x[:1024] = np.sin(np.arange(1024.0))
        imfs = ImfSet(x[np.newaxis], np.zeros(n))
        grid = FrameGrid(1024, 1024)
        per_mode, _ = profile_alpha(imfs, x, grid)
        # frames 1 and 2 are all-zero
        assert per_mode[1, 0] == 2.0
        assert per_mode[2, 0] == 2.0

    def test_length_mismatch_rejected(self):
        imfs = ImfSet(np.zeros((1, 100)), np.zeros(100))
        with pytest.raises(ValueError, match="mode length does not match"):
            profile_alpha(imfs, np.zeros(99), FrameGrid(50, 50))

    def test_alpha_range_invariant(self, noisy_pair):
        _, noisy = noisy_pair
        short = Signal(noisy.samples[:8192], noisy.sample_rate)
        imfs = eemd(short, FAST_EEMD)
        grid = FrameGrid(2048, 512)
        per_mode, noisy_alphas = profile_alpha(imfs, short.samples, grid)
        assert np.all(per_mode >= 0.5) and np.all(per_mode <= 2.0)
        assert np.all(noisy_alphas >= 0.5) and np.all(noisy_alphas <= 2.0)


    GRIDS = [(3000, 1024, 128), (2500, 1000, 300), (2048, 512, 512), (700, 1024, 256)]

    @pytest.mark.parametrize("n, frame_len, step", GRIDS)
    def test_bit_equal_to_quantile_profile(self, n, frame_len, step):
        rng = np.random.default_rng(n)
        imfs = random_imfs(rng, n, 3)
        ties = np.round(imfs.modes[0] * 4)
        ties[n // 4 : n // 2] = 0.0
        imfs = ImfSet(np.vstack([imfs.modes, ties]), imfs.residual)
        noisy = imfs.total()
        grid = FrameGrid(frame_len, step)
        got = profile_alpha(imfs, noisy, grid)
        expected = quantile_profile(imfs, noisy, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_bit_equal_to_quantile_profile_on_eemd_modes(self, noisy_pair):
        _, noisy = noisy_pair
        short = Signal(noisy.samples[:8192], noisy.sample_rate)
        imfs = eemd(short, FAST_EEMD)
        grid = FrameGrid(2048, 64)
        got = profile_alpha(imfs, short.samples, grid)
        expected = quantile_profile(imfs, short.samples, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_memory_independent_of_frame_overlap(self, monkeypatch):
        # 80 frames cover each sample; a frames matrix would take 80 x length.
        # One core, so the sequences are scored where tracemalloc sees them.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n, modes = 16000, 4
        imfs = random_imfs(np.random.default_rng(5), n, modes)
        noisy = imfs.total()
        grid = FrameGrid(2560, 32)
        tracemalloc.start()
        try:
            profile_alpha(imfs, noisy, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (n + grid.frame_len) * 8


class TestProfileOnAnyCoreCount:
    """The 11 sequences (10 modes plus the noisy input) are scored on forked
    workers; the bytes must not depend on how many."""

    @staticmethod
    def sequences():
        imfs = random_imfs(np.random.default_rng(21), 4096, 10)
        return imfs, imfs.total(), FrameGrid(1024, 128)

    @staticmethod
    def record_pools(monkeypatch, cpus):
        pools = []

        def recording_pool(workers, **kwargs):
            pools.append(workers)
            return ProcessPoolExecutor(workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(fork_module, "ProcessPoolExecutor", recording_pool)
        return pools

    @pytest.mark.parametrize("cpus", [1, 2, 6])
    def test_bit_equal_on_any_core_count(self, monkeypatch, cpus):
        imfs, noisy, grid = self.sequences()
        pools = self.record_pools(monkeypatch, cpus)
        with within(60):
            got = profile_alpha(imfs, noisy, grid)
        assert pools == ([cpus] if cpus > 1 else [])
        expected = quantile_profile(imfs, noisy, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert multiprocessing.active_children() == []

    def test_analyse_forks_both_stages(self, monkeypatch, noisy_pair):
        _, noisy = noisy_pair
        short = Signal(noisy.samples[:8192], noisy.sample_rate)
        self.record_pools(monkeypatch, 1)
        serial_imfs, _, serial_profile = analyse(short, small_cfg())
        pools = self.record_pools(monkeypatch, 2)
        with within(60):
            imfs, _, profile = analyse(short, small_cfg())
        # one pool for the EEMD trials, then one for the profiling
        assert pools == [2, 2]
        assert imfs.modes.tobytes() == serial_imfs.modes.tobytes()
        for name in ("per_mode", "noisy", "thresholds", "cut_index"):
            assert getattr(profile, name).tobytes() == getattr(serial_profile, name).tobytes()
        assert multiprocessing.active_children() == []

    def test_no_fork_platform_runs_both_stages_in_process(self, monkeypatch, noisy_pair):
        _, noisy = noisy_pair
        short = Signal(noisy.samples[:8192], noisy.sample_rate)
        pools = self.record_pools(monkeypatch, 2)
        with within(60):
            forked_imfs, _, forked_profile = analyse(short, small_cfg())
        assert pools == [2, 2]

        def no_pool(*args, **kwargs):
            raise AssertionError("a platform without fork must not start a pool")

        monkeypatch.setattr(fork_module, "FORK", None)
        monkeypatch.setattr(fork_module, "ProcessPoolExecutor", no_pool)
        imfs, _, profile = analyse(short, small_cfg())
        assert imfs.modes.tobytes() == forked_imfs.modes.tobytes()
        assert imfs.residual.tobytes() == forked_imfs.residual.tobytes()
        for name in ("per_mode", "noisy", "thresholds", "cut_index"):
            assert getattr(profile, name).tobytes() == getattr(forked_profile, name).tobytes()
        assert multiprocessing.active_children() == []

    def test_threaded_caller_profiles_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a caller with threads must not fork")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(fork_module, "ProcessPoolExecutor", no_pool)
        imfs, noisy, grid = self.sequences()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = profile_alpha(imfs, noisy, grid)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        expected = quantile_profile(imfs, noisy, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_sequence_reaches_caller(self, monkeypatch, cpus):
        # forked workers inherit the patch; only mode 4's scoring raises
        imfs, noisy, grid = self.sequences()
        original = enhance_module.frame_order_stats

        def failing_order_stats(samples, grid, ranks):
            if np.array_equal(samples, imfs.modes[3]):
                raise RuntimeError("scoring failed")
            return original(samples, grid, ranks)

        self.record_pools(monkeypatch, cpus)
        monkeypatch.setattr(enhance_module, "frame_order_stats", failing_order_stats)
        with within(60):
            with pytest.raises(RuntimeError, match="scoring failed"):
                profile_alpha(imfs, noisy, grid)
        assert multiprocessing.active_children() == []


def quantile_profile(imfs, noisy, grid):
    """Reference (per_mode, noisy) profile: numpy's Hazen quantiles over a
    (frames x frame_len) matrix of each zero-padded sequence, then the table
    lookup."""

    def frame_alphas(x):
        count = grid.count(len(x))
        padded = np.zeros(max(count - 1, 0) * grid.step + grid.frame_len)
        padded[: len(x)] = x
        frames = sliding_window_view(padded, grid.frame_len)[:: grid.step][:count]
        q05, q25, q75, q95 = np.quantile(frames, [0.05, 0.25, 0.75, 0.95], axis=-1,
                                         method="hazen")
        iqr = q75 - q25
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = np.where(iqr > 0.0, (q95 - q05) / iqr, np.nan)
        return np.nan_to_num(alpha_from_nu(nu), nan=2.0)

    per_mode = np.stack([frame_alphas(m) for m in imfs.modes], axis=1)
    return per_mode, frame_alphas(noisy)


def frames_matrix_reconstruct(imfs, cut_index, grid, window):
    """Reference reconstruction: materialise every windowed frame of the kept
    mode prefix in a (frames x frame_len) matrix, then overlap-add the rows."""
    prefix = np.cumsum(imfs.modes, axis=0)
    count = grid.count(imfs.source_len)
    frames = np.zeros((count, grid.frame_len))
    for q in range(count):
        z = int(cut_index[q])
        if z == 0:
            continue
        start = q * grid.step
        chunk = prefix[z - 1, start : start + grid.frame_len]
        frames[q, : len(chunk)] = chunk
    frames *= window
    ext = (count - 1) * grid.step + grid.frame_len if count else 0
    acc = np.zeros(ext)
    overlap = np.zeros(ext)
    for q in range(count):
        start = q * grid.step
        acc[start : start + grid.frame_len] += frames[q]
        overlap[start : start + grid.frame_len] += window
    covered = overlap >= 1e-8
    out = np.zeros(ext)
    out[covered] = acc[covered] / overlap[covered]
    return out[: imfs.source_len]


def random_imfs(rng, n, modes):
    return ImfSet(modes=rng.standard_normal((modes, n)) * 0.5 ** np.arange(modes)[:, np.newaxis],
                  residual=rng.standard_normal(n))


class TestReconstruct:
    # (length, frame_len, step): steps that do and do not divide the frame,
    # step == frame_len, count * step past the end, a signal shorter than a
    # frame; the first and last leave overlap_add's last batch of
    # frame_len // step frames part-filled
    GRIDS = [(1000, 128, 48), (777, 100, 100), (2048, 256, 64), (50, 128, 48), (1031, 200, 7)]

    @pytest.mark.parametrize("kind", ["hann", "rectangular"])
    @pytest.mark.parametrize("n, frame_len, step", GRIDS)
    def test_bit_exact_to_frames_matrix(self, monkeypatch, n, frame_len, step, kind):
        if kind == "rectangular":
            # checks the overlap sum apart from the shape of the Hann window
            monkeypatch.setattr(signal_module, "hann_window", np.ones)
        rng = np.random.default_rng(n + step)
        grid = FrameGrid(frame_len, step)
        win = signal_module.hann_window(frame_len)
        for modes in (0, 1, 4):
            imfs = random_imfs(rng, n, modes)
            cut_lists = [np.zeros(grid.count(n), int), np.full(grid.count(n), modes)]
            cut_lists += [rng.integers(0, modes + 1, grid.count(n)) for _ in range(10)]
            for cut in cut_lists:
                out = reconstruct(imfs, cut, grid)
                expected = frames_matrix_reconstruct(imfs, cut, grid, win)
                assert out.tobytes() == expected.tobytes()

    def test_memory_independent_of_frame_overlap(self):
        # 128 frames cover each sample; a frames matrix would take 128 x length,
        # and a stacked copy of the modes beside a table of running sums would
        # break the tighter bound
        n, modes = 16000, 10
        rng = np.random.default_rng(3)
        imfs = random_imfs(rng, n, modes)
        grid = FrameGrid(2048, 16)
        cut = rng.integers(0, modes + 1, grid.count(n))
        tracemalloc.start()
        try:
            reconstruct(imfs, cut, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (modes + 1) * n * 8
        assert peak <= (modes + 8) * n * 8

    def test_running_sums_held_a_batch_of_frames_at_a_time(self):
        # one (modes + 1) x length table of running sums would be 14 MB here;
        # a batch's table spans less than two frames, 1.8 MB
        n, modes = 160_000, 10
        rng = np.random.default_rng(4)
        imfs = random_imfs(rng, n, modes)
        grid = FrameGrid(10240, 128)
        cut = rng.integers(0, modes + 1, grid.count(n))
        tracemalloc.start()
        try:
            reconstruct(imfs, cut, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (modes + 1) * n * 8 / 2

    def _setup(self, n=8192):
        x = make_speech_proxy(n=n, bursts=((0.05, 0.2), (0.3, 0.15)))
        sig = Signal(x, 16000)
        imfs = eemd(sig, FAST_EEMD)
        grid = FrameGrid(2048, 256)
        return sig, imfs, grid

    def test_keep_all_is_identity_to_mode_sum(self):
        sig, imfs, grid = self._setup()
        out = reconstruct(imfs, np.full(grid.count(len(sig)), imfs.mode_count), grid)
        mode_sum = imfs.modes.sum(axis=0)
        peak = np.max(np.abs(mode_sum))
        assert np.max(np.abs(out - mode_sum)) < 1e-6 * peak

    def test_keep_none_is_silence(self):
        sig, imfs, grid = self._setup()
        out = reconstruct(imfs, np.zeros(grid.count(len(sig)), dtype=int), grid)
        np.testing.assert_array_equal(out, 0.0)

    def test_cut_index_outside_mode_count_rejected(self):
        n, modes = 1000, 3
        imfs = random_imfs(np.random.default_rng(1), n, modes)
        grid = FrameGrid(128, 64)
        for bad in (-1, modes + 1):
            cut = np.full(grid.count(n), modes)
            cut[grid.count(n) // 2] = bad
            with pytest.raises(ValueError, match=r"integers in 0\.\.3"):
                reconstruct(imfs, cut, grid)
        with pytest.raises(ValueError, match=r"integers in 0\.\.3"):
            reconstruct(imfs, np.full(grid.count(n), 1.5), grid)

    def test_output_length_exact(self):
        sig, imfs, grid = self._setup()
        prof = apply_selection(*profile_alpha(imfs, sig.samples, grid), small_cfg())
        out = reconstruct(imfs, prof.cut_index, grid)
        assert len(out) == len(sig)


class TestEnhance:
    def test_determinism(self):
        x = make_speech_proxy(n=8192, bursts=((0.05, 0.2), (0.3, 0.15)))
        noise = sample_sas(1.2, 8192, 5)
        noise *= np.sqrt(np.mean(x ** 2) / np.mean(noise ** 2))
        noisy = Signal(x + noise, 16000)
        cfg = small_cfg()
        a, _ = enhance(noisy, cfg)
        b, _ = enhance(noisy, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_scale_invariant_selection(self):
        x = make_speech_proxy(n=8192, bursts=((0.05, 0.2), (0.3, 0.15)))
        noise = sample_sas(1.2, 8192, 5)
        noisy = Signal(x + noise * np.sqrt(np.mean(x ** 2) / np.mean(noise ** 2)), 16000)
        cfg = small_cfg()
        _, prof1 = enhance(noisy, cfg)
        _, prof2 = enhance(Signal(noisy.samples * 7.5, 16000), cfg)
        np.testing.assert_array_equal(prof1.cut_index, prof2.cut_index)

    def test_power_of_two_scaling_is_exact(self):
        # a factor 2**k moves only exponents, so the ensemble noise, every
        # mode and every order statistic scale exactly and the profile is
        # unchanged; a factor such as 7.5 rounds, and only the cut survives it
        x = make_speech_proxy(n=8192, bursts=((0.05, 0.2), (0.3, 0.15)))
        noisy = mix_at_snr(x, sample_sas(1.2, 8192, 5), 0.0)
        cfg = small_cfg(eemd=dataclasses.replace(FAST_EEMD, ensemble_size=4))
        out, prof = enhance(Signal(noisy, 16000), cfg)
        for k in (-3, 1, 5):
            scaled_out, scaled = enhance(Signal(noisy * 2.0 ** k, 16000), cfg)
            assert scaled_out.samples.tobytes() == (out.samples * 2.0 ** k).tobytes(), k
            for name in ("per_mode", "noisy", "thresholds", "cut_index"):
                assert getattr(scaled, name).tobytes() == getattr(prof, name).tobytes(), (k, name)

    def test_clean_energy_mostly_retained(self):
        x = make_speech_proxy(n=16384, bursts=((0.1, 0.3), (0.55, 0.3)))
        sig = Signal(x, 16000)
        out, prof = enhance(sig, small_cfg(frame_len=4096, step=512))
        assert np.sum(out.samples ** 2) >= 0.9 * np.sum(x ** 2)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            enhance(Signal(np.zeros(100), 16000), small_cfg())
        with pytest.raises(ValueError, match="quarter frame"):
            analyse(Signal(np.zeros(100), 16000), small_cfg())

    def test_constant_input_is_silence(self):
        sig = Signal(np.full(4096, 0.25), 16000)
        out, prof = enhance(sig, small_cfg())
        assert prof.per_mode.shape == (prof.frame_count, 0)
        np.testing.assert_array_equal(prof.cut_index, 0)
        assert len(out) == len(sig)
        np.testing.assert_array_equal(out.samples, 0.0)
        _, grid, _ = analyse(sig, small_cfg())
        assert grid == FrameGrid(small_cfg().frame_len, small_cfg().step)
        assert grid.count(len(sig)) == prof.frame_count

    def test_raising_rho_never_decreases_cut(self):
        x = make_speech_proxy(n=8192, bursts=((0.05, 0.2), (0.3, 0.15)))
        noise = sample_sas(1.2, 8192, 5)
        noisy = Signal(x + noise * np.sqrt(np.mean(x ** 2) / np.mean(noise ** 2)), 16000)
        imfs = eemd(noisy, FAST_EEMD)
        grid = FrameGrid(2048, 256)
        per_mode, _ = profile_alpha(imfs, noisy.samples, grid)
        assert np.all(cuts(per_mode, 1.5) >= cuts(per_mode, 1.0))


class TestProfileCsv:
    def test_csv_schema(self, tmp_path):
        prof = apply_selection(np.array([[1.0, 2.0], [1.5, 1.8]]), np.array([1.2, 1.4]),
                               small_cfg())
        path = tmp_path / "profile.csv"
        prof.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha_1,alpha_2,alpha_u,rho_alpha,Z"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 1.0
        assert int(row[-1]) == 1
