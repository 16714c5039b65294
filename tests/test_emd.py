import contextlib
import importlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from hhtalpha import EemdConfig, Signal, eemd, emd, sift
from hhtalpha.emd import ImfSet, envelope, find_extrema

# the package re-exports the function `emd`, which shadows the submodule name
emd_module = importlib.import_module("hhtalpha.emd")


def tone(freq, rate=8000, dur=1.0):
    t = np.arange(int(rate * dur)) / rate
    return np.sin(2 * np.pi * freq * t)


def reference_envelope(indices, values, length, pad):
    """`envelope` as scipy's CubicSpline computes it, the oracle for the fast spline."""
    t = np.asarray(indices, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if pad > 0 and len(t) > 0:
        k = min(pad, len(t))
        t = np.concatenate([-t[:k][::-1], t, 2 * (length - 1) - t[-k:][::-1]])
        y = np.concatenate([y[:k][::-1], y, y[-k:][::-1]])
        t, keep = np.unique(t, return_index=True)
        y = y[keep]
    return CubicSpline(t, y, bc_type="natural")(np.arange(length))


def reference_eemd(x, rate, cfg):
    """The serial ensemble loop, the oracle for `eemd`'s modes and residual bytes."""
    noise_std = float(np.std(x)) * 10.0 ** (-cfg.ensemble_snr_db / 20.0)
    acc = np.zeros((cfg.max_modes, len(x)))
    produced = 0
    for n in range(cfg.ensemble_size):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, n]))
        imfs = emd(Signal(x + noise_std * rng.standard_normal(len(x)), rate), cfg.max_modes)
        produced = max(produced, imfs.mode_count)
        acc[: imfs.mode_count] += imfs.modes
    return acc[:produced] / cfg.ensemble_size, x - acc[:produced].sum(axis=0) / cfg.ensemble_size


@contextlib.contextmanager
def within(seconds):
    """Fail a body that overruns `seconds` instead of hanging the run: at the
    deadline the pool's workers are killed, so a stalled `eemd` raises."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < seconds


class TestFindExtrema:
    def test_sine_counts(self):
        (max_i, _), (min_i, _) = find_extrema(tone(5, rate=1000))
        assert len(max_i) == 5
        assert len(min_i) == 5

    def test_monotone_ramp(self):
        (max_i, _), (min_i, _) = find_extrema(np.linspace(0, 1, 100))
        assert len(max_i) == 0 and len(min_i) == 0

    def test_plateau_midpoint(self):
        (max_i, max_v), (min_i, _) = find_extrema(np.array([0.0, 1.0, 1.0, 0.0]))
        assert list(max_i) == [1]
        assert max_v[0] == 1.0
        assert len(min_i) == 0

    def test_endpoints_never_extrema(self):
        (max_i, _), (min_i, _) = find_extrema(np.array([5.0, 1.0, 2.0, 1.0, 9.0]))
        assert 0 not in max_i and 4 not in max_i
        assert 0 not in min_i and 4 not in min_i

    @pytest.mark.parametrize("x, maxima, minima", [
        ([1.0, 1.0, 1.0, 0.0, 2.0, 0.0], [4], [3]),    # plateau touching the start
        ([0.0, 2.0, 0.0, 1.0, 1.0, 1.0], [1], [2]),    # plateau touching the end
        ([2.0, 0.0, 0.0, 0.0, 0.0, 2.0], [], [2]),     # floor-midpoint of 1..4
        ([0.3] * 7, [], []),
        ([0.0, 1.0, 0.0], [1], []),
        ([1.0, 0.0, 1.0], [], [1]),
        ([1.0, 2.0], [], []),
        ([1.0], [], []),
        ([], [], []),
    ])
    def test_plain_array_cases(self, x, maxima, minima):
        x = np.array(x, dtype=np.float64)
        (max_i, max_v), (min_i, min_v) = find_extrema(x)
        assert max_i.dtype.kind == "i" and min_i.dtype.kind == "i"
        assert list(max_i) == maxima and list(min_i) == minima
        np.testing.assert_array_equal(max_v, x[maxima])
        np.testing.assert_array_equal(min_v, x[minima])

    def test_unsigned_input_does_not_wrap(self):
        (max_i, _), (min_i, _) = find_extrema(np.array([1, 0, 1, 3, 2], dtype=np.uint8))
        assert list(max_i) == [3] and list(min_i) == [1]


class TestEnvelope:
    def test_constant_points(self):
        env = envelope(np.array([10, 40, 70]), np.full(3, 3.0), 100, pad=2)
        np.testing.assert_allclose(env, 3.0)

    def test_two_points_linear(self):
        env = envelope(np.array([10, 30]), np.array([0.0, 2.0]), 40, pad=0)
        np.testing.assert_allclose(env[10:31], np.linspace(0.0, 2.0, 21), atol=1e-12)

    def test_sine_upper_envelope(self):
        x = tone(50, rate=8000)
        (max_i, max_v), _ = find_extrema(x)
        env = envelope(max_i, max_v, len(x), pad=2)
        interior = env[500:-500]
        assert np.max(np.abs(interior - 1.0)) < 0.02

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            envelope(np.array([5]), np.array([1.0]), 10, pad=0)

    @pytest.mark.parametrize("indices, values", [
        ([1.0, np.nan, 9.0], [0.0, 1.0, 0.0]),
        ([1.0, 5.0, np.inf], [0.0, 1.0, 0.0]),
        ([1.0, 5.0, 9.0], [0.0, np.nan, 0.0]),
        ([1.0, 5.0, 9.0], [0.0, -np.inf, 0.0]),
    ])
    @pytest.mark.parametrize("pad", [0, 2])
    def test_non_finite_points(self, indices, values, pad):
        with pytest.raises(ValueError):
            envelope(np.array(indices), np.array(values), 12, pad=pad)

    def test_unsorted_points(self):
        with pytest.raises(ValueError):
            envelope(np.array([5, 2, 8]), np.array([0.0, 1.0, 0.0]), 12, pad=0)

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("case", ["dense", "sparse", "two", "three", "first_sample"])
    def test_matches_cubic_spline(self, case, pad):
        length = 3000
        rng = np.random.default_rng(17)
        if case == "dense":
            # about length / 3 knots, like the first mode of noise
            indices = np.sort(rng.choice(np.arange(1, length - 1), length // 3, replace=False))
        elif case == "sparse":
            indices = np.sort(rng.choice(np.arange(1, length - 1), 10, replace=False))
        elif case == "two":
            indices = np.array([700, 2100])
        elif case == "three":
            indices = np.array([400, 1300, 2950])
        else:
            # an extremum at index 0 is its own mirror image
            indices = np.array([0, 500, 1250, 2200])
        values = 5.0 * rng.standard_normal(len(indices))
        env = envelope(indices, values, length, pad)
        ref = reference_envelope(indices, values, length, pad)
        assert np.max(np.abs(env - ref)) < 1e-10 * np.max(np.abs(ref))


class TestSift:
    def test_pure_sine_is_single_mode(self):
        x = tone(100)
        imf = sift(x)
        assert np.corrcoef(imf, x)[0, 1] > 0.99
        residual = x - imf
        assert np.sqrt(np.mean(residual ** 2)) < 0.1 * np.sqrt(np.mean(x ** 2))

    def test_two_tone_first_mode(self):
        x = tone(50) + tone(500)
        imf = sift(x)
        assert np.corrcoef(imf, tone(500))[0, 1] > 0.95

    def test_single_pass_when_threshold_met(self, monkeypatch):
        # huge threshold: exactly one mean-envelope subtraction happens, where
        # the default threshold takes two on this input
        monkeypatch.setattr(emd_module, "SIFT_SD_THRESHOLD", 1e9)
        x = tone(50) + tone(500)
        imf = sift(x)
        expected = x - emd_module._mean_envelope(x, emd_module.BOUNDARY_PAD_EXTREMA)
        np.testing.assert_allclose(imf, expected)

    @pytest.mark.parametrize("x", [np.linspace(0, 1, 100), np.sin(np.linspace(0, 3 * np.pi, 100))])
    def test_no_mode_without_two_of_each_extremum(self, x):
        assert sift(x) is None


class TestImfSet:
    def test_modes_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="mode_count"):
            ImfSet(np.zeros(100), np.zeros(100), 8000)

    def test_mode_length_must_match_residual(self):
        with pytest.raises(ValueError, match="len\\(residual\\)"):
            ImfSet(np.zeros((2, 99)), np.zeros(100), 8000)

    def test_no_modes_totals_to_the_residual(self):
        imfs = ImfSet(np.zeros((0, 100)), np.arange(100.0), 8000)
        assert imfs.mode_count == 0 and imfs.source_len == 100
        np.testing.assert_array_equal(imfs.total(), np.arange(100.0))


class TestEmd:
    def test_constant_signal(self):
        x = np.full(100, 0.7)
        imfs = emd(Signal(x, 1))
        assert imfs.mode_count == 0
        np.testing.assert_array_equal(imfs.residual, x)

    def test_completeness(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        imfs = emd(Signal(x, 1))
        peak = np.max(np.abs(x))
        assert np.max(np.abs(imfs.total() - x)) < 1e-8 * peak

    def test_two_tone_separation(self):
        x = tone(50) + tone(500)
        imfs = emd(Signal(x, 8000))
        assert np.corrcoef(imfs.modes[0], tone(500))[0, 1] > 0.95
        later = max(np.corrcoef(m, tone(50))[0, 1] for m in imfs.modes[1:])
        assert later > 0.90

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            emd(Signal(np.zeros(8), 1))

    def test_no_modes_requested_rejected(self):
        with pytest.raises(ValueError, match="max_modes"):
            emd(Signal(tone(100), 8000), 0)
        with pytest.raises(ValueError, match="max_modes"):
            EemdConfig(max_modes=0)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_ensemble_snr_nan_or_minus_inf_rejected(self, snr_db):
        with pytest.raises(ValueError, match="ensemble_snr_db"):
            EemdConfig(ensemble_snr_db=snr_db)
        # +inf adds no noise: plain EMD per trial
        EemdConfig(ensemble_snr_db=np.inf)

    def test_mode_ordering_zero_crossings(self):
        rng = np.random.default_rng(11)
        imfs = emd(Signal(rng.standard_normal(8192), 1))
        def zcr(x):
            return np.sum(np.abs(np.diff(np.sign(x))) > 0) / len(x)
        rates = [zcr(m) for m in imfs.modes]
        violations = sum(b > a * 1.001 for a, b in zip(rates, rates[1:]))
        assert violations <= max(1, len(rates) // 20)

    def test_imf_oscillation_property(self):
        x = tone(50) + tone(500)
        imfs = emd(Signal(x, 8000))
        for m in imfs.modes[:2]:
            zc = np.sum(np.abs(np.diff(np.sign(m))) > 0)
            (mx, _), (mn, _) = find_extrema(m)
            assert abs((len(mx) + len(mn)) - zc) <= 2


    def test_matches_cubic_spline_reference(self, monkeypatch):
        x = tone(50) + 0.3 * np.random.default_rng(23).standard_normal(8000)
        fast = emd(Signal(x, 8000))
        monkeypatch.setattr(emd_module, "envelope", reference_envelope)
        ref = emd(Signal(x, 8000))
        assert fast.mode_count == ref.mode_count > 1
        peak = np.max(np.abs(x))
        np.testing.assert_allclose(fast.modes, ref.modes, rtol=0, atol=1e-10 * peak)
        np.testing.assert_allclose(fast.residual, ref.residual, rtol=0, atol=1e-10 * peak)

    def test_extrema_searched_once_per_mean_envelope(self, monkeypatch):
        calls = {"find_extrema": 0, "_mean_envelope": 0}

        def counted(name):
            fn = getattr(emd_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(emd_module, name, counted(name))
        emd(Signal(np.random.default_rng(29).standard_normal(4096), 1))
        assert calls["_mean_envelope"] > 0
        assert calls["find_extrema"] == calls["_mean_envelope"]


class TestEemd:
    def test_degenerate_ensemble_equals_emd(self):
        x = tone(50) + tone(500)
        sig = Signal(x, 8000)
        cfg = EemdConfig(ensemble_size=1, ensemble_snr_db=np.inf, master_seed=1)
        a = eemd(sig, cfg)
        b = emd(sig)
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.residual, b.residual)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        sig = Signal(rng.standard_normal(2048), 8000)
        cfg = EemdConfig(ensemble_size=4, master_seed=42)
        a = eemd(sig, cfg)
        b = eemd(sig, cfg)
        np.testing.assert_array_equal(a.modes, b.modes)

    def test_seed_changes_output(self):
        rng = np.random.default_rng(0)
        sig = Signal(rng.standard_normal(2048), 8000)
        a = eemd(sig, EemdConfig(ensemble_size=2, master_seed=1))
        b = eemd(sig, EemdConfig(ensemble_size=2, master_seed=2))
        assert not np.array_equal(a.modes[0], b.modes[0])

    def test_completeness_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2048)
        imfs = eemd(Signal(x, 8000), EemdConfig(ensemble_size=4, master_seed=0))
        peak = np.max(np.abs(x))
        assert np.max(np.abs(imfs.total() - x)) < 1e-8 * peak

    @pytest.mark.parametrize("cpus, hold_first", [
        pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
        pytest.param(6, False, id="6"), pytest.param(2, True, id="2-trial-0-held"),
        pytest.param(6, True, id="6-trial-0-held")])
    def test_bit_equal_on_any_core_count(self, monkeypatch, cpus, hold_first):
        # 6 workers on fewer cores: a lost or out-of-order addition changes the bytes
        x = np.random.default_rng(11).standard_normal(1024)
        cfg = EemdConfig(ensemble_size=16, master_seed=3)
        pools = []
        if hold_first:
            # trial 0's EMD sleeps, so later trials end theirs first and must
            # wait their turn; forked workers inherit the patch
            rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0]))
            noise_std = float(np.std(x)) * 10.0 ** (-cfg.ensemble_snr_db / 20.0)
            first = x + noise_std * rng.standard_normal(len(x))
            context = multiprocessing.get_context("fork")
            first_done, overtaken = context.Value("i", 0), context.Value("i", 0)
            original = emd_module.emd

            def holding_emd(sig, max_modes):
                is_first = np.array_equal(sig.samples, first)
                if is_first:
                    time.sleep(0.3)
                result = original(sig, max_modes)
                with first_done.get_lock():
                    if is_first:
                        first_done.value += 1
                    elif not first_done.value:
                        overtaken.value += 1
                return result

            monkeypatch.setattr(emd_module, "emd", holding_emd)

        def recording_pool(workers, **kwargs):
            pools.append(workers)
            return ProcessPoolExecutor(workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(emd_module, "ProcessPoolExecutor", recording_pool)
        with within(60):
            imfs = eemd(Signal(x, 8000), cfg)
        assert pools == ([cpus] if cpus > 1 else [])
        modes, residual = reference_eemd(x, 8000, cfg)
        assert imfs.modes.shape == modes.shape
        assert imfs.modes.tobytes() == modes.tobytes()
        assert imfs.residual.tobytes() == residual.tobytes()
        assert multiprocessing.active_children() == []
        if hold_first:
            assert first_done.value == 1 and overtaken.value >= 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_trial_reaches_caller(self, monkeypatch, cpus):
        # the patch is inherited by forked workers; the shared count makes
        # exactly one trial, the fourth to start, raise
        started = multiprocessing.get_context("fork").Value("i", 0)
        original = emd_module.emd

        def failing_emd(sig, max_modes):
            with started.get_lock():
                started.value += 1
                n = started.value
            if n == 4:
                raise RuntimeError("trial failed")
            return original(sig, max_modes)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(emd_module, "emd", failing_emd)
        x = np.random.default_rng(12).standard_normal(1024)
        with within(60):
            with pytest.raises(RuntimeError, match="trial failed"):
                eemd(Signal(x, 8000), EemdConfig(ensemble_size=8))
        assert 4 <= started.value <= 8
        assert multiprocessing.active_children() == []

    def test_threaded_caller_runs_trials_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a caller with threads must not fork")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(emd_module, "ProcessPoolExecutor", no_pool)
        x = np.random.default_rng(13).standard_normal(1024)
        cfg = EemdConfig(ensemble_size=4, master_seed=5)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            imfs = eemd(Signal(x, 8000), cfg)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        modes, residual = reference_eemd(x, 8000, cfg)
        assert imfs.modes.tobytes() == modes.tobytes()
        assert imfs.residual.tobytes() == residual.tobytes()
