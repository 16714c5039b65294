import ast
import importlib
import multiprocessing
import os
import pathlib
import re
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from hhtalpha import EemdConfig, Signal, eemd, emd, sample_sas, sift
from hhtalpha.emd import BOUNDARY_PAD_EXTREMA, ImfSet, envelope, find_extrema

from conftest import fresh_python, make_speech_proxy, mix_at_snr, within

# the package re-exports the function `emd`, which shadows the submodule name
emd_module = importlib.import_module("hhtalpha.emd")
fork_module = importlib.import_module("hhtalpha._fork")


def tone(freq, rate=8000, dur=1.0):
    t = np.arange(int(rate * dur)) / rate
    return np.sin(2 * np.pi * freq * t)


def mirrored_knots(indices, values, length, pad=BOUNDARY_PAD_EXTREMA):
    """`envelope`'s knots as the mirror-then-deduplicate rule gives them."""
    t = np.asarray(indices, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if pad > 0 and len(t) > 0:
        k = min(pad, len(t))
        t = np.concatenate([-t[:k][::-1], t, 2 * (length - 1) - t[-k:][::-1]])
        y = np.concatenate([y[:k][::-1], y, y[-k:][::-1]])
        t, keep = np.unique(t, return_index=True)
        y = y[keep]
    return t, y


def reference_envelope(indices, values, length, pad=BOUNDARY_PAD_EXTREMA):
    """`envelope` as scipy's CubicSpline computes it, the oracle for the fast spline."""
    t, y = mirrored_knots(indices, values, length, pad)
    return CubicSpline(t, y, bc_type="natural")(np.arange(length))


def reference_find_extrema(x):
    """The step-sign extrema scan with a midpoint per step, the oracle for `find_extrema`'s bytes."""
    x = np.asarray(x, dtype=np.float64)
    d = np.diff(x)
    change = np.flatnonzero(d)
    rising = d[change] > 0
    falling = ~rising
    mid = (change[:-1] + change[1:] + 1) // 2
    max_idx = mid[rising[:-1] & falling[1:]]
    min_idx = mid[falling[:-1] & rising[1:]]
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def reference_natural_spline(t, y, length):
    """The banded-solve spline with expression-wise Horner, the oracle for `_natural_spline`'s bytes."""
    h = np.diff(t)
    slope = np.diff(y) / h
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
    edges = np.clip(np.ceil(t), 0, length).astype(np.intp)
    edges[0], edges[-1] = 0, length
    cubic, quad, lin, const, start = np.repeat(coef, np.diff(edges), axis=1)
    dx = np.arange(length) - start
    return ((cubic * dx + quad) * dx + lin) * dx + const


def reference_spline_envelope(indices, values, length, pad=BOUNDARY_PAD_EXTREMA):
    """`envelope` from the two byte oracles above."""
    return reference_natural_spline(*mirrored_knots(indices, values, length, pad), length)


def spline_case(case, length=3000):
    """Knot indices and values for the envelope oracle tests."""
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
    elif case == "first_sample":
        # an extremum at index 0 is its own mirror image
        indices = np.array([0, 500, 1250, 2200])
    else:
        # as is one at the last index
        indices = np.array([300, 1250, 2200, length - 1])
    return indices, 5.0 * rng.standard_normal(len(indices))


SPLINE_CASES = ["dense", "sparse", "two", "three", "first_sample", "last_sample"]


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

    @given(st.one_of(
        # few distinct levels, so runs of equal samples (plateaus) abound
        arrays(np.uint8, st.integers(0, 60), elements=st.integers(0, 3)),
        arrays(np.float64, st.integers(0, 60),
               elements=st.sampled_from([0.0, -0.0, 1.0, 2.5, np.nan])),
        arrays(np.float64, st.integers(0, 60), elements=st.floats(-4, 4, width=16))))
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_reference(self, x):
        for got, want in zip(sum(find_extrema(x), ()), sum(reference_find_extrema(x), ())):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def mirror(monkeypatch, pad):
    """Make `envelope` mirror `pad` extrema at each end; at 0 it fits the bare points."""
    monkeypatch.setattr(emd_module, "BOUNDARY_PAD_EXTREMA", pad)


class TestEnvelope:
    def test_constant_points(self):
        env = envelope(np.array([10, 40, 70]), np.full(3, 3.0), 100)
        np.testing.assert_allclose(env, 3.0)

    def test_two_points_linear(self, monkeypatch):
        mirror(monkeypatch, 0)
        env = envelope(np.array([10, 30]), np.array([0.0, 2.0]), 40)
        np.testing.assert_allclose(env[10:31], np.linspace(0.0, 2.0, 21), atol=1e-12)

    def test_sine_upper_envelope(self):
        x = tone(50, rate=8000)
        (max_i, max_v), _ = find_extrema(x)
        env = envelope(max_i, max_v, len(x))
        interior = env[500:-500]
        assert np.max(np.abs(interior - 1.0)) < 0.02

    def test_too_few_points(self):
        # nothing to mirror, or one sample that is its own mirror image at both ends
        for indices, length in ([], 10), ([0], 1):
            with pytest.raises(ValueError, match="at least 2 envelope points"):
                envelope(np.array(indices), np.ones(len(indices)), length)

    @pytest.mark.parametrize("indices, values", [
        ([1.0, np.nan, 9.0], [0.0, 1.0, 0.0]),
        ([1.0, 5.0, np.inf], [0.0, 1.0, 0.0]),
        ([1.0, 5.0, 9.0], [0.0, np.nan, 0.0]),
        ([1.0, 5.0, 9.0], [0.0, -np.inf, 0.0]),
    ])
    @pytest.mark.parametrize("pad", [0, 2])
    def test_non_finite_points(self, monkeypatch, indices, values, pad):
        mirror(monkeypatch, pad)
        with pytest.raises(ValueError, match="finite"):
            envelope(np.array(indices), np.array(values), 12)

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("indices", [
        pytest.param([5, 2, 8], id="unsorted"),
        pytest.param([2, 5, 5, 8], id="repeated"),
        pytest.param([-1, 5, 8], id="below_zero"),
        pytest.param([2, 5, 12], id="past_last_index"),
    ])
    def test_bad_indices_rejected(self, monkeypatch, indices, pad):
        # checked before mirroring, so mirrored points cannot sort or merge them away
        mirror(monkeypatch, pad)
        with pytest.raises(ValueError, match="strictly increasing"):
            envelope(np.array(indices), np.zeros(len(indices)), 12)

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_matches_cubic_spline(self, monkeypatch, case, pad):
        indices, values = spline_case(case)
        mirror(monkeypatch, pad)
        env = envelope(indices, values, 3000)
        ref = reference_envelope(indices, values, 3000, pad)
        assert np.max(np.abs(env - ref)) < 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("case", SPLINE_CASES)
    def test_bytes_match_reference(self, monkeypatch, case, pad):
        indices, values = spline_case(case)
        mirror(monkeypatch, pad)
        env = envelope(indices, values, 3000)
        assert env.tobytes() == reference_spline_envelope(indices, values, 3000, pad).tobytes()

    def test_one_interior_knot_bytes_match_reference(self):
        # mirroring one extremum gives three knots: a 1 x 1 second-derivative system
        assert len(mirrored_knots([1300], [2.0], 3000)[0]) == 3
        env = envelope(np.array([1300]), np.array([2.0]), 3000)
        assert env.tobytes() == reference_spline_envelope([1300], [2.0], 3000).tobytes()

    def test_owns_its_buffer(self):
        indices, values = spline_case("dense")
        env = envelope(indices, values, 3000)
        assert env.base is None and env.flags.owndata


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
        expected = x - emd_module._mean_envelope(x)
        np.testing.assert_allclose(imf, expected)

    @pytest.mark.parametrize("x", [np.linspace(0, 1, 100), np.sin(np.linspace(0, 3 * np.pi, 100))])
    def test_no_mode_without_two_of_each_extremum(self, x):
        assert sift(x) is None

    def test_memory_peak(self):
        # the spline's repeated coefficient rows die inside `envelope`; a
        # result that kept them alive would raise this to ~22 values per sample
        clean = make_speech_proxy()
        x = mix_at_snr(clean, sample_sas(1.2, len(clean), 13), 0.0)
        sift(x)
        tracemalloc.start()
        try:
            sift(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15.5 * 8 * len(x)


class TestImfSet:
    def test_modes_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="mode_count"):
            ImfSet(np.zeros(100), np.zeros(100))

    def test_mode_length_must_match_residual(self):
        with pytest.raises(ValueError, match="len\\(residual\\)"):
            ImfSet(np.zeros((2, 99)), np.zeros(100))

    def test_no_modes_totals_to_the_residual(self):
        imfs = ImfSet(np.zeros((0, 100)), np.arange(100.0))
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

    @pytest.mark.parametrize("trial", [0, 1])
    def test_bytes_match_reference(self, monkeypatch, noisy_pair, trial):
        # the acceptance proxy plus one EEMD trial's noise, as `eemd` sifts it
        x = noisy_pair[1].samples
        rng = np.random.default_rng(np.random.SeedSequence([0, trial]))
        x = x + float(np.std(x)) * 10.0 ** (-30.0 / 20.0) * rng.standard_normal(len(x))
        fast = emd(Signal(x, 16000))
        monkeypatch.setattr(emd_module, "find_extrema", reference_find_extrema)
        monkeypatch.setattr(emd_module, "envelope", reference_spline_envelope)
        ref = emd(Signal(x, 16000))
        assert fast.mode_count == ref.mode_count == 10
        assert fast.modes.tobytes() == ref.modes.tobytes()
        assert fast.residual.tobytes() == ref.residual.tobytes()

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
    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="ensemble_size must be >= 1"):
            EemdConfig(ensemble_size=0)

    @pytest.mark.parametrize("name, value, message", [
        ("max_modes", 2.5, "max_modes must be a whole number, got 2.5"),
        ("ensemble_size", 2.5, "ensemble_size must be a whole number, got 2.5"),
        ("ensemble_size", "5", "ensemble_size must be a whole number, got '5'"),
        ("master_seed", 0.5, "master_seed must be a whole number, got 0.5"),
        ("master_seed", -1, "master_seed must be >= 0, got -1"),
        ("master_seed", np.int64(-1), "master_seed must be >= 0, got "),
    ])
    def test_count_or_seed_that_is_not_a_whole_number_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EemdConfig(**{name: value})

    @pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3)])
    def test_whole_counts_and_seeds_stored_as_int(self, value):
        cfg = EemdConfig(max_modes=value, ensemble_size=value, master_seed=value)
        for name in ("max_modes", "ensemble_size", "master_seed"):
            assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int

    def test_degenerate_ensemble_equals_emd(self):
        x = tone(50) + tone(500)
        sig = Signal(x, 8000)
        cfg = EemdConfig(ensemble_size=1, ensemble_snr_db=np.inf, master_seed=1)
        a = eemd(sig, cfg)
        b = emd(sig)
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.residual, b.residual)

    def test_lapack_loaded_before_the_trials_fork(self):
        # a worker that had to import LAPACK for its first spline would pay
        # for it on every call whose parent never ran one
        code = """
import sys
import numpy as np
import hhtalpha
emd_module = sys.modules["hhtalpha.emd"]
real, seen = emd_module.fork_sum, []

def spy(*args):
    seen.append("scipy.linalg" in sys.modules)
    return real(*args)

emd_module.fork_sum = spy
print("scipy.linalg" in sys.modules)
signal = hhtalpha.Signal(np.random.default_rng(0).standard_normal(1024), 8000)
hhtalpha.eemd(signal, hhtalpha.EemdConfig(ensemble_size=2))
print(seen)
"""
        assert fresh_python(code).split() == ["False", "[True]"]

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
        monkeypatch.setattr(fork_module, "ProcessPoolExecutor", recording_pool)
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
        monkeypatch.setattr(fork_module, "ProcessPoolExecutor", no_pool)
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


def test_only_fork_module_imports_process_machinery():
    # which work runs in which process, and how results combine, is decided
    # in _fork.py alone
    banned = {"multiprocessing", "mmap", "threading", "concurrent"}
    package = pathlib.Path(fork_module.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "_fork.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] in banned]
    assert found == []
