import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import toeplitz

import hhtalpha.metrics as metrics_module
from hhtalpha import Signal, evaluate, fwsnrseg, llr, map_intelligibility, sample_sas, stoi
from hhtalpha.metrics import (ACTIVE_FLOOR_DB, BAND_HI_HZ, BAND_LO_HZ, FRAME_MS, HOP_MS,
                              LPC_ORDER, N_BANDS, STOI_BANDS, STOI_CLIP_DB, LPC_ERR_FLOOR,
                              STOI_DYN_RANGE_DB, STOI_FRAME, STOI_HOP, STOI_MAP_A, STOI_MAP_B,
                              STOI_MIN_FREQ, STOI_NFFT, STOI_RATE, STOI_SEG_FRAMES, _lpc,
                              _octave_band_matrix, _overlap_add, _triangular_bank)
from hhtalpha.signal import resample

from conftest import make_speech_proxy, mix_at_snr

RATE = 16000


@pytest.fixture(scope="module")
def clean():
    return Signal(make_speech_proxy(), RATE)


def degraded(clean, snr_db, seed=17, kind="gaussian"):
    if kind == "gaussian":
        noise = np.random.default_rng(seed).standard_normal(len(clean))
    else:  # symmetric alpha-stable, alpha = 1.2
        noise = sample_sas(1.2, len(clean), seed)
    return Signal(mix_at_snr(clean.samples, noise, snr_db), RATE)


def reference_levinson(r, order):
    """Scalar Levinson-Durbin: LPC coefficients and the iteration at which
    the prediction error fell to LPC_ERR_FLOOR * r[0] and the recursion
    stopped, or None."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + np.dot(a[1:i], r[i - 1:0:-1])
        k = -acc / err
        a[1:i + 1] += k * a[i - 1::-1][:i]
        err *= 1.0 - k * k
        if err <= LPC_ERR_FLOOR * r[0]:
            return a, i
    return a, None


def reference_frames(clean, processed):
    """Every windowed frame of both signals, and the mask of those whose
    clean energy is within ACTIVE_FLOOR_DB of the loudest."""
    n = int(round(FRAME_MS * clean.sample_rate / 1000.0))
    hop = int(round(HOP_MS * clean.sample_rate / 1000.0))
    win = np.hanning(n)
    c = sliding_window_view(clean.samples, n)[::hop] * win
    p = sliding_window_view(processed.samples, n)[::hop] * win
    energy = np.sum(c * c, axis=1)
    return c, p, energy >= energy.max() * 10.0 ** (-ACTIVE_FLOOR_DB / 10.0)


def reference_llr(clean, processed):
    """The per-frame LLR loop, the oracle for `llr`.  Returns the score, the
    (clean, processed) `reference_levinson` stop of every frame with power in
    both, and the number of frames skipped; a frame whose clean recursion
    broke down is skipped."""
    c_frames, p_frames, active = reference_frames(clean, processed)
    order = LPC_ORDER
    scores, stops, skipped = [], [], 0
    for c, p in zip(c_frames[active], p_frames[active]):
        rc = np.array([np.dot(c[: len(c) - k], c[k:]) for k in range(order + 1)])
        rp = np.array([np.dot(p[: len(p) - k], p[k:]) for k in range(order + 1)])
        if rc[0] <= 0.0 or rp[0] <= 0.0:
            skipped += 1
            continue
        (ac, c_stop), (ap, p_stop) = reference_levinson(rc, order), reference_levinson(rp, order)
        stops.append((c_stop, p_stop))
        R = toeplitz(rc)
        num = ap @ R @ ap
        den = ac @ R @ ac
        if c_stop is not None or den <= 0.0 or num <= 0.0:
            skipped += 1
            continue
        scores.append(np.clip(np.log(num / den), 0.0, 2.0))
    return float(np.mean(scores)), stops, skipped


def with_pulses(signal, width):
    """`signal` with the 80 ms around 0.31, 0.81, 1.41 and 2.01 s replaced by
    one Gaussian pulse each, of scale `width` seconds."""
    t = np.arange(len(signal)) / RATE
    samples = signal.samples.copy()
    for centre in (0.31, 0.81, 1.41, 2.01):
        span = np.abs(t - centre) < 0.04
        samples[span] = np.exp(-((t[span] - centre) / width) ** 2)
    return Signal(samples, RATE)


def reference_overlap_add(frames, hop):
    """The per-frame overlap-add loop, the oracle for `_overlap_add`."""
    n = frames.shape[1]
    out = np.zeros((len(frames) - 1) * hop + n)
    for i, frame in enumerate(frames):
        out[i * hop : i * hop + n] += frame
    return out


def reference_triangular_bank(hi, freqs):
    """The per-band loop, the oracle for `_triangular_bank`."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = imel(np.linspace(mel(BAND_LO_HZ), mel(hi), N_BANDS + 2))
    bank = np.zeros((N_BANDS, len(freqs)))
    for j in range(N_BANDS):
        f0, f1, f2 = edges[j], edges[j + 1], edges[j + 2]
        up = (freqs - f0) / max(f1 - f0, 1e-15)
        down = (f2 - freqs) / max(f2 - f1, 1e-15)
        bank[j] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return bank


def reference_octave_band_matrix():
    """The per-band loop, the oracle for `_octave_band_matrix`."""
    freqs = np.fft.rfftfreq(STOI_NFFT, 1.0 / STOI_RATE)
    centers = STOI_MIN_FREQ * 2.0 ** (np.arange(STOI_BANDS) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    mat = np.zeros((STOI_BANDS, len(freqs)))
    for j in range(STOI_BANDS):
        mat[j, (freqs >= lo[j]) & (freqs < hi[j])] = 1.0
    return mat


def reference_stoi(clean, processed):
    """The per-frame overlap-add and per-segment correlation loops, the
    oracle for `stoi`."""
    x = resample(clean, STOI_RATE).samples
    y = resample(processed, STOI_RATE).samples
    n, hop = STOI_FRAME, STOI_HOP
    win = np.hanning(n + 2)[1:-1]
    xf = sliding_window_view(x, n)[::hop] * win
    yf = sliding_window_view(y, n)[::hop] * win
    energy = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + 1e-15)
    keep = energy > energy.max() - STOI_DYN_RANGE_DB
    x = reference_overlap_add(xf[keep], hop)
    y = reference_overlap_add(yf[keep], hop)
    X = np.fft.rfft(sliding_window_view(x, n)[::hop] * win, STOI_NFFT, axis=1)
    Y = np.fft.rfft(sliding_window_view(y, n)[::hop] * win, STOI_NFFT, axis=1)
    octmat = reference_octave_band_matrix()
    Xb = np.sqrt(octmat @ (np.abs(X) ** 2).T)
    Yb = np.sqrt(octmat @ (np.abs(Y) ** 2).T)
    N = STOI_SEG_FRAMES
    clip = 10.0 ** (-STOI_CLIP_DB / 20.0)
    scores = []
    for m in range(N, Xb.shape[1] + 1):
        xs = Xb[:, m - N : m]
        ys = Yb[:, m - N : m]
        scale = np.linalg.norm(xs, axis=1, keepdims=True) / (
            np.linalg.norm(ys, axis=1, keepdims=True) + 1e-15
        )
        ys = np.minimum(ys * scale, xs * (1.0 + clip))
        xc = xs - xs.mean(axis=1, keepdims=True)
        yc = ys - ys.mean(axis=1, keepdims=True)
        denom = np.linalg.norm(xc, axis=1) * np.linalg.norm(yc, axis=1)
        scores.append(np.sum(xc * yc, axis=1) / np.maximum(denom, 1e-15))
    return float(np.clip(np.mean(scores), 0.0, 1.0))


class TestLlr:
    def test_identity_is_zero(self, clean):
        assert llr(clean, clean) == 0.0

    def test_strong_noise_exceeds_half(self, clean):
        assert llr(clean, degraded(clean, -5.0)) > 0.5

    def test_frame_values_clamped_at_two(self, clean):
        # even fully decorrelated input cannot push the mean above the clamp
        assert llr(clean, degraded(clean, -40.0)) <= 2.0

    def test_length_mismatch_rejected(self, clean):
        short = Signal(clean.samples[:-1], RATE)
        with pytest.raises(ValueError):
            llr(clean, short)

    def test_monotone_in_snr(self, clean):
        vals = [llr(clean, degraded(clean, s)) for s in (-10.0, 0.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]


class TestFwsnrseg:
    def test_identity_is_ceiling(self, clean):
        assert fwsnrseg(clean, clean) == 35.0

    def test_monotone_in_snr(self, clean):
        vals = [fwsnrseg(clean, degraded(clean, s)) for s in (-10.0, 0.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]
        assert all(-10.0 <= v <= 35.0 for v in vals)

    def test_total_destruction_scores_low(self, clean):
        zeros = Signal(np.zeros(len(clean)), RATE)
        assert fwsnrseg(clean, zeros) < 1.0

    def test_silent_clean_keeps_every_frame(self, clean):
        # every frame of an all-zero clean signal is active, and each has
        # zero band weight, so the score is 0.0 rather than an error
        silent = Signal(np.zeros(len(clean)), RATE)
        assert fwsnrseg(silent, clean) == 0.0
        with pytest.raises(ValueError, match="shorter than one"):
            fwsnrseg(Signal(np.zeros(100), RATE), Signal(np.zeros(100), RATE))


class TestBandTables:
    @pytest.mark.parametrize("rate", [8000, 12345, 16000, 22050, 44100, 48000])
    def test_triangular_bank_equals_loop(self, rate):
        freqs = np.fft.rfftfreq(int(round(FRAME_MS * rate / 1000.0)), 1.0 / rate)
        hi = min(BAND_HI_HZ, rate / 2.0)
        bank = _triangular_bank(hi, freqs)
        expected = reference_triangular_bank(hi, freqs)
        assert bank.shape == expected.shape == (N_BANDS, len(freqs))
        assert bank.tobytes() == expected.tobytes()
        assert np.all((bank >= 0.0) & (bank <= 1.0))

    def test_octave_band_matrix_equals_loop(self):
        mat = _octave_band_matrix()
        expected = reference_octave_band_matrix()
        assert mat.dtype == expected.dtype and mat.shape == expected.shape
        assert mat.tobytes() == expected.tobytes()

    def test_octave_bands_are_disjoint_third_octaves(self):
        mat = _octave_band_matrix()
        assert np.all((mat == 0.0) | (mat == 1.0))
        assert np.all(mat.sum(axis=0) <= 1.0)
        freqs = np.fft.rfftfreq(STOI_NFFT, 1.0 / STOI_RATE)
        for j, band in enumerate(mat):
            # centre 150 Hz * 2^(j/3), edges a sixth of an octave either side
            lo, hi = (STOI_MIN_FREQ * 2.0 ** ((2 * j + side) / 6.0) for side in (-1, 1))
            np.testing.assert_array_equal(band == 1.0, (freqs >= lo) & (freqs < hi))


class TestStoi:
    def test_identity_near_one(self, clean):
        assert stoi(clean, clean) >= 0.999

    def test_independent_noise_near_zero(self, clean):
        # steady modulated tone: the bursty proxy leaves only onset/offset
        # frames after silence removal, whose envelopes can weakly correlate
        # with anything, inflating the score for unrelated inputs
        t = np.arange(len(clean)) / RATE
        steady = Signal((1 + 0.5 * np.sin(2 * np.pi * 4 * t)) * np.sin(2 * np.pi * 500 * t), RATE)
        rng = np.random.default_rng(23)
        noise = Signal(rng.standard_normal(len(clean)) * 0.1, RATE)
        assert stoi(steady, noise) <= 0.2

    def test_monotone_in_snr(self, clean):
        vals = [stoi(clean, degraded(clean, s)) for s in (-10.0, 0.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_too_short_rejected(self):
        short = Signal(np.zeros(1000), RATE)
        with pytest.raises(ValueError, match="shorter than 0.5 s"):
            stoi(short, short)
        # 0.6 s at 10 kHz, loud for 0.1 s: silence removal leaves under 256 + 30 * 128 samples
        x = np.zeros(6000)
        x[:1000] = np.sin(np.arange(1000.0))
        quiet = Signal(x, STOI_RATE)
        with pytest.raises(ValueError, match="too little active signal"):
            stoi(quiet, quiet)


class TestMapping:
    def test_midpoint_is_fifty(self):
        d = -STOI_MAP_B / STOI_MAP_A  # 9.36/13.45
        assert map_intelligibility(d) == pytest.approx(50.0, abs=1e-9)

    def test_stoi_coefficients_at_one(self):
        assert map_intelligibility(1.0) == pytest.approx(98.36, abs=0.05)

    def test_stoi_coefficients_at_zero(self):
        assert map_intelligibility(0.0) == pytest.approx(0.0086, abs=0.001)

    def test_increasing_for_negative_a(self):
        vals = [map_intelligibility(d) for d in (0.0, 0.5, 1.0)]
        assert vals[0] < vals[1] < vals[2]


class TestEvaluate:
    def test_report_json_keys(self, clean):
        report = evaluate(clean, clean)
        d = report.to_dict()
        assert set(d) == {"llr", "fwsnrseg_db", "stoi", "stoi_pct"}
        assert d["llr"] == 0.0
        assert d["fwsnrseg_db"] == 35.0
        assert d["stoi"] >= 0.999
        assert d["stoi_pct"] > 95.0

    def test_metric_subset(self, clean):
        report = evaluate(clean, clean, which=("llr",))
        assert report.to_dict() == {"llr": 0.0}

    def test_sample_rate_mismatch_rejected(self, clean):
        with pytest.raises(ValueError, match="sample rates differ"):
            evaluate(clean, Signal(clean.samples, RATE // 2))

    def test_unknown_metric(self, clean, monkeypatch):
        with pytest.raises(ValueError):
            evaluate(clean, clean, which=("pesq",))
        # an unknown name is rejected before any known metric is computed
        monkeypatch.setattr("hhtalpha.metrics.stoi", lambda *a: pytest.fail("stoi computed"))
        with pytest.raises(ValueError, match="'pesq'"):
            evaluate(clean, clean, which=("stoi", "pesq"))

    def test_bare_string_named_whole(self, clean):
        # a string is a sequence of letters; "stoi" must not read as 's'
        with pytest.raises(ValueError, match="sequence of metric names, got the string 'stoi'"):
            evaluate(clean, clean, which="stoi")

    def test_one_shot_iterables_read_once(self, clean):
        # the unknown-name check must not use up what the metrics then read
        assert evaluate(clean, clean, iter(["llr"])).to_dict() == {"llr": 0.0}
        report = evaluate(clean, clean, (name for name in ["fwsnrseg", "llr"]))
        assert report.to_dict() == {"llr": 0.0, "fwsnrseg_db": 35.0}

    @pytest.mark.parametrize("which", [("llr", "fwsnrseg", "stoi"), ("fwsnrseg", "llr")])
    def test_bit_equal_to_separate_calls(self, clean, which):
        processed = degraded(clean, 0.0, kind="sas")
        report = evaluate(clean, processed, which=which)
        assert report.llr == llr(clean, processed)
        assert report.fwsnrseg_db == fwsnrseg(clean, processed)
        if "stoi" in which:
            assert report.stoi == stoi(clean, processed)

    def test_pair_framed_once(self, clean, monkeypatch):
        calls = []
        original = metrics_module._active_frames

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(metrics_module, "_active_frames", counting)
        evaluate(clean, degraded(clean, 5.0))
        assert len(calls) == 1
        evaluate(clean, clean, which=("stoi",))
        assert len(calls) == 1

    def test_stoi_peak_not_stacked_on_the_frame_matrices(self):
        # a 9.6 s pair: evaluate peaks no higher than STOI alone
        clean = Signal(make_speech_proxy(n=153_600), RATE)
        processed = degraded(clean, 0.0, kind="sas")
        evaluate(clean, processed)  # loads and caches what the first call needs
        peaks = []
        for score in (stoi, evaluate):
            tracemalloc.start()
            try:
                score(clean, processed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]


class TestOracle:
    @pytest.mark.parametrize("kind", ["gaussian", "sas"])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    def test_noisy_pairs(self, clean, kind, snr_db):
        processed = degraded(clean, snr_db, kind=kind)
        assert llr(clean, processed) == pytest.approx(reference_llr(clean, processed)[0],
                                                       rel=0, abs=1e-12)
        assert stoi(clean, processed) == pytest.approx(reference_stoi(clean, processed),
                                                        rel=0, abs=1e-12)

    def test_recursion_stopped_early(self, clean):
        # frames holding only a narrow Gaussian pulse have autocorrelation
        # matrices so ill-conditioned that the prediction error rounds to <= 0
        processed = with_pulses(clean, 0.002)
        want, stops, _ = reference_llr(clean, processed)
        early = sum(s is not None and s < LPC_ORDER for pair in stops for s in pair)
        assert early > 0
        assert llr(clean, processed) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("gain", [1.0, 0.7])
    @pytest.mark.parametrize("width", [0.001, 0.004])
    def test_clean_recursion_broke_down(self, width, gain):
        # the pulses are in the clean signal: a frame whose clean recursion
        # broke down has a round-off a_c R_c a_c', so it is not scored
        pulsed = with_pulses(Signal(make_speech_proxy(), RATE), width)
        noise = np.random.default_rng(0).standard_normal(len(pulsed))
        processed = Signal(pulsed.samples + 0.01 * noise, RATE)
        clean = Signal(gain * pulsed.samples, RATE)
        want, stops, _ = reference_llr(clean, processed)
        assert any(c_stop is not None for c_stop, _ in stops)
        assert llr(clean, processed) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("width", [0.001, 0.004])
    def test_clean_gain_leaves_the_score_unchanged(self, width):
        # the recursion's stop floor scales with each frame's power, so the
        # same near-singular clean frames are skipped at every gain
        pulsed = with_pulses(Signal(make_speech_proxy(), RATE), width)
        noise = np.random.default_rng(0).standard_normal(len(pulsed))
        processed = Signal(pulsed.samples + 0.01 * noise, RATE)
        scores = [llr(Signal(gain * pulsed.samples, RATE), processed)
                  for gain in (1e-3, 0.3, 0.7, 1.0, 3.0)]
        np.testing.assert_allclose(scores, scores[3], rtol=0, atol=1e-14)

    def test_recursion_freezes_each_row_where_it_stopped(self):
        rows = np.array([[1.0, 0.5, -0.5, 0.3, 0.1],     # error exactly 0 at iteration 2
                         [1.0, 0.9, -0.9, 0.2, 0.4],     # error negative at iteration 2
                         [1.0, 0.4, 0.1, -0.05, 0.02]])  # runs all four iterations
        want = [reference_levinson(r, 4) for r in rows]
        assert [stop for _, stop in want] == [2, 2, None]
        coefs, live = _lpc(rows)
        np.testing.assert_allclose(coefs, [a for a, _ in want], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(live, [False, False, True])

    def test_silent_stretches_skipped(self, clean):
        samples = degraded(clean, 0.0, kind="sas").samples.copy()
        samples[int(0.7 * RATE) : int(0.95 * RATE)] = 0.0
        samples[int(1.5 * RATE) : int(1.8 * RATE)] = 0.0
        processed = Signal(samples, RATE)
        want, _, skipped = reference_llr(clean, processed)
        assert skipped > 0
        assert llr(clean, processed) == pytest.approx(want, rel=0, abs=1e-12)
        assert stoi(clean, processed) == pytest.approx(reference_stoi(clean, processed),
                                                        rel=0, abs=1e-12)

    def test_hops_that_do_not_divide_the_frame(self):
        # at 11025 Hz the LLR frame is 353 samples with a hop of 176
        rate = 11025
        clean = Signal(make_speech_proxy(n=2 * rate, rate=rate), rate)
        processed = Signal(mix_at_snr(clean.samples, sample_sas(1.2, len(clean), 19), 0.0), rate)
        assert llr(clean, processed) == pytest.approx(reference_llr(clean, processed)[0],
                                                       rel=0, abs=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 40])
    def test_overlap_add_bytes_match_the_frame_loop(self, count):
        # signed zeros show whether each sum starts from +0.0, as the loop's does
        rng = np.random.default_rng(count)
        frames = rng.standard_normal((count, STOI_FRAME))
        frames[rng.random(frames.shape) < 0.3] = 0.0
        frames[rng.random(frames.shape) < 0.3] = -0.0
        signs = np.signbit(frames[frames == 0.0])
        assert signs.any() and not signs.all()
        assert _overlap_add(frames).tobytes() == reference_overlap_add(frames, STOI_HOP).tobytes()

    def test_silent_processed_has_no_usable_frames(self, clean):
        with pytest.raises(ValueError, match="no usable frames for LLR"):
            llr(clean, Signal(np.zeros(len(clean)), RATE))


class TestMetamorphic:
    @pytest.mark.parametrize("gain", [1e-3, 0.5, 7.0])
    def test_processed_gain(self, clean, gain):
        processed = degraded(clean, 0.0, kind="sas")
        louder = Signal(gain * processed.samples, RATE)
        assert llr(clean, louder) == pytest.approx(llr(clean, processed), rel=1e-9)
        assert stoi(clean, louder) == pytest.approx(stoi(clean, processed), rel=1e-9)

    @pytest.mark.parametrize("gain", [1e-3, 0.5, 7.0])
    def test_common_gain(self, clean, gain):
        processed = degraded(clean, 5.0)
        both = Signal(gain * clean.samples, RATE), Signal(gain * processed.samples, RATE)
        assert llr(*both) == pytest.approx(llr(clean, processed), rel=1e-9)
        assert fwsnrseg(*both) == pytest.approx(fwsnrseg(clean, processed), rel=1e-9)
        assert stoi(*both) == pytest.approx(stoi(clean, processed), rel=1e-9)


class TestFraming:
    # at 20 Hz the 16 ms hop rounds to no sample, at 10 Hz the 32 ms frame too
    @pytest.mark.parametrize("rate", [20, 10])
    def test_frame_or_hop_below_one_sample_rejected(self, rate):
        low = Signal(np.sin(np.arange(200.0)), rate)
        for metric in (llr, fwsnrseg):
            with pytest.raises(ValueError, match=f"at least one sample at {rate} Hz"):
                metric(low, low)

    def test_frame_no_longer_than_lpc_order_rejected(self):
        # at 500 Hz a 32 ms frame holds 16 samples, the LPC order
        low = Signal(np.sin(np.arange(2000.0)), 500)
        with pytest.raises(ValueError, match="analysis frame of 16 samples is not longer "
                                             "than the LPC order 16"):
            llr(low, low)
