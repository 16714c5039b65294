import numpy as np
import pytest

from hhtalpha import Signal, evaluate, fwsnrseg, llr, map_intelligibility, stoi
from hhtalpha.metrics import STOI_MAP_A, STOI_MAP_B

from conftest import make_speech_proxy, mix_at_snr

RATE = 16000


@pytest.fixture(scope="module")
def clean():
    return Signal(make_speech_proxy(), RATE)


def degraded(clean, snr_db, seed=17):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(clean))
    return Signal(mix_at_snr(clean.samples, noise, snr_db), RATE)


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
        with pytest.raises(ValueError):
            stoi(short, short)


class TestMapping:
    def test_midpoint_is_fifty(self):
        d = -STOI_MAP_B / STOI_MAP_A  # 9.36/13.45
        assert map_intelligibility(d, STOI_MAP_A, STOI_MAP_B) == pytest.approx(50.0, abs=1e-9)

    def test_stoi_coefficients_at_one(self):
        assert map_intelligibility(1.0, STOI_MAP_A, STOI_MAP_B) == pytest.approx(98.36, abs=0.05)

    def test_stoi_coefficients_at_zero(self):
        assert map_intelligibility(0.0, STOI_MAP_A, STOI_MAP_B) == pytest.approx(0.0086, abs=0.001)

    def test_increasing_for_negative_a(self):
        vals = [map_intelligibility(d, STOI_MAP_A, STOI_MAP_B) for d in (0.0, 0.5, 1.0)]
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

    def test_unknown_metric(self, clean, monkeypatch):
        with pytest.raises(ValueError):
            evaluate(clean, clean, which=("pesq",))
        # an unknown name is rejected before any known metric is computed
        monkeypatch.setattr("hhtalpha.metrics.stoi", lambda *a: pytest.fail("stoi computed"))
        with pytest.raises(ValueError, match="'pesq'"):
            evaluate(clean, clean, which=("stoi", "pesq"))
