"""Acceptance suite: one test per release criterion, one printed line each."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hhtalpha import (
    EnhanceConfig,
    FrameGrid,
    Signal,
    eemd,
    emd,
    enhance,
    estimate_alpha,
    evaluate,
    fwsnrseg,
    llr,
    map_intelligibility,
    profile_alpha,
    reconstruct,
    sample_sas,
    stoi,
    write_wav,
)
from conftest import make_speech_proxy, mix_at_snr

RATE = 16000


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} — {detail}")
    assert ok, detail


def tone(freq, rate, dur=1.0):
    t = np.arange(int(rate * dur)) / rate
    return np.sin(2 * np.pi * freq * t)


def mean_period(x):
    crossings = np.sum(np.abs(np.diff(np.sign(x))) > 0)
    return 2 * len(x) / max(crossings, 1)


def test_01_emd_completeness():
    worst_err, worst_time = 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(RATE)
        t0 = time.time()
        imfs = emd(Signal(x, RATE))
        elapsed = time.time() - t0
        err = np.max(np.abs(imfs.total() - x)) / np.max(np.abs(x))
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    report(1, worst_err < 1e-8 and worst_time < 10.0,
           f"completeness err {worst_err:.2e} (< 1e-8), slowest run {worst_time:.2f}s (< 10s)")


def test_02_two_tone_separation():
    x = tone(50, 8000, 2.0) + tone(500, 8000, 2.0)
    imfs = emd(Signal(x, 8000))
    c_hi = np.corrcoef(imfs.modes[0], tone(500, 8000, 2.0))[0, 1]
    c_lo = max(np.corrcoef(m, tone(50, 8000, 2.0))[0, 1] for m in imfs.modes[1:])
    report(2, c_hi > 0.95 and c_lo > 0.90,
           f"IMF1 vs 500 Hz corr {c_hi:.3f} (> 0.95), best later IMF vs 50 Hz {c_lo:.3f} (> 0.90)")


def test_03_dyadic_filterbank():
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        imfs = emd(Signal(rng.standard_normal(8192), 1))
        periods = [mean_period(m) for m in imfs.modes[:6]]
        ratios.append([periods[i + 1] / periods[i] for i in range(1, len(periods) - 1)])
    mean_ratios = np.mean(ratios, axis=0)
    ok = np.all((mean_ratios >= 1.5) & (mean_ratios <= 2.5))
    report(3, ok, f"mode 2-6 period ratios {np.round(mean_ratios, 2)} all in [1.5, 2.5]")


def test_04_mcculloch_vs_cms_oracle():
    t0 = time.time()
    worst = 100
    for alpha in (1.2, 1.5, 1.8, 2.0):
        hits = sum(
            abs(estimate_alpha(sample_sas(alpha, 20_000, seed)).alpha - alpha) <= 0.1
            for seed in range(100)
        )
        worst = min(worst, hits)
    elapsed = time.time() - t0
    report(4, worst >= 95 and elapsed < 60.0,
           f"worst hit rate {worst}/100 (>= 95), runtime {elapsed:.1f}s (< 60s)")


def test_05_alpha_trend_reproduction():
    clean = make_speech_proxy()
    noise = sample_sas(1.3, len(clean), 13)
    noisy = Signal(mix_at_snr(clean, noise, 0.0), RATE)
    imfs = eemd(noisy)
    grid = FrameGrid(10240, 128)
    per_mode, _ = profile_alpha(imfs, noisy.samples, grid)
    means = per_mode.mean(axis=0)
    low = means[:3].mean()
    high = means[6:10].mean()
    top = means[-3:].mean()
    ok = (high - low) > 0.1 and top >= 1.8
    report(5, ok,
           f"mean alpha IMF7-10 {high:.2f} vs IMF1-3 {low:.2f} (diff {high - low:.2f} > 0.1), "
           f"top modes {top:.2f} (>= 1.8)")


def test_06_pipeline_noop_identity():
    x = make_speech_proxy(n=16384, bursts=((0.1, 0.3), (0.55, 0.3)))
    sig = Signal(x, RATE)
    from hhtalpha.emd import EemdConfig
    imfs = eemd(sig, EemdConfig(max_modes=8, ensemble_size=5, master_seed=2))
    grid = FrameGrid(4096, 512)
    out = reconstruct(imfs, np.full(grid.count(len(sig)), imfs.mode_count), grid)
    mode_sum = imfs.modes.sum(axis=0)
    err = np.max(np.abs(out - mode_sum)) / np.max(np.abs(mode_sum))
    report(6, err < 1e-6, f"keep-all reconstruction err {err:.2e} (< 1e-6 of peak)")


def test_07_end_to_end_improvement(noisy_pair):
    clean, noisy = noisy_pair
    t0 = time.time()
    enhanced, _ = enhance(noisy, EnhanceConfig())
    elapsed = time.time() - t0
    rn = evaluate(clean, noisy)
    re = evaluate(clean, enhanced)
    ok = (
        re.fwsnrseg_db > rn.fwsnrseg_db
        and re.llr < rn.llr
        and re.stoi >= rn.stoi - 0.05
        and elapsed < 300.0
    )
    report(7, ok,
           f"fwSNRseg {rn.fwsnrseg_db:.2f}->{re.fwsnrseg_db:.2f} dB, "
           f"LLR {rn.llr:.4f}->{re.llr:.4f}, STOI {rn.stoi:.3f}->{re.stoi:.3f}, "
           f"runtime {elapsed:.1f}s (< 300s)")


def test_08_metric_identity_and_monotonicity():
    clean = Signal(make_speech_proxy(), RATE)
    rng = np.random.default_rng(17)
    wgn = rng.standard_normal(len(clean))
    degr = {s: Signal(mix_at_snr(clean.samples, wgn, s), RATE) for s in (-10.0, 0.0, 10.0)}
    ident = (llr(clean, clean) == 0.0
             and stoi(clean, clean) >= 0.999
             and fwsnrseg(clean, clean) == 35.0)
    st = [stoi(clean, degr[s]) for s in (-10.0, 0.0, 10.0)]
    fw = [fwsnrseg(clean, degr[s]) for s in (-10.0, 0.0, 10.0)]
    ll = [llr(clean, degr[s]) for s in (-10.0, 0.0, 10.0)]
    mono = (st[0] < st[1] < st[2] and fw[0] < fw[1] < fw[2] and ll[0] > ll[1] > ll[2])
    report(8, ident and mono,
           f"identity (llr 0, stoi >= 0.999, fwsnrseg 35) {ident}; "
           f"monotone over -10/0/+10 dB: stoi {np.round(st, 3)}, "
           f"fw {np.round(fw, 2)}, llr {np.round(ll, 3)}")


def test_09_mapping_function():
    mid = map_intelligibility(0.69591)
    at_one = map_intelligibility(1.0)
    ok = abs(mid - 50.0) <= 0.01 and abs(at_one - 98.36) <= 0.05
    report(9, ok, f"f(0.69591) = {mid:.4f} (50 +- 0.01), f(1.0) = {at_one:.4f} (98.36 +- 0.05)")


def test_10_cli_determinism(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav(Signal(make_speech_proxy(n=16384, bursts=((0.1, 0.3), (0.55, 0.3))), RATE), wav)
    # the last run is pinned to one core, so its ensemble trials run in-process
    one_core = {min(os.sched_getaffinity(0))}
    outputs = []
    for i, (threads, pin) in enumerate((("1", False), ("4", False), ("1", False), ("1", True))):
        out = tmp_path / f"out{i}.wav"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-m", "hhtalpha.cli", "enhance", "--in", str(wav),
             "--out", str(out), "--frame", "4096", "--step", "512",
             "--ensemble", "5", "--modes", "8", "--seed", "7"],
            env=env, capture_output=True, text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, one_core)) if pin else None,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] == outputs[3]
    report(10, ok, "byte-identical WAV across repeated runs, thread-count settings and core counts")
