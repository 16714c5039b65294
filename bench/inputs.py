"""Seeded benchmark inputs, built the way tests/conftest.py builds its proxy.

The benchmark cannot import the test fixtures (they pull in pytest), so the
speech proxy and the SNR mixer are restated here.  The same seed always
gives the same arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import butter, lfilter

RATE = 16000
# The 2.4 s acceptance proxy's bursts; longer inputs repeat the pattern
# every 2.4 s so speech stays spread over the whole length.
BURSTS_2S4 = ((0.2, 0.3), (0.75, 0.25), (1.3, 0.3), (1.9, 0.25))
PATTERN_S = 2.4


def speech_proxy(duration_s: float, seed, rate: int = RATE, breath: float = 0.08) -> np.ndarray:
    """Hann-enveloped bursts of a 500 Hz harmonic stack over a high-passed noise floor."""
    n = int(round(duration_s * rate))
    bursts = [(c + PATTERN_S * k, d)
              for k in range(math.ceil(duration_s / PATTERN_S)) for c, d in BURSTS_2S4]
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    env = np.zeros(n)
    for center, dur in bursts:
        i0 = int(center * rate)
        i1 = min(n, i0 + int(dur * rate))
        if i1 > i0:
            env[i0:i1] = np.hanning(i1 - i0)
    x = np.zeros(n)
    for k, a in [(1, 1.0), (2, 0.7), (3, 0.5), (4, 0.4), (6, 0.3), (8, 0.2)]:
        x += a * np.sin(2 * np.pi * 500 * k * t + rng.uniform(0, 2 * np.pi))
    b, a_ = butter(4, 400 / (rate / 2), "highpass")
    floor = lfilter(b, a_, rng.standard_normal(n)) * breath
    return env * (x + floor)


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale `noise` so 10*log10(P_clean/P_noise) == snr_db, then add."""
    p_clean = np.mean(clean ** 2)
    p_noise = np.mean(noise ** 2)
    gain = np.sqrt(p_clean / p_noise * 10.0 ** (-snr_db / 10.0))
    return clean + gain * noise


def noisy_pair(duration_s: float, alpha: float, snr_db: float, seed: int, tag: int,
               sample_sas) -> tuple[np.ndarray, np.ndarray]:
    """(clean, noisy): a proxy plus alpha-stable noise from `sample_sas` at `snr_db`.

    `tag` separates the streams of several pairs built from one run seed.
    """
    clean = speech_proxy(duration_s, np.random.SeedSequence([seed, tag, 0]))
    noise = sample_sas(alpha, len(clean), np.random.SeedSequence([seed, tag, 1]))
    return clean, mix_at_snr(clean, noise, snr_db)
