"""End-to-end enhancement of speech-like audio buried in impulsive noise.

Run:  python demos/03_enhancement.py
Writes clean/noisy/enhanced WAVs into ./demo_out/.
"""

from pathlib import Path

import numpy as np
from scipy.signal import butter, sosfiltfilt

from hhtalpha import EnhanceConfig, Signal, enhance, evaluate, sample_sas, write_wav

RATE = 16000


def speech_like(n=38400, seed=5):
    """Bursts of a harmonic stack plus breathy high-band noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    voiced = np.zeros(n)
    for k, amp in ((1, 1.0), (2, 0.7), (3, 0.5), (4, 0.4), (6, 0.3), (8, 0.2)):
        voiced += amp * np.sin(2 * np.pi * 500 * k * t + rng.uniform(0, 2 * np.pi))
    env = np.zeros(n)
    for start, dur in ((0.2, 0.3), (0.75, 0.25), (1.3, 0.3), (1.9, 0.25)):
        i0, i1 = int(start * RATE), min(int((start + dur) * RATE), n)
        env[i0:i1] += np.hanning(i1 - i0)
    sos = butter(4, 400 / (RATE / 2), "highpass", output="sos")
    breath = sosfiltfilt(sos, rng.standard_normal(n)) * 0.08
    x = voiced * env + breath
    return x / np.max(np.abs(x)) * 0.5


def main():
    out_dir = Path("demo_out")
    out_dir.mkdir(exist_ok=True)

    clean = Signal(speech_like(), RATE)
    noise = sample_sas(1.2, len(clean), seed=13)
    gain = np.sqrt(np.mean(clean.samples ** 2) / np.mean(noise ** 2))
    noisy = Signal(clean.samples + gain * noise, RATE)

    print("Enhancing 2.4 s of audio at defaults (N=50 ensemble, 10 modes)...")
    enhanced, profile = enhance(noisy, EnhanceConfig())

    print("\n=== Per-frame mode selection ===")
    z = profile.cut_index
    print(f"  frames: {len(z)}; kept-mode count Z: "
          f"min {z.min()}, median {int(np.median(z))}, max {z.max()}")
    print(f"  mean alpha of whole noisy frames: {profile.noisy.mean():.2f} "
          "(low = impulsive)")

    print("\n=== Objective quality, noisy vs enhanced ===")
    before = evaluate(clean, noisy)
    after = evaluate(clean, enhanced)
    for key in ("llr", "fwsnrseg_db", "stoi", "stoi_pct"):
        b, a = before.to_dict()[key], after.to_dict()[key]
        print(f"  {key:12s}: {b:8.3f} -> {a:8.3f}")

    for name, sig in (("clean", clean), ("noisy", noisy), ("enhanced", enhanced)):
        write_wav(sig, out_dir / f"{name}.wav")
    print(f"\nWrote WAVs to {out_dir}/")


if __name__ == "__main__":
    main()
