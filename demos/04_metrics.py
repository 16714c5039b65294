"""Behaviour of the three objective metrics as degradation grows.

Run:  python demos/04_metrics.py
"""

import numpy as np

from hhtalpha import Signal, fwsnrseg, llr, map_intelligibility, stoi

RATE = 16000


def modulated_tone(n=38400):
    t = np.arange(n) / RATE
    return (1 + 0.5 * np.sin(2 * np.pi * 4 * t)) * (
        np.sin(2 * np.pi * 500 * t)
        + 0.5 * np.sin(2 * np.pi * 1200 * t)
        + 0.3 * np.sin(2 * np.pi * 2500 * t)
    )


def main():
    clean = Signal(modulated_tone(), RATE)
    rng = np.random.default_rng(7)
    wgn = rng.standard_normal(len(clean))
    p_clean = np.mean(clean.samples ** 2)

    print("=== Metric sweep over additive white noise ===")
    print("  SNR dB     LLR   fwSNRseg    STOI   intelligibility %")
    for snr in (30, 20, 10, 0, -10):
        gain = np.sqrt(p_clean / np.mean(wgn ** 2) * 10 ** (-snr / 10))
        degraded = Signal(clean.samples + gain * wgn, RATE)
        d = stoi(clean, degraded)
        print(f"  {snr:6d}  {llr(clean, degraded):6.3f}   {fwsnrseg(clean, degraded):7.2f}"
              f"  {d:6.3f}   {map_intelligibility(d):6.1f}")

    print("\n=== Edge cases ===")
    print(f"  identity:          LLR {llr(clean, clean):.3f}, "
          f"fwSNRseg {fwsnrseg(clean, clean):.1f}, STOI {stoi(clean, clean):.3f}")
    noise_only = Signal(rng.standard_normal(len(clean)) * 0.1, RATE)
    print(f"  unrelated noise:   STOI {stoi(clean, noise_only):.3f} (near zero)")
    zeros = Signal(np.zeros(len(clean)), RATE)
    print(f"  silence processed: fwSNRseg {fwsnrseg(clean, zeros):.2f} (at clamp floor)")

    print("\n=== Logistic mapping from correlation to percent correct ===")
    for d in (0.0, 0.25, 0.5, 0.69591, 0.85, 1.0):
        print(f"  d = {d:7.5f} -> {map_intelligibility(d):6.2f} %")


if __name__ == "__main__":
    main()
