"""Walk through empirical mode decomposition on signals whose structure we know.

Run:  python demos/01_decomposition.py
"""

import numpy as np

from hhtalpha import Signal, eemd, emd
from hhtalpha.emd import EemdConfig

RATE = 8000


def mean_period(x):
    crossings = np.sum(np.abs(np.diff(np.sign(x))) > 0)
    return 2 * len(x) / max(crossings, 1)


def main():
    t = np.arange(2 * RATE) / RATE

    # --- 1. Two well-separated tones: each should land in its own mode -----
    print("=== Two-tone separation (500 Hz + 50 Hz) ===")
    x = np.sin(2 * np.pi * 500 * t) + np.sin(2 * np.pi * 50 * t)
    imfs = emd(Signal(x, RATE))
    for m, mode in enumerate(imfs.modes, start=1):
        hz = RATE / mean_period(mode)
        rms = np.sqrt(np.mean(mode ** 2))
        print(f"  IMF {m}: mean frequency {hz:7.1f} Hz, rms {rms:.3f}")
    err = np.max(np.abs(imfs.total() - x))
    print(f"  completeness: max |sum - input| = {err:.2e}")

    # --- 2. White noise: the sifter behaves like a dyadic filter bank ------
    print("\n=== Dyadic filter-bank behaviour on white noise ===")
    rng = np.random.default_rng(0)
    imfs = emd(Signal(rng.standard_normal(8192), RATE))
    periods = [mean_period(m) for m in imfs.modes]
    print("  mean periods per mode:", np.round(periods, 1))
    ratios = np.array(periods[1:]) / np.array(periods[:-1])
    print("  successive ratios (expect roughly 2):", np.round(ratios, 2))

    # --- 3. The noise-ensemble variant fixes mode mixing -------------------
    print("\n=== Ensemble decomposition of an intermittent signal ===")
    gap = np.sin(2 * np.pi * 300 * t) * (np.sin(2 * np.pi * 2 * t) > 0.6)
    x = np.sin(2 * np.pi * 40 * t) + gap
    cfg = EemdConfig(max_modes=8, ensemble_size=25, master_seed=3)
    imfs = eemd(Signal(x, RATE), cfg)
    print(f"  modes produced: {imfs.mode_count}")
    corr = max(np.corrcoef(m, gap)[0, 1] for m in imfs.modes)
    print(f"  best single-mode correlation with the burst tone: {corr:.3f}")
    err = np.max(np.abs(imfs.total() - x))
    print(f"  completeness still exact: max error {err:.2e}")


if __name__ == "__main__":
    main()
