"""Estimate the stability index of heavy-tailed noise from quantile spreads.

Run:  python demos/02_alpha_estimation.py
"""

import numpy as np

from hhtalpha import default_lookup, estimate_alpha, nu_alpha, sample_sas


def main():
    # --- 1. The quantile-ratio statistic at the two landmark laws ----------
    print("=== Landmark values of the tail statistic nu ===")
    gauss = sample_sas(2.0, 200_000, 1)
    cauchy = sample_sas(1.0, 200_000, 1)
    print(f"  Gaussian (alpha=2.0): nu = {nu_alpha(gauss):.4f}  (table: 2.4388)")
    print(f"  Cauchy   (alpha=1.0): nu = {nu_alpha(cauchy):.4f}  (table: 6.3138)")

    # --- 2. Closed loop: draw at a known alpha, estimate it back -----------
    print("\n=== Closed-loop accuracy over the usable range ===")
    print("  alpha   mean est   std    |bias|")
    for alpha in (1.0, 1.2, 1.5, 1.8, 2.0):
        ests = [estimate_alpha(sample_sas(alpha, 20_000, s)).alpha for s in range(50)]
        ests = np.array(ests)
        print(f"  {alpha:4.1f}   {ests.mean():7.3f}  {ests.std():.3f}   "
              f"{abs(ests.mean() - alpha):.3f}")

    # --- 3. Sample size matters: the spread shrinks like 1/sqrt(n) ---------
    print("\n=== Estimator spread vs sample size (alpha = 1.5) ===")
    for n in (500, 2_000, 8_000, 32_000):
        ests = np.array([estimate_alpha(sample_sas(1.5, n, s)).alpha for s in range(50)])
        print(f"  n = {n:6d}: std = {ests.std():.3f}")

    # --- 4. The inversion table itself --------------------------------------
    print("\n=== McCulloch's symmetric inversion table ===")
    alpha, nu = default_lookup()
    print(f"  {len(alpha)} rows")
    print("  alpha:", np.round(alpha[:5], 2), "...")
    print("  nu:   ", np.round(nu[:5], 3), "...")


if __name__ == "__main__":
    main()
