"""Impulsiveness-guided mode selection and speech reconstruction.

Pipeline: ensemble decomposition -> per-frame per-mode impulsiveness-index
profiling -> adaptive threshold + prefix selection -> windowed overlap-add
reconstruction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .emd import EemdConfig, ImfSet, eemd
from .signal import FrameGrid, Signal, frame_grid, frame_order_stats, hann_window, overlap_add
from .stable import MIN_SAMPLES, alpha_from_nu, hazen_ranks, nu_from_order_stats

# Frames where the quantile estimator degenerates (zero spread, e.g. all-zero
# padding) are scored as maximally noise-like.
DEGENERATE_ALPHA = 2.0


@dataclass(frozen=True)
class EnhanceConfig:
    eemd: EemdConfig = field(default_factory=EemdConfig)
    frame_len: int = 10240
    step: int = 128
    mu: float = 0.8
    alpha_min: float = 1.1
    threshold_combine: str = "floor"

    def __post_init__(self):
        if not (0.0 < self.mu <= 1.0):
            raise ValueError("mu must lie in (0, 1]")
        if not (0.5 <= self.alpha_min <= 2.0):
            raise ValueError("alpha_min must lie in [0.5, 2.0]")
        if self.threshold_combine not in ("floor", "literal_min"):
            raise ValueError("threshold_combine must be 'floor' or 'literal_min'")
        if self.frame_len < MIN_SAMPLES:
            raise ValueError(f"frame_len must be at least {MIN_SAMPLES} samples, "
                             f"the minimum the alpha estimator accepts; got {self.frame_len}")
        if self.step <= 0 or self.step > self.frame_len:
            raise ValueError("step must satisfy 0 < step <= frame_len")


@dataclass
class AlphaProfile:
    """Per-frame impulsiveness estimates and the resulting mode selections.

    per_mode is (frames x modes); `noisy` holds the estimate for the corrupted
    signal frame itself.  `thresholds` and `cut_index` stay None until the
    selection step fills them in.
    """

    per_mode: np.ndarray
    noisy: np.ndarray
    thresholds: np.ndarray | None = None
    cut_index: np.ndarray | None = None

    @property
    def frame_count(self) -> int:
        return self.per_mode.shape[0]

    @property
    def mode_count(self) -> int:
        return self.per_mode.shape[1]

    def write_csv(self, path) -> None:
        """Dump the profile for external plotting (one row per frame)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = [f"alpha_{m + 1}" for m in range(self.mode_count)]
            header += ["alpha_u", "rho_alpha", "Z"]
            writer.writerow(header)
            for q in range(self.frame_count):
                row = [f"{a:.6f}" for a in self.per_mode[q]]
                row.append(f"{self.noisy[q]:.6f}")
                row.append("" if self.thresholds is None else f"{self.thresholds[q]:.6f}")
                row.append("" if self.cut_index is None else str(int(self.cut_index[q])))
                writer.writerow(row)


def profile_alpha(imfs: ImfSet, noisy: np.ndarray, grid: FrameGrid) -> AlphaProfile:
    """Estimate the impulsiveness index per frame for every mode and for the
    noisy samples themselves.  Degenerate frames get the sentinel value 2.0.

    Each sequence's frames are scored from their order statistics, read by
    one sliding sorted window, so memory is O(length + frame_len).
    """
    if imfs.source_len != len(noisy):
        raise ValueError("mode length does not match the noisy signal")
    if grid.total_len != len(noisy):
        raise ValueError("frame grid does not match the noisy signal")

    ranks, gamma = hazen_ranks(grid.frame_len)

    def frame_alphas(samples):
        nu = nu_from_order_stats(frame_order_stats(samples, grid, ranks), gamma)
        return np.nan_to_num(alpha_from_nu(nu), nan=DEGENERATE_ALPHA)

    per_mode = np.empty((grid.count, imfs.mode_count))
    for m, mode in enumerate(imfs.modes):
        per_mode[:, m] = frame_alphas(mode)
    return AlphaProfile(per_mode=per_mode, noisy=frame_alphas(noisy))


def threshold(alpha_u, cfg: EnhanceConfig):
    """Adaptive per-frame selection threshold, elementwise in `alpha_u`.

    "floor" keeps the threshold at least alpha_min (prevents over-removal in
    speech-dominant frames); "literal_min" takes min(mu*alpha_u, alpha_min)
    instead.
    """
    scaled = cfg.mu * np.asarray(alpha_u)
    if cfg.threshold_combine == "floor":
        return np.maximum(scaled, cfg.alpha_min)
    return np.minimum(scaled, cfg.alpha_min)


def select_cut(alphas, rho):
    """Index of the last mode whose impulsiveness is at or below the threshold.

    `alphas` is one row of per-mode values with a scalar `rho`, or a
    (frames x modes) matrix with one `rho` per frame.  Returns 0 where no
    mode qualifies (the frame is reconstructed as silence).  Modes past the
    returned index are treated as noise-like and dropped.
    """
    below = np.asarray(alphas) <= np.asarray(rho)[..., np.newaxis]
    rank = np.arange(1, below.shape[-1] + 1)
    return np.max(rank * below, axis=-1, initial=0)


def apply_selection(profile: AlphaProfile, cfg: EnhanceConfig) -> AlphaProfile:
    """Fill in per-frame thresholds and mode cut indices."""
    profile.thresholds = threshold(profile.noisy, cfg)
    profile.cut_index = select_cut(profile.per_mode, profile.thresholds)
    return profile


def reconstruct(imfs: ImfSet, profile: AlphaProfile, grid: FrameGrid) -> np.ndarray:
    """Overlap-add, frame by frame, the Hann-windowed sum of the kept mode prefix.

    Frame q takes modes 1..cut_index[q] (none when the index is 0).  The
    residual trend is never included.  Output length equals the source
    length exactly.
    """
    if profile.cut_index is None:
        raise ValueError("profile has no cut indices; run apply_selection first")
    if profile.frame_count != grid.count or imfs.source_len != grid.total_len:
        raise ValueError("profile/grid/mode shapes are inconsistent")
    # row z holds modes 1..z, so each frame's cut index names its source row
    prefix = np.zeros((imfs.mode_count + 1, imfs.source_len))
    np.cumsum(imfs.modes, axis=0, out=prefix[1:])
    return overlap_add(prefix, profile.cut_index, grid, hann_window(grid.frame_len))


def analyse(noisy: Signal, cfg: EnhanceConfig = EnhanceConfig()):
    """Decompose, profile and select; returns (ImfSet, FrameGrid, filled-in AlphaProfile)."""
    if len(noisy) < cfg.frame_len // 4:
        raise ValueError("input shorter than a quarter frame; nothing to enhance")
    imfs = eemd(noisy, cfg.eemd)
    grid = frame_grid(len(noisy), cfg.frame_len, cfg.step)
    return imfs, grid, apply_selection(profile_alpha(imfs, noisy.samples, grid), cfg)


def enhance(noisy: Signal, cfg: EnhanceConfig = EnhanceConfig()):
    """Full pipeline; returns (enhanced signal, filled-in AlphaProfile)."""
    imfs, grid, profile = analyse(noisy, cfg)
    return Signal(reconstruct(imfs, profile, grid), noisy.sample_rate), profile
