"""Impulsiveness-guided mode selection and speech reconstruction.

Pipeline: ensemble decomposition -> per-frame per-mode impulsiveness-index
profiling -> adaptive threshold + prefix selection -> windowed overlap-add
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fork import fork_map
from .emd import EemdConfig, ImfSet, eemd
from .signal import FrameGrid, Signal, frame_order_stats, overlap_add, whole_number
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
        # the alpha estimator needs MIN_SAMPLES samples a frame
        object.__setattr__(self, "frame_len", whole_number(self.frame_len, "frame_len", MIN_SAMPLES))
        object.__setattr__(self, "step", FrameGrid(self.frame_len, self.step).step)


@dataclass(frozen=True)
class AlphaProfile:
    """Per-frame impulsiveness estimates and the mode selection they give.

    per_mode is (frames x modes); `noisy` holds the estimate for the corrupted
    signal frame itself, `thresholds` each frame's threshold rho and
    `cut_index` each frame's Z, the number of leading modes kept.
    """

    per_mode: np.ndarray
    noisy: np.ndarray
    thresholds: np.ndarray
    cut_index: np.ndarray

    @property
    def frame_count(self) -> int:
        return self.per_mode.shape[0]

    @property
    def mode_count(self) -> int:
        return self.per_mode.shape[1]

    def write_csv(self, path) -> None:
        """Dump the profile for external plotting: a header, then one row per
        frame, comma-separated with CRLF line ends."""
        header = [f"alpha_{m + 1}" for m in range(self.mode_count)] + ["alpha_u", "rho_alpha", "Z"]
        fmt = ["%.6f"] * (self.mode_count + 2) + ["%d"]
        table = np.column_stack((self.per_mode, self.noisy, self.thresholds, self.cut_index))
        # newline="" keeps the CRLF ends from being translated a second time
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                       header=",".join(header), comments="")


def profile_alpha(imfs: ImfSet, noisy: np.ndarray, grid: FrameGrid):
    """Estimate the impulsiveness index per frame for every mode and for the
    noisy samples themselves; returns (per_mode, noisy), (frames x modes) and
    one value per frame.  Degenerate frames get the sentinel value 2.0.

    Each sequence's frames are scored from their order statistics, read a
    block of frames at a time from one merged sorted window, so memory is
    O(length + frame_len) per sequence.  The sequences are scored through
    `fork_map`, as EEMD's trials are; the output is bit-identical wherever
    they run.
    """
    if imfs.source_len != len(noisy):
        raise ValueError("mode length does not match the noisy signal")

    ranks, gamma = hazen_ranks(grid.frame_len)

    def frame_alphas(samples):
        nu = nu_from_order_stats(frame_order_stats(samples, grid, ranks), gamma)
        return np.nan_to_num(alpha_from_nu(nu), nan=DEGENERATE_ALPHA)

    sequences = (*imfs.modes, noisy)
    *columns, noisy_alphas = fork_map(lambda i: frame_alphas(sequences[i]), len(sequences))
    per_mode = np.reshape(columns, (imfs.mode_count, len(noisy_alphas))).T.copy()
    return per_mode, noisy_alphas


def apply_selection(per_mode, noisy, cfg: EnhanceConfig) -> AlphaProfile:
    """Select each frame's modes from its profiled impulsiveness.

    The threshold is rho = max(mu*alpha_u, alpha_min) under "floor", which
    prevents over-removal in speech-dominant frames, and min(mu*alpha_u,
    alpha_min) under "literal_min".  The cut index Z is the last mode whose
    alpha is at or below rho, 0 where none is (the frame is reconstructed as
    silence); modes past Z are treated as noise-like and dropped.
    """
    per_mode, noisy = np.asarray(per_mode), np.asarray(noisy)
    if per_mode.ndim != 2 or noisy.shape != per_mode.shape[:1]:
        raise ValueError("per_mode must be (frames x modes) with one noisy value per frame")
    combine = np.maximum if cfg.threshold_combine == "floor" else np.minimum
    rho = combine(cfg.mu * noisy, cfg.alpha_min)
    rank = np.arange(1, per_mode.shape[1] + 1)
    cut = np.max(rank * (per_mode <= rho[:, np.newaxis]), axis=1, initial=0)
    return AlphaProfile(per_mode=per_mode, noisy=noisy, thresholds=rho, cut_index=cut)


def reconstruct(imfs: ImfSet, cut_index, grid: FrameGrid) -> np.ndarray:
    """Overlap-add, frame by frame, the Hann-windowed sum of the kept mode prefix.

    Frame q takes modes 1..cut_index[q] (none when the index is 0).  The
    residual trend is never included.  Output length equals the source
    length exactly.  `overlap_add` rejects a cut index outside 0..mode_count.
    """
    return overlap_add(imfs.modes, cut_index, grid)


def analyse(noisy: Signal, cfg: EnhanceConfig = EnhanceConfig()):
    """Decompose, profile and select; returns (ImfSet, FrameGrid, AlphaProfile)."""
    if len(noisy) < cfg.frame_len // 4:
        raise ValueError("input shorter than a quarter frame; nothing to enhance")
    imfs = eemd(noisy, cfg.eemd)
    grid = FrameGrid(cfg.frame_len, cfg.step)
    return imfs, grid, apply_selection(*profile_alpha(imfs, noisy.samples, grid), cfg)


def enhance(noisy: Signal, cfg: EnhanceConfig = EnhanceConfig()):
    """Full pipeline; returns (enhanced signal, AlphaProfile)."""
    imfs, grid, profile = analyse(noisy, cfg)
    return Signal(reconstruct(imfs, profile.cut_index, grid), noisy.sample_rate), profile
