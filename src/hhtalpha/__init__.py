"""Time-domain impulsive-noise speech enhancement toolkit.

Decomposes a noisy signal into oscillatory modes (ensemble empirical mode
decomposition), scores every mode frame-by-frame with an alpha-stable
impulsiveness index, keeps per frame the modes up to the last one at or
below an adaptive threshold, and reconstructs the speech by windowed overlap-add.  Objective
quality/intelligibility metrics (LLR, fwSNRseg, STOI-style score) are
included for evaluation.
"""

from .emd import EemdConfig, ImfSet, eemd, emd, sift
from .enhance import AlphaProfile, EnhanceConfig, analyse, enhance, profile_alpha, reconstruct, select_cut, threshold
from .metrics import MetricReport, evaluate, fwsnrseg, llr, map_intelligibility, stoi
from .signal import FrameGrid, Signal, frame_grid, hann_window, overlap_add, read_wav, resample, write_wav
from .stable import AlphaEstimate, alpha_from_nu, default_lookup, estimate_alpha, nu_alpha, sample_sas

__all__ = [
    "AlphaEstimate", "AlphaProfile", "EemdConfig", "EnhanceConfig", "FrameGrid",
    "ImfSet", "MetricReport", "Signal", "alpha_from_nu", "analyse", "default_lookup",
    "eemd", "emd", "enhance", "estimate_alpha", "evaluate", "frame_grid", "fwsnrseg",
    "hann_window", "llr", "map_intelligibility", "nu_alpha", "overlap_add",
    "profile_alpha", "read_wav", "reconstruct", "resample", "sample_sas", "select_cut",
    "sift", "stoi", "threshold", "write_wav",
]
