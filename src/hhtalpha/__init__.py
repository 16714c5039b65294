"""Time-domain impulsive-noise speech enhancement toolkit.

Decomposes a noisy signal into oscillatory modes (ensemble empirical mode
decomposition), scores every mode frame-by-frame with an alpha-stable
impulsiveness index (`profile_alpha`), keeps per frame the modes up to the
last one at or below an adaptive threshold (`enhance.apply_selection` returns
the finished `AlphaProfile`), and overlap-adds the kept modes back
(`reconstruct`).  Objective metrics (LLR, fwSNRseg, STOI) are included.
"""

from .emd import EemdConfig, ImfSet, eemd, emd, sift
from .enhance import AlphaProfile, EnhanceConfig, enhance, profile_alpha, reconstruct
from .metrics import MetricReport, evaluate, fwsnrseg, llr, map_intelligibility, stoi
from .signal import FrameGrid, Signal, hann_window, overlap_add, read_wav, resample, write_wav
from .stable import AlphaEstimate, alpha_from_nu, default_lookup, estimate_alpha, nu_alpha, sample_sas

__all__ = [
    "AlphaEstimate", "AlphaProfile", "EemdConfig", "EnhanceConfig", "FrameGrid",
    "ImfSet", "MetricReport", "Signal", "alpha_from_nu", "default_lookup",
    "eemd", "emd", "enhance", "estimate_alpha", "evaluate", "fwsnrseg",
    "hann_window", "llr", "map_intelligibility", "nu_alpha", "overlap_add",
    "profile_alpha", "read_wav", "reconstruct", "resample", "sample_sas", "sift", "stoi",
    "write_wav",
]
