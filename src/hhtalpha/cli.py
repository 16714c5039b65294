"""Command-line entry points: enhance, decompose, alpha, mix, synth-noise, eval."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .enhance import EnhanceConfig, analyse
from .enhance import enhance as run_enhance
from .metrics import ACTIVE_FLOOR_DB, FRAME_MS, evaluate
from .emd import EemdConfig, eemd
from .signal import Signal, read_wav, write_wav
from .stable import sample_sas

# The library's settings are these flags; their defaults are the config defaults.
_ENHANCE = EnhanceConfig()


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative whole number, got {args.seed}")
    return args.seed


def _eemd_config(args) -> EemdConfig:
    return EemdConfig(
        max_modes=args.modes,
        ensemble_size=args.ensemble,
        ensemble_snr_db=args.ensemble_snr,
        master_seed=_seed(args),
    )


def _add_eemd_flags(p):
    p.add_argument("--ensemble", type=int, default=_ENHANCE.eemd.ensemble_size,
                   help="ensemble size N (default %(default)s)")
    p.add_argument("--ensemble-snr", type=float, default=_ENHANCE.eemd.ensemble_snr_db,
                   help="ensemble noise SNR in dB (default %(default)s)")
    p.add_argument("--modes", type=int, default=_ENHANCE.eemd.max_modes,
                   help="number of modes M (default %(default)s)")
    p.add_argument("--seed", type=int, default=_ENHANCE.eemd.master_seed,
                   help="master seed (default %(default)s)")


def _enhance_config(args) -> EnhanceConfig:
    return EnhanceConfig(
        eemd=_eemd_config(args),
        frame_len=args.frame,
        step=args.step,
        mu=args.mu,
        alpha_min=args.alpha_min,
        threshold_combine=args.threshold_mode.replace("-", "_"),
    )


def _add_selection_flags(p):
    p.add_argument("--frame", type=int, default=_ENHANCE.frame_len,
                   help="frame length T_d (default %(default)s)")
    p.add_argument("--step", type=int, default=_ENHANCE.step,
                   help="frame step S_d (default %(default)s)")
    p.add_argument("--mu", type=float, default=_ENHANCE.mu,
                   help="threshold scale mu (default %(default)s)")
    p.add_argument("--alpha-min", type=float, default=_ENHANCE.alpha_min,
                   help="threshold floor alpha_min (default %(default)s)")
    p.add_argument("--threshold-mode", choices=["floor", "literal-min"],
                   default=_ENHANCE.threshold_combine.replace("_", "-"),
                   help="threshold combination (default %(default)s)")


def cmd_enhance(args) -> int:
    enhanced, profile = run_enhance(read_wav(args.infile), _enhance_config(args))
    write_wav(enhanced, args.outfile)
    if args.profile:
        profile.write_csv(args.profile)
    return 0


def cmd_decompose(args) -> int:
    signal = read_wav(args.infile)
    imfs = eemd(signal, _eemd_config(args))
    for m, mode in enumerate(imfs.modes, start=1):
        write_wav(Signal(mode, signal.sample_rate), f"{args.out_prefix}IMF_{m:02d}.wav")
    write_wav(Signal(imfs.residual, signal.sample_rate), f"{args.out_prefix}residual.wav")
    print(f"wrote {imfs.mode_count} modes + residual with prefix {args.out_prefix}")
    return 0


def cmd_alpha(args) -> int:
    *_, profile = analyse(read_wav(args.infile), _enhance_config(args))
    profile.write_csv(args.outfile)
    return 0


def cmd_mix(args) -> int:
    if not args.snr_db > -np.inf:
        raise ValueError(f"--snr-db must be a number of dB or inf (no noise), got {args.snr_db}")
    clean = read_wav(args.clean)
    noise = read_wav(args.noise)
    for path, sig in ((args.clean, clean), (args.noise, noise)):
        if len(sig) == 0:
            raise ValueError(f"{path} is empty")
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("clean and noise sample rates differ")
    rng = np.random.default_rng(_seed(args))
    n = noise.samples
    if len(n) < len(clean):
        n = np.tile(n, -(-len(clean) // len(n)))
    offset = int(rng.integers(0, len(n) - len(clean) + 1))
    n = n[offset : offset + len(clean)]
    active = _active_mask(clean.samples, clean.sample_rate)
    p_clean = float(np.mean(clean.samples[active] ** 2))
    if p_clean == 0.0:
        raise ValueError("clean file is silent")
    p_noise = float(np.mean(n ** 2))
    if p_noise == 0.0:
        raise ValueError("noise file is silent")
    gain = np.sqrt(p_clean / p_noise * 10.0 ** (-args.snr_db / 10.0))
    write_wav(Signal(clean.samples + gain * n, clean.sample_rate), args.outfile)
    return 0


def _active_mask(x: np.ndarray, rate: int) -> np.ndarray:
    """Sample mask covering FRAME_MS frames within ACTIVE_FLOOR_DB of the loudest."""
    n = int(round(FRAME_MS * rate / 1000.0))
    if len(x) < n:
        return np.ones(len(x), bool)
    count = len(x) // n
    energy = np.sum(x[: count * n].reshape(count, n) ** 2, axis=1)
    keep = energy >= energy.max() * 10.0 ** (-ACTIVE_FLOOR_DB / 10.0)
    mask = np.zeros(len(x), bool)
    mask[: count * n] = np.repeat(keep, n)
    mask[count * n :] = keep[-1]
    return mask


def cmd_synth_noise(args) -> int:
    if args.rate <= 0:
        raise ValueError(f"--rate must be a positive whole number of Hz, got {args.rate}")
    if not np.isfinite(args.duration):
        raise ValueError(f"--duration must be a finite number of seconds, got {args.duration}")
    n = int(round(args.duration * args.rate))
    if n < 1:
        raise ValueError("--duration must span at least one sample at --rate")
    samples = sample_sas(args.alpha, n, _seed(args))
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples / peak * 0.5
    write_wav(Signal(samples, args.rate), args.outfile)
    return 0


def cmd_eval(args) -> int:
    clean = read_wav(args.clean)
    processed = read_wav(args.processed)
    which = [m.strip() for m in args.metrics.split(",") if m.strip()]
    report = evaluate(clean, processed, which)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hht-alpha",
        description="Time-domain impulsive-noise speech enhancement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance a noisy mono WAV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_selection_flags(p)
    p.add_argument("--profile", help="optional CSV path for the per-frame alpha profile")
    _add_eemd_flags(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("decompose", help="write the modes and residual of a WAV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)
    _add_eemd_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("alpha", help="dump the per-frame alpha profile as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_selection_flags(p)
    _add_eemd_flags(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("mix", help="mix clean speech with noise at a target SNR")
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("synth-noise", help="generate impulsive alpha-stable noise")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_synth_noise)

    p = sub.add_parser("eval", help="objective metrics for a clean/processed pair")
    p.add_argument("--clean", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--metrics", default="llr,fwsnrseg,stoi",
                   help="comma-separated subset of llr,fwsnrseg,stoi")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
