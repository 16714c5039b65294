"""hhtalpha benchmark: end-to-end cost of the enhance CLI and of scoring, with a
traced run that breaks each operation down by package module.

    python3 bench/run.py --workload paper_2s4 --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it imports the package from
./src and nothing else.  Each run is one fresh process with BLAS/OpenMP
pools pinned to one thread, driving a closed loop: the next operation starts
when the previous one has ended and been checked.  Every operation repeats
the same seeded input, so every output must have the same digest; a digest
also has to match the one an earlier run of the same workload, seed and source
stored under .bench_out/.

The host's speed drifts with its other tenants, so every end-to-end time is
reported at a fixed reference speed: each timed interval is divided by the
slowdown of a fixed kernel run just before and after it (Reference).  The
raw times are in the context line.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (END_TO_END); with --trace 1 half of the time runs untraced
and half traced, and the metrics are the per-layer ones (spans.py); those of
a layer the workload never calls read 0.  The line before it is a JSON
object with the run's context: code version, library versions, thread
settings, input sizes, every sample and the output quality.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so the BLAS pool never exceeds the cores.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view
from scipy.interpolate import CubicSpline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_SAMPLES = 5
SETUP_CODE = "import hhtalpha; hhtalpha.default_lookup()"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "rtf": "s/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "emd.eemd_s": "s", "emd.find_extrema_s": "s", "emd.find_extrema_calls": "count",
    "emd.envelope_s": "s", "emd.envelope_calls": "count", "emd.sift_calls": "count",
    "emd.sift_iters_per_mode": "iter/mode", "emd.modes_per_trial_min": "count",
    "emd.modes_per_trial_max": "count", "emd.completeness_err": "abs",
    "enhance.profile_alpha_s": "s", "signal.extract_frames_s": "s", "signal.frames_bytes": "B",
    "enhance.reconstruct_s": "s", "signal.overlap_add_s": "s", "enhance.apply_selection_s": "s",
    "enhance.frames": "count", "enhance.degenerate_ratio": "ratio",
    "enhance.silent_frames": "count", "enhance.keep_all_frames": "count",
    "enhance.cut_index_mean": "index", "enhance.rho_mean": "alpha",
    "enhance.fwsnrseg_gain_db": "dB", "enhance.llr_gain": "llr", "enhance.stoi_gain": "stoi",
    "metrics.llr_s": "s", "metrics.stoi_s": "s", "metrics.fwsnrseg_s": "s",
    "signal.resample_s": "s", "stable.estimate_alpha_s": "s",
    "stable.estimate_alpha_calls": "count", "stable.sample_sas_s": "s",
    "stable.alpha_hit_rate": "ratio", "cli.main_s": "s", "signal.read_wav_s": "s",
    "signal.write_wav_s": "s", "stable.default_lookup_s": "s", "trace_overhead_pct": "%",
    **{f"{layer}.self_share": "ratio" for layer in spans.LAYERS},
}
COMPLETENESS_TOL = 1e-8


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class EnhanceSpec:
    duration_s: float
    noise_alpha: float
    snr_db: float
    ensemble: int
    ref_parts: tuple   # Reference parts matching where the time goes


@dataclass(frozen=True)
class ScoreSpec:
    duration_s: float
    pair_alphas: tuple
    pair_snrs: tuple
    est_alphas: tuple
    est_samples: int
    est_seeds: int
    ref_parts: tuple


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "paper_2s4": EnhanceSpec(duration_s=2.4, noise_alpha=1.2, snr_db=0.0, ensemble=50,
                             ref_parts=("arrays",)),
    "lean_9s6": EnhanceSpec(duration_s=9.6, noise_alpha=1.5, snr_db=0.0, ensemble=5,
                            ref_parts=("arrays", "frames")),
    "score_batch": ScoreSpec(duration_s=9.6, pair_alphas=(1.2, 1.5, 1.8),
                             pair_snrs=(-5.0, 0.0, 5.0), est_alphas=(1.2, 1.5, 1.8, 2.0),
                             est_samples=20000, est_seeds=50, ref_parts=("arrays", "loop")),
}
# --tiny: the same code paths at a size that runs in seconds.
TINY = {
    "paper_2s4": EnhanceSpec(duration_s=1.2, noise_alpha=1.2, snr_db=0.0, ensemble=2,
                             ref_parts=("arrays",)),
    "lean_9s6": EnhanceSpec(duration_s=1.2, noise_alpha=1.5, snr_db=0.0, ensemble=2,
                            ref_parts=("arrays", "frames")),
    "score_batch": ScoreSpec(duration_s=1.2, pair_alphas=(1.2, 1.8), pair_snrs=(0.0,),
                             est_alphas=(1.2, 2.0), est_samples=2000, est_seeds=2,
                             ref_parts=("arrays", "loop")),
}
# README paper defaults for `hht-alpha enhance`.
STEP = 128
PAPER_FLAGS = ["--frame", "10240", "--step", str(STEP), "--mu", "0.8", "--alpha-min", "1.1",
               "--modes", "10", "--seed", "0"]


def import_package():
    """Import hhtalpha from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hhtalpha
        import hhtalpha.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import hhtalpha from {SRC}: {exc}")
    if SRC not in Path(hhtalpha.__file__).resolve().parents:
        sys.exit(f"bench: hhtalpha imported from {hhtalpha.__file__}, not from {SRC}")
    return hhtalpha


class EnhanceWork:
    """One operation: `hht-alpha enhance` through cli.main on a generated WAV."""

    def __init__(self, hh, spec: EnhanceSpec, seed: int, workdir: Path):
        self.hh = hh
        clean, noisy = inputs.noisy_pair(spec.duration_s, spec.noise_alpha, spec.snr_db,
                                         seed, 0, hh.sample_sas)
        self.in_wav = workdir / "noisy.wav"
        self.out_wav = workdir / "enhanced.wav"
        self.csv = workdir / "profile.csv"
        hh.write_wav(hh.Signal(noisy, inputs.RATE), self.in_wav)
        self.clean = hh.Signal(clean, inputs.RATE)
        self.noisy = hh.read_wav(self.in_wav)
        self.frames = -(-len(self.noisy) // STEP)
        self.argv = ["enhance", "--in", str(self.in_wav), "--out", str(self.out_wav),
                     "--profile", str(self.csv), "--ensemble", str(spec.ensemble), *PAPER_FLAGS]
        self.audio_s = self.noisy.duration
        self.sizes = {"samples": len(self.noisy), "rate": inputs.RATE,
                      "audio_s": self.audio_s, "frames": self.frames,
                      "ensemble": spec.ensemble, "noise_alpha": spec.noise_alpha,
                      "snr_db": spec.snr_db}
        warm_wav = workdir / "warm.wav"
        hh.write_wav(hh.Signal(noisy[: inputs.RATE // 2], inputs.RATE), warm_wav)
        self.warm_argv = ["enhance", "--in", str(warm_wav), "--out", str(workdir / "warm_out.wav"),
                          "--ensemble", "1", *PAPER_FLAGS]

    def warm_up(self):
        self.hh.cli.main(self.warm_argv)

    def prepare(self):
        for path in (self.out_wav, self.csv):
            path.unlink(missing_ok=True)

    def op(self):
        return self.hh.cli.main(self.argv)

    def check(self, rc) -> str:
        """Validate the files on disk; return their digest."""
        if rc != 0:
            raise CheckFailed(f"cli exit code {rc}")
        try:
            out = self.hh.read_wav(self.out_wav)  # rejects non-finite samples
        except (ValueError, OSError) as exc:
            raise CheckFailed(f"enhanced WAV unreadable: {exc}") from exc
        if len(out) != len(self.noisy) or out.sample_rate != self.noisy.sample_rate:
            raise CheckFailed(f"enhanced WAV has {len(out)} samples at {out.sample_rate} Hz, "
                              f"input {len(self.noisy)} at {self.noisy.sample_rate} Hz")
        if not np.all(np.isfinite(out.samples)):
            raise CheckFailed("enhanced WAV has non-finite samples")
        rows = self.csv.read_bytes().count(b"\n") - 1
        if rows != self.frames:
            raise CheckFailed(f"profile CSV has {rows} rows, expected {self.frames}")
        digest = hashlib.sha256(self.out_wav.read_bytes())
        digest.update(self.csv.read_bytes())
        return digest.hexdigest()

    def quality(self) -> dict:
        """Noisy -> enhanced scores of the output as read back from disk."""
        ref = self.hh.evaluate(self.clean, self.noisy)
        enh = self.hh.evaluate(self.clean, self.hh.read_wav(self.out_wav))
        return {"fwsnrseg_noisy_db": ref.fwsnrseg_db, "fwsnrseg_enhanced_db": enh.fwsnrseg_db,
                "llr_noisy": ref.llr, "llr_enhanced": enh.llr,
                "stoi_noisy": ref.stoi, "stoi_enhanced": enh.stoi,
                "enhance.fwsnrseg_gain_db": enh.fwsnrseg_db - ref.fwsnrseg_db,
                "enhance.llr_gain": ref.llr - enh.llr,
                "enhance.stoi_gain": enh.stoi - ref.stoi}


class ScoreWork:
    """One operation: evaluate() on every clean/noisy pair, then the closed-loop
    estimator check (sample_sas + estimate_alpha) over many seeds."""

    def __init__(self, hh, spec: ScoreSpec, seed: int, workdir: Path):
        self.hh = hh
        self.spec = spec
        self.pairs = []
        for a in spec.pair_alphas:
            for snr in spec.pair_snrs:
                clean, noisy = inputs.noisy_pair(spec.duration_s, a, snr, seed,
                                                 len(self.pairs) + 1, hh.sample_sas)
                self.pairs.append((hh.Signal(clean, inputs.RATE), hh.Signal(noisy, inputs.RATE)))
        self.est_seeds = [[np.random.SeedSequence([seed, 100, i, k]) for k in range(spec.est_seeds)]
                          for i in range(len(spec.est_alphas))]
        self.audio_s = sum(noisy.duration for _, noisy in self.pairs)
        self.sizes = {"pairs": len(self.pairs), "pair_samples": len(self.pairs[0][0]),
                      "rate": inputs.RATE, "audio_s": self.audio_s,
                      "estimates": len(spec.est_alphas) * spec.est_seeds,
                      "est_samples": spec.est_samples}
        self.result = None

    def warm_up(self):
        clean, noisy = self.pairs[0]
        self.hh.evaluate(clean, noisy)
        self.hh.stable.estimate_alpha(self.hh.stable.sample_sas(1.5, 1000, 0))

    def prepare(self):
        pass

    def op(self):
        metrics, stable = self.hh.metrics, self.hh.stable
        reports = [metrics.evaluate(clean, noisy) for clean, noisy in self.pairs]
        estimates = [stable.estimate_alpha(stable.sample_sas(a, self.spec.est_samples, ss)).alpha
                     for a, seeds in zip(self.spec.est_alphas, self.est_seeds) for ss in seeds]
        return reports, estimates

    def check(self, result) -> str:
        reports, estimates = result
        values = []
        for r in reports:
            if not (np.isfinite(r.llr) and 0.0 <= r.llr <= 2.0):
                raise CheckFailed(f"LLR out of range: {r.llr}")
            if not (np.isfinite(r.fwsnrseg_db) and -10.0 <= r.fwsnrseg_db <= 35.0):
                raise CheckFailed(f"fwSNRseg out of range: {r.fwsnrseg_db}")
            if not (np.isfinite(r.stoi) and 0.0 <= r.stoi <= 1.0):
                raise CheckFailed(f"STOI out of range: {r.stoi}")
            values += [r.llr, r.fwsnrseg_db, r.stoi]
        if len(estimates) != len(self.spec.est_alphas) * self.spec.est_seeds:
            raise CheckFailed(f"{len(estimates)} alpha estimates")
        if not all(0.5 <= a <= 2.0 for a in estimates):
            raise CheckFailed("alpha estimate outside [0.5, 2.0]")
        self.result = result
        return hashlib.sha256(np.array(values + estimates).tobytes()).hexdigest()

    def quality(self) -> dict:
        reports, estimates = self.result
        truth = np.repeat(self.spec.est_alphas, self.spec.est_seeds)
        return {"stable.alpha_hit_rate": float(np.mean(np.abs(np.array(estimates) - truth) <= 0.1)),
                "alpha_estimate_mean_abs_err": float(np.mean(np.abs(np.array(estimates) - truth))),
                "fwsnrseg_mean_db": statistics.fmean(r.fwsnrseg_db for r in reports),
                "llr_mean": statistics.fmean(r.llr for r in reports),
                "stoi_mean": statistics.fmean(r.stoi for r in reports)}


class Reference:
    """Fixed work, timed between operations to track the machine's speed.

    The host's speed drifts by tens of percent over tens of seconds (other
    tenants share its cores and its cache), far more than the run-to-run
    noise a regression bound can tolerate.  Each part of the kernel does one
    kind of work the program spends its time on; a workload's kernel holds
    the parts it leans on, because each kind slows by a different amount:

    - arrays: quantiles, natural cubic splines and extrema scans on arrays
      that fit in L2 (EEMD sifting);
    - frames: quantiles along a frames matrix that does not (alpha profiling);
    - loop: a per-frame LPC loop in interpreted Python (the LLR metric).

    It never calls hhtalpha, so its time moves with the machine, not with
    the program.  An operation's wall time divided by the slowdown measured
    just before and after it is its wall time at a fixed reference speed.
    """

    REPS = 15
    LPC_ORDER = 16
    # Each part's time on the machine the baseline was recorded on (2-core
    # x86-64 container, Python 3.11, numpy 2.4, scipy 1.17) in a quiet
    # spell; the arrays part's per-run medians there ranged 0.10-0.14 s.
    REF_S = {"arrays": 0.105, "frames": 0.12, "loop": 0.048}

    def __init__(self, parts: tuple):
        rng = np.random.default_rng(0)
        self.parts = parts
        self.data = rng.standard_normal(200_000)
        self.knots = np.sort(rng.choice(38_400, 3_000, replace=False)).astype(np.float64)
        self.values = np.sin(self.knots)
        self.grid = np.arange(38_400.0)
        self.lpc_frames = rng.standard_normal((700, 512)) if "loop" in parts else None

    def _arrays(self):
        for _ in range(self.REPS):
            np.quantile(self.data, [0.05, 0.25, 0.75, 0.95], method="hazen")
            CubicSpline(self.knots, self.values, bc_type="natural")(self.grid)
            np.flatnonzero(np.diff(self.data) != 0)

    def _frames(self):
        # Framed on the fly, like alpha profiling, so nothing stays allocated
        # to raise the operation's peak RSS.  The 36 MB copy is above glibc's
        # largest mmap threshold (32 MB), so freeing it does not change how
        # the program's own allocations are served.
        frames = sliding_window_view(self.data, 10_240)[::128][:440]
        np.quantile(frames, [0.05, 0.25, 0.75, 0.95], axis=1, method="hazen")

    def _loop(self):
        n, p = self.lpc_frames.shape[1], self.LPC_ORDER
        for frame in self.lpc_frames:
            r = [float(np.dot(frame[: n - k], frame[k:])) for k in range(p + 1)]
            a, err = [1.0] + [0.0] * p, r[0]
            for i in range(1, p + 1):
                k = -sum(a[j] * r[i - j] for j in range(i)) / err
                a = [a[j] + k * a[i - j] for j in range(i)] + [k] + a[i + 1:]
                err *= 1.0 - k * k

    def slowdown(self) -> float:
        """Mean over the parts of their time over their time at the reference speed."""
        ratios = []
        for part in self.parts:
            t0 = time.perf_counter()
            getattr(self, f"_{part}")()
            ratios.append((time.perf_counter() - t0) / self.REF_S[part])
        return statistics.fmean(ratios)


@dataclass
class Sample:
    wall: float
    slowdown: float       # mean reference slowdown around the operation
    digest: str | None
    op: int

    @property
    def norm(self) -> float:
        """Wall time at the reference machine speed."""
        return self.wall / self.slowdown


def run_ops(work, reference: Reference, seconds: float, first_op: int,
            recorder=None) -> list[Sample]:
    """Closed loop for `seconds`: prepare, time one operation, check it,
    time the reference kernel."""
    samples = []
    ref_before = reference.slowdown()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        op_id = first_op + len(samples)
        work.prepare()
        if recorder is not None:
            recorder.op = op_id
        t0 = time.perf_counter()
        try:
            result = work.op()
        except Exception:
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = None
        digest = None
        if result is not None:
            try:
                digest = work.check(result)
            except CheckFailed as exc:
                print(f"bench: check failed: {exc}", file=sys.stderr)
        ref_after = reference.slowdown()
        samples.append(Sample(wall, (ref_before + ref_after) / 2, digest, op_id))
        ref_before = ref_after
    return samples


def setup_times(n: int, reference: Reference) -> list[Sample]:
    """Fresh interpreters that import hhtalpha and load the lookup table, each
    timed between two reference-kernel runs."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    ref_before = reference.slowdown()
    for i in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - t0
        ref_after = reference.slowdown()
        samples.append(Sample(wall, (ref_before + ref_after) / 2, None, i))
        ref_before = ref_after
    return samples


def stored_digest(key: str, digest: str | None) -> str | None:
    """Digest an earlier run stored for `key`; stores `digest` if there is none."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known or digest is None:
        return known.get(key)
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return digest


def code_version() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "hhtalpha").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def timing_summary(values: list[float]) -> dict:
    """Median and sample count; p90 only once ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="same code paths on a tiny input (smoke test)")
    args = parser.parse_args(argv)

    hh = import_package()
    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    OUT.mkdir(exist_ok=True)
    kind = EnhanceWork if isinstance(spec, EnhanceSpec) else ScoreWork
    reference = Reference(spec.ref_parts)
    setup = [] if args.trace else setup_times(SETUP_SAMPLES, reference)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        work = kind(hh, spec, args.seed, workdir)
        work.warm_up()
        if args.trace:
            plain = run_ops(work, reference, args.seconds / 2, 0)
            recorder = spans.Recorder()
            absent, undo = spans.install(recorder)
            try:
                traced = run_ops(work, reference, args.seconds / 2, len(plain), recorder)
            finally:
                spans.uninstall(undo)
        else:
            plain = run_ops(work, reference, args.seconds, 0)
            traced, absent, recorder = [], [], None
        notes, quality = [], {}
        if (traced or plain)[-1].digest:
            try:
                quality = work.quality()
            except ValueError as exc:
                notes.append(f"scoring the output failed: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = plain + traced
    version = code_version()
    tag = "-tiny" if args.tiny else ""
    key = f"{args.workload}{tag}-seed{args.seed}-{version['src_sha256'][:16]}"
    first = next((s.digest for s in samples if s.digest), None)
    expected = stored_digest(key, first)
    failed = sum(s.digest is None or s.digest != expected for s in samples)
    if notes:
        failed = len(samples)
    if recorder is not None:
        overhead = (statistics.median(s.norm for s in traced)
                    / statistics.median(s.norm for s in plain))
        metrics = spans.layer_metrics(recorder, {s.op: s.wall for s in traced})
        metrics["trace_overhead_pct"] = (overhead - 1.0) * 100.0
        metrics.update({k: v for k, v in quality.items() if k in PER_LAYER})
        err = metrics["emd.completeness_err"]
        if err >= COMPLETENESS_TOL:
            notes.append(f"completeness error {err} >= {COMPLETENESS_TOL}")
            failed = len(samples)
        spans_path = OUT / f"spans-{key}.json"
        recorder.dump(spans_path, key)
        result_metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in PER_LAYER.items()}
    else:
        wall = statistics.median(s.norm for s in plain)
        values = {"setup_s": statistics.median(s.norm for s in setup), "wall_s": wall,
                  "rtf": wall / work.audio_s, "peak_rss_mb": peak_rss_mb}
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **version,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "inputs": work.sizes, "loop": "closed, one client",
        "setup_s": timing_summary([s.wall for s in setup]) if setup else None,
        "setup_at_ref_s": timing_summary([s.norm for s in setup]) if setup else None,
        "op_wall_s": timing_summary([s.wall for s in plain]),
        "op_wall_at_ref_s": timing_summary([s.norm for s in plain]),
        "op_walls": [s.wall for s in plain], "slowdowns": [s.slowdown for s in plain],
        "traced_op_walls": [s.wall for s in traced],
        "traced_slowdowns": [s.slowdown for s in traced],
        "peak_rss_mb": peak_rss_mb, "fail_rate": failed / len(samples),
        "digest": expected, "quality": quality, "absent_spans": absent,
        "counter_errors": sorted(recorder.hook_errors) if recorder else [], "notes": notes,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
