"""Span recorder for the traced benchmark run.

Spans are recorded by wrappers the benchmark installs around the package's
public functions; nothing inside the package is changed.  Each span keeps its
name, start, end, parent span and the operation (run id) it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, public name).  Layers are the package modules.  `enhance.enhance`
# and `metrics.evaluate` are wrapped so their glue counts toward their own
# layer's self time instead of their caller's.
TARGETS = (
    ("cli", "main"),
    ("emd", "eemd"), ("emd", "emd"), ("emd", "sift"),
    ("emd", "find_extrema"), ("emd", "envelope"),
    ("enhance", "enhance"), ("enhance", "profile_alpha"),
    ("enhance", "apply_selection"), ("enhance", "reconstruct"),
    ("signal", "extract_frames"), ("signal", "overlap_add"),
    ("signal", "read_wav"), ("signal", "write_wav"), ("signal", "resample"),
    ("stable", "estimate_alpha"), ("stable", "sample_sas"), ("stable", "default_lookup"),
    ("metrics", "evaluate"), ("metrics", "llr"), ("metrics", "fwsnrseg"), ("metrics", "stoi"),
)
LAYERS = ("cli", "emd", "enhance", "signal", "stable", "metrics")
# The alpha value profile_alpha assigns to frames with zero spread.
DEGENERATE_ALPHA = 2.0


class Recorder:
    """In-memory span list plus per-operation counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = defaultdict(lambda: defaultdict(list))  # op -> key -> values
        self.op = None           # id of the operation being timed, None between them
        self.hook_errors = set()  # counters that could not be read from a result
        self._stack = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None and self.op is not None:
                # A refactor may change what the function returns; the counter
                # is then missing, but the operation itself still stands.
                try:
                    after(self.counters[self.op], args, result)
                except Exception as exc:
                    self.hook_errors.add(f"{name}: {exc!r}")
            return result
        return wrapper

    def dump(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _eemd_done(counts, args, imfs):
    source = np.asarray(getattr(args[0], "samples", args[0]))
    counts["completeness_err"].append(float(np.max(np.abs(imfs.total() - source))))


def _emd_done(counts, args, imfs):
    counts["modes_per_trial"].append(imfs.mode_count)


def _frames_done(counts, args, frames):
    counts["frames_bytes"].append(frames.shape[0] * frames.shape[1] * 8)


def _selection_done(counts, args, profile):
    cuts = np.asarray(profile.cut_index)
    counts["frames"].append(profile.frame_count)
    counts["degenerate_ratio"].append(float(np.mean(profile.per_mode == DEGENERATE_ALPHA)))
    counts["silent_frames"].append(int(np.sum(cuts == 0)))
    counts["keep_all_frames"].append(int(np.sum(cuts == profile.mode_count)))
    counts["cut_index_mean"].append(float(np.mean(cuts)))
    counts["rho_mean"].append(float(np.mean(profile.thresholds)))


HOOKS = {
    "emd.eemd": _eemd_done,
    "emd.emd": _emd_done,
    "signal.extract_frames": _frames_done,
    "enhance.apply_selection": _selection_done,
}


def install(recorder: Recorder):
    """Wrap every target in each hhtalpha namespace that binds it.

    A caller looks a function up in its own module (`hhtalpha.enhance.eemd`,
    `hhtalpha.cli.run_enhance`), so every binding of the original object is
    replaced, not only the defining one.  Returns (absent names, undo list);
    a missing public name is reported, not fatal.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hhtalpha" or n.startswith("hhtalpha."))]
    absent, undo = [], []
    for layer, fname in TARGETS:
        name = f"{layer}.{fname}"
        home = sys.modules.get(f"hhtalpha.{layer}")
        original = getattr(home, fname, None)
        if not callable(original):
            absent.append(name)
            continue
        wrapper = recorder.wrap(name, original, HOOKS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return absent, undo


def uninstall(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def op_totals(recorder: Recorder) -> dict:
    """Per operation: inclusive and self seconds and call count per span name,
    and self seconds per layer."""
    child = [0.0] * len(recorder.spans)
    for name, start, end, parent, op in recorder.spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"incl": defaultdict(float), "self": defaultdict(float),
                               "calls": defaultdict(int), "layer_self": defaultdict(float)})
    for i, (name, start, end, parent, op) in enumerate(recorder.spans):
        if op is None:
            continue
        t = out[op]
        own = (end - start) - child[i]
        t["incl"][name] += end - start
        t["self"][name] += own
        t["calls"][name] += 1
        t["layer_self"][name.split(".", 1)[0]] += own
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(recorder: Recorder, op_walls: dict) -> dict:
    """Per-layer metrics: the median over traced operations of each per-op value.

    `op_walls` maps traced op id -> its wall time.
    """
    totals = op_totals(recorder)
    ops = sorted(op_walls)

    def per_op(fn):
        return _median([fn(totals[op], recorder.counters[op], op_walls[op]) for op in ops])

    def incl(name):
        return per_op(lambda t, c, w: t["incl"].get(name, 0.0))

    def self_(name):
        return per_op(lambda t, c, w: t["self"].get(name, 0.0))

    def calls(name):
        return per_op(lambda t, c, w: t["calls"].get(name, 0))

    def counter(key, reduce):
        return per_op(lambda t, c, w: reduce(c[key]) if c.get(key) else 0)

    sift_calls = calls("emd.sift")
    m = {
        "emd.eemd_s": incl("emd.eemd"),
        "emd.find_extrema_s": incl("emd.find_extrema"),
        "emd.find_extrema_calls": calls("emd.find_extrema"),
        "emd.envelope_s": incl("emd.envelope"),
        "emd.envelope_calls": calls("emd.envelope"),
        "emd.sift_calls": sift_calls,
        "emd.sift_iters_per_mode": calls("emd.envelope") / 2 / sift_calls if sift_calls else 0.0,
        "emd.modes_per_trial_min": counter("modes_per_trial", min),
        "emd.modes_per_trial_max": counter("modes_per_trial", max),
        "emd.completeness_err": counter("completeness_err", max),
        "enhance.profile_alpha_s": self_("enhance.profile_alpha"),
        "signal.extract_frames_s": incl("signal.extract_frames"),
        "signal.frames_bytes": counter("frames_bytes", max),
        "enhance.reconstruct_s": incl("enhance.reconstruct"),
        "signal.overlap_add_s": incl("signal.overlap_add"),
        "enhance.apply_selection_s": incl("enhance.apply_selection"),
        "enhance.frames": counter("frames", sum),
        "enhance.degenerate_ratio": counter("degenerate_ratio", statistics.fmean),
        "enhance.silent_frames": counter("silent_frames", sum),
        "enhance.keep_all_frames": counter("keep_all_frames", sum),
        "enhance.cut_index_mean": counter("cut_index_mean", statistics.fmean),
        "enhance.rho_mean": counter("rho_mean", statistics.fmean),
        "metrics.llr_s": incl("metrics.llr"),
        "metrics.stoi_s": incl("metrics.stoi"),
        "metrics.fwsnrseg_s": incl("metrics.fwsnrseg"),
        "signal.resample_s": incl("signal.resample"),
        "stable.estimate_alpha_s": incl("stable.estimate_alpha"),
        "stable.estimate_alpha_calls": calls("stable.estimate_alpha"),
        "stable.sample_sas_s": incl("stable.sample_sas"),
        "cli.main_s": self_("cli.main"),
        "signal.read_wav_s": incl("signal.read_wav"),
        "signal.write_wav_s": incl("signal.write_wav"),
        "stable.default_lookup_s": incl("stable.default_lookup"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per_op(
            lambda t, c, w, layer=layer: t["layer_self"].get(layer, 0.0) / w)
    return m
