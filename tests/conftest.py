import contextlib
import faulthandler
import importlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.signal import butter, lfilter

import hhtalpha
from hhtalpha import Signal, sample_sas

# the package re-exports the function `emd`, which shadows the submodule name
EMD = importlib.import_module("hhtalpha.emd")

# The tests share the bench's seeded inputs; the bench itself never imports pytest.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from bench.inputs import mix_at_snr  # noqa: E402

RATE = 16000

# CI runs replay the same examples, and a failure prints the blob that
# reproduces it (@reproduce_failure); local runs keep exploring at random.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_speech_proxy(n=38400, rate=RATE, seed=5,
                      bursts=((0.2, 0.3), (0.75, 0.25), (1.3, 0.3), (1.9, 0.25)),
                      breath=0.08):
    """Bursty harmonic signal standing in for clean speech.

    Hann-enveloped bursts of a 500 Hz harmonic stack plus a high-passed
    noise floor; the on/off bursts make the sample distribution heavy-tailed
    the way real speech is.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    env = np.zeros(n)
    for center, dur in bursts:
        i0 = int(center * rate)
        i1 = min(n, i0 + int(dur * rate))
        if i1 > i0:
            env[i0:i1] = np.hanning(i1 - i0)
    x = np.zeros(n)
    for k, a in [(1, 1.0), (2, 0.7), (3, 0.5), (4, 0.4), (6, 0.3), (8, 0.2)]:
        x += a * np.sin(2 * np.pi * 500 * k * t + rng.uniform(0, 2 * np.pi))
    b, a_ = butter(4, 400 / (rate / 2), "highpass")
    floor = lfilter(b, a_, rng.standard_normal(n)) * breath
    return env * (x + floor)


@pytest.fixture(scope="session")
def speech_proxy():
    return Signal(make_speech_proxy(), RATE)


@pytest.fixture(scope="session")
def noisy_pair(speech_proxy):
    """(clean, noisy) pair: proxy + alpha=1.2 impulsive noise at 0 dB."""
    noise = sample_sas(1.2, len(speech_proxy), 13)
    noisy = mix_at_snr(speech_proxy.samples, noise, 0.0)
    return speech_proxy, Signal(noisy, RATE)


@contextlib.contextmanager
def within(seconds):
    """Fail a body that overruns `seconds` instead of hanging the run: at the
    deadline every thread's traceback is dumped to stderr, the pool's workers
    are killed, so a stalled pool raises, and the body gets TimeoutError, so
    a wait in this process (an in-process run stuck on a turn) ends as well.
    Deadlines nest: an outer one still armed cuts an inner one short, and is
    re-armed on exit with what is left of it."""
    def expire(signum, frame):
        faulthandler.dump_traceback(sys.__stderr__, all_threads=True)
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    outer = signal.alarm(seconds)
    if outer:
        signal.alarm(min(seconds, outer))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            # alarm(0) would cancel the outer deadline, so one already past fires in 1 s
            signal.alarm(max(1, math.ceil(outer - (time.monotonic() - start))))
    assert time.monotonic() - start < seconds


@pytest.fixture(autouse=True)
def deadline():
    """A test still running after 120 s fails, and the run goes on: the
    slowest takes a few seconds, even on one core."""
    with within(120):
        yield


def hold_first_trial(monkeypatch, x, cfg, stall=0.3):
    """Make trial 0 of `eemd(Signal(x, rate), cfg)` stall after its first mode,
    so later trials reach row 1 first and must wait for its turn.  Returns
    shared counts of trial 0 reaching row 1 and of other trials reaching it
    before trial 0 did; forked workers inherit the patch."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0]))
    noise_std = float(np.std(x)) * 10.0 ** (-cfg.ensemble_snr_db / 20.0)
    first = x + noise_std * rng.standard_normal(len(x))
    context = multiprocessing.get_context("fork")
    first_done, overtaken = context.Value("i", 0), context.Value("i", 0)
    original = EMD._sift_modes

    def holding_modes(residual, max_modes):
        is_first = np.array_equal(residual, first)
        for m, imf in enumerate(original(residual, max_modes)):
            if m == 1:
                with first_done.get_lock():
                    if is_first:
                        first_done.value += 1
                    elif not first_done.value:
                        overtaken.value += 1
            yield imf
            if is_first and m == 0:
                time.sleep(stall)

    monkeypatch.setattr(EMD, "_sift_modes", holding_modes)
    return first_done, overtaken


def fail_one_trial(monkeypatch, n, after):
    """Make the n-th EEMD trial to start raise once it has yielded `after`
    modes; returns the shared count of trials started."""
    started = multiprocessing.get_context("fork").Value("i", 0)
    original = EMD._sift_modes

    def failing_modes(residual, max_modes):
        with started.get_lock():
            started.value += 1
            k = started.value
        for m, imf in enumerate(original(residual, max_modes)):
            if k == n and m == after:
                break
            yield imf
        if k == n:
            raise RuntimeError("trial failed")

    monkeypatch.setattr(EMD, "_sift_modes", failing_modes)
    return started


# Linux carries ru_maxrss across exec, so a fresh interpreter's peak starts at
# the test run's.  Code that measures its own peak RSS begins with this: it
# forks before any import, and the child, whose peak starts at this small
# interpreter's, runs the rest.
OWN_PEAK = """
import os, sys
if pid := os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def fresh_python(code: str, *args: str) -> str:
    """Standard output of `code` run with `args` as sys.argv[1:] by a new
    interpreter that imports this package, so no module the test run already
    loaded is in its sys.modules."""
    package_root = str(Path(hhtalpha.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code, *args],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout
