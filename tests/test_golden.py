"""Byte manifest: the sha256 of every file the CLI writes in a fixed set of runs.

`golden.json` keeps the digests with the numpy and scipy versions and the
machine type they were made with.  Library builds and SIMD paths may round
differently, so on any other key the tests skip and name both keys; on the
same key identity is the gate, with no tolerance.  A change that alters the
output bytes on purpose rewrites the manifest in the same diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from hhtalpha import Signal, sample_sas, write_wav
from hhtalpha.cli import main

from conftest import RATE, make_speech_proxy, mix_at_snr

# the bench's seeded inputs, importable once conftest has put the repo root on the path
from bench.inputs import noisy_pair

MANIFEST = Path(__file__).with_name("golden.json")


def acceptance_proxy() -> np.ndarray:
    """The 2.4 s speech proxy plus alpha = 1.2 noise (seed 13) at 0 dB."""
    clean = make_speech_proxy()
    return mix_at_snr(clean, sample_sas(1.2, len(clean), 13), 0.0)


INPUTS = {
    "proxy": acceptance_proxy,
    "pair_2s4": lambda: noisy_pair(2.4, 1.2, 0.0, 47, 0, sample_sas)[1],
    "pair_9s6": lambda: noisy_pair(9.6, 1.5, 0.0, 47, 0, sample_sas)[1],
}
# name -> (command, input, flags); every other setting is the paper's default
CASES = {
    "enhance-proxy": ("enhance", "proxy", []),
    "enhance-pair_2s4-ensemble50": ("enhance", "pair_2s4", ["--ensemble", "50"]),
    "enhance-pair_9s6-ensemble5": ("enhance", "pair_9s6", ["--ensemble", "5"]),
    "enhance-proxy-step16": ("enhance", "proxy", ["--step", "16", "--ensemble", "2"]),
    "enhance-proxy-step4": ("enhance", "proxy", ["--step", "4", "--ensemble", "2"]),
    "enhance-proxy-frame4096": ("enhance", "proxy",
                                ["--frame", "4096", "--step", "512", "--ensemble", "5"]),
    "decompose-proxy-ensemble5": ("decompose", "proxy", ["--ensemble", "5"]),
    "alpha-pair_2s4-literal-min": ("alpha", "pair_2s4",
                                   ["--ensemble", "5", "--threshold-mode", "literal-min"]),
}
# each command's output flags and the file names they get
OUTPUTS = {
    "enhance": {"--out": "out.wav", "--profile": "profile.csv"},
    "decompose": {"--out-prefix": "out_"},
    "alpha": {"--out": "profile.csv"},
}


def key() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def run_case(name: str, workdir: Path) -> dict:
    """{file name: sha256} of every file case `name` writes, run through
    `cli.main` in this process on a float32 WAV in the empty `workdir`."""
    command, source, flags = CASES[name]
    infile = workdir / "in.wav"
    write_wav(Signal(INPUTS[source](), RATE), infile)
    argv = [command, "--in", str(infile), *flags]
    for flag, file in OUTPUTS[command].items():
        argv += [flag, str(workdir / file)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p != infile}


@pytest.fixture(scope="module")
def manifest() -> dict:
    made = json.loads(MANIFEST.read_text())
    if made["key"] != key():
        pytest.skip(f"golden.json was made with {made['key']}; this run has {key()}")
    return made["sha256"]


def test_manifest_pins_every_case(manifest):
    assert sorted(manifest) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_manifest(case, manifest, tmp_path):
    assert run_case(case, tmp_path) == manifest[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for case in CASES:
            workdir = Path(tmp, case)
            workdir.mkdir()
            digests[case] = run_case(case, workdir)
    MANIFEST.write_text(json.dumps({"key": key(), "sha256": digests}, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(digests)} cases, key {key()}")
