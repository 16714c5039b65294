"""The README's library example runs as written, its command-line examples
parse, and PAPER.md carries the same text."""

import re
import shlex
from pathlib import Path

from hhtalpha import Signal, sample_sas, write_wav
from hhtalpha.cli import build_parser

from conftest import RATE, make_speech_proxy, mix_at_snr

ROOT = Path(__file__).resolve().parents[1]


def library_example(doc: str) -> str:
    """The python block under the "## Library example" heading of `doc`."""
    text = (ROOT / doc).read_text()
    match = re.search(r"^## Library example\n.*?^```python\n(.*?)^```$", text, re.M | re.S)
    assert match, f"{doc} has no library example"
    return match.group(1)


def test_paper_md_carries_the_same_example():
    # PAPER.md is README.md after a title header, library example included
    assert (ROOT / "PAPER.md").read_text().endswith((ROOT / "README.md").read_text())


def test_library_example_runs(tmp_path, monkeypatch):
    clean = make_speech_proxy(n=RATE, bursts=((0.1, 0.3), (0.55, 0.3)))
    noisy = mix_at_snr(clean, sample_sas(1.2, len(clean), 3), 0.0)
    write_wav(Signal(clean, RATE), tmp_path / "clean.wav")
    write_wav(Signal(noisy, RATE), tmp_path / "noisy.wav")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example("README.md"), "README.md", "exec"), namespace)
    assert (tmp_path / "enhanced.wav").exists()
    assert len(namespace["enhanced"]) == RATE
    assert namespace["profile"].cut_index.shape == (namespace["grid"].count(RATE),)


def command_lines(doc: str) -> list[str]:
    """The lines of the sh block under "## Command line" in `doc` that are
    neither blank nor comments, with backslash continuations joined."""
    text = (ROOT / doc).read_text()
    match = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.M | re.S)
    assert match, f"{doc} has no command-line example"
    joined = match.group(1).replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.strip() and not line.startswith("#")]


def test_command_line_examples_parse():
    commands = command_lines("README.md")
    assert commands
    for line in commands:
        program, *words = shlex.split(line, comments=True)
        assert program == "hht-alpha", line
        assert build_parser().parse_args(words).command == words[0], line
