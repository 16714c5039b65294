"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
corrupted or non-deterministic output is counted as a failure, that a
missing public function is reported instead of crashing the traced run, and
that the benchmark fails without the program beside it.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run_in_process(monkeypatch, tmp_path, trace="0") -> dict:
    """Tiny paper_2s4 run in this process, so the test's patches apply."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", "paper_2s4", "--seed", "3", "--seconds", "0.5",
                         "--trace", trace, "--tiny"]) == 0
    return _result(buf.getvalue())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


def test_truncated_wav_counts_as_failure(monkeypatch, tmp_path):
    hhtalpha = run.import_package()
    original = hhtalpha.cli.write_wav

    def truncating_write(signal, path):
        original(signal, path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(hhtalpha.cli, "write_wav", truncating_write)
    result = _run_in_process(monkeypatch, tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_changing_output_counts_as_failure(monkeypatch, tmp_path):
    hhtalpha = run.import_package()
    original = hhtalpha.cli.write_wav
    calls = []

    def drifting_write(signal, path):
        calls.append(path)
        scaled = signal.samples * (1.0 + 1e-3 * len(calls))
        original(type(signal)(scaled, signal.sample_rate), path)

    monkeypatch.setattr(hhtalpha.cli, "write_wav", drifting_write)
    result = _run_in_process(monkeypatch, tmp_path, trace="1")
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1
    assert result["correct"] is False


def test_missing_public_name_is_reported(monkeypatch):
    import spans

    run.import_package()
    monkeypatch.delattr(sys.modules["hhtalpha.emd"], "envelope")
    absent, undo = spans.install(spans.Recorder())
    spans.uninstall(undo)
    assert absent == ["emd.envelope"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
