import json
import warnings

import numpy as np
import pytest

from hhtalpha import EnhanceConfig, Signal, estimate_alpha, read_wav, write_wav
from hhtalpha.cli import _enhance_config, build_parser, main

from conftest import make_speech_proxy

RATE = 16000


@pytest.fixture()
def clean_wav(tmp_path):
    path = tmp_path / "clean.wav"
    write_wav(Signal(make_speech_proxy(n=16384, bursts=((0.1, 0.3), (0.55, 0.3))), RATE), path)
    return path


def run(*args):
    return main([str(a) for a in args])


class TestSynthNoise:
    def test_gaussian_file(self, tmp_path):
        out = tmp_path / "g.wav"
        assert run("synth-noise", "--alpha", 2.0, "--duration", 2.4, "--rate", RATE,
                   "--seed", 1, "--out", out) == 0
        sig = read_wav(out)
        assert len(sig) == 38400
        assert np.max(np.abs(sig.samples)) == pytest.approx(0.5, abs=1e-6)
        assert estimate_alpha(sig.samples).alpha >= 1.95

    def test_impulsive_file(self, tmp_path):
        out = tmp_path / "i.wav"
        assert run("synth-noise", "--alpha", 1.2, "--duration", 2.0, "--seed", 2,
                   "--out", out) == 0
        a = estimate_alpha(read_wav(out).samples).alpha
        assert 1.1 <= a <= 1.3

    def test_alpha_out_of_range(self, tmp_path):
        assert run("synth-noise", "--alpha", 2.5, "--duration", 1.0,
                   "--out", tmp_path / "x.wav") == 1

    def test_duration_below_one_sample_fails(self, tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert run("synth-noise", "--alpha", 1.5, "--duration", 0, "--out", out) == 1
        assert "--duration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_non_positive_rate_fails(self, tmp_path, capsys, rate):
        out = tmp_path / "x.wav"
        assert run("synth-noise", "--alpha", 1.5, "--duration", 1.0, f"--rate={rate}",
                   "--out", out) == 1
        assert capsys.readouterr().err == (f"error: --rate must be a positive whole number "
                                           f"of Hz, got {rate}\n")
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_non_finite_duration_fails(self, tmp_path, capsys, duration):
        out = tmp_path / "x.wav"
        assert run("synth-noise", "--alpha", 1.5, f"--duration={duration}", "--out", out) == 1
        assert capsys.readouterr().err == (f"error: --duration must be a finite number of "
                                           f"seconds, got {duration}\n")
        assert not out.exists()


class TestMix:
    def test_zero_db_equal_powers(self, tmp_path, clean_wav):
        noise_path = tmp_path / "n.wav"
        run("synth-noise", "--alpha", 2.0, "--duration", 2.0, "--seed", 3,
            "--out", noise_path)
        out = tmp_path / "mix.wav"
        assert run("mix", "--clean", clean_wav, "--noise", noise_path,
                   "--snr-db", 0, "--out", out, "--seed", 4) == 0
        clean = read_wav(clean_wav)
        mixed = read_wav(out)
        added = mixed.samples - clean.samples
        from hhtalpha.cli import _active_mask
        act = _active_mask(clean.samples, RATE)
        snr = 10 * np.log10(np.mean(clean.samples[act] ** 2) / np.mean(added ** 2))
        assert snr == pytest.approx(0.0, abs=0.01)

    def test_minus_ten_db(self, tmp_path, clean_wav):
        noise_path = tmp_path / "n.wav"
        run("synth-noise", "--alpha", 2.0, "--duration", 2.0, "--seed", 3,
            "--out", noise_path)
        out = tmp_path / "mix.wav"
        run("mix", "--clean", clean_wav, "--noise", noise_path, "--snr-db", -10,
            "--out", out, "--seed", 4)
        clean = read_wav(clean_wav)
        added = read_wav(out).samples - clean.samples
        from hhtalpha.cli import _active_mask
        act = _active_mask(clean.samples, RATE)
        ratio = np.mean(added ** 2) / np.mean(clean.samples[act] ** 2)
        assert ratio == pytest.approx(10.0, rel=0.01)

    def test_seed_determinism(self, tmp_path, clean_wav):
        noise_path = tmp_path / "n.wav"
        run("synth-noise", "--alpha", 1.5, "--duration", 0.5, "--seed", 3,
            "--out", noise_path)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        run("mix", "--clean", clean_wav, "--noise", noise_path, "--snr-db", 5,
            "--out", a, "--seed", 9)
        run("mix", "--clean", clean_wav, "--noise", noise_path, "--snr-db", 5,
            "--out", b, "--seed", 9)
        assert a.read_bytes() == b.read_bytes()

    def test_rate_mismatch(self, tmp_path, clean_wav):
        noise_path = tmp_path / "n8k.wav"
        write_wav(Signal(np.random.default_rng(0).standard_normal(8000) * 0.1, 8000),
                  noise_path)
        assert run("mix", "--clean", clean_wav, "--noise", noise_path,
                   "--snr-db", 0, "--out", tmp_path / "x.wav") == 1

    @pytest.mark.parametrize("snr_db", ["nan", "-inf"])
    def test_nan_or_minus_inf_snr_fails(self, tmp_path, clean_wav, capsys, snr_db):
        out = tmp_path / "mix.wav"
        assert run("mix", "--clean", clean_wav, "--noise", clean_wav, f"--snr-db={snr_db}",
                   "--out", out) == 1
        assert capsys.readouterr().err == (f"error: --snr-db must be a number of dB or inf "
                                           f"(no noise), got {snr_db}\n")
        assert not out.exists()

    def test_inf_snr_adds_no_noise(self, tmp_path, clean_wav):
        noise_path = tmp_path / "n.wav"
        run("synth-noise", "--alpha", 1.5, "--duration", 0.5, "--seed", 3,
            "--out", noise_path)
        out = tmp_path / "mix.wav"
        assert run("mix", "--clean", clean_wav, "--noise", noise_path, "--snr-db", "inf",
                   "--out", out) == 0
        np.testing.assert_array_equal(read_wav(out).samples, read_wav(clean_wav).samples)

    def test_clean_shorter_than_one_frame_is_all_active(self, tmp_path):
        # 300 samples hold no 32 ms frame to gate on, so the SNR counts every clean sample
        clean_path, noise_path, out = tmp_path / "c.wav", tmp_path / "n.wav", tmp_path / "mix.wav"
        write_wav(Signal(0.5 * np.sin(np.arange(300.0)), RATE), clean_path)
        run("synth-noise", "--alpha", 2.0, "--duration", 0.5, "--seed", 3, "--out", noise_path)
        assert run("mix", "--clean", clean_path, "--noise", noise_path,
                   "--snr-db", 0, "--out", out, "--seed", 4) == 0
        clean = read_wav(clean_path)
        added = read_wav(out).samples - clean.samples
        snr = 10 * np.log10(np.mean(clean.samples ** 2) / np.mean(added ** 2))
        assert snr == pytest.approx(0.0, abs=0.01)

    @pytest.mark.parametrize("empty", ["clean", "noise"])
    def test_empty_input_fails(self, tmp_path, clean_wav, capsys, empty):
        paths = {"clean": clean_wav, "noise": tmp_path / "n.wav"}
        run("synth-noise", "--alpha", 2.0, "--duration", 2.0, "--seed", 3,
            "--out", paths["noise"])
        paths[empty] = tmp_path / "empty.wav"
        write_wav(Signal(np.zeros(0), RATE), paths[empty])
        out = tmp_path / "mix.wav"
        assert run("mix", "--clean", paths["clean"], "--noise", paths["noise"],
                   "--snr-db", 0, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {paths[empty]} is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", [-10, 0, 20])
    @pytest.mark.parametrize("silent", ["clean", "noise"])
    def test_silent_input_fails(self, tmp_path, clean_wav, capsys, silent, snr_db):
        # a silent clean file would make the noise gain 0 and the mix pure silence
        paths = {"clean": clean_wav, "noise": tmp_path / "n.wav"}
        run("synth-noise", "--alpha", 2.0, "--duration", 2.0, "--seed", 3,
            "--out", paths["noise"])
        paths[silent] = tmp_path / "silent.wav"
        write_wav(Signal(np.zeros(16384), RATE), paths[silent])
        out = tmp_path / "mix.wav"
        assert run("mix", "--clean", paths["clean"], "--noise", paths["noise"],
                   "--snr-db", snr_db, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {silent} file is silent\n"
        assert not out.exists()


class TestEval:
    def test_identity_report(self, tmp_path, clean_wav, capsys):
        assert run("eval", "--clean", clean_wav, "--processed", clean_wav) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["llr"] == 0.0
        assert report["fwsnrseg_db"] == 35.0
        assert report["stoi"] >= 0.999
        assert "stoi_pct" in report

    def test_metric_subset(self, tmp_path, clean_wav, capsys):
        assert run("eval", "--clean", clean_wav, "--processed", clean_wav,
                   "--metrics", "llr,fwsnrseg") == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"llr", "fwsnrseg_db"}

    def test_unknown_metric_fails(self, clean_wav):
        assert run("eval", "--clean", clean_wav, "--processed", clean_wav,
                   "--metrics", "pesq") == 1

    def test_empty_metric_list_fails(self, clean_wav, capsys):
        assert run("eval", "--clean", clean_wav, "--processed", clean_wav,
                   "--metrics", ",") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no metric" in captured.err


class TestDecompose:
    def test_writes_modes_and_residual(self, tmp_path, clean_wav):
        prefix = str(tmp_path / "dec_")
        assert run("decompose", "--in", clean_wav, "--out-prefix", prefix,
                   "--ensemble", 3, "--modes", 6, "--seed", 1) == 0
        files = sorted(tmp_path.glob("dec_IMF_*.wav"))
        assert len(files) == 6
        total = sum(read_wav(f).samples for f in files)
        total += read_wav(tmp_path / "dec_residual.wav").samples
        x = read_wav(clean_wav).samples
        assert np.max(np.abs(total - x)) < 1e-6 * np.max(np.abs(x))

    def test_constant_input_residual_only(self, tmp_path):
        path = tmp_path / "const.wav"
        write_wav(Signal(np.full(4096, 0.25), RATE), path)
        prefix = str(tmp_path / "c_")
        assert run("decompose", "--in", path, "--out-prefix", prefix,
                   "--ensemble", 1, "--seed", 0) == 0
        assert not list(tmp_path.glob("c_IMF_*.wav"))
        res = read_wav(tmp_path / "c_residual.wav")
        np.testing.assert_allclose(res.samples, 0.25, atol=1e-6)


    def test_empty_input_fails_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "empty.wav"
        write_wav(Signal(np.zeros(0), RATE), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("decompose", "--in", path, "--out-prefix", tmp_path / "e_") == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.startswith("error: signal too short to decompose")
        assert not list(tmp_path.glob("e_*.wav"))


@pytest.mark.parametrize("command", ["enhance", "alpha", "eval"])
def test_non_finite_input_names_the_file(tmp_path, capsys, command):
    from scipy.io import wavfile
    path = tmp_path / "nan.wav"
    data = np.zeros(4096, dtype=np.float32)
    data[100] = np.nan
    wavfile.write(path, RATE, data)
    args = {"enhance": ("enhance", "--in", path, "--out", tmp_path / "o.wav"),
            "alpha": ("alpha", "--in", path, "--out", tmp_path / "o.csv"),
            "eval": ("eval", "--clean", path, "--processed", path)}[command]
    assert run(*args) == 1
    assert capsys.readouterr().err == f"error: non-finite samples in {path}\n"


def test_truncated_input_names_the_file(tmp_path, capsys):
    path = tmp_path / "cut.wav"
    write_wav(Signal(np.zeros(38400), RATE), path)
    path.write_bytes(path.read_bytes()[:40_000])
    assert run("eval", "--clean", path, "--processed", path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: truncated WAV {path}: Reached EOF prematurely")


@pytest.mark.parametrize("bad", ["--clean", "--processed"])
def test_unreadable_input_is_named(tmp_path, capsys, bad):
    good, cut = tmp_path / "good.wav", tmp_path / "cut.wav"
    write_wav(Signal(np.zeros(38400), RATE), good)
    cut.write_bytes(good.read_bytes()[:50])
    paths = {"--clean": good, "--processed": good, bad: cut}
    assert run("eval", *[a for flag, path in paths.items() for a in (flag, path)]) == 1
    assert capsys.readouterr().err == f"error: unreadable WAV {cut}: Unexpected end of file.\n"


@pytest.mark.parametrize("command", ["enhance", "decompose", "alpha", "mix", "synth-noise"])
def test_negative_seed_fails(tmp_path, clean_wav, capsys, command):
    out = tmp_path / "o.wav"
    args = {"enhance": ("enhance", "--in", clean_wav, "--out", out),
            "decompose": ("decompose", "--in", clean_wav, "--out-prefix", tmp_path / "o_"),
            "alpha": ("alpha", "--in", clean_wav, "--out", out),
            "mix": ("mix", "--clean", clean_wav, "--noise", clean_wav, "--snr-db", 0,
                    "--out", out),
            "synth-noise": ("synth-noise", "--alpha", 1.5, "--duration", 1.0, "--out", out)}
    assert run(*args[command], "--seed=-1") == 1
    assert capsys.readouterr().err == "error: --seed must be a non-negative whole number, got -1\n"
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_ensemble_snr_nan_or_minus_inf_fails(tmp_path, clean_wav, capsys, snr):
    out = tmp_path / "o.wav"
    assert run("enhance", "--in", clean_wav, "--out", out, f"--ensemble-snr={snr}") == 1
    assert capsys.readouterr().err.startswith("error: ensemble_snr_db must be")
    assert not out.exists()


class TestEnhanceCommand:
    def test_output_shape_and_profile(self, tmp_path, clean_wav):
        out = tmp_path / "enh.wav"
        csv_path = tmp_path / "prof.csv"
        assert run("enhance", "--in", clean_wav, "--out", out,
                   "--frame", 4096, "--step", 512, "--ensemble", 3,
                   "--modes", 6, "--seed", 7, "--profile", csv_path) == 0
        sig = read_wav(out)
        clean = read_wav(clean_wav)
        assert len(sig) == len(clean) and sig.sample_rate == clean.sample_rate
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("alpha_1") and header.endswith("alpha_u,rho_alpha,Z")

    def test_seed_determinism(self, tmp_path, clean_wav):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (a, b):
            assert run("enhance", "--in", clean_wav, "--out", out,
                       "--frame", 4096, "--step", 512, "--ensemble", 3,
                       "--modes", 6, "--seed", 7) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_paper_defaults_accepted(self, tmp_path, clean_wav):
        parser_args = ["enhance", "--in", str(clean_wav), "--out",
                       str(tmp_path / "o.wav"), "--mu", "0.8", "--alpha-min", "1.1",
                       "--frame", "10240", "--step", "128"]
        args = build_parser().parse_args(parser_args)
        assert args.mu == 0.8 and args.alpha_min == 1.1
        assert args.frame == 10240 and args.step == 128
        assert args.ensemble == 50 and args.modes == 10

    def test_every_setting_is_one_enhance_flag(self):
        # every config field is set by exactly one flag, whose default is the field's default
        other_values = {"--modes": 7, "--ensemble": 3, "--ensemble-snr": 20.0, "--seed": 9,
                        "--frame": 4096, "--step": 64, "--mu": 0.5, "--alpha-min": 1.3,
                        "--threshold-mode": "literal-min"}

        def settings(cfg):
            return {**{f"eemd.{k}": v for k, v in vars(cfg.eemd).items()},
                    **{k: v for k, v in vars(cfg).items() if k != "eemd"}}

        def parsed(*flags):
            argv = ["enhance", "--in", "a.wav", "--out", "b.wav", *map(str, flags)]
            return settings(_enhance_config(build_parser().parse_args(argv)))

        default = parsed()
        assert default == settings(EnhanceConfig())
        set_by_flags = []
        for flag, value in other_values.items():
            changed = [k for k, v in parsed(flag, value).items() if v != default[k]]
            assert len(changed) == 1, (flag, changed)
            set_by_flags += changed
        assert sorted(set_by_flags) == sorted(default)

    def test_missing_file_fails(self, tmp_path):
        assert run("enhance", "--in", tmp_path / "nope.wav",
                   "--out", tmp_path / "o.wav") == 1

    def test_frame_below_estimator_minimum_fails(self, tmp_path, clean_wav, capsys):
        assert run("enhance", "--in", clean_wav, "--out", tmp_path / "o.wav",
                   "--frame", 64, "--step", 32, "--ensemble", 1) == 1
        assert capsys.readouterr().err.startswith("error: frame_len")
        assert not (tmp_path / "o.wav").exists()


class TestAlphaCommand:
    FLAGS = ("--frame", 4096, "--step", 512, "--mu", 0.9, "--alpha-min", 1.2,
             "--threshold-mode", "literal-min", "--ensemble", 3, "--modes", 6, "--seed", 7)

    def test_csv_equals_enhance_profile(self, tmp_path, clean_wav):
        alpha_csv, profile_csv = tmp_path / "alpha.csv", tmp_path / "profile.csv"
        assert run("alpha", "--in", clean_wav, "--out", alpha_csv, *self.FLAGS) == 0
        assert run("enhance", "--in", clean_wav, "--out", tmp_path / "enh.wav",
                   "--profile", profile_csv, *self.FLAGS) == 0
        assert alpha_csv.read_bytes() == profile_csv.read_bytes()

    def test_shorter_than_quarter_frame_fails(self, tmp_path, clean_wav, capsys):
        out = tmp_path / "alpha.csv"
        assert run("alpha", "--in", clean_wav, "--out", out, "--frame", 100000,
                   "--ensemble", 1) == 1
        assert "quarter frame" in capsys.readouterr().err
        assert not out.exists()
