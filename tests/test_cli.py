"""End-to-end tests of the command-line surface (in-process, no network)."""

import io
import tarfile

import numpy as np
import pytest

from lmukws.cli import main
from lmukws.frontend import write_wav
from lmukws.modelfile import load_model, save_model

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    # commands without --out-dir write under ./runs; keep that out of the repo
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def toy_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "toy"
    out = tmp_path_factory.mktemp("fetch-out")
    rc = main(["fetch-data", "--toy", "--root", str(root),
               "--speakers", "30", "--takes", "2", "--out-dir", str(out)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_root):
    out = tmp_path_factory.mktemp("train-out")
    rc = main(["train", "--data-root", str(toy_root), "--steps", "60",
               "--batch-size", "16", "--quant-on-step", "30",
               "--calibration-sequences", "64", "--log-every", "10",
               "--out-dir", str(out)])
    assert rc == 0
    return out


class TestParsing:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_is_usage_error(self):
        assert main(["size-report", "--model-preset", "nonesuch"]) == 1

    def test_config_file_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_real_key = 3\n")
        rc = main(["size-report", "--model-preset", "lmu2",
                   "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "not_a_real_key" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clock_points = 5\nlanes = 1\n")
        out = tmp_path / "out"
        rc = main(["hw-sweep", "--model-preset", "toy", "--config", str(cfg),
                   "--clock-points", "3", "--out-dir", str(out)])
        assert rc == 0
        resolved = (out / "resolved-config.txt").read_text()
        assert "clock_points = 3" in resolved   # flag wins
        assert "lanes = 1" in resolved          # file fills the gap
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 3

    def test_default_out_dir_is_per_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["size-report", "--model-preset", "lmu2"]) == 0
        assert (tmp_path / "runs" / "size-report" / "resolved-config.txt").exists()


class TestFetchData:
    def test_toy_generation_and_idempotence(self, toy_root, capsys):
        assert (toy_root / "yes").is_dir()
        assert (toy_root / "_background_noise_").is_dir()
        assert (toy_root / ".complete").exists()
        rc = main(["fetch-data", "--toy", "--root", str(toy_root)])
        assert rc == 0
        assert "nothing to do" in capsys.readouterr().out

    def _archive(self, tmp_path, words=("yes", "no", "stop")):
        payload = io.BytesIO()
        rng = np.random.default_rng(0)
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        with tarfile.open(fileobj=payload, mode="w:gz") as tar:
            for word in words:
                p = wav_dir / f"{word}.wav"
                write_wav(p, 0.1 * rng.standard_normal(16000))
                tar.add(p, arcname=f"./{word}/a_nohash_0.wav")
            tar.add(p, arcname="./_background_noise_/hum.wav")
        archive = tmp_path / "corpus.tar.gz"
        archive.write_bytes(payload.getvalue())
        return archive

    def test_download_checksum_extract(self, tmp_path):
        import hashlib
        archive = self._archive(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        root = tmp_path / "extracted"
        rc = main(["fetch-data", "--root", str(root),
                   "--url", archive.as_uri(), "--checksum", digest,
                   "--keywords", "yes,no", "--out-dir", str(tmp_path / "o1")])
        assert rc == 0
        assert (root / "yes" / "a_nohash_0.wav").exists()
        assert (root / "_background_noise_" / "hum.wav").exists()
        # the keyword filter must skip unrequested word directories
        assert not (root / "stop").exists()
        assert (root / ".complete").exists()

    def test_checksum_mismatch_removes_partial(self, tmp_path, capsys):
        archive = self._archive(tmp_path)
        root = tmp_path / "extracted"
        rc = main(["fetch-data", "--root", str(root),
                   "--url", archive.as_uri(), "--checksum", "0" * 64,
                   "--out-dir", str(tmp_path / "o2")])
        assert rc == 2
        assert "checksum mismatch" in capsys.readouterr().err
        assert not (root / "corpus.tar.gz").exists()
        assert not (root / ".complete").exists()


class TestTrain:
    def test_artifacts(self, trained):
        for name in ("model.lmuq", "frontend.npz", "checkpoint.npz",
                      "train-log.txt", "resolved-config.txt"):
            assert (trained / name).exists(), name

    def test_size_report_matches_library_metric(self, trained, capsys):
        from lmukws.modelfile import load_model
        from lmukws.qmodel import model_size_kbits

        qm = load_model(trained / "model.lmuq")
        rc = main(["size-report", "--model", str(trained / "model.lmuq")])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{model_size_kbits(qm):.1f}" in out

    def test_resume_is_deterministic(self, tmp_path, toy_root, trained):
        args = ["train", "--data-root", str(toy_root), "--steps", "8",
                "--batch-size", "8", "--quant-on-step", "2",
                "--calibration-sequences", "16",
                "--resume", str(trained / "checkpoint.npz")]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(args + ["--out-dir", str(out)]) == 0
            outs.append((out / "model.lmuq").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_data_root_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--data-root", str(tmp_path / "nope"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "fetch-data" in capsys.readouterr().err


class TestEval:
    def test_offline_and_streaming_agree(self, toy_root, trained, tmp_path, capsys):
        rc = main(["eval", "--model", str(trained / "model.lmuq"),
                   "--data-root", str(toy_root), "--split", "val",
                   "--mode", "streaming", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        offline = [l for l in out.splitlines() if l.startswith("offline")][0]
        streaming = [l for l in out.splitlines() if l.startswith("streaming")][0]
        # hop-by-hop inference is bit-exact, so the numbers must be equal
        assert offline.split()[-1] == streaming.split()[-1]
        assert (tmp_path / "out" / "eval-report.txt").exists()

    def test_frontend_mismatch_is_data_error(self, toy_root, trained, tmp_path, capsys):
        rc = main(["eval", "--model", str(trained / "model.lmuq"),
                   "--data-root", str(toy_root), "--keywords", "yes,wow",
                   "--split", "val", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    def test_model_failing_accumulator_proof_is_data_error(
        self, toy_root, trained, tmp_path, capsys
    ):
        qm = load_model(trained / "model.lmuq")
        qm.layers[0].bias.q[0] = 2**31 - 1
        bad = tmp_path / "bad.lmuq"
        save_model(qm, bad)
        rc = main(["eval", "--model", str(bad), "--data-root", str(toy_root),
                   "--split", "val", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "h accumulator worst case" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, toy_root, tmp_path):
        rc = main(["eval", "--model", str(tmp_path / "none.lmuq"),
                   "--data-root", str(toy_root),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2


class TestStream:
    def test_posterior_csv_shape(self, toy_root, trained, tmp_path):
        wav = next((toy_root / "yes").glob("*.wav"))
        out = tmp_path / "out"
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(wav), "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "posteriors.csv").read_text().splitlines()
        assert len(lines) == 1 + 49  # header + one row per 20 ms hop
        assert lines[0].startswith("time_s,yes,no,")
        assert all(len(l.split(",")) == 13 for l in lines)

    def test_chunk_size_does_not_change_outputs(self, toy_root, trained, tmp_path):
        wav = next((toy_root / "no").glob("*.wav"))
        texts = []
        for chunk in ("160", "320", "1024"):
            out = tmp_path / f"c{chunk}"
            rc = main(["stream", "--model", str(trained / "model.lmuq"),
                       "--wav", str(wav), "--chunk-samples", chunk,
                       "--out-dir", str(out)])
            assert rc == 0
            texts.append((out / "posteriors.csv").read_text())
        assert texts[0] == texts[1] == texts[2]

    def test_silence_yields_no_detection(self, trained, tmp_path, capsys):
        quiet = tmp_path / "quiet.wav"
        rng = np.random.default_rng(1)
        write_wav(quiet, 1e-4 * rng.standard_normal(16000))
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(quiet), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "no detections" in capsys.readouterr().out

    def test_mismatched_sidecar_is_data_error(self, toy_root, trained, tmp_path, capsys):
        from lmukws.frontend import FeatureConfig, save_feature_config

        other = tmp_path / "frontend.npz"
        save_feature_config(FeatureConfig(), other)
        wav = next((toy_root / "yes").glob("*.wav"))
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(wav), "--frontend", str(other),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_missing_wav_flag_is_usage_error(self, trained, tmp_path):
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1


class TestSizeReport:
    def test_shipped_presets(self, capsys):
        want = {"lmu1": "1683.0", "lmu2": "361.0", "lmu3": "105.0", "lmu4": "49.0"}
        for name, kbits in want.items():
            assert main(["size-report", "--model-preset", name]) == 0
            out = capsys.readouterr().out
            assert kbits in out, (name, out)

    def test_requires_exactly_one_source(self, trained):
        assert main(["size-report"]) == 1
        assert main(["size-report", "--model-preset", "lmu2",
                     "--model", str(trained / "model.lmuq")]) == 1


class TestHwCommands:
    def test_report_comparison_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["hw-report", "--model-preset", "lmu2", "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "211.362" in text
        assert "118.611" in text
        assert "170.000" in text
        assert "realtime=yes" in text
        assert (out / "hw-report.txt").exists()

    def test_report_on_trained_model(self, trained, tmp_path, capsys):
        rc = main(["hw-report", "--model", str(trained / "model.lmuq"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "MACs/frame" in capsys.readouterr().out

    def test_sweep_deterministic_csv(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["hw-sweep", "--model-preset", "toy",
                       "--clock-points", "4", "--lanes", "1,16",
                       "--out-dir", str(out)])
            assert rc == 0
            texts.append((out / "sweep.csv").read_text())
        assert texts[0] == texts[1]
        header = texts[0].splitlines()[0]
        assert header == ("clock_hz,lanes,mac_uW,sram_dyn_uW,sram_static_uW,"
                          "other_uW,total_uW,transistors,throughput_ms,"
                          "latency_ms,realtime,pareto")

    def test_sweep_with_no_feasible_point(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["hw-sweep", "--model-preset", "toy",
                   "--clock-min", "100", "--clock-max", "200",
                   "--clock-points", "2", "--lanes", "1",
                   "--out-dir", str(out)])
        assert rc == 0
        assert "no feasible design" in capsys.readouterr().out
