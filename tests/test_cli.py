"""End-to-end tests of the command-line surface (in-process, no network)."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tarfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from detect_reference import inline_detect, stream_logits
from lmukws import cli, training
from lmukws.cli import COMMANDS, Limit, UsageError, build_parser, main, resolve_config
from lmukws.configs import REFERENCE_NAMES, reference_config
from lmukws.fixedpoint import QuantSpec, QuantTensor
from lmukws.frontend import (
    FeatureConfig,
    build_dataset,
    generate_toy_dataset,
    load_feature_config,
    load_wav,
    materialize_features,
    save_feature_config,
    write_wav,
)
from lmukws.lmu import build_model, trainable_items
from lmukws.modelfile import load_model, save_model
from lmukws.qmodel import (
    QuantizedCell,
    calibrate_activation_scales,
    freeze,
    kept_parameters,
    model_size_kbits,
)
from lmukws.training import evaluate

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
               "--batch-size", "16", "--out-dir", str(out)])
    assert rc == 0
    return out


def _narrow_model(trained, path):
    """A model file at ``path`` that takes 39-wide features, with the trained
    model's labels and frontend digest: it loads and matches the sidecar."""
    labels = load_model(trained / "model.lmuq").label_names
    cfg = dataclasses.replace(reference_config("toy"), input_dim=39, label_names=tuple(labels))
    model = build_model(cfg, np.random.default_rng(0))
    zero = calibrate_activation_scales(model, np.zeros((1, 2, 39)))
    digest = load_feature_config(trained / "frontend.npz").config_hash()
    save_model(freeze(model, cfg.weight_bits, zero, frontend_hash=digest), path)
    return path


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

    def test_config_file_key_set_twice_rejected(self, tmp_path, capsys):
        # The last value won: this swept 8 lanes and exited 0.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lanes = 1\nlanes = 8\n")
        rc = main(["hw-sweep", "--model-preset", "toy", "--config", str(cfg),
                   "--out-dir", "out"])
        assert rc == 1
        assert f"{cfg}:2: lanes is set twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag, code", [("--config", 1), ("--coefficients", 2)])
    def test_line_without_equals_names_its_line(self, tmp_path, capsys, flag, code):
        # Both files go through one reader; each command keeps its exit code.
        path = tmp_path / "f.txt"
        path.write_text("# header\n\nlanes 8\n")
        rc = main(["hw-sweep", "--model-preset", "toy", flag, str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == code
        assert f"{path}:3: expected 'key = value'" in capsys.readouterr().err

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\n\nlanes = 1  # one lane\n   \nclock_points = 2\n")
        out = tmp_path / "out"
        assert main(["hw-sweep", "--model-preset", "toy", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        resolved = (out / "resolved-config.txt").read_text()
        assert "lanes = 1\n" in resolved and "clock_points = 2\n" in resolved
        coeffs = tmp_path / "c.txt"
        reports = []
        for text in (None, "e_mac_j = 1.5e-12\n", "# header\n\ne_mac_j = 1.5e-12  # note\n\n"):
            argv = ["hw-report", "--model-preset", "toy", "--out-dir", str(out)]
            if text is not None:
                coeffs.write_text(text)
                argv += ["--coefficients", str(coeffs)]
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        default, plain, commented = reports
        assert commented == plain != default

    def test_config_key_may_be_written_as_its_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out-dir = custom\n")
        assert main(["size-report", "--model-preset", "toy", "--config", str(cfg)]) == 0
        assert "out_dir = custom" in (tmp_path / "custom" / "resolved-config.txt").read_text()
        cfg.write_text("out-dir = a\nout_dir = b\n")
        assert main(["size-report", "--model-preset", "toy", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: out_dir is set twice" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_config_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        out = tmp_path / "out"
        rc = main(["size-report", "--model-preset", "toy", "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 1
        assert f"cannot read config file {cfg}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["train"], key) for key in ("quant_on_step", "prune_start", "prune_end",
                                     "calibration_sequences", "log_every")
    ] + [(["stream", "--wav", "a.wav"], "chunk_samples")] + [
        ([cmd, "--model-preset", "toy"], key) for cmd, keys in (
            ("hw-report", ("sram_width_bits", "overhead_cycles", "mcu_cycles_per_s")),
            ("hw-sweep", ("sram_width_bits", "overhead_cycles"))) for key in keys
    ])
    def test_removed_setting_is_usage_error(self, tmp_path, capsys, argv, key):
        # Fixed by design: train's schedule follows --steps, stream reads
        # one hop at a time, and the cost model's port, overhead and MCU
        # rate are hwmodel constants.  Neither a flag nor a config-file key
        # may set one.
        flag = "--" + key.replace("_", "-")
        assert main(argv + [flag, "3", "--out-dir", "out"]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\n")
        assert main(argv + ["--config", str(cfg), "--out-dir", "out"]) == 1
        assert f"unknown config keys for '{argv[0]}': {key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

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

    @pytest.mark.parametrize("argv", [
        ["hw-sweep", "--clock-min", "10", "--clock-max", "5"],
        ["hw-sweep", "--lanes", "0"],
        ["hw-sweep", "--lanes", "1,x"],
        ["train", "--keywords", "yes,yes"],
        ["train", "--keywords", ","],
        ["eval", "--keywords", ","],
        ["fetch-data", "--toy", "--unknown-words", " , "],
        # a local URL, so that a regression cannot start a download
        ["fetch-data", "--keywords", ",", "--url", "file:///nonexistent/corpus.tar.gz"],
        # a repeated word trained two labels named yes; 11 words exited 3
        ["train", "--keywords", ",".join(f"w{i}" for i in range(11))],
        ["eval", "--keywords", "yes,no,yes"],
        ["eval", "--keywords", ",".join(f"w{i}" for i in range(11))],
        # exited 3 with every yes/*.wav written and no .complete marker
        ["fetch-data", "--toy", "--keywords", "yes,up"],
        # a word listed twice was synthesized twice, the second pass overwriting the first
        ["fetch-data", "--toy", "--keywords", "yes,yes", "--speakers", "1", "--takes", "1"],
        ["fetch-data", "--toy", "--keywords", "yes,no", "--unknown-words", "wow,no",
         "--speakers", "1", "--takes", "1"],
    ])
    def test_usage_error_in_a_handler_writes_nothing(self, tmp_path, argv):
        # These left runs/<command>/resolved-config.txt behind; train and eval
        # checked their keyword lists only after the data root or the model
        # (exit 2 when that was missing).
        assert main(argv) == 1
        assert not any(tmp_path.iterdir())

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_readme_quickstart_commands_parse(self):
        # A renamed flag or choice breaks this test, not the docs.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Quickstart (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv for argv in commands if argv]
        assert all(argv[0] == "lmukws" for argv in commands)
        assert {argv[1] for argv in commands} == set(COMMANDS)
        parser = build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            resolve_config(args, COMMANDS[args.cmd].settings)


# Every command's settings in flag order: key, default, Limit and help.
TEXT, TEXT_OR_NONE = Limit(str), Limit(str, optional=True)
PRESET = Limit(str, choices=("lmu1", "lmu2", "lmu3", "lmu4", "toy"))
SEED_AND_OUT_DIR = [("seed", 0, Limit(int, lo=0), None), ("out_dir", None, TEXT_OR_NONE, None)]
PINNED_SETTINGS = {
    "fetch-data": [
        ("root", "data/speech_commands", TEXT, None),
        ("url", "http://download.tensorflow.org/data/speech_commands_v0.02.tar.gz", TEXT, None),
        ("checksum", "af14739ee7dc311471de98f5f9d2c9191b18aedfe957f4a6ff791c709868ff58",
         TEXT_OR_NONE, None),
        ("toy", False, Limit(bool), "generate a synthetic corpus instead of downloading"),
        ("keywords", "yes,no", TEXT, None),
        ("unknown_words", "wow,zero", TEXT, None),
        ("speakers", 40, Limit(int, lo=1), None),
        ("takes", 3, Limit(int, lo=1), None),
    ] + SEED_AND_OUT_DIR,
    "train": [
        ("data_root", "data/speech_commands", TEXT, None),
        ("keywords", "yes,no", TEXT, None),
        ("model_preset", "toy", PRESET, None),
        ("steps", 200, Limit(int, lo=1), None),
        ("batch_size", 32, Limit(int, lo=1), None),
        ("learning_rate", 0.01, Limit(float, lo=0.0, hi=1.0, lo_open=True), None),
        ("weight_bits", None, Limit(int, choices=(4, 8), optional=True), None),
        ("target_sparsity", None, Limit(float, lo=0.0, hi=1.0, hi_open=True, optional=True), None),
        ("hat", True, Limit(bool), "from step steps // 2, train against the deployed integers"),
        ("resume", None, TEXT_OR_NONE, "checkpoint.npz to initialize weights from"),
    ] + SEED_AND_OUT_DIR,
    "eval": [
        ("model", "runs/train/model.lmuq", TEXT, None),
        ("frontend", None, TEXT_OR_NONE, "frontend.npz sidecar (default: next to the model)"),
        ("data_root", "data/speech_commands", TEXT, None),
        ("keywords", "yes,no", TEXT, None),
        ("split", "test", Limit(str, choices=("train", "val", "test")), None),
        ("mode", "offline", Limit(str, choices=("offline", "streaming")), None),
    ] + SEED_AND_OUT_DIR,
    "stream": [
        ("model", "runs/train/model.lmuq", TEXT, None),
        ("frontend", None, TEXT_OR_NONE, "frontend.npz sidecar (default: next to the model)"),
        ("wav", None, TEXT_OR_NONE, None),
        ("smooth", 5, Limit(int, lo=1), "posterior moving-average window in hops"),
        ("threshold", 0.7, Limit(float, lo=0.0, hi=1.0, lo_open=True), None),
        ("refractory", 10, Limit(int, lo=0), "hops to suppress after a detection"),
    ] + SEED_AND_OUT_DIR,
    "size-report": [
        ("model", None, TEXT_OR_NONE, None),
        ("model_preset", None, dataclasses.replace(PRESET, optional=True), None),
    ] + SEED_AND_OUT_DIR,
    "hw-report": [
        ("model", None, TEXT_OR_NONE, None),
        ("model_preset", "lmu2", PRESET, None),
        ("coefficients", None, TEXT_OR_NONE, "coefficient table file (default: built-in)"),
        ("clock_hz", 92000.0, Limit(float, lo=0.0, lo_open=True), None),
        ("lanes", 128, Limit(int, lo=1), None),
    ] + SEED_AND_OUT_DIR,
    "hw-sweep": [
        ("model", None, TEXT_OR_NONE, None),
        ("model_preset", "lmu2", PRESET, None),
        ("coefficients", None, TEXT_OR_NONE, "coefficient table file (default: built-in)"),
        ("clock_min", 1e4, Limit(float, lo=0.0, lo_open=True), None),
        ("clock_max", 1e7, Limit(float, lo=0.0, lo_open=True), None),
        ("clock_points", 25, Limit(int, lo=1), None),
        ("lanes", "1,2,4,8,16,32,64,128,256,512", TEXT, None),
    ] + SEED_AND_OUT_DIR,
}


@pytest.mark.parametrize("cmd", COMMANDS)
def test_flag_and_config_line_resolve_alike(tmp_path, cmd):
    # `--clock-hz 92000` resolved to 92000.0 and `clock_hz = 92000` to
    # 92000; `--out-dir none` named a directory none, `out_dir = none` the
    # default.  argparse parsed flags, Limit.parse config lines.
    settings = COMMANDS[cmd].settings
    cfg = tmp_path / "run.cfg"
    for key, setting in settings.items():
        if setting.limit.kind is bool:  # a bool flag takes no value
            continue
        for text in ("none", "7", "92000", "0.5", "-3", "1e400", "nan", "true", "fast"):
            cfg.write_text(f"{key} = {text}\n")
            outcomes = []
            for argv in ([cmd, "--" + key.replace("_", "-"), text], [cmd, "--config", str(cfg)]):
                try:
                    outcomes.append(repr(resolve_config(build_parser().parse_args(argv),
                                                        settings)))
                except UsageError as e:
                    outcomes.append(f"UsageError: {e}")
            assert outcomes[0] == outcomes[1], (key, text)


def test_every_setting_is_pinned():
    # Rows shared between command tables must leave each command's flags, in
    # order, with their defaults, Limits and help, as the commands declare them.
    assert sum(len(rows) for rows in PINNED_SETTINGS.values()) == 58
    assert list(COMMANDS) == list(PINNED_SETTINGS)
    subparsers = next(a for a in build_parser()._actions if a.dest == "cmd").choices
    for name, rows in PINNED_SETTINGS.items():
        table = COMMANDS[name].settings
        assert [(key, *setting) for key, setting in table.items()] == rows, name
        flags = [a.option_strings[0] for a in subparsers[name]._actions
                 if a.option_strings and a.option_strings[0] not in ("-h", "--config")]
        assert flags == ["--" + key.replace("_", "-") for key, *_ in rows], name


class TestFetchData:
    def test_toy_word_without_a_recipe_names_it(self, tmp_path, capsys):
        # The CLI and generate_toy_dataset checked the word list separately.
        assert main(["fetch-data", "--toy", "--keywords", "yes,up"]) == 1
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "'up'" in err and "yes, no, wow, zero, left, right" in err

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

    @pytest.mark.parametrize("case", ["member-outside-root", "not-gzip", "cut-short"])
    def test_bad_archive_is_data_error_naming_it(self, tmp_path, capsys, case):
        # The first ended in an uncaught OutsideDestinationError (exit 1)
        # after extracting the member before it, the second in a ReadError
        # and the third in an EOFError.
        payload = io.BytesIO()
        with tarfile.open(fileobj=payload, mode="w:gz") as tar:
            for name in ("yes/a_nohash_0.wav", "../escaped.txt"):
                info = tarfile.TarInfo(name)
                info.size = 4096
                tar.addfile(info, io.BytesIO(bytes(4096)))
        data = {"member-outside-root": payload.getvalue(), "not-gzip": b"not a tarball",
                "cut-short": payload.getvalue()[:len(payload.getvalue()) // 2]}[case]
        archive = tmp_path / "corpus.tar.gz"
        archive.write_bytes(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("checksum = none\n")
        root = tmp_path / "data" / "root"
        rc = main(["fetch-data", "--root", str(root), "--url", archive.as_uri(),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"cannot extract {root / archive.name}" in capsys.readouterr().err
        assert not (root.parent / "escaped.txt").exists()
        assert not (root / ".complete").exists()
        assert [p.name for p in root.iterdir()] == [archive.name]

    def test_tarfile_without_extraction_filters_is_data_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # Python 3.10.0-3.10.11 and 3.11.0-3.11.3 extracted without a filter,
        # so a member could land outside --root.
        monkeypatch.delattr(tarfile, "data_filter")
        archive = self._archive(tmp_path)
        root = tmp_path / "extracted"
        rc = main(["fetch-data", "--root", str(root), "--url", archive.as_uri(),
                   "--checksum", hashlib.sha256(archive.read_bytes()).hexdigest(),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"cannot extract {root / archive.name} safely" in capsys.readouterr().err
        assert not (root / "yes").exists() and not (root / ".complete").exists()

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
        qm = load_model(trained / "model.lmuq")
        rc = main(["size-report", "--model", str(trained / "model.lmuq")])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{model_size_kbits(qm):.1f}" in out

    def test_resume_is_deterministic(self, tmp_path, toy_root, trained):
        args = ["train", "--data-root", str(toy_root), "--steps", "8",
                "--batch-size", "8", "--resume", str(trained / "checkpoint.npz")]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(args + ["--out-dir", str(out)]) == 0
            outs.append((out / "model.lmuq").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flags", [["--target-sparsity", "0.5"], ["--no-hat"]])
    def test_writes_what_train_gives_on_the_documented_schedule(self, toy_root, tmp_path,
                                                                flags):
        # HAT from steps // 2 unless --no-hat, the pruning ramp from
        # steps // 4 to 3 * steps // 4, 256 calibration sequences and a log
        # line every 20 steps and at the last.
        steps = 44
        out = tmp_path / "out"
        assert main(["train", "--data-root", str(toy_root), "--steps", str(steps),
                     "--batch-size", "8", "--out-dir", str(out)] + flags) == 0
        ds = materialize_features(build_dataset(toy_root, ["yes", "no"]), FeatureConfig())
        model_cfg = dataclasses.replace(reference_config("toy"),
                                        label_names=tuple(ds.label_names))
        if "--target-sparsity" in flags:
            model_cfg = dataclasses.replace(model_cfg, target_sparsity=0.5)
        result = training.train(training.TrainConfig(
            model=model_cfg, batch_size=8, steps=steps,
            quant_on_step=None if "--no-hat" in flags else steps // 2,
            prune_start=steps // 4, prune_end=3 * steps // 4,
            target_sparsity=model_cfg.target_sparsity, log_every=20), ds)
        save_model(result.quantized, tmp_path / "expected.lmuq")
        assert (out / "model.lmuq").read_bytes() == (tmp_path / "expected.lmuq").read_bytes()
        log = (out / "train-log.txt").read_text().splitlines()
        assert log == [
            f"step={row['step']} loss={row['loss']:.6f} quant_on={row['quant_on']} "
            f"sparsity={row['sparsity']:.4f}" for row in result.log]
        assert [line.split()[0] for line in log] == ["step=0", "step=20", "step=40", "step=43"]

    def test_missing_data_root_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--data-root", str(tmp_path / "nope"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "fetch-data" in capsys.readouterr().err

    def test_empty_val_split_is_data_error_before_training(self, tmp_path, capsys):
        # Both speakers hash to train.  This trained, wrote model.lmuq, then
        # exited 3 with "cannot evaluate on zero utterances".
        root = tmp_path / "data"
        generate_toy_dataset(root, speakers=2, takes=1)
        out = tmp_path / "out"
        rc = main(["train", "--data-root", str(root), "--steps", "1", "--out-dir", str(out)])
        assert rc == 2
        assert "val split" in capsys.readouterr().err
        assert not (out / "model.lmuq").exists()


def _config_file(path, values: dict):
    """A config file holding ``values``; each reads back as the same value."""
    path.write_text("".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                            for key, value in values.items()))
    return path


# What a config-file value can read back as: none, a bool, an int, a float
# (nan and the infinities included) or a string.
ANY_SETTING = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                        st.floats(), st.sampled_from(["", "fast"]))


def _within(limit, top: int = 40):
    """Values inside a declared ``Limit``; integers at most ``top``."""
    if limit.kind is bool:
        values = st.booleans()
    elif limit.choices:
        values = st.sampled_from(limit.choices)
    elif limit.kind is int:
        values = st.integers(limit.lo, top)
    else:
        values = st.floats(limit.lo, limit.hi, exclude_min=limit.lo_open,
                           exclude_max=limit.hi_open, allow_nan=False, allow_infinity=False)
    return values | st.none() if limit.optional else values


def _settings(command: str, caps: dict):
    """Config-file values for the settings of ``command``, free text aside:
    either every key inside its limit, or any subset of keys, each inside its
    limit or anything.  A key in ``caps`` is always set, and never to an
    integer above its cap."""
    limits = {key: setting.limit for key, setting in COMMANDS[command].settings.items()
              if setting.limit.kind is not str or setting.limit.choices}
    within = {key: _within(limit, caps.get(key, 40)) for key, limit in limits.items()}
    anything = {key: within[key] | ANY_SETTING.filter(
        lambda v, cap=caps.get(key, 40): type(v) is not int or v <= cap) for key in limits}
    return (st.fixed_dictionaries(within)
            | st.fixed_dictionaries({key: anything[key] for key in caps}, optional={
                key: values for key, values in anything.items() if key not in caps}))


class TestSettingLimits:
    @pytest.mark.parametrize("line, name", [
        ("batch_size = -3", "batch-size"),       # numpy "negative dimensions", exit 3
        ("learning_rate = nan", "learning-rate"),  # exit 3
        ("steps = -1", "steps"),                 # exit 0, a model with "final loss nan"
        ("weight_bits = 5", "weight-bits"),      # exit 3 in freeze, after training
    ])
    def test_train_setting_outside_its_limit_is_usage_error(
            self, toy_root, tmp_path, capsys, line, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["train", "--data-root", str(toy_root), "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not (out / "model.lmuq").exists()

    @pytest.mark.parametrize("line, name", [
        ("smooth = 2.5", "smooth"),               # ran, as smooth = 2
        ("threshold = nan", "threshold"),
        ("refractory = true", "refractory"),      # ran, as refractory = 1
    ])
    def test_stream_setting_outside_its_limit_is_usage_error(
            self, toy_root, trained, tmp_path, capsys, line, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        wav = next((toy_root / "yes").glob("*.wav"))
        out = tmp_path / "out"
        rc = main(["stream", "--model", str(trained / "model.lmuq"), "--wav", str(wav),
                   "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not (out / "posteriors.csv").exists()

    @pytest.mark.parametrize("argv, name", [
        (["fetch-data", "--toy", "--root", "data", "--speakers", "-1"], "speakers"),  # exit 0
        (["eval", "--seed", "-1"], "seed"),                          # numpy's error, exit 3
        (["hw-report", "--model-preset", "toy", "--clock-hz", "inf"], "clock-hz"),  # exit 0
        (["hw-sweep", "--model-preset", "toy", "--clock-points", "0"], "clock-points"),  # 3
        (["size-report", "--model-preset", "toy", "--seed", "-1"], "seed"),  # exit 3
    ])
    def test_other_command_setting_outside_its_limit_is_usage_error(
            self, tmp_path, capsys, argv, name):
        rc = main(argv + ["--out-dir", "out"])  # the working directory is tmp_path
        assert rc == 1
        assert f"{name}: expected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd, key", [
        (name, key) for name, command in COMMANDS.items()
        for key, setting in command.settings.items() if setting.limit.choices])
    def test_config_value_outside_its_choices_is_usage_error(self, tmp_path, capsys, cmd, key):
        # `mode = strem` scored offline and exited 0; `model_preset = lmu9`
        # raised an uncaught KeyError.
        bad = {"model_preset": "lmu9", "weight_bits": "5", "split": "tests", "mode": "strem"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {bad[key]}\n")
        rc = main([cmd, "--config", str(cfg), "--out-dir", "out"])
        assert rc == 1
        assert f"{key.replace('_', '-')}: expected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, line, message", [
        (["train"], "data_root = 1", "dataset root not found: 1 "),  # TypeError
        # open(1) read stdout's descriptor as the table, then closed it: exit 3
        (["hw-report"], "coefficients = 1", "'1'"),
        (["hw-report"], "coefficients = 0", "'0'"),  # the shipped table, exit 0
        (["train", "--data-root", "{toy}"], "keywords = true", "['true']"),  # 'True'
    ])
    def test_config_text_setting_keeps_its_text(
            self, toy_root, tmp_path, capsys, argv, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main([arg.format(toy=toy_root) for arg in argv]
                  + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        os.fstat(1)  # stdout's descriptor is still open
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_limits_are_checked_before_data_is_read(self, tmp_path, capsys):
        rc = main(["train", "--data-root", str(tmp_path / "nope"), "--batch-size", "0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "batch-size: expected an integer with batch-size >= 1, got 0" in (
            capsys.readouterr().err)


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    # Three speakers, one take: spk0002 hashes to val, the other two to train.
    root = tmp_path_factory.mktemp("tiny")
    generate_toy_dataset(root, speakers=3, takes=1, seed=0)
    return root


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_settings("train", caps={"steps": 2}))  # each run stays short
@example(values={"steps": 2, "target_sparsity": 0.5})  # HAT from step 1
@example(values={"steps": 1, "hat": False, "target_sparsity": 0.5})  # a ramp from 0 to 0
def test_random_train_settings_run_or_are_usage_errors(tiny_root, tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("train-settings")
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--data-root", str(tiny_root),
                   "--config", str(_config_file(tmp / "run.cfg", values)),
                   "--out-dir", str(out)])
    event(f"exit {rc}")
    if rc == 3:
        # A known defect, not an allowed outcome: at learning rates of about
        # 0.2 and up, freeze can meet an activation whose calibrated grid is
        # so fine that the 32-bit accumulator proof fails (mostly at u, also
        # at h).  ROADMAP item 3, "freeze refuses models trained at high
        # learning rates", tracks it; delete this branch when that lands, so
        # every run exits 0 or 1.
        assert re.search(r"accumulator worst case \d+ >= 2\^31", err.getvalue())
    else:
        assert rc in (0, 1), err.getvalue()
    assert (out / "model.lmuq").exists() == (rc == 0)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_settings("stream", caps={}))
def test_random_stream_settings_run_or_are_usage_errors(
        toy_root, trained, tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("stream-settings")
    out = tmp / "out"
    rc = main(["stream", "--model", str(trained / "model.lmuq"),
               "--wav", str(next((toy_root / "yes").glob("*.wav"))),
               "--config", str(_config_file(tmp / "run.cfg", values)), "--out-dir", str(out)])
    event(f"exit {rc}")
    assert rc in (0, 1)
    assert (out / "posteriors.csv").exists() == (rc == 0)


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

    def test_scores_the_materialized_split(self, toy_root, trained, tmp_path, monkeypatch):
        # The command featurizes only its split, through the sidecar, and
        # must hand the engine the features training materialized, bit for
        # bit (silence crops included).
        import lmukws.cli as cli

        seen = []
        monkeypatch.setattr(cli, "evaluate",
                            lambda qm, x, y: seen.append((x, y)) or evaluate(qm, x, y))
        rc = main(["eval", "--model", str(trained / "model.lmuq"),
                   "--data-root", str(toy_root), "--split", "val",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        ds = materialize_features(build_dataset(toy_root, ["yes", "no"]), FeatureConfig())
        (x, y), = seen
        assert np.array_equal(x, ds.val_x) and np.array_equal(y, ds.val_y)

    def test_missing_sidecar_is_data_error(self, trained, toy_root, tmp_path, capsys):
        alone = tmp_path / "model.lmuq"
        alone.write_bytes((trained / "model.lmuq").read_bytes())
        rc = main(["eval", "--model", str(alone), "--data-root", str(toy_root),
                   "--split", "val", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "sidecar not found" in capsys.readouterr().err

    def test_mismatched_sidecar_is_data_error(self, trained, toy_root, tmp_path, capsys):
        other = tmp_path / "frontend.npz"
        save_feature_config(FeatureConfig(), other)
        rc = main(["eval", "--model", str(trained / "model.lmuq"), "--frontend", str(other),
                   "--data-root", str(toy_root), "--split", "val",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_truncated_sidecar_is_data_error(self, trained, toy_root, tmp_path, capsys):
        (tmp_path / "model.lmuq").write_bytes((trained / "model.lmuq").read_bytes())
        (tmp_path / "frontend.npz").write_bytes((trained / "frontend.npz").read_bytes()[:-100])
        rc = main(["eval", "--model", str(tmp_path / "model.lmuq"),
                   "--data-root", str(toy_root), "--split", "val",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not a frontend sidecar" in capsys.readouterr().err

    def test_sidecar_in_another_directory(self, trained, toy_root, tmp_path, capsys):
        (tmp_path / "m").mkdir()
        (tmp_path / "f").mkdir()
        (tmp_path / "m" / "model.lmuq").write_bytes((trained / "model.lmuq").read_bytes())
        (tmp_path / "f" / "frontend.npz").write_bytes((trained / "frontend.npz").read_bytes())
        argv = ["--data-root", str(toy_root), "--split", "val", "--out-dir", str(tmp_path / "out")]
        assert main(["eval", "--model", str(trained / "model.lmuq")] + argv) == 0
        expected = capsys.readouterr().out
        assert main(["eval", "--model", str(tmp_path / "m" / "model.lmuq"),
                     "--frontend", str(tmp_path / "f" / "frontend.npz")] + argv) == 0
        assert capsys.readouterr().out == expected

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

    def test_version_1_model_is_data_error(self, toy_root, trained, tmp_path, capsys):
        # The trained model with its version field set to 1 and the CRC fixed
        # up: version 1 restated what the topology fixes, and is not read.
        blob = (trained / "model.lmuq").read_bytes()[:-4]
        body = blob[:4] + struct.pack("<H", 1) + blob[6:]
        bad = tmp_path / "v1.lmuq"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["eval", "--model", str(bad), "--data-root", str(toy_root),
                   "--split", "val", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"{bad}: unsupported version 1" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, toy_root, tmp_path):
        rc = main(["eval", "--model", str(tmp_path / "none.lmuq"),
                   "--data-root", str(toy_root),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_model_of_another_input_width_is_data_error(self, toy_root, trained, tmp_path,
                                                       capsys):
        # It passes the sidecar's digest check; the engine then refused the
        # 40-wide features with exit 3.
        narrow = _narrow_model(trained, tmp_path / "narrow.lmuq")
        rc = main(["eval", "--model", str(narrow), "--frontend", str(trained / "frontend.npz"),
                   "--data-root", str(toy_root), "--split", "val",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(narrow) in err and "39" in err and "40" in err


class TestStream:
    def test_model_of_another_input_width_is_data_error(self, toy_root, trained, tmp_path,
                                                       capsys):
        narrow = _narrow_model(trained, tmp_path / "narrow.lmuq")
        wav = next((toy_root / "yes").glob("*.wav"))
        rc = main(["stream", "--model", str(narrow), "--wav", str(wav),
                   "--frontend", str(trained / "frontend.npz"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(narrow) in err and "39" in err and "40" in err

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

    @pytest.mark.parametrize("smooth, threshold, refractory, detects, suppresses", [
        (5, 0.7, 10, 0, 0),  # the defaults
        (1, 0.5, 0, 101, 0),
        (3, 0.6, 10, 1, 1),  # the cooldown holds back hops above the threshold
    ])
    def test_equals_the_inline_detection_loop(self, toy_root, trained, tmp_path, capsys,
                                              smooth, threshold, refractory, detects,
                                              suppresses):
        # Six toy clips in a row (299 hops): stdout and posteriors.csv are,
        # byte for byte, what the loop cmd_stream ran inline writes.
        words = ("yes", "no", "wow", "yes", "zero", "no")
        wav = tmp_path / "six.wav"
        write_wav(wav, np.concatenate([load_wav(sorted((toy_root / w).glob("*.wav"))[0])
                                       for w in words]))
        out = tmp_path / "out"
        flags = [] if (smooth, threshold, refractory) == (5, 0.7, 10) else [
            "--smooth", str(smooth), "--threshold", str(threshold),
            "--refractory", str(refractory)]
        assert main(["stream", "--model", str(trained / "model.lmuq"), "--wav", str(wav),
                     "--out-dir", str(out)] + flags) == 0
        qm = load_model(trained / "model.lmuq")
        feat_cfg = load_feature_config(trained / "frontend.npz")
        ref = inline_detect(qm, feat_cfg.hop_samples / feat_cfg.sample_rate,
                            stream_logits(qm, feat_cfg, load_wav(wav)),
                            smooth, threshold, refractory)
        lines = [f"t={t:.2f}s  {label}  p={p:.3f}" for t, label, p in ref.detections]
        lines = lines or ["no detections"]
        lines.append(f"processed {ref.hops} hops; wrote {out / 'posteriors.csv'}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert (out / "posteriors.csv").read_bytes() == ("\n".join(ref.rows) + "\n").encode()
        assert ref.hops == 299
        assert len(ref.detections) >= detects and ref.suppressed >= suppresses

    def test_silence_yields_no_detection(self, trained, tmp_path, capsys):
        quiet = tmp_path / "quiet.wav"
        rng = np.random.default_rng(1)
        write_wav(quiet, 1e-4 * rng.standard_normal(16000))
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(quiet), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "no detections" in capsys.readouterr().out

    def test_mismatched_sidecar_is_data_error(self, toy_root, trained, tmp_path, capsys):
        other = tmp_path / "frontend.npz"
        save_feature_config(FeatureConfig(), other)
        wav = next((toy_root / "yes").glob("*.wav"))
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(wav), "--frontend", str(other),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_truncated_sidecar_is_data_error(self, toy_root, trained, tmp_path, capsys):
        cut = tmp_path / "frontend.npz"
        cut.write_bytes((trained / "frontend.npz").read_bytes()[:-100])
        wav = next((toy_root / "yes").glob("*.wav"))
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(wav), "--frontend", str(cut),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not a frontend sidecar" in capsys.readouterr().err

    def test_wav_ending_mid_sample_is_data_error(self, toy_root, trained, tmp_path, capsys):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(next((toy_root / "yes").glob("*.wav")).read_bytes()[:-1])
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(cut), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "mid-sample" in capsys.readouterr().err

    def test_wav_shorter_than_its_header_declares_is_data_error(self, toy_root, trained,
                                                                tmp_path, capsys):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(next((toy_root / "yes").glob("*.wav")).read_bytes()[:1000])
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--wav", str(cut), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "the file holds 478" in capsys.readouterr().err

    def test_missing_wav_flag_is_usage_error(self, trained, tmp_path):
        rc = main(["stream", "--model", str(trained / "model.lmuq"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert not any(tmp_path.iterdir())  # not even resolved-config.txt


_SERVE = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from lmukws.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
loaded = [m for m in ("scipy", "urllib.request", "tarfile") if sys.modules.get(m) is not None]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_imports_scipy(toy_root, trained, tmp_path):
    # Every command needs only numpy: serving a frozen model, and building
    # memory cells from a config, whose matrix exponential is lmu.expm.
    model, wav = str(trained / "model.lmuq"), next((toy_root / "yes").glob("*.wav"))
    commands = [
        ["fetch-data", "--toy", "--root", "data", "--speakers", "3", "--takes", "1",
         "--out-dir", "fetch"],
        ["train", "--data-root", "data", "--steps", "2", "--out-dir", "train"],
        ["size-report", "--model-preset", "toy", "--out-dir", "size-preset"],
        ["hw-report", "--model-preset", "lmu2", "--out-dir", "hw-preset"],
        ["hw-sweep", "--model-preset", "lmu2", "--out-dir", "sweep"],
        ["eval", "--model", model, "--data-root", str(toy_root), "--split", "val",
         "--mode", "streaming", "--out-dir", "eval"],
        ["stream", "--model", model, "--wav", str(wav), "--out-dir", "stream"],
        ["size-report", "--model", model, "--out-dir", "size"],
        ["hw-report", "--model", model, "--out-dir", "hw"],
    ]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    runs = {}
    for mode in ("block", "plain"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", _SERVE, mode, json.dumps(commands)],
                              cwd=cwd, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        *stdout, summary = proc.stdout.splitlines()
        assert json.loads(summary) == {"codes": [0] * len(commands), "loaded": []}
        files = {p.relative_to(cwd): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        runs[mode] = stdout, files
    assert runs["block"] == runs["plain"]
    assert {p.parts[0] for p in runs["block"][1]} == {
        "data", "fetch", "train", "size-preset", "hw-preset", "sweep", "eval", "stream", "size", "hw"}


def _edited_checkpoint(edit):
    """A maker of the trained checkpoint with ``edit`` applied to its tensors."""
    def make(path, trained):
        with np.load(trained / "checkpoint.npz") as z:
            tensors = {k: z[k] for k in z.files}
        edit(tensors)
        with open(path, "wb") as f:  # a path without .npz gets no suffix
            np.savez(f, **tensors)
    return make


def _drop_bias(tensors):
    del tensors["output.bias"]


def _cut_bias(tensors):
    tensors["output.bias"] = tensors["output.bias"][:-1]


def _nan_bias(tensors):
    tensors["layer0.bias"][0] = np.nan


def _order_0_model(path, trained):
    """The trained toy model with a third cell of order 0, its encoders
    widened by a zero row to match: consistent but for the cell rule."""
    qm = load_model(trained / "model.lmuq")
    layer = qm.layers[0]
    assert len(layer.cells) == 2 and not qm.keep_masks
    layer.cells.append(QuantizedCell(A=QuantTensor(np.zeros((0, 0)), QuantSpec(8, 0)),
                                     B=QuantTensor(np.zeros(0), QuantSpec(8, 0))))
    for name in ("input_encoder", "hidden_encoder"):
        qt = getattr(layer, name)
        setattr(layer, name, QuantTensor(np.vstack([qt.q, np.zeros((1, qt.shape[1]))]), qt.spec))
    save_model(qm, path)


# case -> (command, flag, maker of the bad file at a path, and any text that
# stderr names besides the path); each comment says how the command used to end
BAD_ARTIFACTS = {
    "resume-cut-npz": ("train", "--resume",  # uncaught BadZipFile
                       lambda p, t: p.write_bytes((t / "checkpoint.npz").read_bytes()[:300])),
    "resume-text": ("train", "--resume",  # exit 3: numpy's allow_pickle error
                    lambda p, t: p.write_text("not a checkpoint\n")),
    "resume-missing-tensor": ("train", "--resume", _edited_checkpoint(_drop_bias)),  # exit 3
    "resume-misshaped-tensor": ("train", "--resume", _edited_checkpoint(_cut_bias)),  # exit 3
    "resume-nan": ("train", "--resume", _edited_checkpoint(_nan_bias)),  # non-finite loss, 3
    "resume-directory": ("train", "--resume", lambda p, t: p.mkdir()),  # exit 3: Errno 21
    "eval-model-directory": ("eval", "--model", lambda p, t: p.mkdir()),
    "eval-frontend-directory": ("eval", "--frontend", lambda p, t: p.mkdir()),
    "stream-wav-directory": ("stream", "--wav", lambda p, t: p.mkdir()),
    "stream-wav-empty": ("stream", "--wav", lambda p, t: p.write_bytes(b"")),  # EOFError
    # exit 2 with numpy's "zero-size array" from the accumulator proof,
    # naming neither the file nor the cell
    "eval-model-order-0": ("eval", "--model", _order_0_model, "layer0.cell2: "),
    "stream-model-order-0": ("stream", "--model", _order_0_model, "layer0.cell2: "),
    "hw-report-model-order-0": ("hw-report", "--model", _order_0_model, "layer0.cell2: "),
}


@pytest.mark.parametrize("case", BAD_ARTIFACTS)
def test_bad_artifact_is_data_error_naming_it(toy_root, trained, tmp_path, capsys,
                                              monkeypatch, case):
    cmd, flag, make, *named = BAD_ARTIFACTS[case]
    bad = tmp_path / "bad"
    make(bad, trained)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "forward_backward", no_step)
    model, wav = str(trained / "model.lmuq"), str(next((toy_root / "yes").glob("*.wav")))
    flags = {"train": {"--data-root": str(toy_root), "--steps": "2"},
             "eval": {"--model": model, "--data-root": str(toy_root), "--split": "val"},
             "stream": {"--model": model, "--wav": wav},
             "hw-report": {"--model": model}}[cmd]
    flags.update({flag: str(bad), "--out-dir": str(tmp_path / "out")})
    rc = main([cmd] + [arg for item in flags.items() for arg in item])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert all(text in err for text in named)


class TestSizeReport:
    def test_shipped_presets(self, capsys):
        want = {"lmu1": "1683.0", "lmu2": "361.0", "lmu3": "105.0", "lmu4": "49.0"}
        for name, kbits in want.items():
            assert main(["size-report", "--model-preset", name]) == 0
            out = capsys.readouterr().out
            assert kbits in out, (name, out)

    @pytest.mark.parametrize("preset", REFERENCE_NAMES)
    def test_preset_model_survives_a_file_round_trip(self, tmp_path, preset):
        # lmu3 and lmu4 are pruned; frozen without their mask applied, they
        # held nonzero integers in pruned slots, and load_model refused them.
        qm = cli._quantized_model({"model": None, "model_preset": preset, "seed": 0})
        save_model(qm, tmp_path / "a.lmuq")
        save_model(load_model(tmp_path / "a.lmuq"), tmp_path / "b.lmuq")
        assert (tmp_path / "a.lmuq").read_bytes() == (tmp_path / "b.lmuq").read_bytes()

    def test_requires_exactly_one_source(self, trained, tmp_path):
        assert main(["size-report"]) == 1
        assert main(["size-report", "--model-preset", "lmu2",
                     "--model", str(trained / "model.lmuq")]) == 1
        assert not any(tmp_path.iterdir())  # not even runs/size-report

    def test_partly_masked_model_counts_its_kept_entries(self, tmp_path, capsys):
        # Only the output bias has a mask, with one slot pruned.  Only the
        # masked tensor's kept entries were counted: "11 nonzero, 99.53%".
        qm = cli._quantized_model({"model": None, "model_preset": "toy", "seed": 0})
        keep = np.ones(12, dtype=bool)
        keep[0] = False
        qm.output_bias.q[0] = 0
        qm.keep_masks = {"output.bias": keep}
        save_model(qm, tmp_path / "m.lmuq")
        total = sum(qt.q.size for _, qt in trainable_items(qm))
        assert sum(kept_parameters(qm).values()) == total - 1
        assert main(["size-report", "--model", str(tmp_path / "m.lmuq")]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[1:] == [str(total), str(total - 1), f"{1 / total:.2%}", "4",
                           f"{model_size_kbits(qm):.1f}"]


# SHA-256 of each report at default settings.  The hw-* reports are as the
# closed-form cost model wrote them before the profile was read off the
# engine's stages; the size-report ones changed only in the "kept" column
# header, which read "nonzero" although kept entries may store 0.
REPORT_DIGESTS = {
    "lmu1": {
        "size-report": "7adf03e59bb9ae8b66a6551f65381213721ff195e6a4d6121c327c76577090dc",
        "hw-report": "81fc183c23435513ddb66550ea1cf71abeb93351ecdfb9718b245acdf57e3e3e",
        "hw-sweep": "a7398aa1f2d0f26be02a03d2d25785ebd63d8290380fecd282b3e48b55468e82",
        "hw-report.txt": "81fc183c23435513ddb66550ea1cf71abeb93351ecdfb9718b245acdf57e3e3e",
        "sweep.csv": "cea0c689b0510da851b218376b58cc1fc61c290490b64a3cd6d721949b8620e6",
    },
    "lmu2": {
        "size-report": "9631430c811d7fc50cda83d815544b7b8bea39707557ec180929252ed2b4d022",
        "hw-report": "eb3217ab6dfc03b2ce10b53f039603f49d489ef144adca6e7d9d592f92dfb344",
        "hw-sweep": "ff161dcb7e2f73a41c676d59dda4e15e1873676cb57ba842415692eae2c4ce20",
        "hw-report.txt": "eb3217ab6dfc03b2ce10b53f039603f49d489ef144adca6e7d9d592f92dfb344",
        "sweep.csv": "4bbcfb16d08ba0dd54ac94c09073b53b0cb07b5f22b486ceeec5be1992552fc4",
    },
    "lmu3": {
        "size-report": "6815094a1f23a388d22c6cf33522174a69f39559a05ad9d96c3d7cd06d1c591e",
        "hw-report": "7cb86d8110f47278cbd9184264a0338314fd98c2baead50f282eecba897d6bc3",
        "hw-sweep": "a1ef380f3ddb3faaae2010a15ba7d9e020a799d0bb4267a8343ef53551c5d2cc",
        "hw-report.txt": "7cb86d8110f47278cbd9184264a0338314fd98c2baead50f282eecba897d6bc3",
        "sweep.csv": "70157a7a6662a3c8fc60601d24a3cb1985092aec86795ba4dab1eaf79045d1b8",
    },
    "lmu4": {
        "size-report": "aa124780a34595eac1d2981aec0328c99d8a1b0418a23322cb49dcd2cb273824",
        "hw-report": "cf3ecdd7df5023fcea70d54a63077db133a3f13a3975d318917376999e77a72e",
        "hw-sweep": "012b33a745a2f92000fdf6d04d55add05f7af33fad3c68532a5c046b3b3653bb",
        "hw-report.txt": "cf3ecdd7df5023fcea70d54a63077db133a3f13a3975d318917376999e77a72e",
        "sweep.csv": "d3740315ab0991312e4df74a5c31d03d3969adea22c6a855f5ea652819deb02e",
    },
    "toy": {
        "size-report": "32d55a4f51c822123c1979012352a591cc3141023416beae1d5fbaef5f3de568",
        "hw-report": "30373c7f00e8e8eb65cb8dea00a05dfc9a89b5ae0cc20358fc06dc83929f974b",
        "hw-sweep": "fa323f4cbf581f93c67cb81abaeec4bbe858d6e27d013ec4fee0f89de2bbaf31",
        "hw-report.txt": "30373c7f00e8e8eb65cb8dea00a05dfc9a89b5ae0cc20358fc06dc83929f974b",
        "sweep.csv": "053179e5d4c2230821d74ff4766d66166a07c6660df014caf8bf69d1ae2afd6e",
    },
}


# SHA-256 of each preset's model file (format version 2), frozen from
# seed-0 random weights as the reports above read it.
MODEL_DIGESTS = {
    "lmu1": "584bd63b5e81e9cd45fa6bf3beaa6cd22957526af3451998d9a8d62a4f96134a",
    "lmu2": "6de64f307804c25abcc3ac8dfbcae834eb7c5634346d4e4eab63193cc91c208b",
    "lmu3": "10820b79472e86bd6ab65fa6d0d5443a58ce273ebfe8753c80dbd1c47e40c9cf",
    "lmu4": "e2afff9cd52f462b4ef7d6a6cbb7cbc6ba50756e3c42009383e6578d16093d39",
    "toy": "76c01da395bc704633b1fbea0927b02bbd9d0c78ece76c36ad47e2ab682fcea9",
}


@pytest.mark.parametrize("preset", REFERENCE_NAMES)
def test_model_file_bytes_are_pinned(preset, tmp_path):
    save_model(cli._quantized_model({"model": None, "model_preset": preset, "seed": 0}),
               tmp_path / "m.lmuq")
    assert hashlib.sha256((tmp_path / "m.lmuq").read_bytes()).hexdigest() == \
        MODEL_DIGESTS[preset]


@pytest.mark.parametrize("preset", REFERENCE_NAMES)
def test_report_bytes_are_pinned(preset, tmp_path, capsys):
    digests = {}
    for cmd in ("size-report", "hw-report", "hw-sweep"):
        assert main([cmd, "--model-preset", preset]) == 0
        digests[cmd] = capsys.readouterr().out.encode()
    digests["hw-report.txt"] = (tmp_path / "runs/hw-report/hw-report.txt").read_bytes()
    digests["sweep.csv"] = (tmp_path / "runs/hw-sweep/sweep.csv").read_bytes()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == \
        REPORT_DIGESTS[preset]


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

    def test_override_file(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("e_mac_j = 1.5e-12\ntransistors.mac_lane = 9000\n")
        rc = main(["hw-report", "--model-preset", "lmu2", "--coefficients", str(coeffs),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "mac dynamic       12.252 uW" in text
        assert "total             17.743 uW" in text
        assert "transistors   4715280" in text  # 128 lanes at 9000 each

    @pytest.mark.parametrize("line, key", [
        # The parent accepted the first six: nan or inf uW, -1068720
        # transistors, 25.826 uW at activity 7, a typo silently ignored and a
        # count truncated to 1.  The rest exited 3.
        ("e_mac_j = nan", "e_mac_j"),
        ("e_mac_j = inf", "e_mac_j"),
        ("misc_transistors = -5000000", "misc_transistors"),
        ("activity = 7", "activity"),
        ("transistors.mac_lanes = 9000", "transistors.mac_lanes"),
        ("transistors.mac_lane = 1.9", "mac_lane_transistors"),
        ("e_mac_j = abc", "e_mac_j"),
        ("transistors.mac_lane = 1e400", "mac_lane_transistors"),
        ("activity = 0.5\nactivity = 0.25", "activity"),  # the last value won, exit 0
    ])
    def test_bad_coefficient_is_data_error(self, tmp_path, capsys, line, key):
        coeffs = tmp_path / "c.txt"
        coeffs.write_text(line + "\n")
        rc = main(["hw-report", "--model-preset", "lmu2", "--coefficients", str(coeffs),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(coeffs) in err and key in err
        assert not (tmp_path / "out" / "hw-report.txt").exists()

    def test_unreadable_coefficient_file_is_data_error(self, tmp_path, capsys):
        binary = tmp_path / "c.bin"
        binary.write_bytes(bytes(range(256)))
        for path in (binary, tmp_path):
            rc = main(["hw-sweep", "--model-preset", "toy", "--coefficients", str(path),
                       "--out-dir", str(tmp_path / "out")])
            assert rc == 2
            assert f"cannot read coefficient file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, output", [("hw-report", "hw-report.txt"),
                                             ("hw-sweep", "sweep.csv")])
    def test_non_finite_power_is_data_error(self, tmp_path, capsys, cmd, output):
        # The parent printed `total inf uW` and wrote its output, exit 0.
        coeffs = tmp_path / "c.txt"
        coeffs.write_text("e_mac_j = 1e300\n")
        out = tmp_path / "out"
        rc = main([cmd, "--model-preset", "lmu2", "--coefficients", str(coeffs),
                   "--out-dir", str(out)])
        assert rc == 2
        assert "mac_dynamic_uW is not finite" in capsys.readouterr().err
        assert not (out / output).exists()

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


_COEFFICIENT_KEYS = ("e_mac_j", "e_sram_bit_j", "p_static_bit_w", "p_dyn_transistor_j",
                     "activity", "latency_residual_ms", "misc_transistors",
                     "transistors.mac_lane", "transistors.sram_bit")
_TYPO_KEYS = ("e_mac", "activty", "transistors.mac_lanes", "transistors.multiplier",
              "mac_lane_transistors")
_GOOD_VALUES = ("1e-12", "0.5", "6e3", "9000")
_BAD_VALUES = ("nan", "inf", "-inf", "0", "-5", "-5000000", "1.9", "1e400", "abc", "7")


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(
    st.tuples(st.sampled_from(_COEFFICIENT_KEYS + _TYPO_KEYS),
              st.sampled_from(_GOOD_VALUES + _BAD_VALUES)).map(" = ".join),
    max_size=6))
@example(lines=["e_mac_j = nan"])
@example(lines=["misc_transistors = -5000000"])
@example(lines=["activity = 7"])
@example(lines=["transistors.mac_lane = 1e400"])
def test_coefficient_file_runs_or_is_data_error(lines):
    # Each file either gives a report with finite, nonnegative figures or
    # is refused as a data error that names it; it never gets to exit 3.
    path = Path("coeffs.txt")
    path.write_text("".join(line + "\n" for line in lines))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["hw-report", "--model-preset", "toy", "--coefficients", str(path)])
    event(f"exit {rc}")
    if rc == 0:
        numbers = re.findall(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)", out.getvalue())
        assert all(math.isfinite(float(n)) and float(n) >= 0 for n in numbers), out.getvalue()
    else:
        assert rc == 2, err.getvalue()
        assert str(path) in err.getvalue()
