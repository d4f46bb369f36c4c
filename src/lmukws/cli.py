"""Command-line surface for the keyword-spotting pipeline.

Subcommands: fetch-data, train, eval, stream, size-report, hw-report,
hw-sweep.  Each declares its settings once, in a table of key -> default,
``Limit`` and help; the flags, the defaults and the checks all come from it.
Every subcommand accepts --config (a "key = value" text file merged under
explicit flags), --seed, and --out-dir; once the settings pass every check,
the fully resolved configuration is written next to the run's outputs so
results are reproducible from the artifacts alone.

Exit codes: 0 success, 1 usage error, 2 data/artifact error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import sys
import tarfile
import urllib.request
import zipfile
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .configs import REFERENCE_NAMES, reference_config
from .frontend import (
    SILENCE_LABEL,
    UNKNOWN_LABEL,
    DatasetError,
    FeatureConfig,
    StreamFeaturizer,
    WavFormatError,
    build_dataset,
    featurize_utterance,
    generate_toy_dataset,
    load_clip,
    load_feature_config,
    load_wav,
    materialize_features,
    save_feature_config,
)
from .hwmodel import (
    CoefficientError,
    CoefficientTable,
    DesignPoint,
    energy_per_frame_power,
    estimate_power,
    mcu_power,
    profile_workload,
    sweep,
    sweep_to_csv,
)
from .lmu import build_model
from .fixedpoint import apply_mask, prune_magnitude
from .modelfile import ModelFormatError, load_model, save_model
from .qmodel import (
    QuantStreamState,
    calibrate_activation_scales,
    freeze,
    kept_parameters,
    model_size_kbits,
    quantized_forward,
)
from .training import (
    TrainConfig,
    TrainingError,
    check_init_tensors,
    check_prune_steps,
    evaluate,
    majority_baseline,
    train,
)

DATA_URL = "http://download.tensorflow.org/data/speech_commands_v0.02.tar.gz"
# published digest of the v0.02 archive
DATA_SHA256 = "af14739ee7dc311471de98f5f9d2c9191b18aedfe957f4a6ff791c709868ff58"

COMPLETE_MARKER = ".complete"


class UsageError(ValueError):
    """Bad flags or config file contents; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Settings: one table per command; defaults < config file < explicit flags
# ---------------------------------------------------------------------------

def _read_config_file(path) -> dict:
    """The ``key = value`` lines of a config file, each value as its text."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


@dataclasses.dataclass(frozen=True)
class Limit:
    """The declared type and range of one setting, checked by ``resolve_config``.

    ``kind`` is int, float, bool or str; a float setting also takes an int and
    must be finite.  The bounds are inclusive unless marked open.
    ``choices``, when given, lists every allowed value.  ``optional`` allows
    None, which leaves the setting unset.
    """
    kind: type
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple = ()
    optional: bool = False

    def parse(self, text: str):
        """A config-file value.  A str setting keeps its text; ``none`` or
        ``null`` unsets an optional one.  Any other setting reads the text as
        none, a bool, an int or a float, or else keeps it (and fails ``check``)."""
        low = text.lower()
        if low in ("none", "null") and (self.optional or self.kind is not str):
            return None
        if self.kind is str:
            return text
        if low in ("true", "false"):
            return low == "true"
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                continue
        return text

    def check(self, key: str, value) -> None:
        if value is None and self.optional:
            return
        ok = isinstance(value, (int, float) if self.kind is float else self.kind)
        ok = ok and (self.kind is bool or not isinstance(value, bool))
        # finite, and for an int, within the float range
        ok = ok and (self.kind is not float or abs(value) <= sys.float_info.max)
        ok = ok and (self.lo is None or (value > self.lo if self.lo_open else value >= self.lo))
        ok = ok and (self.hi is None or (value < self.hi if self.hi_open else value <= self.hi))
        ok = ok and (not self.choices or value in self.choices)
        if not ok:
            raise UsageError(f"{self.describe(key.replace('_', '-'))}, got {value!r}")

    def describe(self, name: str) -> str:
        kind = {int: "an integer", float: "a finite number", bool: "true or false",
                str: "text"}[self.kind]
        if self.choices:
            kind += f" in {{{', '.join(map(str, self.choices))}}}"
        elif self.lo is not None and self.hi is not None:
            kind += (f" with {self.lo:g} {'<' if self.lo_open else '<='} {name} "
                     f"{'<' if self.hi_open else '<='} {self.hi:g}")
        elif self.lo is not None:
            kind += f" with {name} {'>' if self.lo_open else '>='} {self.lo:g}"
        return f"{name}: expected {'none or ' if self.optional else ''}{kind}"


class Setting(NamedTuple):
    """One row of a command's table: the flag is ``--`` plus the key, dashed."""
    default: object
    limit: Limit
    help: str | None = None


TEXT = Limit(str)
TEXT_OR_NONE = Limit(str, optional=True)

# The settings every command takes.
COMMON = {
    "seed": Setting(0, Limit(int, lo=0)),
    "out_dir": Setting(None, TEXT_OR_NONE),
}


def resolve_config(args, settings: dict) -> dict:
    """Merge run settings; reject unknown config-file keys and any setting
    outside its declared ``Limit``, whether it came from a flag or a file."""
    resolved = {key: setting.default for key, setting in settings.items()}
    if args.config is not None:
        file_vals = _read_config_file(args.config)
        unknown = sorted(set(file_vals) - set(settings))
        if unknown:
            raise UsageError(
                f"unknown config keys for '{args.cmd}': {', '.join(unknown)}"
            )
        for key, text in file_vals.items():
            resolved[key] = settings[key].limit.parse(text)
    for key, setting in settings.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        setting.limit.check(key, resolved[key])
    return resolved


def _run_dir(cfg: dict, cmd: str) -> Path:
    """Make the run's output directory and write its resolved configuration.

    A handler calls it once every check that reads only its settings has
    passed, so a usage error (exit 1) leaves nothing behind.
    """
    out = Path(cfg["out_dir"]) if cfg["out_dir"] else Path("runs") / cmd
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# resolved configuration for '{cmd}'"]
    lines += [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    (out / "resolved-config.txt").write_text("\n".join(lines) + "\n")
    return out


def _words(text: str) -> tuple:
    items = tuple(w.strip() for w in text.split(",") if w.strip())
    if not items:
        raise UsageError("expected a comma-separated word list")
    return items


def _positive_int_list(text: str) -> tuple:
    try:
        items = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not items or any(v < 1 for v in items):
        raise UsageError("lane counts must be positive integers")
    return items


def _coefficients(cfg: dict) -> CoefficientTable:
    path = cfg["coefficients"]
    return CoefficientTable.from_file(path) if path else CoefficientTable()


def _input_file(path, what: str) -> Path:
    """An artifact path given on the command line; DatasetError naming it
    unless it is a file."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"{what} not found (or not a file): {path}")
    return path


def _quantized_model(cfg: dict):
    """--model loaded, or else --model-preset frozen from seeded random weights."""
    if cfg["model"]:
        return load_model(_input_file(cfg["model"], "model file"))
    model_cfg = reference_config(cfg["model_preset"])
    model = build_model(model_cfg, np.random.default_rng(cfg["seed"]))
    mask = None
    if model_cfg.target_sparsity > 0.0:
        mask = prune_magnitude(model, model_cfg.target_sparsity)
        apply_mask(model, mask)
    zero = calibrate_activation_scales(model, np.zeros((1, 2, model_cfg.input_dim)))
    return freeze(model, model_cfg.weight_bits, zero, mask=mask)


def _sidecar_config(cfg: dict, qm) -> FeatureConfig:
    """The model's frontend: --frontend, or else frontend.npz next to the model."""
    path = _input_file(cfg["frontend"] or Path(cfg["model"]).parent / "frontend.npz",
                       "frontend sidecar")
    feat_cfg = load_feature_config(path)
    if feat_cfg.config_hash() != qm.frontend_hash:
        raise DatasetError(f"frontend sidecar {path} does not match the model's frontend hash")
    return feat_cfg


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# fetch-data
# ---------------------------------------------------------------------------

FETCH_SETTINGS = {
    "root": Setting("data/speech_commands", TEXT),
    "url": Setting(DATA_URL, TEXT),
    "checksum": Setting(DATA_SHA256, TEXT_OR_NONE),
    "toy": Setting(False, Limit(bool), "generate a synthetic corpus instead of downloading"),
    "keywords": Setting("yes,no", TEXT),
    "unknown_words": Setting("wow,zero", TEXT),
    "speakers": Setting(40, Limit(int, lo=1)),
    "takes": Setting(3, Limit(int, lo=1)),
    **COMMON,
}


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _extract_archive(archive: Path, root: Path, keywords) -> int:
    count = 0
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar:
            top = member.name.lstrip("./").split("/", 1)[0]
            if keywords is not None and "/" in member.name.lstrip("./"):
                if top not in keywords and top != "_background_noise_":
                    continue
            count += 1
            try:
                tar.extract(member, root, filter="data")
            except TypeError:  # Python < 3.12 has no filter argument
                tar.extract(member, root)
    return count


def cmd_fetch_data(cfg: dict) -> int:
    if cfg["toy"]:
        keywords, unknown_words = _words(cfg["keywords"]), _words(cfg["unknown_words"])
    else:  # an empty list extracts every word
        keywords = _words(cfg["keywords"]) if cfg["keywords"] else None
    _run_dir(cfg, "fetch-data")
    root = Path(cfg["root"])
    marker = root / COMPLETE_MARKER
    if marker.exists():
        print(f"dataset at {root} already complete; nothing to do")
        return 0
    if cfg["toy"]:
        generate_toy_dataset(
            root,
            keywords=keywords,
            unknown_words=unknown_words,
            speakers=cfg["speakers"],
            takes=cfg["takes"],
            seed=cfg["seed"],
        )
        marker.write_text("toy\n")
        print(f"generated synthetic dataset under {root}")
        return 0
    root.mkdir(parents=True, exist_ok=True)
    archive = root / Path(cfg["url"]).name
    if not archive.exists():
        print(f"downloading {cfg['url']}")
        try:
            urllib.request.urlretrieve(cfg["url"], archive)
        except Exception as e:
            archive.unlink(missing_ok=True)
            raise DatasetError(f"download failed: {e}") from None
    if cfg["checksum"]:
        actual = _sha256_file(archive)
        if actual != cfg["checksum"].lower():
            archive.unlink()
            raise DatasetError(
                f"checksum mismatch for {archive.name}: got {actual}; partial file removed"
            )
    n = _extract_archive(archive, root, keywords)
    marker.write_text(f"extracted {n} entries\n")
    print(f"extracted {n} entries into {root}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_SETTINGS = {
    "data_root": Setting("data/speech_commands", TEXT),
    "keywords": Setting("yes,no", TEXT),
    "model_preset": Setting("toy", Limit(str, choices=REFERENCE_NAMES)),
    "steps": Setting(200, Limit(int, lo=1)),
    "batch_size": Setting(32, Limit(int, lo=1)),
    # Adam moves each weight by about the learning rate per step.
    "learning_rate": Setting(1e-2, Limit(float, lo=0.0, hi=1.0, lo_open=True)),
    "weight_bits": Setting(None, Limit(int, choices=(4, 8), optional=True)),
    "target_sparsity": Setting(None, Limit(float, lo=0.0, hi=1.0, hi_open=True, optional=True)),
    "hat": Setting(True, Limit(bool), "train against the deployed integer arithmetic"),
    "quant_on_step": Setting(None, Limit(int, lo=0, optional=True)),
    "prune_start": Setting(None, Limit(int, lo=0, optional=True)),
    "prune_end": Setting(None, Limit(int, lo=0, optional=True)),
    "calibration_sequences": Setting(256, Limit(int, lo=1)),
    "resume": Setting(None, TEXT_OR_NONE, "checkpoint.npz to initialize weights from"),
    "log_every": Setting(20, Limit(int, lo=1)),
    **COMMON,
}


def _read_checkpoint(path: Path, model_cfg) -> dict:
    """--resume's tensors; DatasetError naming the file unless it is an npz
    archive that ``check_init_tensors`` accepts for this model."""
    try:
        with np.load(path) as z:
            tensors = {k: z[k] for k in z.files}
        check_init_tensors(build_model(model_cfg, np.random.default_rng(0)), tensors)
    except (zipfile.BadZipFile, EOFError, ValueError, TypeError) as e:
        raise DatasetError(f"{path}: not a checkpoint for this model ({e})") from None
    return tensors


def cmd_train(cfg: dict) -> int:
    prune_start, prune_end = cfg["prune_start"], cfg["prune_end"]
    try:
        check_prune_steps(prune_start, prune_end)
    except ValueError as exc:
        raise UsageError(f"prune-start and prune-end: {exc}") from None
    keywords = _words(cfg["keywords"])
    out = _run_dir(cfg, "train")
    root = Path(cfg["data_root"])
    if not root.is_dir():
        raise DatasetError(f"dataset root not found: {root} (run fetch-data first)")
    manifest = build_dataset(root, keywords, seed=cfg["seed"])
    for split in ("train", "val"):  # training needs one, the report the other
        if not any(e.split == split for e in manifest.entries):
            raise DatasetError(f"the {split} split of {root} is empty")
    model_cfg = reference_config(cfg["model_preset"])
    overrides = {"label_names": tuple(manifest.label_names)}
    if cfg["weight_bits"] is not None:
        overrides["weight_bits"] = cfg["weight_bits"]
    if cfg["target_sparsity"] is not None:
        overrides["target_sparsity"] = float(cfg["target_sparsity"])
    model_cfg = dataclasses.replace(model_cfg, **overrides)
    init_tensors = None
    if cfg["resume"]:
        ckpt = _input_file(cfg["resume"], "checkpoint")
        init_tensors = _read_checkpoint(ckpt, model_cfg)
        print(f"resuming from {ckpt}")
    ds = materialize_features(manifest, FeatureConfig())

    steps = cfg["steps"]
    quant_on = None
    if cfg["hat"]:
        quant_on = cfg["quant_on_step"] if cfg["quant_on_step"] is not None else steps // 2
    if model_cfg.target_sparsity > 0.0 and prune_start is None:
        prune_start, prune_end = steps // 4, (3 * steps) // 4

    train_cfg = TrainConfig(
        model=model_cfg,
        learning_rate=float(cfg["learning_rate"]),
        batch_size=cfg["batch_size"],
        steps=steps,
        quant_on_step=quant_on,
        prune_start=prune_start,
        prune_end=prune_end,
        target_sparsity=model_cfg.target_sparsity,
        calibration_sequences=cfg["calibration_sequences"],
        seed=cfg["seed"],
        log_every=cfg["log_every"],
    )

    result = train(train_cfg, ds, init_tensors=init_tensors)
    qm = result.quantized

    model_path = out / "model.lmuq"
    save_model(qm, model_path)
    save_feature_config(ds.config, out / "frontend.npz")
    np.savez(out / "checkpoint.npz",
             **{name: t for name, t in result.model.trainable_tensors()})
    log_lines = [
        "step={step} loss={loss:.6f} quant_on={quant_on} sparsity={sparsity:.4f}".format(**row)
        for row in result.log
    ]
    (out / "train-log.txt").write_text("\n".join(log_lines) + "\n")

    total = result.model.parameter_count()
    kbits = model_size_kbits(qm)
    kept = sum(kept_parameters(qm).values())
    val_float = evaluate(result.model, ds.val_x, ds.val_y)
    val_int = evaluate(qm, ds.val_x, ds.val_y)
    print(f"final loss {result.final_loss:.4f}")
    print(f"size: {total} params, {kept} kept, "
          f"{qm.weight_bits}-bit weights, {kbits:.1f} kbits")
    print(f"val accuracy: float {val_float:.4f}, deployed {val_int:.4f} "
          f"(majority baseline {majority_baseline(ds.val_y):.4f})")
    print(f"wrote {model_path}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

FRONTEND_HELP = "frontend.npz sidecar (default: next to the model)"

EVAL_SETTINGS = {
    "model": Setting("runs/train/model.lmuq", TEXT),
    "frontend": Setting(None, TEXT_OR_NONE, FRONTEND_HELP),
    "data_root": Setting("data/speech_commands", TEXT),
    "keywords": Setting("yes,no", TEXT),
    "split": Setting("test", Limit(str, choices=("train", "val", "test"))),
    "mode": Setting("offline", Limit(str, choices=("offline", "streaming"))),
    **COMMON,
}


def cmd_eval(cfg: dict) -> int:
    keywords = _words(cfg["keywords"])
    out = _run_dir(cfg, "eval")
    qm = load_model(_input_file(cfg["model"], "model file"))
    feat_cfg = _sidecar_config(cfg, qm)
    split = cfg["split"]
    manifest = build_dataset(cfg["data_root"], keywords, seed=cfg["seed"])
    if list(manifest.label_names) != list(qm.label_names):
        raise DatasetError(f"label mismatch: data {manifest.label_names}, model {qm.label_names}")
    picked = [i for i, e in enumerate(manifest.entries) if e.split == split]
    if not picked:
        raise DatasetError(f"split {split!r} is empty")
    x = np.stack([featurize_utterance(load_clip(manifest, i), feat_cfg) for i in picked])
    y = np.array([manifest.entries[i].label for i in picked], dtype=np.int64)

    offline = evaluate(qm, x, y)
    lines = [f"split {split}: {x.shape[0]} utterances",
             f"offline accuracy  {offline:.4f}"]
    if cfg["mode"] == "streaming":
        state = QuantStreamState(qm, x.shape[:1])
        for t in range(x.shape[1]):  # every clip advances one 20 ms hop
            logits, state = quantized_forward(qm, x[:, t : t + 1], state)
        lines.append(f"streaming accuracy {(logits[:, -1].argmax(axis=1) == y).mean():.4f}")
    lines.append(f"majority baseline {majority_baseline(y):.4f}")
    (out / "eval-report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

STREAM_SETTINGS = {
    "model": Setting("runs/train/model.lmuq", TEXT),
    "frontend": Setting(None, TEXT_OR_NONE, FRONTEND_HELP),
    "wav": Setting(None, TEXT_OR_NONE),
    "smooth": Setting(5, Limit(int, lo=1), "posterior moving-average window in hops"),
    "threshold": Setting(0.7, Limit(float, lo=0.0, hi=1.0, lo_open=True)),
    "refractory": Setting(10, Limit(int, lo=0), "hops to suppress after a detection"),
    "chunk_samples": Setting(320, Limit(int, lo=1)),
    **COMMON,
}


def cmd_stream(cfg: dict) -> int:
    if not cfg["wav"]:
        raise UsageError("stream requires --wav")
    out = _run_dir(cfg, "stream")
    smooth, threshold = cfg["smooth"], cfg["threshold"]
    refractory, chunk = cfg["refractory"], cfg["chunk_samples"]
    qm = load_model(_input_file(cfg["model"], "model file"))
    feat_cfg = _sidecar_config(cfg, qm)
    samples = load_wav(_input_file(cfg["wav"], "wav file"))

    featurizer = StreamFeaturizer(feat_cfg)
    state = QuantStreamState(qm)
    recent = deque(maxlen=smooth)
    hop_s = feat_cfg.hop_samples / feat_cfg.sample_rate
    hop_index = 0
    cooldown = 0
    detections = []
    rows = ["time_s," + ",".join(qm.label_names)]
    for start in range(0, len(samples), chunk):
        for frame in featurizer.push(samples[start:start + chunk]):
            logits, state = quantized_forward(qm, frame[None, :], state)
            posterior = _softmax(logits[-1] * 2.0 ** qm.logits_exp)
            recent.append(posterior)
            smoothed = np.mean(recent, axis=0)
            t = hop_index * hop_s
            rows.append(f"{t:.2f}," + ",".join(f"{p:.4f}" for p in smoothed))
            best = int(np.argmax(smoothed))
            if cooldown > 0:
                cooldown -= 1
            elif best not in (SILENCE_LABEL, UNKNOWN_LABEL) and smoothed[best] >= threshold:
                detections.append((t, qm.label_names[best], float(smoothed[best])))
                cooldown = refractory
            hop_index += 1

    (out / "posteriors.csv").write_text("\n".join(rows) + "\n")
    for t, label, p in detections:
        print(f"t={t:.2f}s  {label}  p={p:.3f}")
    if not detections:
        print("no detections")
    print(f"processed {hop_index} hops; wrote {out / 'posteriors.csv'}")
    return 0


# ---------------------------------------------------------------------------
# size-report
# ---------------------------------------------------------------------------

SIZE_SETTINGS = {
    "model": Setting(None, TEXT_OR_NONE),
    "model_preset": Setting(None, Limit(str, choices=REFERENCE_NAMES, optional=True)),
    **COMMON,
}


def cmd_size_report(cfg: dict) -> int:
    if bool(cfg["model"]) == bool(cfg["model_preset"]):
        raise UsageError("give exactly one of --model / --model-preset")
    _run_dir(cfg, "size-report")
    name = Path(cfg["model"]).name if cfg["model"] else cfg["model_preset"]
    qm = _quantized_model(cfg)
    total = sum(qt.q.size for _, qt in qm.weight_tensor_items())
    kept = sum(kept_parameters(qm).values())
    sparsity = 1.0 - kept / total
    kbits = model_size_kbits(qm)
    header = f"{'model':<12}{'params':>10}{'kept':>10}{'sparsity':>10}{'bits':>6}{'kbits':>10}"
    row = f"{name:<12}{total:>10}{kept:>10}{sparsity:>10.2%}{qm.weight_bits:>6}{kbits:>10.1f}"
    print(header)
    print(row)
    return 0


# ---------------------------------------------------------------------------
# hw-report and hw-sweep
# ---------------------------------------------------------------------------

COEFFICIENTS_HELP = "coefficient table file (default: built-in)"

HW_REPORT_SETTINGS = {
    "model": Setting(None, TEXT_OR_NONE),
    "model_preset": Setting("lmu2", Limit(str, choices=REFERENCE_NAMES)),
    "coefficients": Setting(None, TEXT_OR_NONE, COEFFICIENTS_HELP),
    "clock_hz": Setting(92000.0, Limit(float, lo=0.0, lo_open=True)),
    "lanes": Setting(128, Limit(int, lo=1)),
    "sram_width_bits": Setting(4096, Limit(int, lo=1)),
    "overhead_cycles": Setting(64, Limit(int, lo=0)),
    "mcu_cycles_per_s": Setting(17.24e6, Limit(float, lo=0.0)),
    **COMMON,
}


def cmd_hw_report(cfg: dict) -> int:
    out = _run_dir(cfg, "hw-report")
    w = profile_workload(_quantized_model(cfg))
    coeffs = _coefficients(cfg)
    dp = DesignPoint(
        clock_hz=float(cfg["clock_hz"]),
        lanes=cfg["lanes"],
        sram_width_bits=cfg["sram_width_bits"],
        overhead_cycles=cfg["overhead_cycles"],
    )
    pb = estimate_power(w, dp, coeffs)
    mcu = float(cfg["mcu_cycles_per_s"])
    lines = [
        f"workload: {w.macs_per_frame} MACs/frame, {w.storage_bits} stored bits",
        f"design: clock {dp.clock_hz:.6g} Hz, {dp.lanes} lanes",
        f"  mac dynamic   {pb.mac_dynamic_uW:10.3f} uW",
        f"  sram dynamic  {pb.sram_dynamic_uW:10.3f} uW",
        f"  sram static   {pb.sram_static_uW:10.3f} uW",
        f"  other         {pb.other_dynamic_uW:10.3f} uW",
        f"  total         {pb.total_uW:10.3f} uW",
        f"  transistors   {pb.transistor_count}",
        f"  throughput    {pb.throughput_ms:.2f} ms/frame, latency {pb.latency_ms:.2f} ms, "
        f"realtime={'yes' if pb.realtime else 'no'}",
        "comparisons:",
        f"  this design          {pb.total_uW:10.3f} uW   (modeled)",
        f"  MCU at 12.26 uW/MHz  {mcu_power(mcu, 12.26):10.3f} uW   (reported cycle count x datasheet efficiency)",
        f"  MCU at 6.88 uW/MHz   {mcu_power(mcu, 6.88):10.3f} uW   (reported cycle count x datasheet efficiency)",
        f"  3.4 uJ/frame ASIC    {energy_per_frame_power(3.4, 50.0):10.3f} uW   (reported energy per frame x 50 fps)",
    ]
    (out / "hw-report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


HW_SWEEP_SETTINGS = {
    "model": Setting(None, TEXT_OR_NONE),
    "model_preset": Setting("lmu2", Limit(str, choices=REFERENCE_NAMES)),
    "coefficients": Setting(None, TEXT_OR_NONE, COEFFICIENTS_HELP),
    "clock_min": Setting(1e4, Limit(float, lo=0.0, lo_open=True)),
    "clock_max": Setting(1e7, Limit(float, lo=0.0, lo_open=True)),
    "clock_points": Setting(25, Limit(int, lo=1)),
    "lanes": Setting("1,2,4,8,16,32,64,128,256,512", TEXT),
    "sram_width_bits": Setting(4096, Limit(int, lo=1)),
    "overhead_cycles": Setting(64, Limit(int, lo=0)),
    **COMMON,
}


def cmd_hw_sweep(cfg: dict) -> int:
    if cfg["clock_max"] < cfg["clock_min"]:
        raise UsageError("need clock-min <= clock-max")
    lanes = _positive_int_list(cfg["lanes"])
    out = _run_dir(cfg, "hw-sweep")
    w = profile_workload(_quantized_model(cfg))
    coeffs = _coefficients(cfg)
    clocks = np.geomspace(float(cfg["clock_min"]), float(cfg["clock_max"]),
                          cfg["clock_points"])
    records = sweep(w, clocks, lanes, coeffs,
                    sram_width_bits=cfg["sram_width_bits"],
                    overhead_cycles=cfg["overhead_cycles"])
    csv_path = out / "sweep.csv"
    csv_path.write_text(sweep_to_csv(records))
    feasible = [r for r in records if r.realtime]
    frontier = [r for r in records if r.pareto]
    print(f"{len(records)} design points, {len(feasible)} realtime, "
          f"{len(frontier)} on the power/area frontier")
    if feasible:
        best = min(feasible, key=lambda r: (r.total_uW, r.transistor_count))
        print(f"min-power feasible: clock {best.clock_hz:.6g} Hz, {best.lanes} lanes, "
              f"{best.total_uW:.3f} uW, {best.transistor_count} transistors")
    else:
        print("no feasible design in grid")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# commands and the parser
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    """A subcommand: what runs it, its one-line help and its settings table."""
    handler: Callable[[dict], int]
    help: str
    settings: dict


COMMANDS = {
    "fetch-data": Command(cmd_fetch_data, "download or synthesize the dataset", FETCH_SETTINGS),
    "train": Command(cmd_train, "train, quantize, prune, and export a model", TRAIN_SETTINGS),
    "eval": Command(cmd_eval, "accuracy of a trained model on a split", EVAL_SETTINGS),
    "stream": Command(cmd_stream, "run hop-by-hop detection over a wav file", STREAM_SETTINGS),
    "size-report": Command(cmd_size_report, "parameter/kbits summary of a model", SIZE_SETTINGS),
    "hw-report": Command(cmd_hw_report, "power/area estimate for one design point",
                         HW_REPORT_SETTINGS),
    "hw-sweep": Command(cmd_hw_sweep, "clock x lanes design-space sweep to CSV",
                        HW_SWEEP_SETTINGS),
}


@functools.cache
def build_parser() -> _Parser:
    """Every flag from the command tables; ``resolve_config`` checks the values.
    Built once per process: parsing leaves the parser unchanged."""
    parser = _Parser(prog="lmukws", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, (_, limit, help_text) in command.settings.items():
            if limit.kind is bool:
                kind = {"action": argparse.BooleanOptionalAction}
            else:
                kind = {"type": limit.kind}
            if limit.choices:
                kind["metavar"] = "{" + ",".join(map(str, limit.choices)) + "}"
            p.add_argument("--" + key.replace("_", "-"), help=help_text, **kind)
        p.add_argument("--config", help="key = value file merged under explicit flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = COMMANDS[args.cmd]
    try:
        return command.handler(resolve_config(args, command.settings))
    except UsageError as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 1
    except (DatasetError, WavFormatError, ModelFormatError, CoefficientError, FileNotFoundError) as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 2
    except (TrainingError, ValueError, ArithmeticError, OSError) as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
