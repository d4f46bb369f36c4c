"""Command-line surface for the keyword-spotting pipeline.

Subcommands: fetch-data, train, eval, stream, size-report, hw-report,
hw-sweep.  Every subcommand accepts --config (a "key = value" text file
merged under explicit flags), --seed, and --out-dir; the fully resolved
configuration is written next to the run's outputs so results are
reproducible from the artifacts alone.

Exit codes: 0 success, 1 usage error, 2 data/artifact error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import tarfile
import urllib.request
from collections import deque
from pathlib import Path

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
    generate_toy_dataset,
    load_feature_config,
    load_wav,
    materialize_features,
    save_feature_config,
)
from .hwmodel import (
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
from .fixedpoint import prune_magnitude
from .modelfile import ModelFormatError, load_model, save_model
from .qmodel import (
    QuantStreamState,
    calibrate_activation_scales,
    freeze,
    model_size_kbits,
    quantized_forward,
)
from .training import TrainConfig, TrainingError, evaluate, majority_baseline, train

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
# RunConfig: defaults < config file < explicit flags
# ---------------------------------------------------------------------------

def _coerce(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _read_config_file(path) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = _coerce(val)
    return values


def resolve_config(args, defaults: dict) -> dict:
    """Merge run settings; reject unknown config-file keys."""
    resolved = dict(defaults)
    if args.config is not None:
        file_vals = _read_config_file(args.config)
        unknown = sorted(set(file_vals) - set(defaults))
        if unknown:
            raise UsageError(
                f"unknown config keys for '{args.cmd}': {', '.join(unknown)}"
            )
        resolved.update(file_vals)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _write_resolved(cfg: dict, out_dir: Path, cmd: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# resolved configuration for '{cmd}'"]
    lines += [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    (out_dir / "resolved-config.txt").write_text("\n".join(lines) + "\n")


def _out_dir(cfg: dict, cmd: str) -> Path:
    base = cfg.get("out_dir")
    return Path(base) if base else Path("runs") / cmd


def _words(text) -> tuple:
    items = tuple(w.strip() for w in str(text).split(",") if w.strip())
    if not items:
        raise UsageError("expected a comma-separated word list")
    return items


def _positive_int_list(text) -> tuple:
    try:
        items = tuple(int(v) for v in str(text).split(",") if v.strip())
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not items or any(v < 1 for v in items):
        raise UsageError("lane counts must be positive integers")
    return items


def _coefficients(cfg: dict) -> CoefficientTable:
    path = cfg.get("coefficients")
    return CoefficientTable.from_file(path) if path else CoefficientTable.default()


def _load_model_checked(path) -> "QuantizedModel":
    if not Path(path).exists():
        raise DatasetError(f"model file not found: {path}")
    return load_model(path)


def _quantized_model(cfg: dict):
    """--model loaded, or else --model-preset frozen from seeded random weights."""
    if cfg["model"]:
        return _load_model_checked(cfg["model"])
    model_cfg = reference_config(str(cfg["model_preset"]))
    model = build_model(model_cfg, np.random.default_rng(int(cfg["seed"])))
    mask = (prune_magnitude(model, model_cfg.target_sparsity)
            if model_cfg.target_sparsity > 0.0 else None)
    zero = calibrate_activation_scales(model, np.zeros((1, 2, model_cfg.input_dim)))
    return freeze(model, model_cfg.weight_bits, zero, mask=mask)


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# fetch-data
# ---------------------------------------------------------------------------

FETCH_DEFAULTS = {
    "root": "data/speech_commands",
    "url": DATA_URL,
    "checksum": DATA_SHA256,
    "toy": False,
    "keywords": "yes,no",
    "unknown_words": "wow,zero",
    "speakers": 40,
    "takes": 3,
    "seed": 0,
    "out_dir": None,
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
    root = Path(cfg["root"])
    marker = root / COMPLETE_MARKER
    if marker.exists():
        print(f"dataset at {root} already complete; nothing to do")
        return 0
    if cfg["toy"]:
        generate_toy_dataset(
            root,
            keywords=_words(cfg["keywords"]),
            unknown_words=_words(cfg["unknown_words"]),
            speakers=int(cfg["speakers"]),
            takes=int(cfg["takes"]),
            seed=int(cfg["seed"]),
        )
        marker.write_text("toy\n")
        print(f"generated synthetic dataset under {root}")
        return 0
    root.mkdir(parents=True, exist_ok=True)
    archive = root / Path(str(cfg["url"])).name
    if not archive.exists():
        print(f"downloading {cfg['url']}")
        try:
            urllib.request.urlretrieve(cfg["url"], archive)
        except Exception as e:
            archive.unlink(missing_ok=True)
            raise DatasetError(f"download failed: {e}") from None
    if cfg["checksum"]:
        actual = _sha256_file(archive)
        if actual != str(cfg["checksum"]).lower():
            archive.unlink()
            raise DatasetError(
                f"checksum mismatch for {archive.name}: got {actual}; partial file removed"
            )
    keywords = _words(cfg["keywords"]) if cfg["keywords"] else None
    n = _extract_archive(archive, root, keywords)
    marker.write_text(f"extracted {n} entries\n")
    print(f"extracted {n} entries into {root}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "data_root": "data/speech_commands",
    "keywords": "yes,no",
    "model_preset": "toy",
    "steps": 200,
    "batch_size": 32,
    "learning_rate": 1e-2,
    "weight_bits": None,
    "target_sparsity": None,
    "hat": True,
    "quant_on_step": None,
    "prune_start": None,
    "prune_end": None,
    "calibration_sequences": 256,
    "resume": None,
    "log_every": 20,
    "seed": 0,
    "out_dir": None,
}


def _dataset(cfg: dict):
    root = Path(cfg["data_root"])
    if not root.is_dir():
        raise DatasetError(f"dataset root not found: {root} (run fetch-data first)")
    manifest = build_dataset(root, _words(cfg["keywords"]), seed=int(cfg["seed"]))
    return materialize_features(manifest, FeatureConfig())


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg, "train")
    out.mkdir(parents=True, exist_ok=True)
    ds = _dataset(cfg)
    model_cfg = reference_config(str(cfg["model_preset"]))
    overrides = {"label_names": tuple(ds.label_names)}
    if cfg["weight_bits"] is not None:
        overrides["weight_bits"] = int(cfg["weight_bits"])
    if cfg["target_sparsity"] is not None:
        overrides["target_sparsity"] = float(cfg["target_sparsity"])
    model_cfg = dataclasses.replace(model_cfg, **overrides)

    steps = int(cfg["steps"])
    quant_on = None
    if cfg["hat"]:
        quant_on = int(cfg["quant_on_step"]) if cfg["quant_on_step"] is not None else steps // 2
    prune_start, prune_end = cfg["prune_start"], cfg["prune_end"]
    if model_cfg.target_sparsity > 0.0 and prune_start is None and prune_end is None:
        prune_start, prune_end = steps // 4, (3 * steps) // 4

    train_cfg = TrainConfig(
        model=model_cfg,
        learning_rate=float(cfg["learning_rate"]),
        batch_size=int(cfg["batch_size"]),
        steps=steps,
        quant_on_step=quant_on,
        prune_start=None if prune_start is None else int(prune_start),
        prune_end=None if prune_end is None else int(prune_end),
        target_sparsity=model_cfg.target_sparsity,
        calibration_sequences=int(cfg["calibration_sequences"]),
        seed=int(cfg["seed"]),
        log_every=int(cfg["log_every"]),
    )

    init_tensors = None
    if cfg["resume"]:
        ckpt = Path(cfg["resume"])
        if not ckpt.exists():
            raise DatasetError(f"checkpoint not found: {ckpt}")
        with np.load(ckpt) as z:
            init_tensors = {k: z[k] for k in z.files}
        print(f"resuming from {ckpt}")

    result = train(train_cfg, ds, init_tensors=init_tensors)

    qm = result.quantized
    if qm is None:  # float-only run: calibrate and freeze after the fact
        take = min(train_cfg.calibration_sequences, ds.train_x.shape[0])
        scales = calibrate_activation_scales(result.model, ds.train_x[:take])
        qm = freeze(result.model, model_cfg.weight_bits, scales,
                    mask=result.mask, frontend_hash=ds.frontend_hash)

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
    nonzero = int(sum(m.sum() for m in qm.keep_masks.values())) if qm.keep_masks else total
    val_float = evaluate(result.model, ds.val_x, ds.val_y)
    val_int = evaluate(qm, ds.val_x, ds.val_y)
    print(f"final loss {result.final_loss:.4f}")
    print(f"size: {total} params, {nonzero} nonzero, "
          f"{qm.weight_bits}-bit weights, {kbits:.1f} kbits")
    print(f"val accuracy: float {val_float:.4f}, deployed {val_int:.4f} "
          f"(majority baseline {majority_baseline(ds.val_y):.4f})")
    print(f"wrote {model_path}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_DEFAULTS = {
    "model": "runs/train/model.lmuq",
    "data_root": "data/speech_commands",
    "keywords": "yes,no",
    "split": "test",
    "mode": "offline",
    "seed": 0,
    "out_dir": None,
}


def cmd_eval(cfg: dict) -> int:
    qm = _load_model_checked(cfg["model"])
    ds = _dataset(cfg)
    if ds.frontend_hash != qm.frontend_hash:
        raise DatasetError(
            "feature configuration mismatch: this model was trained with a "
            "different frontend (check keywords/data-root/seed)"
        )
    split = str(cfg["split"])
    try:
        x, y = {"train": (ds.train_x, ds.train_y),
                "val": (ds.val_x, ds.val_y),
                "test": (ds.test_x, ds.test_y)}[split]
    except KeyError:
        raise UsageError(f"unknown split {split!r}") from None
    if x.shape[0] == 0:
        raise DatasetError(f"split {split!r} is empty")

    offline = evaluate(qm, x, y)
    lines = [f"split {split}: {x.shape[0]} utterances",
             f"offline accuracy  {offline:.4f}"]
    if str(cfg["mode"]) == "streaming":
        correct = 0
        for i in range(x.shape[0]):
            state = QuantStreamState(qm)
            logits = None
            for t in range(x.shape[1]):  # one 20 ms hop at a time
                logits, state = quantized_forward(qm, x[i, t][None, :], state)
            correct += int(np.argmax(logits[-1]) == y[i])
        lines.append(f"streaming accuracy {correct / x.shape[0]:.4f}")
    lines.append(f"majority baseline {majority_baseline(y):.4f}")
    out = _out_dir(cfg, "eval")
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval-report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

STREAM_DEFAULTS = {
    "model": "runs/train/model.lmuq",
    "frontend": None,
    "wav": None,
    "smooth": 5,
    "threshold": 0.7,
    "refractory": 10,
    "chunk_samples": 320,
    "seed": 0,
    "out_dir": None,
}


def cmd_stream(cfg: dict) -> int:
    if not cfg["wav"]:
        raise UsageError("stream requires --wav")
    qm = _load_model_checked(cfg["model"])
    frontend_path = Path(cfg["frontend"]) if cfg["frontend"] else Path(cfg["model"]).parent / "frontend.npz"
    if not frontend_path.exists():
        raise DatasetError(f"frontend sidecar not found: {frontend_path}")
    feat_cfg = load_feature_config(frontend_path)
    if feat_cfg.config_hash() != qm.frontend_hash:
        raise DatasetError(
            f"frontend sidecar {frontend_path} does not match the model's "
            "feature configuration"
        )
    samples = load_wav(cfg["wav"], expected_rate=feat_cfg.sample_rate)

    featurizer = StreamFeaturizer(feat_cfg)
    state = QuantStreamState(qm)
    smooth = int(cfg["smooth"])
    threshold = float(cfg["threshold"])
    refractory = int(cfg["refractory"])
    if smooth < 1 or refractory < 0 or not 0.0 < threshold <= 1.0:
        raise UsageError("smooth >= 1, refractory >= 0, 0 < threshold <= 1")

    recent = deque(maxlen=smooth)
    hop_s = feat_cfg.hop_samples / feat_cfg.sample_rate
    chunk = int(cfg["chunk_samples"])
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

    out = _out_dir(cfg, "stream")
    out.mkdir(parents=True, exist_ok=True)
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

SIZE_DEFAULTS = {
    "model": None,
    "model_preset": None,
    "seed": 0,
    "out_dir": None,
}


def cmd_size_report(cfg: dict) -> int:
    if bool(cfg["model"]) == bool(cfg["model_preset"]):
        raise UsageError("give exactly one of --model / --model-preset")
    name = Path(cfg["model"]).name if cfg["model"] else str(cfg["model_preset"])
    qm = _quantized_model(cfg)
    total = sum(qt.q.size for _, qt in qm.weight_tensor_items())
    nonzero = (int(sum(m.sum() for m in qm.keep_masks.values()))
               if qm.keep_masks else total)
    sparsity = 1.0 - nonzero / total
    kbits = model_size_kbits(qm)
    header = f"{'model':<12}{'params':>10}{'nonzero':>10}{'sparsity':>10}{'bits':>6}{'kbits':>10}"
    row = f"{name:<12}{total:>10}{nonzero:>10}{sparsity:>10.2%}{qm.weight_bits:>6}{kbits:>10.1f}"
    print(header)
    print(row)
    return 0


# ---------------------------------------------------------------------------
# hw-report and hw-sweep
# ---------------------------------------------------------------------------

HW_REPORT_DEFAULTS = {
    "model": None,
    "model_preset": "lmu2",
    "coefficients": None,
    "clock_hz": 92000.0,
    "lanes": 128,
    "sram_width_bits": 4096,
    "overhead_cycles": 64,
    "mcu_cycles_per_s": 17.24e6,
    "seed": 0,
    "out_dir": None,
}


def cmd_hw_report(cfg: dict) -> int:
    w = profile_workload(_quantized_model(cfg))
    coeffs = _coefficients(cfg)
    dp = DesignPoint(
        clock_hz=float(cfg["clock_hz"]),
        lanes=int(cfg["lanes"]),
        sram_width_bits=int(cfg["sram_width_bits"]),
        overhead_cycles=int(cfg["overhead_cycles"]),
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
    out = _out_dir(cfg, "hw-report")
    out.mkdir(parents=True, exist_ok=True)
    (out / "hw-report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


HW_SWEEP_DEFAULTS = {
    "model": None,
    "model_preset": "lmu2",
    "coefficients": None,
    "clock_min": 1e4,
    "clock_max": 1e7,
    "clock_points": 25,
    "lanes": "1,2,4,8,16,32,64,128,256,512",
    "sram_width_bits": 4096,
    "overhead_cycles": 64,
    "seed": 0,
    "out_dir": None,
}


def cmd_hw_sweep(cfg: dict) -> int:
    w = profile_workload(_quantized_model(cfg))
    coeffs = _coefficients(cfg)
    if float(cfg["clock_min"]) <= 0 or float(cfg["clock_max"]) < float(cfg["clock_min"]):
        raise UsageError("need 0 < clock-min <= clock-max")
    clocks = np.geomspace(float(cfg["clock_min"]), float(cfg["clock_max"]),
                          int(cfg["clock_points"]))
    records = sweep(w, clocks, _positive_int_list(cfg["lanes"]), coeffs,
                    sram_width_bits=int(cfg["sram_width_bits"]),
                    overhead_cycles=int(cfg["overhead_cycles"]))
    out = _out_dir(cfg, "hw-sweep")
    out.mkdir(parents=True, exist_ok=True)
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
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key = value file merged under explicit flags")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out-dir", dest="out_dir")


def build_parser() -> _Parser:
    parser = _Parser(prog="lmukws", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    bool_act = argparse.BooleanOptionalAction

    p = sub.add_parser("fetch-data", help="download or synthesize the dataset")
    p.add_argument("--root")
    p.add_argument("--url")
    p.add_argument("--checksum")
    p.add_argument("--toy", action=bool_act, help="generate a synthetic corpus instead of downloading")
    p.add_argument("--keywords")
    p.add_argument("--unknown-words", dest="unknown_words")
    p.add_argument("--speakers", type=int)
    p.add_argument("--takes", type=int)
    _add_common(p)

    p = sub.add_parser("train", help="train, quantize, prune, and export a model")
    p.add_argument("--data-root", dest="data_root")
    p.add_argument("--keywords")
    p.add_argument("--model-preset", dest="model_preset", choices=REFERENCE_NAMES)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-bits", dest="weight_bits", type=int, choices=(4, 8))
    p.add_argument("--target-sparsity", dest="target_sparsity", type=float)
    p.add_argument("--hat", action=bool_act, help="train against the deployed integer arithmetic")
    p.add_argument("--quant-on-step", dest="quant_on_step", type=int)
    p.add_argument("--prune-start", dest="prune_start", type=int)
    p.add_argument("--prune-end", dest="prune_end", type=int)
    p.add_argument("--calibration-sequences", dest="calibration_sequences", type=int)
    p.add_argument("--resume", help="checkpoint.npz to initialize weights from")
    p.add_argument("--log-every", dest="log_every", type=int)
    _add_common(p)

    p = sub.add_parser("eval", help="accuracy of a trained model on a split")
    p.add_argument("--model")
    p.add_argument("--data-root", dest="data_root")
    p.add_argument("--keywords")
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--mode", choices=("offline", "streaming"))
    _add_common(p)

    p = sub.add_parser("stream", help="run hop-by-hop detection over a wav file")
    p.add_argument("--model")
    p.add_argument("--frontend", help="frontend.npz sidecar (default: next to the model)")
    p.add_argument("--wav")
    p.add_argument("--smooth", type=int, help="posterior moving-average window in hops")
    p.add_argument("--threshold", type=float)
    p.add_argument("--refractory", type=int, help="hops to suppress after a detection")
    p.add_argument("--chunk-samples", dest="chunk_samples", type=int)
    _add_common(p)

    p = sub.add_parser("size-report", help="parameter/kbits summary of a model")
    p.add_argument("--model")
    p.add_argument("--model-preset", dest="model_preset", choices=REFERENCE_NAMES)
    _add_common(p)

    p = sub.add_parser("hw-report", help="power/area estimate for one design point")
    p.add_argument("--model")
    p.add_argument("--model-preset", dest="model_preset", choices=REFERENCE_NAMES)
    p.add_argument("--coefficients", help="coefficient table file (default: shipped)")
    p.add_argument("--clock-hz", dest="clock_hz", type=float)
    p.add_argument("--lanes", type=int)
    p.add_argument("--sram-width-bits", dest="sram_width_bits", type=int)
    p.add_argument("--overhead-cycles", dest="overhead_cycles", type=int)
    p.add_argument("--mcu-cycles-per-s", dest="mcu_cycles_per_s", type=float)
    _add_common(p)

    p = sub.add_parser("hw-sweep", help="clock x lanes design-space sweep to CSV")
    p.add_argument("--model")
    p.add_argument("--model-preset", dest="model_preset", choices=REFERENCE_NAMES)
    p.add_argument("--coefficients")
    p.add_argument("--clock-min", dest="clock_min", type=float)
    p.add_argument("--clock-max", dest="clock_max", type=float)
    p.add_argument("--clock-points", dest="clock_points", type=int)
    p.add_argument("--lanes")
    p.add_argument("--sram-width-bits", dest="sram_width_bits", type=int)
    p.add_argument("--overhead-cycles", dest="overhead_cycles", type=int)
    _add_common(p)

    return parser


_HANDLERS = {
    "fetch-data": (cmd_fetch_data, FETCH_DEFAULTS),
    "train": (cmd_train, TRAIN_DEFAULTS),
    "eval": (cmd_eval, EVAL_DEFAULTS),
    "stream": (cmd_stream, STREAM_DEFAULTS),
    "size-report": (cmd_size_report, SIZE_DEFAULTS),
    "hw-report": (cmd_hw_report, HW_REPORT_DEFAULTS),
    "hw-sweep": (cmd_hw_sweep, HW_SWEEP_DEFAULTS),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler, defaults = _HANDLERS[args.cmd]
    try:
        cfg = resolve_config(args, defaults)
        _write_resolved(cfg, _out_dir(cfg, args.cmd), args.cmd)
        return handler(cfg)
    except UsageError as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 1
    except (DatasetError, WavFormatError, ModelFormatError, FileNotFoundError) as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 2
    except (TrainingError, ValueError, ArithmeticError, OSError) as e:
        print(f"lmukws {args.cmd}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
