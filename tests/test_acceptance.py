"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test prints a single pass/fail line (visible with -s; pytest -v shows
the same verdict per test), then asserts.  Tolerances here are contractual:
exact means exact.
"""

import dataclasses
import math

import numpy as np
import pytest

from lmukws.configs import REFERENCE_CONFIGS
from lmukws.fixedpoint import prune_magnitude
from lmukws.frontend import (
    FeatureConfig,
    StreamFeaturizer,
    build_dataset,
    featurize_utterance,
    generate_toy_dataset,
    materialize_features,
    which_set,
)
from lmukws.hwmodel import CoefficientTable, energy_per_frame_power, mcu_power, profile_workload, sweep
from lmukws.lmu import CellConfig, LayerConfig, MemoryCell, ModelConfig, build_model, decode_window
from lmukws.qmodel import (
    ActivationScales,
    QuantStreamState,
    calibrate_activation_scales,
    freeze,
    model_size_kbits,
    quantized_forward,
)
from lmukws.training import (
    TrainConfig,
    evaluate,
    forward_backward,
    hat_forward,
    majority_baseline,
    softmax_cross_entropy,
    train,
)

from stepwise import engine_steps, hat_steps


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict}  {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_config(rng) -> ModelConfig:
    n_layers = int(rng.integers(1, 3))
    layers = []
    for _ in range(n_layers):
        cells = tuple(
            CellConfig(order=int(rng.integers(2, 9)),
                       theta=float(rng.uniform(0.1, 0.5)))
            for _ in range(int(rng.integers(1, 3)))
        )
        layers.append(LayerConfig(hidden=int(rng.integers(4, 17)), cells=cells))
    return ModelConfig(input_dim=int(rng.integers(4, 13)), layers=tuple(layers))


def _calibrated(seed: int, weight_bits: int):
    rng = np.random.default_rng(seed)
    cfg = _random_config(rng)
    model = build_model(cfg, rng)
    for layer in model.layers:  # nonzero feedback and bias paths
        layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    calib = [rng.standard_normal((16, cfg.input_dim)) for _ in range(8)]
    scales = calibrate_activation_scales(model, calib)
    qm = freeze(model, weight_bits, scales)
    return cfg, model, scales, qm, rng


def test_criterion_1_hat_bit_exactness():
    # Deployed integer inference vs the training-time fake-quant graph:
    # identical logits and identical quantized u/m/h at every step, over
    # 1000 random sequences spread across 5 random model configs, each
    # config's 200 sequences run as one batch.
    sequences = 0
    mismatches = 0
    for k in range(5):
        weight_bits = 4 if k % 2 == 0 else 8
        cfg, model, scales, qm, rng = _calibrated(100 + k, weight_bits)
        feats = np.stack([rng.standard_normal((20, cfg.input_dim)) * rng.uniform(0.5, 2.0)
                          for _ in range(200)])
        engine, hat = engine_steps(qm, feats), hat_steps(model, scales, weight_bits, feats)
        same = np.ones(len(feats), dtype=bool)
        for name in hat:
            same &= (engine[name] == hat[name]).all(axis=(1, 2))
        sequences += len(feats)
        mismatches += int((~same).sum())
    _report(1, "HAT bit-exactness", sequences == 1000 and mismatches == 0,
            f"{sequences} sequences, {mismatches} mismatches (tolerance: exact)")


def test_criterion_2_streaming_equivalence():
    # Chunked stateful inference is bit-identical to one-shot for 100
    # random chunkings of the same sequence.
    cfg, model, scales, qm, rng = _calibrated(7, 8)
    feats = rng.standard_normal((60, cfg.input_dim))
    reference, _ = quantized_forward(qm, feats)
    bad = 0
    for trial in range(100):
        crng = np.random.default_rng(1000 + trial)
        cuts = sorted(crng.choice(np.arange(1, 60), size=int(crng.integers(0, 12)),
                                  replace=False).tolist())
        bounds = [0] + cuts + [60]
        state = QuantStreamState(qm)
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            logits, state = quantized_forward(qm, feats[lo:hi], state)
            parts.append(logits)
        if not np.array_equal(np.concatenate(parts, axis=0), reference):
            bad += 1
    _report(2, "streaming equivalence", bad == 0,
            f"100 chunkings, {bad} mismatches (tolerance: exact)")


def test_criterion_3_gradient_check():
    # Closed-form reverse mode vs central finite differences on the small
    # reference model: input 4, hidden 6, one order-4 cell, 10 steps.
    cfg = ModelConfig(
        input_dim=4,
        layers=(LayerConfig(hidden=6, cells=(CellConfig(4, 0.2),)),),
    )
    rng = np.random.default_rng(1)
    model = build_model(cfg, rng)
    for layer in model.layers:
        layer.hidden_encoder[:] = rng.uniform(-0.5, 0.5, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    feats = rng.standard_normal((3, 10, 4))
    labels = np.array([2, 7, 0])
    _, grads = forward_backward(model, (feats, labels))

    def loss_only():
        cache = hat_forward(model, feats)
        loss, _ = softmax_cross_entropy(cache.logits[:, -1], labels)
        return loss

    h = 1e-5
    worst = 0.0
    for name, w in model.trainable_tensors():
        g = grads[name]
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_only()
            w[idx] = orig - h
            dn = loss_only()
            w[idx] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8))
    _report(3, "gradient check", worst < 1e-4,
            f"max relative error {worst:.3e} (tolerance: < 1e-4)")


def _band_limited_noise(rng, n, dt, f_max=4.25, p=6):
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    freqs = np.fft.fftfreq(n, dt)
    spec *= np.exp(-((np.abs(freqs) / f_max) ** p))
    sig = np.fft.ifft(spec).real
    return sig / np.std(sig)


def _delay_nrmse(order, seed, theta=0.2, dt=0.02, n=3000, warmup=500):
    rng = np.random.default_rng(seed)
    u = _band_limited_noise(rng, n, dt)
    cell = MemoryCell(order, theta, dt)
    decoded = np.empty(n)
    for t in range(n):
        cell.step(u[t])
        decoded[t] = decode_window(cell, 1.0)
    delay = int(round(theta / dt))
    est = decoded[warmup:]
    ref = u[warmup - delay : n - delay]
    return np.sqrt(np.mean((est - ref) ** 2)) / np.sqrt(np.mean(ref**2))


def test_criterion_4_delay_decoding():
    # Reconstructing the theta-delayed input from the memory state: below
    # 0.15 NRMSE at order 8, and better with more coefficients on average.
    means = {}
    for order in (2, 4, 8):
        means[order] = float(np.mean([_delay_nrmse(order, s) for s in range(20)]))
    monotone = means[2] >= means[4] >= means[8]
    ok = means[8] < 0.15 and monotone
    _report(4, "delay decoding", ok,
            f"mean NRMSE d2={means[2]:.4f} d4={means[4]:.4f} d8={means[8]:.4f} "
            f"(d8 < 0.15, monotone over 20 seeds)")


def test_criterion_5_power_arithmetic():
    a = mcu_power(17.24e6, 12.26)
    b = mcu_power(17.24e6, 6.88)
    c = energy_per_frame_power(3.4, 50.0)
    ok = 211.0 <= a <= 212.0 and 118.0 <= b <= 119.0 and c == 170.0
    _report(5, "power arithmetic", ok,
            f"mcu(17.24M, 12.26)={a:.4f} in [211, 212]; "
            f"mcu(17.24M, 6.88)={b:.4f} in [118, 119]; "
            f"energy(3.4, 50)={c} == 170 exactly")


def test_criterion_6_size_metric():
    want = {"lmu1": 1683.0, "lmu2": 361.0, "lmu3": 105.0, "lmu4": 49.0}
    got = {}
    for name, target in want.items():
        cfg = REFERENCE_CONFIGS[name]
        model = build_model(cfg, np.random.default_rng(0))
        mask = (prune_magnitude(model, cfg.target_sparsity)
                if cfg.target_sparsity > 0.0 else None)
        scales = ActivationScales(
            input_exp=-6, layer_exps=tuple((-6, -6, -6) for _ in cfg.layers)
        )
        got[name] = model_size_kbits(freeze(model, cfg.weight_bits, scales, mask=mask))
    ok = got == want
    _report(6, "size metric", ok,
            "; ".join(f"{n}={got[n]} (want {want[n]})" for n in want)
            + " (tolerance: exact)")


def test_criterion_7_realtime_constraint():
    # 200-point clock x lanes grid: the realtime flag must equal the two
    # deadline checks recomputed from first principles, and the flagged
    # frontier must be mutually non-dominated.
    cfg = REFERENCE_CONFIGS["lmu2"]
    model = build_model(cfg, np.random.default_rng(0))
    zero = calibrate_activation_scales(model, np.zeros((1, 2, cfg.input_dim)))
    w = profile_workload(freeze(model, cfg.weight_bits, zero))
    coeffs = CoefficientTable()
    clocks = np.geomspace(1e4, 1e7, 25)
    lanes = [1, 2, 4, 8, 16, 32, 64, 128]
    records = sweep(w, clocks, lanes, coeffs)
    assert len(records) == 200
    flag_errors = 0
    for r in records:
        cycles = (math.ceil(w.macs_per_frame / r.lanes)
                  + math.ceil((w.read_bits_per_frame + w.write_bits_per_frame) / 4096)
                  + 64)
        throughput_ms = cycles / r.clock_hz * 1e3
        latency_ms = 2.0 * throughput_ms + coeffs.latency_residual_ms
        if r.realtime != (throughput_ms <= 20.0 and latency_ms <= 40.0):
            flag_errors += 1
    frontier = [r for r in records if r.pareto]
    dominated = 0
    for r in frontier:
        for o in frontier:
            if (o.total_uW <= r.total_uW and o.transistor_count <= r.transistor_count
                    and (o.total_uW < r.total_uW or o.transistor_count < r.transistor_count)):
                dominated += 1
    ok = flag_errors == 0 and dominated == 0 and len(frontier) > 0
    _report(7, "real-time constraint", ok,
            f"200 designs: {flag_errors} wrong realtime flags, "
            f"{len(frontier)} frontier rows, {dominated} dominated")


@pytest.fixture(scope="module")
def toy_features(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept") / "toy"
    generate_toy_dataset(root, keywords=("yes", "no"), unknown_words=("wow", "zero"),
                         speakers=30, takes=2, seed=0)
    manifest = build_dataset(root, ("yes", "no"), seed=0)
    assert len(manifest.entries) <= 2000
    return materialize_features(manifest, FeatureConfig())


def _train_cfg(ds, seed, steps, quant_on=None, weight_bits=4):
    model_cfg = ModelConfig(
        input_dim=40,
        layers=(LayerConfig(hidden=32, cells=(CellConfig(8, 0.2), CellConfig(8, 0.4))),),
        label_names=tuple(ds.label_names),
        weight_bits=weight_bits,
    )
    return TrainConfig(model=model_cfg, learning_rate=1e-2, batch_size=32,
                       steps=steps, quant_on_step=quant_on, seed=seed, log_every=5)


def test_criterion_8_desk_scale_training(toy_features):
    ds = toy_features
    ln12 = math.log(12.0)

    # (a) training loss reaches below ln(12) within 200 steps, >= 18/20 seeds
    reached = 0
    for seed in range(20):
        result = train(_train_cfg(ds, seed, steps=100), ds)
        if min(row["loss"] for row in result.log) < ln12:
            reached += 1

    # (b) float accuracy clears the majority baseline by >= 20 points
    float_run = train(_train_cfg(ds, 0, steps=200), ds)
    float_acc = evaluate(float_run.model, ds.val_x, ds.val_y)
    baseline = majority_baseline(ds.val_y)

    # (c) deployed 4-bit HAT accuracy within 5 points of float accuracy
    hat_run = train(_train_cfg(ds, 0, steps=200, quant_on=100), ds)
    hat_acc = evaluate(hat_run.quantized, ds.val_x, ds.val_y)

    ok = reached >= 18 and float_acc >= baseline + 0.20 and abs(hat_acc - float_acc) <= 0.05
    _report(8, "desk-scale training", ok,
            f"loss<ln(12) in {reached}/20 seeds (need >= 18); "
            f"float {float_acc:.3f} vs baseline {baseline:.3f} (need +0.20); "
            f"4-bit HAT {hat_acc:.3f} within 0.05 of float")


def test_criterion_9_frontend():
    config = FeatureConfig()
    rng = np.random.default_rng(5)
    clip = rng.standard_normal(16000) * 0.1
    frames = featurize_utterance(clip, config)
    frames_ok = frames.shape == (49, config.mel_bins)

    streamer = StreamFeaturizer(config)
    collected = []
    start = 0
    while start < clip.size:
        step = int(rng.integers(1, 700))
        collected.extend(streamer.push(clip[start:start + step]))
        start += step
    stream_ok = np.array_equal(np.stack(collected), frames)

    counts = {"train": 0, "val": 0, "test": 0}
    for i in range(20000):
        counts[which_set(f"speaker{i:05d}_nohash_0.wav")] += 1
    fr = {k: v / 20000 for k, v in counts.items()}
    split_ok = (abs(fr["train"] - 0.80) <= 0.015 and abs(fr["val"] - 0.10) <= 0.015
                and abs(fr["test"] - 0.10) <= 0.015)

    ok = frames_ok and stream_ok and split_ok
    _report(9, "frontend", ok,
            f"49-frame clip: {frames_ok}; streaming bit-exact: {stream_ok}; "
            f"split {fr['train']:.3f}/{fr['val']:.3f}/{fr['test']:.3f} within ±0.015")
