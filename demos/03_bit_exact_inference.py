"""Training graph vs deployed integers: the same bits, provably.

The training forward pass fake-quantizes weights and activations onto the
exact power-of-two grids the integer engine uses.  Because every product
and sum stays inside float64's exact-integer range, the two
implementations are not merely close -- they are equal, integer for
integer, at every timestep.

This script builds a random model, calibrates activation scales, freezes
the integer model, and then diffs every intermediate (the cell inputs u,
memory states m, hidden activations h) plus the logits across the two
paths.  It also round-trips the deployable model file.  It exits 1 if any
integer differs.

Run: python demos/03_bit_exact_inference.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from lmukws.lmu import CellConfig, LayerConfig, ModelConfig, build_model
from lmukws.modelfile import load_model, save_model
from lmukws.qmodel import QuantStreamState, calibrate_activation_scales, freeze, quantized_forward
from lmukws.training import hat_forward

CONFIG = ModelConfig(
    input_dim=8,
    layers=(
        LayerConfig(hidden=12, cells=(CellConfig(6, 0.2), CellConfig(6, 0.4))),
        LayerConfig(hidden=10, cells=(CellConfig(8, 0.3),)),
    ),
    weight_bits=4,
)


def main():
    rng = np.random.default_rng(42)
    model = build_model(CONFIG, rng)
    for layer in model.layers:
        layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)

    # 1. calibrate: activation grids come from observed float ranges
    calib = [rng.standard_normal((25, 8)) for _ in range(8)]
    scales = calibrate_activation_scales(model, calib)
    print("calibrated activation scale exponents:")
    print(f"  input 2^{scales.input_exp}")
    for i, (u_e, m_e, h_e) in enumerate(scales.layer_exps):
        print(f"  layer {i}: u 2^{u_e}, m 2^{m_e}, h 2^{h_e}")

    # 2. freeze: weights quantized, worst-case accumulators proven safe
    qm = freeze(model, CONFIG.weight_bits, scales)

    # 3. diff the two implementations over 50 fresh sequences, as one batch:
    # the engine stepped one hop at a time, its u, m and h read from each
    # layer's operand row, against the training graph's values divided by
    # their grid steps
    feats = np.stack([rng.standard_normal((30, 8)) * rng.uniform(0.5, 2.0) for _ in range(50)])
    cache = hat_forward(model, feats, quant_on=True, scales=scales,
                        weight_bits=CONFIG.weight_bits)
    same = np.ones(len(feats), dtype=bool)
    state = QuantStreamState(qm, (len(feats),))
    for t in range(feats.shape[1]):
        logits, state = quantized_forward(qm, feats[:, t : t + 1], state)
        hat_logits = np.rint(cache.logits[:, t] / 2.0**cache.logits_exp)
        same &= (logits[:, 0] == hat_logits).all(axis=1)
        for row, lc, exps in zip(state.rows, cache.layers, scales.layer_exps):
            for site, exp in zip("umh", exps):
                hat = np.rint(getattr(lc, site)[:, t] / 2.0**exp)
                same &= (getattr(row, site) == hat).all(axis=1)
    mismatched = int((~same).sum())
    print(f"\n{len(feats)} random sequences diffed at full intermediate depth: "
          f"{mismatched} mismatches")

    # 4. the serialized model preserves the arithmetic exactly
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lmuq"
        save_model(qm, path)
        reloaded = load_model(path)
        feats = rng.standard_normal((40, 8))
        a, _ = quantized_forward(qm, feats)
        b, _ = quantized_forward(reloaded, feats)
        reloaded_same = np.array_equal(a, b)
        print(f"saved model is {path.stat().st_size} bytes; "
              f"reloaded logits identical: {reloaded_same}")
    if mismatched or not reloaded_same:
        return 1

    print("\naccuracy measured on this training graph IS deployed accuracy --")
    print("there is no quantization gap left to discover on the device.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
