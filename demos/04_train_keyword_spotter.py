"""Train a tiny keyword spotter end to end, on synthetic audio, in seconds.

The pipeline: synthesize a small labeled corpus (tone-burst "words" with
per-speaker pitch jitter, real silence/unknown handling, hash-based
speaker splits), extract log-mel features, train in float, switch the
graph to deployment arithmetic mid-run (hardware-aware training), ramp in
magnitude pruning, and freeze an integer model.

The printed deployed accuracy is exact: the frozen model's integers are
the ones the training graph produced.

Run: python demos/04_train_keyword_spotter.py
"""

import tempfile
from pathlib import Path

import numpy as np

from lmukws.frontend import (
    FeatureConfig,
    build_dataset,
    generate_toy_dataset,
    materialize_features,
)
from lmukws.lmu import CellConfig, LayerConfig, ModelConfig
from lmukws.qmodel import model_size_kbits
from lmukws.training import TrainConfig, evaluate, majority_baseline, train

STEPS = 200


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "toy"
        print("synthesizing corpus ...")
        generate_toy_dataset(root, keywords=("yes", "no"), speakers=30, takes=2, seed=0)
        manifest = build_dataset(root, ("yes", "no"), seed=0)
        splits = {s: sum(1 for e in manifest.entries if e.split == s)
                  for s in ("train", "val", "test")}
        print(f"manifest: {splits} clips, labels {manifest.label_names[:2]} + "
              "silence/unknown")

        print("extracting log-mel features (40 bins, 20 ms hops) ...")
        ds = materialize_features(manifest, FeatureConfig())

    model_cfg = ModelConfig(
        input_dim=40,
        layers=(LayerConfig(hidden=32,
                            cells=(CellConfig(8, 0.2), CellConfig(8, 0.4))),),
        label_names=tuple(ds.label_names),
        weight_bits=4,
        target_sparsity=0.5,
    )
    cfg = TrainConfig(
        model=model_cfg,
        steps=STEPS,
        quant_on_step=STEPS // 2,   # second half trains against integer math
        prune_start=STEPS // 4,
        prune_end=(3 * STEPS) // 4,  # cubic sparsity ramp to 50%
        target_sparsity=0.5,
        seed=0,
        log_every=25,
    )
    print(f"\ntraining {STEPS} steps "
          f"(float -> 4-bit HAT at step {cfg.quant_on_step}, "
          f"pruning ramp steps {cfg.prune_start}-{cfg.prune_end}) ...")
    result = train(cfg, ds)
    for row in result.log:
        tag = "int " if row["quant_on"] else "float"
        print(f"  step {row['step']:>3} [{tag}] loss {row['loss']:.4f} "
              f"sparsity {row['sparsity']:.0%}")

    qm = result.quantized
    baseline = majority_baseline(ds.val_y)
    val_float = evaluate(result.model, ds.val_x, ds.val_y)
    val_int = evaluate(qm, ds.val_x, ds.val_y)
    kept = int(sum(m.sum() for m in qm.keep_masks.values()))
    total = result.model.parameter_count()
    print(f"\nmodel: {total} parameters, {kept} kept after pruning, "
          f"{qm.weight_bits}-bit weights -> {model_size_kbits(qm):.1f} kbits")
    print(f"validation accuracy: float {val_float:.3f} | deployed {val_int:.3f} "
          f"| majority baseline {baseline:.3f}")


if __name__ == "__main__":
    main()
