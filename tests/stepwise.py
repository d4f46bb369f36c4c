"""Per-step integers of the two implementations the bit-exactness tests diff.

Both functions return {name: int64 array of shape (..., T, width)} with the
same names: "logits", then "layer{i}.u", "layer{i}.m" and "layer{i}.h" per
layer, each on its site's integer grid.
"""

import numpy as np

from lmukws.qmodel import QuantStreamState, quantized_forward
from lmukws.training import hat_forward

SITES = ("u", "m", "h")


def engine_steps(qm, feats):
    """The integer engine stepped hop by hop over feats (..., T, n) on one
    state, with each layer's u, m and h read from its operand row."""
    state = QuantStreamState(qm, feats.shape[:-2])
    steps = {"logits": []}
    for t in range(feats.shape[-2]):
        logits, state = quantized_forward(qm, feats[..., t : t + 1, :], state)
        steps["logits"].append(logits)
        for i, row in enumerate(state.rows):
            for site in SITES:
                steps.setdefault(f"layer{i}.{site}", []).append(
                    getattr(row, site)[..., None, :].astype(np.int64))
    return {name: np.concatenate(parts, axis=-2) for name, parts in steps.items()}


def hat_steps(model, scales, weight_bits, feats):
    """The quantization-aware training graph over feats (B, T, n), each site
    divided by its grid step."""
    cache = hat_forward(model, feats, quant_on=True, scales=scales, weight_bits=weight_bits)
    steps = {"logits": np.rint(cache.logits / 2.0**cache.logits_exp).astype(np.int64)}
    for i, (lc, exps) in enumerate(zip(cache.layers, scales.layer_exps)):
        for site, exp in zip(SITES, exps):
            steps[f"layer{i}.{site}"] = np.rint(getattr(lc, site) / 2.0**exp).astype(np.int64)
    return steps
