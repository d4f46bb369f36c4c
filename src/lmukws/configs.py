"""Shipped model presets.

Four sized presets span the accuracy/size trade-off: two dense models (one
8-bit, one 4-bit) and two aggressively pruned 4-bit models.  Hidden widths
were chosen so the kbits size metric lands on round targets (1683 / 361 /
105 / 49 kbits); cells within a layer use a ladder of window lengths so the
memory covers multiple timescales of a one-second utterance.  A small "toy"
preset exists for smoke tests and the bundled synthetic dataset.

Settings and coefficients are read from ``key = value`` text files by the
one reader here, ``read_key_values``.
"""

from __future__ import annotations

from pathlib import Path

from .frontend import FeatureConfig
from .lmu import CellConfig, LayerConfig, ModelConfig

THETA_LADDER = (0.1, 0.2, 0.4, 0.8)


def _ladder(order: int) -> tuple:
    return tuple(CellConfig(order=order, theta=t) for t in THETA_LADDER)


def _preset(hidden, cells, weight_bits, target_sparsity=0.0) -> ModelConfig:
    """One layer per hidden width, each with ``cells``, over the frontend's features."""
    return ModelConfig(
        input_dim=FeatureConfig.mel_bins,
        layers=tuple(LayerConfig(hidden=h, cells=cells) for h in hidden),
        weight_bits=weight_bits,
        target_sparsity=target_sparsity,
    )


REFERENCE_CONFIGS = {
    # dense 8-bit: 210375 parameters -> 1683.0 kbits
    "lmu1": _preset((387, 382), _ladder(12), weight_bits=8),
    # dense 4-bit: 90250 parameters -> 361.0 kbits
    "lmu2": _preset((210, 228), _ladder(16), weight_bits=4),
    # 4-bit, 80% pruned: 131250 -> 26250 kept -> 105.0 kbits
    "lmu3": _preset((218, 356), _ladder(16), weight_bits=4, target_sparsity=0.80),
    # 4-bit, 91% pruned: 136111 -> 12250 kept -> 49.0 kbits
    "lmu4": _preset((307, 312), _ladder(8), weight_bits=4, target_sparsity=0.91),
    # small single-layer model for demos and the synthetic dataset
    "toy": _preset((32,), (CellConfig(order=8, theta=0.2), CellConfig(order=8, theta=0.4)),
                   weight_bits=4),
}

REFERENCE_NAMES = tuple(REFERENCE_CONFIGS)


def reference_config(name: str) -> ModelConfig:
    try:
        return REFERENCE_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown model preset {name!r}; choose from {', '.join(REFERENCE_NAMES)}"
        ) from None


def read_key_values(path, what: str, error: type, rename=lambda key: key):
    """Yield (line number, key, value text) for each ``key = value`` line of
    the UTF-8 text file ``path``: ``#`` starts a comment, blank lines are
    skipped, and each key is passed through ``rename`` before it is checked.

    Raises ``error`` for a file that cannot be read (naming it ``what``), a
    line without ``=`` and a key set twice; the caller checks the keys and
    values it is given.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} {path}: {e}") from None
    seen = set()
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = rename(key)
        if key in seen:
            raise error(f"{path}:{ln}: {key} is set twice")
        seen.add(key)
        yield ln, key, value
