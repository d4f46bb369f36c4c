"""Fixed-point primitives: power-of-two quantization, integer kernels, pruning.

All quantization is symmetric two's complement with power-of-two scales
(real = int * 2**scale_exp), so every requantization is a pure shift, and
rounding is round-half-even throughout.  Integer payloads are kept as int64
numpy arrays in memory; the 32-bit accumulator constraint of the target
hardware is enforced by explicit bound checks, not by the dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATION_BITS = 7
ACCUMULATOR_BITS = 32
WEIGHT_BIT_CHOICES = (4, 8)

# Largest dot-product length that can never overflow a 32-bit accumulator
# with 7-bit activations and 8-bit weights: 2^(32-1-6-7).
MAX_FAN_IN = 2 ** (ACCUMULATOR_BITS - 1 - (ACTIVATION_BITS - 1) - (8 - 1))


@dataclass(frozen=True)
class QuantSpec:
    """Width and scale of a fixed-point format: real = int * 2**scale_exp."""

    bits: int
    scale_exp: int
    signed: bool = True

    def __post_init__(self):
        if self.bits not in (4, 7, 8, 32):
            raise ValueError(f"unsupported width {self.bits}; use 4, 7, 8, or 32")
        if not self.signed:
            raise ValueError("only signed two's complement formats are supported")

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def step(self) -> float:
        return 2.0**self.scale_exp


@dataclass
class QuantTensor:
    """Integer payload plus the QuantSpec giving it meaning."""

    q: np.ndarray
    spec: QuantSpec

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.int64)
        if self.q.size and (self.q.min() < self.spec.qmin or self.q.max() > self.spec.qmax):
            raise ValueError(f"payload exceeds {self.spec.bits}-bit range")

    @property
    def shape(self):
        return self.q.shape

    def dequantize(self) -> np.ndarray:
        return self.q.astype(np.float64) * self.spec.step


def quantize(x: np.ndarray, spec: QuantSpec) -> QuantTensor:
    """Round x onto the spec's grid, saturating at the range edges."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    q = np.clip(np.rint(x / spec.step), spec.qmin, spec.qmax).astype(np.int64)
    return QuantTensor(q=q, spec=spec)


def fake_quant(x: np.ndarray, spec: QuantSpec):
    """Quantize-dequantize for training graphs, with the straight-through mask.

    Returns (y, pass_mask): y is x snapped to the grid (saturated), and
    pass_mask is True where the gradient flows (x inside the representable
    range) and False where saturation clipped it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = quantize(x, spec).dequantize()
    lo = spec.qmin * spec.step
    hi = spec.qmax * spec.step
    return y, (x >= lo) & (x <= hi)


def scale_exp_for_max(max_abs: float, bits: int) -> int:
    """Smallest scale_exp whose format covers max_abs without saturating."""
    if not math.isfinite(max_abs) or max_abs < 0:
        raise ValueError(f"max_abs must be finite and >= 0, got {max_abs!r}")
    qmax = (1 << (bits - 1)) - 1
    if max_abs == 0.0:
        return 1 - bits  # arbitrary but fixed: grid covers roughly [-1, 1]
    e = math.frexp(max_abs)[1] - (bits - 1)
    while qmax * 2.0**e < max_abs:
        e += 1
    while qmax * 2.0 ** (e - 1) >= max_abs:
        e -= 1
    return e


def weight_quant_spec(w: np.ndarray, bits: int) -> QuantSpec:
    """Per-tensor weight format: exact-max coverage, so weights never saturate."""
    return QuantSpec(bits=bits, scale_exp=scale_exp_for_max(float(np.max(np.abs(w), initial=0.0)), bits))


def activation_quant_spec(samples: np.ndarray, percentile: float = 99.9) -> QuantSpec:
    """Activation format sized to a high percentile of observed magnitudes.

    The tail beyond the percentile is deliberately allowed to saturate; that
    trades rare clipping for one extra bit of resolution everywhere else.
    """
    samples = np.abs(np.asarray(samples, dtype=np.float64).ravel())
    target = float(np.percentile(samples, percentile)) if samples.size else 0.0
    return QuantSpec(bits=ACTIVATION_BITS, scale_exp=scale_exp_for_max(target, ACTIVATION_BITS))


def round_half_even_rshift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-even, exact for any sign.

    Equivalent to round_half_even(acc / 2**shift) in integer arithmetic.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    acc = np.asarray(acc)
    if shift == 0:
        return acc.copy() if isinstance(acc, np.ndarray) else acc
    q = acc >> shift
    r = acc - (q << shift)
    half = 1 << (shift - 1)
    round_up = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + round_up


def requantize(q: np.ndarray, from_exp: int, to_exp: int, out_spec: QuantSpec) -> np.ndarray:
    """Move integers from one power-of-two grid to another, then saturate.

    Coarsening (to_exp > from_exp) rounds half-even; refining is an exact
    left shift.
    """
    if out_spec.scale_exp != to_exp:
        raise ValueError("out_spec scale does not match requested grid")
    q = np.asarray(q, dtype=np.int64)
    if to_exp >= from_exp:
        out = round_half_even_rshift(q, to_exp - from_exp)
    else:
        out = q << (from_exp - to_exp)
    return np.clip(out, out_spec.qmin, out_spec.qmax)


def qmatvec(W: QuantTensor, a: QuantTensor, out_spec: QuantSpec) -> QuantTensor:
    """Integer matrix-vector product with shift requantization.

    The accumulator grid is W.scale_exp + a.scale_exp; the result is moved to
    out_spec's grid with round-half-even and saturated.
    """
    if W.q.ndim != 2 or a.q.ndim != 1 or W.q.shape[1] != a.q.shape[0]:
        raise ValueError(f"shape mismatch: W {W.q.shape} @ a {a.q.shape}")
    if W.spec.bits not in WEIGHT_BIT_CHOICES:
        raise ValueError(f"weights must be 4- or 8-bit, got {W.spec.bits}")
    if a.spec.bits != ACTIVATION_BITS:
        raise ValueError(f"activations must be {ACTIVATION_BITS}-bit, got {a.spec.bits}")
    if W.q.shape[1] > MAX_FAN_IN:
        raise ValueError(f"fan-in {W.q.shape[1]} exceeds accumulator-safe bound {MAX_FAN_IN}")
    acc = W.q @ a.q
    acc_exp = W.spec.scale_exp + a.spec.scale_exp
    out = requantize(acc, acc_exp, out_spec.scale_exp, out_spec)
    return QuantTensor(q=out, spec=out_spec)


# ---------------------------------------------------------------------------
# 4-bit payload packing (two weights per byte, low nibble first)
# ---------------------------------------------------------------------------

def pack_nibbles(q: np.ndarray) -> bytes:
    """Pack int4 values two per byte, element 2i in the low nibble."""
    q = np.asarray(q, dtype=np.int64).ravel()
    if q.size and (q.min() < -8 or q.max() > 7):
        raise ValueError("values exceed 4-bit range")
    u = (q & 0xF).astype(np.uint8)
    if u.size % 2:
        u = np.concatenate([u, np.zeros(1, dtype=np.uint8)])
    return (u[0::2] | (u[1::2] << 4)).tobytes()


def unpack_nibbles(data: bytes, count: int) -> np.ndarray:
    """Inverse of pack_nibbles; count says how many values the payload holds."""
    if len(data) != (count + 1) // 2:
        raise ValueError(f"expected {(count + 1) // 2} bytes for {count} values, got {len(data)}")
    u = np.frombuffer(data, dtype=np.uint8)
    nibbles = np.empty(2 * u.size, dtype=np.int64)
    nibbles[0::2] = u & 0xF
    nibbles[1::2] = u >> 4
    nibbles = nibbles[:count]
    return np.where(nibbles >= 8, nibbles - 16, nibbles)


# ---------------------------------------------------------------------------
# Magnitude pruning
# ---------------------------------------------------------------------------

@dataclass
class PruneMask:
    """Keep-masks per trainable tensor; False marks a weight forced to zero."""

    masks: dict = field(default_factory=dict)
    target_sparsity: float = 0.0

    def pruned_count(self) -> int:
        return sum(int((~m).sum()) for m in self.masks.values())

    def total_count(self) -> int:
        return sum(m.size for m in self.masks.values())

    def achieved_sparsity(self) -> float:
        total = self.total_count()
        return self.pruned_count() / total if total else 0.0


def prune_magnitude(model, sparsity: float) -> PruneMask:
    """Mask out the smallest-magnitude trainable weights, across all tensors.

    Exactly floor(sparsity * n) weights are pruned; magnitude ties break by
    fixed tensor-then-index order so the mask is deterministic.  The fixed
    memory matrices are not trainable tensors and are never touched.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity!r}")
    tensors = list(model.trainable_tensors())
    masks = {name: np.ones(t.shape, dtype=bool) for name, t in tensors}
    mags = np.concatenate([np.abs(t).ravel() for _, t in tensors])
    k = int(sparsity * mags.size)
    if k:
        order = np.argsort(mags, kind="stable")
        drop = np.zeros(mags.size, dtype=bool)
        drop[order[:k]] = True
        offset = 0
        for name, t in tensors:
            sel = drop[offset : offset + t.size].reshape(t.shape)
            masks[name] &= ~sel
            offset += t.size
    return PruneMask(masks=masks, target_sparsity=sparsity)


def apply_mask(model, mask: PruneMask) -> None:
    """Zero masked weights in place (used after every optimizer step)."""
    for name, t in model.trainable_tensors():
        if name in mask.masks:
            t *= mask.masks[name]
