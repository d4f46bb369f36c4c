"""Fixed-point primitives: power-of-two quantization, requantization, pruning.

All quantization is symmetric two's complement with power-of-two scales
(real = int * 2**scale_exp), so every requantization is a pure shift, and
rounding is round-half-even throughout.  Integer payloads are kept as int64
numpy arrays in memory; the 32-bit accumulator constraint of the target
hardware is enforced by explicit bound checks, not by the dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATION_BITS = 7
ACCUMULATOR_BITS = 32
WEIGHT_BIT_CHOICES = (4, 8)  # for the trainable weights
CELL_BITS = 8  # each memory cell's fixed A and B
BIAS_BITS = ACCUMULATOR_BITS  # a bias is added to its stage's accumulator
WIDTHS = tuple(sorted({ACTIVATION_BITS, *WEIGHT_BIT_CHOICES, CELL_BITS, BIAS_BITS}))

# Largest dot-product length that can never overflow a 32-bit accumulator
# with 7-bit activations and the widest (8-bit) weights: 2^(32-1-6-7).
MAX_FAN_IN = 2 ** (ACCUMULATOR_BITS + 1 - ACTIVATION_BITS - max(CELL_BITS, *WEIGHT_BIT_CHOICES))


@dataclass(frozen=True)
class QuantSpec:
    """Width and scale of a fixed-point format: real = int * 2**scale_exp."""

    bits: int
    scale_exp: int

    def __post_init__(self):
        if self.bits not in WIDTHS:
            raise ValueError(f"unsupported width {self.bits}; use "
                             f"{', '.join(map(str, WIDTHS[:-1]))}, or {WIDTHS[-1]}")

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
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    q = round_saturate(np.asarray(x / spec.step), spec.qmin, spec.qmax)
    return QuantTensor(q=q.astype(np.int64), spec=spec)


def round_saturate(a: np.ndarray, lo, hi) -> np.ndarray:
    """Round float64 ``a`` half to even, then clip it to [lo, hi], in place.

    The one rounding rule of the integer path: ``quantize``, ``requantize``
    and the compiled engine's stages all round through it.  Returns ``a``.
    """
    np.rint(a, out=a)
    # np.maximum and np.minimum: np.clip costs several times more per call
    np.maximum(a, lo, out=a)
    np.minimum(a, hi, out=a)
    return a


def fake_quant(x: np.ndarray, spec: QuantSpec):
    """Quantize-dequantize for training graphs, with the straight-through mask.

    Returns (y, pass_mask): y is x snapped to the grid (saturated), and
    pass_mask is True where the gradient flows (x inside the representable
    range) and False where saturation clipped it.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    # One pass, equal bit for bit to quantize(x, spec).dequantize().  While
    # 2**-e is a normal float, x * 2**-e is the correctly rounded x / 2**e;
    # outside that range divide.  ``+ 0.0`` turns the -0 that rint gives
    # small negatives into the +0 of the int64 round trip.
    e = spec.scale_exp
    y = np.asarray(x * 2.0**-e if -1023 <= e <= 1022 else x / spec.step)
    round_saturate(y, spec.qmin, spec.qmax)
    y *= spec.step
    y += 0.0
    return y, in_range(x, spec)


def in_range(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """True where x lies inside the spec's representable range: where a
    straight-through gradient passes the quantizer."""
    return (x >= spec.qmin * spec.step) & (x <= spec.qmax * spec.step)


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


class MagnitudeTail:
    """``np.percentile(np.abs(samples), 99.9)`` of ``n`` samples fed in chunks,
    holding only the magnitudes that can decide it.

    numpy's linear percentile of n sorted values reads the two at floor(v)
    and floor(v) + 1, where v = (n - 1) * (99.9 / 100), and interpolates
    between them.  Both are among the n - floor(v) largest, so the tail keeps
    that many.  Once it holds them, a magnitude at or below the smallest kept
    cannot change the two (a tie has the same value), so each chunk is
    filtered against it before it is merged.  The value is numpy's bit for
    bit, and between calls at most n - floor(v) values are held.
    """

    def __init__(self, n: int):
        self.n, self.fed = n, 0
        # numpy's virtual index, computed as np.percentile computes it
        self.v = (n - 1) * float(np.true_divide(99.9, 100))
        self.keep = n - math.floor(self.v) if n else 0
        self.kept = np.empty(0)
        self.floor = -math.inf  # the smallest kept, once ``keep`` are held
        self.nan = False

    def feed(self, samples) -> None:
        a = np.abs(np.asarray(samples, dtype=np.float64)).ravel()
        self.fed += a.size
        if self.fed > self.n:
            raise ValueError(f"{self.fed} samples fed to a tail of {self.n}")
        a = a[~(a <= self.floor)]  # NaN passes: numpy sorts it above every number
        if not a.size or self.nan:
            return
        if np.isnan(a).any():  # the percentile is NaN; nothing else matters
            self.nan = True
            return
        kept = np.concatenate((self.kept, a)) if self.kept.size else a
        if kept.size >= self.keep:
            kept.partition(kept.size - self.keep)
            kept = kept[kept.size - self.keep:].copy()
            self.floor = kept[0]
        self.kept = kept

    def value(self) -> float:
        """The percentile of all ``n`` magnitudes; 0.0 when n is 0."""
        if self.fed != self.n:
            raise ValueError(f"{self.fed} of {self.n} samples fed")
        if self.nan:
            return math.nan
        if not self.n:
            return 0.0
        # The sorted values at floor(v) and floor(v) + 1 are the two smallest
        # kept.  For n = 1 numpy reads the one value twice with weight 1, not
        # the 0 here; with equal ends both weights give the same result.
        two = self.kept if self.keep > 1 else np.repeat(self.kept, 2)
        lo, hi = (float(x) for x in np.partition(two, 1)[:2])
        gamma = self.v - math.floor(self.v)
        # np.percentile's interpolation, operation for operation
        diff = hi - lo
        return hi - diff * (1 - gamma) if gamma >= 0.5 else lo + diff * gamma

    def spec(self) -> QuantSpec:
        """The activation format that covers ``value()``; the rarer, larger saturate."""
        return QuantSpec(bits=ACTIVATION_BITS,
                         scale_exp=scale_exp_for_max(self.value(), ACTIVATION_BITS))


def round_half_even_rshift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-even, exact for any sign.

    Equivalent to round_half_even(acc / 2**shift) in integer arithmetic, at
    any magnitude; the tests hold ``requantize`` to it.
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


def requantize(acc: np.ndarray, from_exp, to_exp: int, out_spec: QuantSpec) -> np.ndarray:
    """Move integer sums from grid 2**from_exp to 2**to_exp, then saturate.

    ``from_exp`` is one exponent or one per row.  The result is
    clip(rint(acc * 2**(from_exp - to_exp))) as int64: coarsening rounds half
    to even, refining is an exact left shift.  ``acc`` holds integers below
    2**53 in magnitude, so float64 holds them exactly, scaling by a power of
    two is exact, and ``rint`` rounds half to even: the same result as an
    integer round-half-even right shift (``round_half_even_rshift``).
    """
    if out_spec.scale_exp != to_exp:
        raise ValueError("out_spec scale does not match requested grid")
    out = np.asarray(np.ldexp(np.asarray(acc, dtype=np.float64), from_exp - to_exp))
    return round_saturate(out, out_spec.qmin, out_spec.qmax).astype(np.int64)


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

def prune_magnitude(model, sparsity: float) -> dict:
    """Mask out the smallest-magnitude trainable weights, across all tensors.

    Returns name -> keep array for every trainable tensor; False marks a
    weight forced to zero.  Exactly floor(sparsity * n) weights are pruned;
    magnitude ties break by fixed tensor-then-index order so the mask is
    deterministic.  The fixed memory matrices are not trainable tensors and
    are never touched.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity!r}")
    tensors = list(model.trainable_tensors())
    mags = np.concatenate([np.abs(t).ravel() for _, t in tensors])
    k = int(sparsity * mags.size)
    drop = np.zeros(mags.size, dtype=bool)
    if k:
        # The k smallest in the order of a stable sort, found in linear time:
        # every magnitude below the k-th smallest, then ties at it by index.
        kth = np.partition(mags, k - 1)[k - 1]
        if np.isnan(kth):  # NaN sorts last; the tie rule below cannot see it
            drop[np.argsort(mags, kind="stable")[:k]] = True
        else:
            np.less(mags, kth, out=drop)
            drop[np.flatnonzero(mags == kth)[: k - np.count_nonzero(drop)]] = True
    masks, offset = {}, 0
    for name, t in tensors:
        masks[name] = ~drop[offset : offset + t.size].reshape(t.shape)
        offset += t.size
    return masks


def apply_mask(model, mask: dict) -> None:
    """Zero the weights a name -> keep array mask drops, in place (used
    after every optimizer step)."""
    for name, t in model.trainable_tensors():
        if name in mask:
            t *= mask[name]
