"""Tests for quantization primitives, integer kernels, packing, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmukws.fixedpoint import (
    MAX_FAN_IN,
    MagnitudeTail,
    QuantSpec,
    QuantTensor,
    apply_mask,
    fake_quant,
    pack_nibbles,
    prune_magnitude,
    quantize,
    requantize,
    round_half_even_rshift,
    scale_exp_for_max,
    unpack_nibbles,
    weight_quant_spec,
)


def _round_half_even_int(acc: int, shift: int) -> int:
    """Arbitrary-precision reference using plain Python integers."""
    if shift == 0:
        return acc
    q, r = divmod(acc, 1 << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and q % 2 == 1):
        q += 1
    return q


class TestQuantSpec:
    def test_ranges(self):
        assert (QuantSpec(4, 0).qmin, QuantSpec(4, 0).qmax) == (-8, 7)
        assert (QuantSpec(7, 0).qmin, QuantSpec(7, 0).qmax) == (-64, 63)
        assert (QuantSpec(8, 0).qmin, QuantSpec(8, 0).qmax) == (-128, 127)
        assert QuantSpec(32, 0).qmax == 2**31 - 1

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            QuantSpec(16, 0)

    def test_fan_in_bound(self):
        assert MAX_FAN_IN == 2**18


class TestQuantize:
    def test_zero_maps_to_zero(self):
        for bits in (4, 7, 8, 32):
            for e in (-7, -2, 0, 3):
                assert quantize(np.zeros(3), QuantSpec(bits, e)).q.tolist() == [0, 0, 0]

    def test_saturates_at_range_edge(self):
        # 0.5 / 2^-7 = 64, one past the 7-bit max of 63.
        qt = quantize(np.array([0.5]), QuantSpec(7, -7))
        assert qt.q.tolist() == [63]
        qt = quantize(np.array([-100.0]), QuantSpec(7, 0))
        assert qt.q.tolist() == [-64]

    def test_roundtrip_error_bound(self):
        # Against a scalar-loop reference; Python round() is half-even too.
        rng = np.random.default_rng(0)
        spec = QuantSpec(8, -4)
        for _ in range(20):
            x = rng.uniform(spec.qmin * spec.step, spec.qmax * spec.step, size=50)
            qt = quantize(x, spec)
            ref = [min(max(round(v / spec.step), spec.qmin), spec.qmax) for v in x]
            assert qt.q.tolist() == ref
            assert np.max(np.abs(qt.dequantize() - x)) <= spec.step / 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([np.nan]), QuantSpec(8, 0))

    def test_payload_range_enforced(self):
        with pytest.raises(ValueError):
            QuantTensor(q=np.array([9]), spec=QuantSpec(4, 0))


class TestFakeQuant:
    def test_in_range_on_grid(self):
        rng = np.random.default_rng(1)
        spec = QuantSpec(7, -5)
        x = rng.uniform(-1.5, 1.5, size=200)
        y, mask = fake_quant(x, spec)
        np.testing.assert_array_equal(y, np.rint(y / spec.step) * spec.step)
        inside = (x >= spec.qmin * spec.step) & (x <= spec.qmax * spec.step)
        np.testing.assert_array_equal(mask, inside)
        assert np.max(np.abs(y[inside] - x[inside])) <= spec.step / 2

    def test_saturated_pins_and_blocks_gradient(self):
        spec = QuantSpec(4, 0)
        y, mask = fake_quant(np.array([100.0, -100.0]), spec)
        assert y.tolist() == [7.0, -8.0]
        assert mask.tolist() == [False, False]

    def test_matches_integer_kernel(self):
        # fake-quant forward must land on exactly the grid the integer path
        # produces when both describe the same tensor.
        rng = np.random.default_rng(2)
        spec = QuantSpec(7, -4)
        x = rng.uniform(-5, 5, size=64)
        y, _ = fake_quant(x, spec)
        np.testing.assert_array_equal(y, quantize(x, spec).dequantize())


class TestScaleSelection:
    def test_exact_max_is_representable(self):
        assert scale_exp_for_max(7.0, 4) == 0
        assert scale_exp_for_max(7.5, 4) == 1
        assert scale_exp_for_max(0.9, 4) == -2

    def test_weights_never_saturate(self):
        rng = np.random.default_rng(3)
        for bits in (4, 8):
            for _ in range(20):
                w = rng.standard_normal(40) * 10.0 ** rng.uniform(-3, 2)
                spec = weight_quant_spec(w, bits)
                q = np.rint(w / spec.step)
                assert q.min() >= spec.qmin and q.max() <= spec.qmax
                # Smallest such scale: one finer must clip the max.
                finer = QuantSpec(bits, spec.scale_exp - 1)
                assert np.max(np.abs(w)) > finer.qmax * finer.step

    def test_zero_tensor_gets_fixed_default(self):
        assert weight_quant_spec(np.zeros(5), 8).scale_exp == -7

    def test_activation_spec_covers_percentile(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(100_000)
        tail = MagnitudeTail(samples.size)
        tail.feed(samples)
        spec = tail.spec()
        p = np.percentile(np.abs(samples), 99.9)
        assert spec.qmax * spec.step >= p
        assert spec.bits == 7


# Sizes where numpy's virtual index (n - 1) * (99.9 / 100) is a whole number.
WHOLE_INDEX_SIZES = (1, 33001, 66001)


def _magnitude_sample(kind, n, rng):
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(-3, 4, n).astype(np.float64)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 0.5, -0.5], n)
    if kind == "all equal":
        return np.full(n, rng.choice([0.0, -0.0, 1.5, -2.0]))
    if kind == "infinities":
        return np.where(rng.random(n) < 0.01, np.inf, rng.standard_normal(n))
    return rng.uniform(-1.5, 1.5, n) * 10.0 ** rng.uniform(-300, 300, n)  # wide range


class TestMagnitudeTail:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 2500), st.sampled_from((1, 2) + WHOLE_INDEX_SIZES)),
        kind=st.sampled_from(("normal", "ties", "signed zeros", "all equal", "wide range",
                              "infinities")),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_percentile_bytes(self, n, kind, cuts, seed):
        a = _magnitude_sample(kind, n, np.random.default_rng(seed))
        tail = MagnitudeTail(n)
        for part in np.split(a, sorted(int(c * n) for c in cuts)):
            tail.feed(part)
        with np.errstate(invalid="ignore"):  # numpy's inf - inf
            expected = np.percentile(np.abs(a), 99.9)
        assert np.float64(tail.value()).tobytes() == expected.tobytes()

    def test_whole_virtual_index_sizes(self):
        q = np.true_divide(99.9, 100)
        for n in WHOLE_INDEX_SIZES:
            assert (n - 1) * q == np.floor((n - 1) * q)

    def test_keeps_only_the_top(self):
        # 100,000 - floor(99,999 * 0.999) = 101 values can decide the percentile.
        tail = MagnitudeTail(100_000)
        rng = np.random.default_rng(3)
        for _ in range(100):
            tail.feed(rng.standard_normal((10, 100)))
            assert tail.kept.size <= tail.keep == 101

    def test_any_nan_gives_nan(self):
        a = np.arange(5000.0)
        a[17] = np.nan
        tail = MagnitudeTail(a.size)
        tail.feed(a[:2500])
        tail.feed(a[2500:])
        assert np.isnan(tail.value()) and np.isnan(np.percentile(a, 99.9))
        with pytest.raises(ValueError, match="finite"):
            tail.spec()

    @pytest.mark.parametrize("a", [[np.inf], [-np.inf], [1.0, np.inf], [np.inf, np.inf, 1.0],
                                   [np.inf] + [1.0] * 2000])
    def test_infinities_interpolate_as_numpy_does(self, a):
        # numpy's interpolation turns an infinite neighbour into NaN (inf - inf).
        a = np.array(a)
        with np.errstate(invalid="ignore"):
            expected = np.percentile(np.abs(a), 99.9)
        tail = MagnitudeTail(a.size)
        tail.feed(a)
        assert np.float64(tail.value()).tobytes() == expected.tobytes()

    def test_count_must_match(self):
        tail = MagnitudeTail(4)
        tail.feed(np.ones(3))
        with pytest.raises(ValueError, match="3 of 4"):
            tail.value()
        with pytest.raises(ValueError, match="5 samples fed to a tail of 4"):
            tail.feed(np.ones(2))

    def test_no_samples(self):
        assert MagnitudeTail(0).value() == 0.0
        tail = MagnitudeTail(0)
        tail.feed(np.zeros(0))
        assert tail.spec().scale_exp == scale_exp_for_max(0.0, 7)


class TestRounding:
    def test_half_even_specific(self):
        # 2.5 -> 2, 3.5 -> 4, -2.5 -> -2, -1.5 -> -2 (in units of 2^1).
        acc = np.array([5, 7, -5, -3])
        assert round_half_even_rshift(acc, 1).tolist() == [2, 4, -2, -2]

    def test_matches_python_reference(self):
        rng = np.random.default_rng(5)
        for shift in range(0, 21):
            acc = rng.integers(-(2**40), 2**40, size=200)
            got = round_half_even_rshift(acc, shift)
            ref = [_round_half_even_int(int(v), shift) for v in acc]
            assert got.tolist() == ref

    def test_requantize_directions(self):
        spec = QuantSpec(8, -2)
        # Coarsen by 2 bits: 6/4 = 1.5 rounds to even 2.
        assert requantize(np.array([6]), -4, -2, spec).tolist() == [2]
        # Refine by 2 bits: exact shift.
        assert requantize(np.array([6]), 0, -2, spec).tolist() == [24]
        # Saturation after the move.
        assert requantize(np.array([1000]), 0, -2, spec).tolist() == [127]

    def test_requantize_one_by_one_scalar_arithmetic(self):
        # w=3 at e=-2 times a=5 at e=-4: acc 15 at e=-6; to e=-4: rhe(15/4)=4.
        acc = np.array([[3]]) @ np.array([5])
        assert requantize(acc, -6, -4, QuantSpec(7, -4)).tolist() == [4]

    def test_requantize_per_row_grids(self):
        # Row 0 coarsens by 1 bit (5/2 = 2.5 -> 2), row 1 by 2 bits
        # (-6/4 = -1.5 -> -2), row 2 refines by 1 bit (3 -> 6).
        acc = np.array([5.0, -6.0, 3.0])
        got = requantize(acc, np.array([-5, -6, -3]), -4, QuantSpec(7, -4))
        assert got.dtype == np.int64
        assert got.tolist() == [2, -2, 6]

    def test_requantize_against_big_integer_reference(self):
        # Integer matvecs in float64, as the engine's stages form them, then
        # requantize: equal to round_half_even on Python integers.
        rng = np.random.default_rng(6)
        for trial in range(30):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            wspec = QuantSpec(int(rng.choice([4, 8])), int(rng.integers(-6, 1)))
            aspec = QuantSpec(7, int(rng.integers(-8, -2)))
            ospec = QuantSpec(7, int(rng.integers(-8, 0)))
            W = rng.integers(wspec.qmin, wspec.qmax + 1, (m, n))
            a = rng.integers(aspec.qmin, aspec.qmax + 1, n)
            acc_exp = wspec.scale_exp + aspec.scale_exp
            got = requantize(W.astype(np.float64) @ a, acc_exp, ospec.scale_exp, ospec)
            for i in range(m):
                acc = sum(int(W[i, j]) * int(a[j]) for j in range(n))
                shift = ospec.scale_exp - acc_exp
                if shift >= 0:
                    ref = _round_half_even_int(acc, shift)
                else:
                    ref = acc << -shift
                ref = min(max(ref, ospec.qmin), ospec.qmax)
                assert got[i] == ref

    def test_requantize_matches_integer_shift_near_float_limit(self):
        # Sums up to 2^40 (past the 2^31 the proof allows), every shift the
        # grids can produce: the float path equals the integer oracle.
        rng = np.random.default_rng(7)
        for shift in range(0, 21):
            spec = QuantSpec(32, shift)
            acc = rng.integers(-(2**40), 2**40, size=200)
            ref = np.clip(round_half_even_rshift(acc, shift), spec.qmin, spec.qmax)
            np.testing.assert_array_equal(requantize(acc, 0, shift, spec), ref)


class TestNibblePacking:
    def test_nine_values_take_five_bytes(self):
        q = np.arange(-4, 5)
        packed = pack_nibbles(q)
        assert len(packed) == 5
        np.testing.assert_array_equal(unpack_nibbles(packed, 9), q)

    def test_low_nibble_first(self):
        assert pack_nibbles(np.array([1, -1])) == bytes([0xF1])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 33))
            q = rng.integers(-8, 8, n)
            np.testing.assert_array_equal(unpack_nibbles(pack_nibbles(q), n), q)

    def test_range_check(self):
        with pytest.raises(ValueError):
            pack_nibbles(np.array([8]))
        with pytest.raises(ValueError):
            unpack_nibbles(b"\x00\x00", 9)


class _StubModel:
    """Minimal trainable_tensors() host for pruning tests."""

    def __init__(self, tensors):
        self._tensors = tensors

    def trainable_tensors(self):
        yield from self._tensors.items()


class TestPruning:
    def test_spec_example(self):
        model = _StubModel({"w": np.array([0.1, -0.5, 0.3, -0.2])})
        mask = prune_magnitude(model, 0.5)
        assert mask["w"].tolist() == [False, True, True, False]
        assert sum(int((~m).sum()) for m in mask.values()) == 2

    def test_zero_sparsity_keeps_all(self):
        model = _StubModel({"w": np.array([1.0, 2.0])})
        mask = prune_magnitude(model, 0.0)
        assert sum(int((~m).sum()) for m in mask.values()) == 0

    def test_exact_global_count(self):
        rng = np.random.default_rng(8)
        model = _StubModel({"a": rng.standard_normal((13, 7)), "b": rng.standard_normal(29)})
        for s in (0.1, 0.5, 0.8, 0.91):
            mask = prune_magnitude(model, s)
            assert sum(int((~m).sum()) for m in mask.values()) == int(s * 120)

    def test_global_picks_smallest_across_tensors(self):
        model = _StubModel({"a": np.array([10.0, 0.1]), "b": np.array([0.2, 20.0])})
        mask = prune_magnitude(model, 0.5)
        assert mask["a"].tolist() == [True, False]
        assert mask["b"].tolist() == [False, True]

    def test_ties_break_by_index_order(self):
        model = _StubModel({"w": np.ones(6)})
        mask = prune_magnitude(model, 0.5)
        assert mask["w"].tolist() == [False, False, False, True, True, True]

    def test_apply_mask_zeroes_in_place(self):
        w = np.array([0.1, -0.5, 0.3, -0.2])
        model = _StubModel({"w": w})
        apply_mask(model, prune_magnitude(model, 0.5))
        assert w.tolist() == [0.0, -0.5, 0.3, 0.0]

    def test_rejects_bad_arguments(self):
        model = _StubModel({"w": np.ones(4)})
        with pytest.raises(ValueError):
            prune_magnitude(model, 1.0)
        with pytest.raises(ValueError):
            prune_magnitude(model, -0.1)
