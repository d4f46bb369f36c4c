"""Tests for quantization primitives, integer kernels, packing, and pruning."""

import numpy as np
import pytest

from lmukws.fixedpoint import (
    MAX_FAN_IN,
    PruneMask,
    QuantSpec,
    QuantTensor,
    activation_quant_spec,
    apply_mask,
    fake_quant,
    pack_nibbles,
    prune_magnitude,
    qmatvec,
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
        with pytest.raises(ValueError):
            QuantSpec(8, 0, signed=False)

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
        spec = activation_quant_spec(samples)
        p = np.percentile(np.abs(samples), 99.9)
        assert spec.qmax * spec.step >= p
        assert spec.bits == 7


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


class TestQmatvec:
    def test_zero_weights(self):
        W = QuantTensor(np.zeros((3, 4)), QuantSpec(8, -2))
        a = QuantTensor(np.arange(4), QuantSpec(7, -4))
        out = qmatvec(W, a, QuantSpec(7, -4))
        assert out.q.tolist() == [0, 0, 0]

    def test_one_by_one_scalar_arithmetic(self):
        # w=3 at e=-2 times a=5 at e=-4: acc 15 at e=-6; to e=-4: rhe(15/4)=4.
        W = QuantTensor(np.array([[3]]), QuantSpec(8, -2))
        a = QuantTensor(np.array([5]), QuantSpec(7, -4))
        out = qmatvec(W, a, QuantSpec(7, -4))
        assert out.q.tolist() == [4]

    def test_against_big_integer_reference(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            wspec = QuantSpec(int(rng.choice([4, 8])), int(rng.integers(-6, 1)))
            aspec = QuantSpec(7, int(rng.integers(-8, -2)))
            ospec = QuantSpec(7, int(rng.integers(-8, 0)))
            W = QuantTensor(rng.integers(wspec.qmin, wspec.qmax + 1, (m, n)), wspec)
            a = QuantTensor(rng.integers(aspec.qmin, aspec.qmax + 1, n), aspec)
            got = qmatvec(W, a, ospec)
            for i in range(m):
                acc = sum(int(W.q[i, j]) * int(a.q[j]) for j in range(n))
                shift = ospec.scale_exp - (wspec.scale_exp + aspec.scale_exp)
                if shift >= 0:
                    ref = _round_half_even_int(acc, shift)
                else:
                    ref = acc << -shift
                ref = min(max(ref, ospec.qmin), ospec.qmax)
                assert got.q[i] == ref

    def test_rejects_bad_operands(self):
        W = QuantTensor(np.zeros((2, 3)), QuantSpec(8, 0))
        a = QuantTensor(np.zeros(4), QuantSpec(7, 0))
        with pytest.raises(ValueError):
            qmatvec(W, a, QuantSpec(7, 0))
        a8 = QuantTensor(np.zeros(3), QuantSpec(8, 0))
        with pytest.raises(ValueError):
            qmatvec(W, a8, QuantSpec(7, 0))


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
        assert mask.masks["w"].tolist() == [False, True, True, False]
        assert mask.pruned_count() == 2

    def test_zero_sparsity_keeps_all(self):
        model = _StubModel({"w": np.array([1.0, 2.0])})
        assert prune_magnitude(model, 0.0).pruned_count() == 0

    def test_exact_global_count(self):
        rng = np.random.default_rng(8)
        model = _StubModel({"a": rng.standard_normal((13, 7)), "b": rng.standard_normal(29)})
        for s in (0.1, 0.5, 0.8, 0.91):
            mask = prune_magnitude(model, s)
            assert mask.pruned_count() == int(s * 120)

    def test_global_picks_smallest_across_tensors(self):
        model = _StubModel({"a": np.array([10.0, 0.1]), "b": np.array([0.2, 20.0])})
        mask = prune_magnitude(model, 0.5)
        assert mask.masks["a"].tolist() == [True, False]
        assert mask.masks["b"].tolist() == [False, True]

    def test_ties_break_by_index_order(self):
        model = _StubModel({"w": np.ones(6)})
        mask = prune_magnitude(model, 0.5)
        assert mask.masks["w"].tolist() == [False, False, False, True, True, True]

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
