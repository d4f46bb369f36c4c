"""Tests for calibration, freezing, integer inference, and model files."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmukws.fixedpoint import prune_magnitude, apply_mask
from lmukws.lmu import CellConfig, LayerConfig, ModelConfig, build_model
from lmukws.modelfile import ModelFormatError, load_model, save_model
from lmukws.qmodel import (
    QuantStreamState,
    assert_accumulator_safe,
    calibrate_activation_scales,
    freeze,
    model_size_kbits,
    quantized_forward,
)
from lmukws.training import hat_forward_trace


def _config(input_dim=5):
    return ModelConfig(
        input_dim=input_dim,
        layers=(
            LayerConfig(hidden=9, cells=(CellConfig(4, 0.2), CellConfig(3, 0.1))),
            LayerConfig(hidden=7, cells=(CellConfig(5, 0.2),)),
        ),
    )


def _trained_like_model(seed, input_dim=5):
    """Random model with live hidden feedback and biases, as training leaves it."""
    rng = np.random.default_rng(seed)
    model = build_model(_config(input_dim), rng)
    for layer in model.layers:
        layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.2, 0.2, layer.bias.shape)
    return model, rng


def _calibrated(seed, weight_bits=8):
    model, rng = _trained_like_model(seed)
    calib = [rng.standard_normal((20, 5)) for _ in range(8)]
    scales = calibrate_activation_scales(model, calib)
    return model, scales, freeze(model, weight_bits, scales), rng


class TestFreeze:
    def test_rejects_bad_arguments(self):
        model, rng = _trained_like_model(0)
        scales = calibrate_activation_scales(model, [rng.standard_normal((10, 5))])
        with pytest.raises(ValueError):
            freeze(model, 6, scales)
        with pytest.raises(ValueError):
            freeze(model, 8, scales, frontend_hash=b"short")

    def test_weights_quantize_without_saturation(self):
        model, scales, qm, _ = _calibrated(1)
        for layer, qlayer in zip(model.layers, qm.layers):
            spec = qlayer.input_kernel.spec
            # Exact-max scale rule: the largest weight is representable.
            assert spec.qmax * spec.step >= np.max(np.abs(layer.input_kernel))
            assert np.max(np.abs(qlayer.input_kernel.q)) <= spec.qmax

    def test_bias_grid_matches_preactivation(self):
        _, _, qm, _ = _calibrated(2)
        first = qm.layers[0]
        expected = min(
            first.input_kernel.spec.scale_exp + qm.input_exp,
            first.memory_kernel.spec.scale_exp + first.m_exp,
        )
        assert first.bias.spec.scale_exp == expected
        second = qm.layers[1]
        expected = min(
            second.input_kernel.spec.scale_exp + first.h_exp,
            second.memory_kernel.spec.scale_exp + second.m_exp,
        )
        assert second.bias.spec.scale_exp == expected

    def test_fan_in_guard(self):
        cfg = ModelConfig(
            input_dim=2**18 + 1,
            layers=(LayerConfig(hidden=1, cells=(CellConfig(1, 0.2),)),),
        )
        model = build_model(cfg, None)
        scales = calibrate_activation_scales(model, [np.zeros((2, 2**18 + 1))])
        with pytest.raises(ValueError, match="fan-in"):
            freeze(model, 8, scales)


class TestBitExactness:
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_integer_path_equals_training_graph(self, weight_bits):
        # The deployed integer forward and the quantization-aware training
        # graph are two implementations of one arithmetic contract; every
        # intermediate activation must agree exactly.
        model, scales, qm, rng = _calibrated(3, weight_bits)
        for _ in range(5):
            feats = rng.standard_normal((12, 5)) * rng.uniform(0.5, 2.0)
            logits_q, _, trace_q = quantized_forward(qm, feats, collect_trace=True)
            logits_t, trace_t = hat_forward_trace(model, feats, scales, weight_bits)
            np.testing.assert_array_equal(logits_q, logits_t)
            for t in range(12):
                for li in range(len(qm.layers)):
                    for key in ("u", "m", "h"):
                        np.testing.assert_array_equal(
                            trace_q[key][t][li], trace_t[key][t][li]
                        )

    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 12), st.lists(st.integers(1, 16), min_size=1, max_size=4)),
            min_size=1, max_size=2,
        ),
        input_dim=st.integers(1, 8),
        weight_bits=st.sampled_from([4, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_topology_trace_equals_engine(self, topology, input_dim, weight_bits, seed):
        # 1-2 layers of 1-4 cells with orders 1-16: the quantized training
        # graph and the integer engine agree integer for integer.
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(
            input_dim=input_dim,
            layers=tuple(
                LayerConfig(hidden=hidden, cells=tuple(
                    CellConfig(order, float(rng.uniform(0.05, 0.5))) for order in orders))
                for hidden, orders in topology
            ),
        )
        model = build_model(cfg, rng)
        for layer in model.layers:
            layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
            layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
        scales = calibrate_activation_scales(model, rng.standard_normal((4, 10, input_dim)))
        qm = freeze(model, weight_bits, scales)
        feats = rng.standard_normal((10, input_dim)) * rng.uniform(0.5, 2.0)
        logits_q, _, trace_q = quantized_forward(qm, feats, collect_trace=True)
        logits_t, trace_t = hat_forward_trace(model, feats, scales, weight_bits)
        np.testing.assert_array_equal(logits_q, logits_t)
        for key in ("u", "m", "h"):
            for step_q, step_t in zip(trace_q[key], trace_t[key]):
                for a, b in zip(step_q, step_t):
                    np.testing.assert_array_equal(a, b)

    def test_logits_grid_consistency(self):
        # Integer logits times their grid step equal the float-graph logits.
        from lmukws.training import hat_forward

        model, scales, qm, rng = _calibrated(4)
        feats = rng.standard_normal((8, 5))
        logits_q, _ = quantized_forward(qm, feats)
        cache = hat_forward(model, feats[None], quant_on=True, scales=scales,
                            weight_bits=8)
        np.testing.assert_array_equal(
            logits_q * 2.0**qm.logits_exp, cache.logits[0]
        )


class TestQuantizedForward:
    def test_zero_stream_constant_logits(self):
        # With zero input the only signal is quantized-bias propagation, so
        # after the first couple of steps the logits settle to a constant.
        _, _, qm, _ = _calibrated(5)
        logits, _ = quantized_forward(qm, np.zeros((10, 5)))
        np.testing.assert_array_equal(logits[3:], np.tile(logits[3], (7, 1)))

    def test_deterministic(self):
        _, _, qm, rng = _calibrated(6)
        feats = rng.standard_normal((10, 5))
        a, _ = quantized_forward(qm, feats)
        b, _ = quantized_forward(qm, feats)
        np.testing.assert_array_equal(a, b)

    def test_chunked_streaming_bit_exact(self):
        _, _, qm, rng = _calibrated(7)
        feats = rng.standard_normal((40, 5))
        full, _ = quantized_forward(qm, feats)
        for trial in range(10):
            srng = np.random.default_rng(trial)
            cuts = np.sort(srng.choice(np.arange(1, 40), size=4, replace=False))
            state = QuantStreamState(qm)
            parts = []
            for chunk in np.split(feats, cuts):
                out, state = quantized_forward(qm, chunk, state)
                parts.append(out)
            np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_integer_payloads(self):
        _, _, qm, rng = _calibrated(8)
        logits, state = quantized_forward(qm, rng.standard_normal((6, 5)))
        assert logits.dtype == np.int64
        for h in state.h:
            assert h.dtype == np.int64 and np.max(np.abs(h)) <= 64

    def test_rejects_bad_shape(self):
        _, _, qm, _ = _calibrated(9)
        with pytest.raises(ValueError):
            quantized_forward(qm, np.zeros((4, 6)))


class TestSizeMetric:
    def test_counts_unpruned_slots_at_weight_bits(self):
        model, scales, _, _ = _calibrated(10)
        n = model.parameter_count()
        qm = freeze(model, 4, scales)
        assert model_size_kbits(qm) == n * 4 / 1000
        qm8 = freeze(model, 8, scales)
        assert model_size_kbits(qm8) == n * 8 / 1000

    def test_pruning_reduces_count_exactly(self):
        model, scales, _, _ = _calibrated(11)
        n = model.parameter_count()
        mask = prune_magnitude(model, 0.8)
        apply_mask(model, mask)
        qm = freeze(model, 4, scales, mask=mask)
        kept = n - int(0.8 * n)
        assert model_size_kbits(qm) == kept * 4 / 1000

    def test_memory_matrices_excluded(self):
        # The fixed A/B constants never enter the size metric: freezing the
        # same trainables with bigger cells must not change kbits.
        model, scales, qm, _ = _calibrated(12)
        base = model_size_kbits(qm)
        per_tensor = sum(t.size for _, t in model.trainable_tensors())
        assert base == per_tensor * qm.weight_bits / 1000


class TestModelFile:
    def test_round_trip_preserves_inference(self, tmp_path):
        _, _, qm, rng = _calibrated(13, weight_bits=4)
        feats = rng.standard_normal((9, 5))
        before, _ = quantized_forward(qm, feats)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        loaded = load_model(path)
        after, _ = quantized_forward(loaded, feats)
        np.testing.assert_array_equal(before, after)
        assert loaded.label_names == qm.label_names
        assert loaded.frontend_hash == qm.frontend_hash

    def test_round_trip_preserves_masks_and_size(self, tmp_path):
        model, scales, _, _ = _calibrated(14)
        mask = prune_magnitude(model, 0.5)
        apply_mask(model, mask)
        qm = freeze(model, 4, scales, mask=mask)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        assert model_size_kbits(load_model(path)) == model_size_kbits(qm)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lmuq"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncation(self, tmp_path):
        _, _, qm, _ = _calibrated(15)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_corruption_fails_crc(self, tmp_path):
        _, _, qm, _ = _calibrated(16)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="CRC|corrupt"):
            load_model(path)

    def test_version_gate(self, tmp_path):
        _, _, qm, _ = _calibrated(17)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field follows the 4-byte magic
        import zlib, struct

        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_bias_breaking_accumulator_proof_rejected(self, tmp_path):
        # A file freeze would never write: the largest 32-bit bias pushes the
        # h accumulator's worst case past 2^31.
        _, _, qm, _ = _calibrated(18)
        qm.layers[0].bias.q[0] = 2**31 - 1
        with pytest.raises(ValueError, match="h accumulator"):
            assert_accumulator_safe(qm)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        with pytest.raises(ModelFormatError, match="accumulator"):
            load_model(path)
