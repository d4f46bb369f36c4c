"""Tests for calibration, freezing, integer inference, and model files."""

import itertools
import math
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmukws.configs import REFERENCE_NAMES, reference_config
from lmukws.fixedpoint import (
    MagnitudeTail,
    QuantSpec,
    QuantTensor,
    apply_mask,
    prune_magnitude,
    quantize,
    round_half_even_rshift,
    scale_exp_for_max,
)
from lmukws.lmu import (
    CellConfig,
    LayerConfig,
    ModelConfig,
    build_model,
    legendre_state_space,
    stored_layout,
    tensor_shapes,
)
from lmukws.hwmodel import profile_workload
from lmukws.modelfile import MAGIC, ModelFormatError, load_model, save_model
from lmukws.qmodel import (
    ActivationScales,
    QuantizedCell,
    QuantStreamState,
    assert_accumulator_safe,
    calibrate_activation_scales,
    freeze,
    model_size_kbits,
    quantized_forward,
)
from lmukws.training import LayerStep, evaluate, float_steps, hat_forward

from stepwise import engine_steps, hat_steps


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


class TestCalibration:
    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 9), st.lists(st.integers(1, 8), min_size=1, max_size=3)),
            min_size=0, max_size=3,
        ),
        input_dim=st.integers(1, 6),
        n=st.integers(1, 6),
        t=st.integers(1, 12),
        zero_input=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scales_equal_full_forward_definition(self, topology, input_dim, n, t,
                                                   zero_input, seed):
        # Layer by layer, in place, the scales are those of the percentile of
        # the input and of every site in one full float hat_forward cache.
        # An all-zero input is how `--model-preset` freezes a random model.
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
        feats = np.zeros((n, t, input_dim)) if zero_input else rng.standard_normal((n, t, input_dim))
        cache = hat_forward(model, feats)

        def percentile_exp(a):  # the definition, straight from numpy
            return scale_exp_for_max(float(np.percentile(np.abs(a), 99.9)), 7)

        def tail_exp(a):
            tail = MagnitudeTail(a.size)
            tail.feed(a)
            return tail.spec().scale_exp

        expected = ActivationScales(
            input_exp=percentile_exp(feats),
            layer_exps=tuple(tuple(percentile_exp(a) for a in (lc.u, lc.m, lc.h))
                             for lc in cache.layers),
        )
        assert calibrate_activation_scales(model, feats) == expected
        assert expected == ActivationScales(
            input_exp=tail_exp(feats),
            layer_exps=tuple(tuple(tail_exp(a) for a in (lc.u, lc.m, lc.h))
                             for lc in cache.layers),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 9), st.lists(st.integers(1, 8), min_size=1, max_size=3)),
            min_size=1, max_size=3,
        ),
        input_dim=st.integers(1, 6),
        n=st.integers(1, 40),
        t=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_steps_equal_hat_forward_bytes(self, topology, input_dim, n, t, seed):
        # Calibration's order: every layer advances one step before any
        # takes the next, each reading the h below from its step buffer.
        # Every u, m and h is byte for byte the float hat_forward cache's.
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
        feats = rng.standard_normal((n, t, input_dim))
        cache = hat_forward(model, feats)
        steps = [LayerStep(layer, n) for layer in model.layers]
        for k in range(t):
            x = feats[:, k]
            for step, lc in zip(steps, cache.layers):
                u, m, x, *masks = step(x)
                assert masks == [None, None, None]
                for got, full in ((u, lc.u), (m, lc.m), (x, lc.h)):
                    assert got.tobytes() == np.ascontiguousarray(full[:, k]).tobytes()
        # float_steps, the loop calibration and evaluate share, yields the same.
        for k, (x, acts) in enumerate(float_steps(model, feats)):
            assert x.tobytes() == np.ascontiguousarray(feats[:, k]).tobytes()
            for (u, m, h), lc in zip(acts, cache.layers, strict=True):
                for got, full in ((u, lc.u), (m, lc.m), (h, lc.h)):
                    assert got.tobytes() == np.ascontiguousarray(full[:, k]).tobytes()

    def test_rejects_what_hat_forward_rejects_and_empty_batches(self):
        model, _ = _trained_like_model(0)
        for bad in (np.zeros((3, 5)), np.zeros((2, 4, 4))):
            with pytest.raises(ValueError, match=r"feats must be \(B, T, 5\)"):
                calibrate_activation_scales(model, bad)
        with pytest.raises(ValueError, match="at least one step"):
            calibrate_activation_scales(model, np.zeros((2, 0, 5)))
        with pytest.raises(ValueError, match="at least one sequence"):
            calibrate_activation_scales(model, np.zeros((0, 49, 5)))

    def test_never_writes_the_callers_array(self):
        model, rng = _trained_like_model(1)
        whole = rng.standard_normal((6, 10, 5))
        for feats in (whole, whole[:4]):  # an array and a view into one
            before = feats.copy()
            calibrate_activation_scales(model, feats)
            np.testing.assert_array_equal(feats, before)

    def test_peak_memory_below_one_full_forward_cache(self):
        # Calibration holds one time step of each layer and each site's top
        # 0.1% of magnitudes, not a full cache (a full cache plus a copy
        # would be about 1.9 of it).
        model, rng = _trained_like_model(2)
        feats = rng.standard_normal((64, 50, 5))
        cache = hat_forward(model, feats)
        full = sum(a.nbytes for lc in cache.layers for a in (lc.u, lc.m, lc.h))
        del cache
        tracemalloc.start()
        try:
            calibrate_activation_scales(model, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full

    def test_peak_memory_does_not_grow_with_sequence_length(self):
        # One time step of every layer and each site's top 0.1% are held, so
        # eight times the steps may add at most a few (N, width) buffers; a
        # full (N, T, width) cache would add about 7 MB here.
        model, rng = _trained_like_model(4)
        n = 64
        widest = max(max(layer.hidden_dim, layer.memory_dim) for layer in model.layers)
        peaks = []
        for t in (50, 400):
            feats = rng.standard_normal((n, t, 5))
            tracemalloc.start()
            try:
                calibrate_activation_scales(model, feats)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 * n * widest * 8


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
            feats = (rng.standard_normal((12, 5)) * rng.uniform(0.5, 2.0))[None]
            engine, hat = engine_steps(qm, feats), hat_steps(model, scales, weight_bits, feats)
            for name in hat:
                np.testing.assert_array_equal(engine[name], hat[name], err_msg=name)
            np.testing.assert_array_equal(quantized_forward(qm, feats)[0], hat["logits"])

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
        feats = (rng.standard_normal((10, input_dim)) * rng.uniform(0.5, 2.0))[None]
        engine, hat = engine_steps(qm, feats), hat_steps(model, scales, weight_bits, feats)
        for name in hat:
            np.testing.assert_array_equal(engine[name], hat[name], err_msg=name)
        np.testing.assert_array_equal(quantized_forward(qm, feats)[0], hat["logits"])

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


# ---------------------------------------------------------------------------
# Independent integer reference: the per-term, per-cell int64 engine the
# compiled float64 stages replaced.  Every sum is aligned term by term with
# int64 shifts and requantized with the integer shift oracle.
# ---------------------------------------------------------------------------

def _int_requantize(acc, from_exp, to_exp):
    """Move to the 7-bit grid 2**to_exp: round-half-even shift, saturate."""
    if to_exp >= from_exp:
        out = round_half_even_rshift(acc, to_exp - from_exp)
    else:
        out = acc << (from_exp - to_exp)
    return np.clip(out, -64, 63)


def _aligned_sum(terms):
    """Sum (acc, grid_exp) terms on their common minimum grid, exactly."""
    gmin = min(g for _, g in terms)
    total = 0
    for acc, g in terms:
        total = total + (acc << (g - gmin))
    return total, gmin


def reference_forward(qm, features, state=None):
    """Integer-only forward; state is (h per layer, m per layer per cell)."""
    if state is None:
        state = (
            [np.zeros(layer.hidden_dim, dtype=np.int64) for layer in qm.layers],
            [[np.zeros(c.order, dtype=np.int64) for c in layer.cells] for layer in qm.layers],
        )
    h, m = state
    x_q = quantize(features, QuantSpec(7, qm.input_exp)).q
    logits = np.empty((len(features), 12), dtype=np.int64)
    for t in range(len(features)):
        x, x_exp = x_q[t], qm.input_exp
        for i, layer in enumerate(qm.layers):
            acc, g = _aligned_sum([
                (layer.input_encoder.q @ x, layer.input_encoder.spec.scale_exp + x_exp),
                (layer.hidden_encoder.q @ h[i], layer.hidden_encoder.spec.scale_exp + layer.h_exp),
            ])
            u = _int_requantize(acc, g, layer.u_exp)
            for k, cell in enumerate(layer.cells):
                acc, g = _aligned_sum([
                    (cell.A.q @ m[i][k], cell.A.spec.scale_exp + layer.m_exp),
                    (cell.B.q * u[k], cell.B.spec.scale_exp + layer.u_exp),
                ])
                m[i][k] = _int_requantize(acc, g, layer.m_exp)
            acc, g = _aligned_sum([
                (layer.input_kernel.q @ x, layer.input_kernel.spec.scale_exp + x_exp),
                (layer.memory_kernel.q @ np.concatenate(m[i]),
                 layer.memory_kernel.spec.scale_exp + layer.m_exp),
            ])
            h[i] = _int_requantize(np.maximum(acc + layer.bias.q, 0), g, layer.h_exp)
            x, x_exp = h[i], layer.h_exp
        logits[t] = qm.output_weight.q @ x + qm.output_bias.q
    return logits, state


class TestCompiledEngine:
    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 12), st.lists(st.integers(1, 16), min_size=1, max_size=4)),
            min_size=1, max_size=2,
        ),
        input_dim=st.integers(1, 8),
        weight_bits=st.sampled_from([4, 8]),
        cuts=st.lists(st.integers(1, 15), max_size=5),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_integer_reference(self, topology, input_dim, weight_bits, cuts, batch, seed):
        # 1-2 layers of 1-4 cells whose windows double from cell to cell, so
        # each cell's A and B land on their own scales; fed in random chunks
        # with the state carried, the compiled engine equals the per-term
        # integer reference integer for integer, logits and state.  So does
        # a batch of streams, run whole or in the same chunks, row by row.
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(
            input_dim=input_dim,
            layers=tuple(
                LayerConfig(hidden=hidden, cells=tuple(
                    CellConfig(order, float(rng.uniform(0.04, 0.06)) * 2**k)
                    for k, order in enumerate(orders)))
                for hidden, orders in topology
            ),
        )
        model = build_model(cfg, rng)
        for layer in model.layers:
            layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
            layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
        scales = calibrate_activation_scales(model, rng.standard_normal((4, 10, input_dim)))
        qm = freeze(model, weight_bits, scales)
        feats = rng.standard_normal((batch, 16, input_dim)) * rng.uniform(0.5, 4.0, (batch, 1, 1))

        def chunked(x, state):
            parts = []
            for chunk in np.split(x, sorted(set(cuts)), axis=-2):
                out, state = quantized_forward(qm, chunk, state)
                parts.append(out)
            return np.concatenate(parts, axis=-2), state

        def check(logits, state, ref, row=...):
            ref_logits, (ref_h, ref_m) = ref
            np.testing.assert_array_equal(logits, ref_logits)
            for i in range(len(qm.layers)):
                np.testing.assert_array_equal(state.h[i][row], ref_h[i])
                np.testing.assert_array_equal(state.m[i][row], np.concatenate(ref_m[i]))

        refs = [reference_forward(qm, row) for row in feats]
        check(*chunked(feats[0], QuantStreamState(qm)), refs[0])
        for row, ref in zip(feats, refs):
            check(*quantized_forward(qm, row), ref)
        for logits, state in (quantized_forward(qm, feats),
                              chunked(feats, QuantStreamState(qm, (batch,)))):
            for b, ref in enumerate(refs):
                check(logits[b], state, ref, b)

    def test_h_accumulator_just_below_2_31(self):
        # Layer 0's input kernel at full 8-bit magnitude (-128), 15 bits
        # coarser than the h grid, and a bias that fills the rest: the proven
        # worst case is 2^31 - 1.  Saturated inputs drive it; at step 5 every
        # input is -64, so one row's input term plus bias alone is
        # 2^31 - 1 - 64 * (its memory-kernel row sum).
        _, _, qm, rng = _calibrated(19)
        layer = qm.layers[0]
        ker_m = layer.memory_kernel.spec.scale_exp + layer.m_exp
        layer.input_kernel = QuantTensor(np.full(layer.input_kernel.shape, -128),
                                         QuantSpec(8, ker_m + 15 - qm.input_exp))
        row_sums = np.abs(layer.memory_kernel.q).sum(axis=1)
        row = int(np.argmax(row_sums))
        worst = (128 * 64 * qm.input_dim << 15) + 64 * int(row_sums[row])
        bias = rng.integers(-(2**31 - 1 - worst), 0, layer.hidden_dim)
        bias[row] = 2**31 - 1 - worst
        layer.bias = QuantTensor(bias, QuantSpec(32, ker_m))
        assert_accumulator_safe(qm)
        step = 2.0**qm.input_exp
        feats = rng.choice([-64.0, 63.0], size=(24, qm.input_dim)) * step
        feats[5] = -64.0 * step
        ref, (ref_h, ref_m) = reference_forward(qm, feats)
        logits, state = quantized_forward(qm, feats)
        np.testing.assert_array_equal(logits, ref)
        steps = engine_steps(qm, feats)
        # These inputs saturate u, m and h in every layer; the state's
        # read-outs still equal the reference's state.
        for i in range(len(qm.layers)):
            np.testing.assert_array_equal(state.h[i], ref_h[i])
            np.testing.assert_array_equal(state.m[i], np.concatenate(ref_m[i]))
            for site, bounds in (("u", (-64, 63)), ("m", (-64, 63)), ("h", (63,))):
                assert all((steps[f"layer{i}.{site}"] == b).any() for b in bounds), (site, i)
        layer.bias.q[row] += 1
        with pytest.raises(ValueError, match="h accumulator"):
            quantized_forward(qm, feats)

    def test_logit_accumulator_just_below_2_31(self):
        # The output head is the one stage whose accumulator is returned
        # unrounded, so a float path that lost low bits near 2^31 shows up
        # directly in the logits.
        _, _, qm, rng = _calibrated(27)
        w = qm.output_weight
        qm.output_weight = QuantTensor(np.full(w.shape, 127), w.spec)
        room = 2**31 - 1 - 127 * 64 * w.shape[1]
        bias = rng.integers(-room, room, 12)
        bias[:2] = room, -room
        qm.output_bias = QuantTensor(bias, qm.output_bias.spec)
        assert_accumulator_safe(qm)
        feats = rng.choice([-4.0, 4.0], size=(24, qm.input_dim)) * rng.uniform(0.5, 2.0)
        ref, _ = reference_forward(qm, feats)
        logits, _ = quantized_forward(qm, feats)
        np.testing.assert_array_equal(logits, ref)
        assert np.abs(logits).max() > 2**30

    def test_output_grid_far_finer_than_its_sum(self):
        # A model file may put a stage's output grid any distance below its
        # accumulator's.  With both encoders of the last layer zero, u is 0
        # and the proof holds for any h grid.  Every positive preactivation
        # saturates at 2^7 times finer already (|sum| >= 1 becomes >= 128),
        # so 2^-5000 must give the same integers, not the NaNs of weights
        # scaled past float64's range.
        _, _, qm, rng = _calibrated(29)
        layer = qm.layers[-1]
        for name in ("input_encoder", "hidden_encoder"):
            old = getattr(layer, name)
            setattr(layer, name, QuantTensor(np.zeros_like(old.q), old.spec))
        feats = rng.standard_normal((8, 5))
        out_bias = qm.output_bias.q  # moved with h onto the head's grid

        def move_h_grid(h_exp):
            layer.h_exp = h_exp
            grid = qm.output_weight.spec.scale_exp + h_exp
            qm.output_bias = QuantTensor(out_bias, QuantSpec(32, grid))

        move_h_grid(layer.bias.spec.scale_exp - 7)
        near, near_state = quantized_forward(qm, feats)
        assert set(np.unique(near_state.h[-1])) == {0, 63}
        move_h_grid(-5000)
        far, far_state = quantized_forward(qm, feats)
        np.testing.assert_array_equal(far, near)
        np.testing.assert_array_equal(far_state.h[-1], near_state.h[-1])

    def test_edit_past_the_proof_raises(self):
        # The engine re-proves an edited model instead of running stages
        # that no longer match it.
        _, _, qm, rng = _calibrated(20)
        feats = rng.standard_normal((6, 5))
        quantized_forward(qm, feats)
        stream = QuantStreamState(qm)
        qm.layers[0].bias.q[0] = 2**31 - 1
        with pytest.raises(ValueError, match="h accumulator"):
            quantized_forward(qm, feats)
        with pytest.raises(ValueError, match="h accumulator"):
            QuantStreamState(qm)
        # A stream made before the edit keeps the stages it started with.
        quantized_forward(qm, feats, stream)

    def test_state_of_another_batch_rejected(self):
        _, _, qm, rng = _calibrated(23)
        for batch, shape in (((3,), (2, 4, 5)), ((), (2, 4, 5)), ((2,), (4, 5)),
                             ((2, 3), (3, 2, 4, 5))):
            with pytest.raises(ValueError, match="batch"):
                quantized_forward(qm, rng.standard_normal(shape), QuantStreamState(qm, batch))

    def test_two_batch_axes_equal_rows(self):
        _, _, qm, rng = _calibrated(24)
        feats = rng.standard_normal((2, 3, 7, 5))
        logits, state = quantized_forward(qm, feats)
        assert logits.shape == (2, 3, 7, 12) and state.h[0].shape == (2, 3, 9)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(logits[idx], quantized_forward(qm, feats[idx])[0])

    def test_state_of_another_model_rejected(self):
        _, _, qm, rng = _calibrated(21)
        _, _, other, _ = _calibrated(22)
        with pytest.raises(ValueError, match="another model"):
            quantized_forward(qm, rng.standard_normal((2, 5)), QuantStreamState(other))


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

    def test_model_without_layers(self):
        # The output head straight on the quantized input, alone and batched.
        rng = np.random.default_rng(12)
        model = build_model(ModelConfig(input_dim=5, layers=()), rng)
        feats = rng.standard_normal((2, 7, 5))
        qm = freeze(model, 8, calibrate_activation_scales(model, feats))
        logits, _ = quantized_forward(qm, feats)
        for b in range(2):
            np.testing.assert_array_equal(logits[b], reference_forward(qm, feats[b])[0])

    def test_evaluate_equals_per_clip_count(self):
        _, _, qm, rng = _calibrated(10)
        x = rng.standard_normal((9, 6, 5))
        y = rng.integers(0, 12, 9)
        y[:4] = [np.argmax(quantized_forward(qm, x[i])[0][-1]) for i in range(4)]
        correct = sum(int(np.argmax(quantized_forward(qm, x[i])[0][-1]) == y[i])
                      for i in range(9))
        assert correct >= 4
        assert evaluate(qm, x, y) == correct / 9

    def test_rejects_bad_shape(self):
        _, _, qm, _ = _calibrated(9)
        with pytest.raises(ValueError):
            quantized_forward(qm, np.zeros((4, 6)))
        with pytest.raises(ValueError):
            quantized_forward(qm, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_value_in_one_row(self, bad):
        # Checked before any step, so the state is left as it was.
        _, _, qm, rng = _calibrated(11)
        state = QuantStreamState(qm, (3,))
        quantized_forward(qm, rng.standard_normal((3, 4, 5)), state)
        before = state.h + state.m
        feats = rng.standard_normal((3, 4, 5))
        feats[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quantized_forward(qm, feats, state)
        for a, b in zip(before, state.h + state.m):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("preset", REFERENCE_NAMES)
    def test_batch_equals_rows_on_every_preset(self, preset):
        # The presets' full-size stages, where BLAS blocks a batched product
        # differently from a matrix-vector one: still the same integers.
        cfg = reference_config(preset)
        rng = np.random.default_rng(0)
        model = build_model(cfg, rng)
        for layer in model.layers:
            layer.hidden_encoder[:] = rng.uniform(-0.2, 0.2, layer.hidden_encoder.shape)
            layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
        feats = rng.standard_normal((6, 5, cfg.input_dim))
        qm = freeze(model, cfg.weight_bits, calibrate_activation_scales(model, feats))
        logits, state = quantized_forward(qm, feats)
        hops = QuantStreamState(qm, (6,))
        for t in range(5):
            hop, hops = quantized_forward(qm, feats[:, t : t + 1], hops)
            np.testing.assert_array_equal(hop[:, 0], logits[:, t])
        assert np.unique(logits[:, -1], axis=0).shape[0] > 1
        for b in range(6):
            alone, alone_state = quantized_forward(qm, feats[b])
            np.testing.assert_array_equal(logits[b], alone)
            for st, i in itertools.product((state, hops), range(len(qm.layers))):
                np.testing.assert_array_equal(st.h[i][b], alone_state.h[i])
                np.testing.assert_array_equal(st.m[i][b], alone_state.m[i])


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


def _with_crc(path, body: bytes) -> None:
    """Write a model file body followed by its valid CRC."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.fixture(scope="module")
def small_model_files(tmp_path_factory):
    """Two small model files: a pruned one-layer model whose hidden encoder
    is still all zero, as build_model leaves it, and a two-layer one."""
    rng = np.random.default_rng(31)
    cfg = ModelConfig(input_dim=3, layers=(
        LayerConfig(hidden=3, cells=(CellConfig(2, 0.1), CellConfig(1, 0.2))),))
    model = build_model(cfg, rng)
    model.layers[0].bias[:] = rng.uniform(-0.3, 0.3, 3)
    mask = prune_magnitude(model, 0.3)
    apply_mask(model, mask)
    scales = calibrate_activation_scales(model, rng.standard_normal((4, 8, 3)))
    pruned = freeze(model, 8, scales, mask=mask)
    _, _, two_layer, _ = _calibrated(32, weight_bits=4)
    paths = []
    for k, qm in enumerate((pruned, two_layer)):
        paths.append(tmp_path_factory.mktemp("small-models") / f"model{k}.lmuq")
        save_model(qm, paths[-1])
    return paths


def _record_scales(blob: bytes) -> list:
    """The scale exponent of each tensor record of a model file, in file
    order, read by the layout in ``modelfile``'s docstring, with each
    record's shape and width from ``lmu.stored_layout``."""
    pos = len(MAGIC) + 2

    def take(fmt):
        nonlocal pos
        values = struct.unpack_from(fmt, blob, pos)
        pos += struct.calcsize(fmt)
        return values

    _, input_dim, weight_bits, _ = take("<32sHBh")
    for _ in range(take("<H")[0]):  # labels
        (n,) = take("<H")
        pos += n
    topology = []
    for _ in range(take("<H")[0]):  # layers
        hidden = take("<Hhhh")[0]
        topology.append((hidden, list(take(f"<{take('<H')[0]}H"))))
    scales = []
    for shape, bits in stored_layout(input_dim, topology, weight_bits).values():
        scale_exp, has_mask = take("<hB")
        count = math.prod(shape)
        pos += has_mask * ((count + 7) // 8) + (count * bits + 7) // 8
        scales.append(scale_exp)
    assert pos == len(blob) - 4  # then the CRC
    return scales


def _add_order_0_cell(qm, i, k):
    """Give layer i of an unpruned qm an order-0 cell at position k, its
    encoders widened by a zero row to match: consistent but for the cell
    rule."""
    layer = qm.layers[i]
    layer.cells.insert(k, QuantizedCell(A=QuantTensor(np.zeros((0, 0)), QuantSpec(8, 0)),
                                        B=QuantTensor(np.zeros(0), QuantSpec(8, 0))))
    for name in ("input_encoder", "hidden_encoder"):
        qt = getattr(layer, name)
        setattr(layer, name, QuantTensor(np.insert(qt.q, k, 0, axis=0), qt.spec))


class TestModelFile:
    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 6), st.lists(st.integers(1, 5), min_size=1, max_size=3)),
            min_size=0, max_size=3,
        ),
        input_dim=st.integers(1, 6),
        weight_bits=st.sampled_from([4, 8]),
        sparsity=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_save_is_byte_identical(self, topology, input_dim, weight_bits, sparsity,
                                              seed):
        # Models without layers and layers of one cell included; the records
        # are stored_tensors() in its order, keep-masks and all.
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(input_dim=input_dim, layers=tuple(
            LayerConfig(hidden=hidden, cells=tuple(
                CellConfig(order, float(rng.uniform(0.05, 0.5))) for order in orders))
            for hidden, orders in topology))
        model = build_model(cfg, rng)
        for layer in model.layers:
            layer.hidden_encoder[:] = rng.uniform(-0.4, 0.4, layer.hidden_encoder.shape)
            layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
        mask = prune_magnitude(model, sparsity) if sparsity else None
        if mask is not None:
            apply_mask(model, mask)
        scales = calibrate_activation_scales(model, rng.standard_normal((3, 6, input_dim)))
        qm = freeze(model, weight_bits, scales, mask=mask)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.lmuq", Path(tmp) / "b.lmuq"
            save_model(qm, first)
            loaded = load_model(first)
            save_model(loaded, second)
            assert second.read_bytes() == first.read_bytes()
            tensors = qm.stored_tensors()
            assert _record_scales(first.read_bytes()) == [qt.spec.scale_exp for qt in tensors]
            assert [(qt.spec, qt.shape) for qt in loaded.stored_tensors()] == \
                [(qt.spec, qt.shape) for qt in tensors]

    @pytest.mark.parametrize("name", tensor_shapes(5, [(9, [4, 3]), (7, [5])]))  # _config()
    def test_every_tensor_shape_is_checked(self, tmp_path, name):
        # Every trainable tensor, cut by one entry on its last axis: the file
        # stores no shapes, so the writer refuses it.
        _, _, qm, _ = _calibrated(23)
        owner, attr = name.split(".")
        if owner == "output":
            owner, attr = qm, f"output_{attr}"
        else:
            owner = qm.layers[int(owner.removeprefix("layer"))]
        qt = getattr(owner, attr)
        setattr(owner, attr, QuantTensor(qt.q[..., :-1], qt.spec))
        path = tmp_path / "model.lmuq"
        with pytest.raises(ValueError, match=name):
            save_model(qm, path)
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(which=st.integers(0, 1), at=st.floats(0, 1, exclude_max=True),
           edit=st.binary(min_size=1, max_size=8))
    def test_edit_with_valid_crc_fails_cleanly_or_runs(self, small_model_files, which, at, edit):
        # Any bytes of the file overwritten and the CRC recomputed: the file
        # is rejected as malformed, or it loads, passes the accumulator
        # proof, runs with every activation in range and has a hardware
        # profile.
        body = small_model_files[which].read_bytes()[:-4]
        pos = int(at * len(body))
        path = small_model_files[which].with_name("edited.lmuq")
        _with_crc(path, body[:pos] + edit + body[pos + len(edit):])
        try:
            qm = load_model(path)
        except ModelFormatError:
            return
        assert_accumulator_safe(qm)
        feats = np.random.default_rng(0).standard_normal((2, 6, qm.input_dim)) * 4
        logits, state = quantized_forward(qm, feats)
        assert logits.shape == (2, 6, 12) and np.abs(logits).max() < 2**31
        for h, m in zip(state.h, state.m):
            assert 0 <= h.min() and h.max() <= 63 and -64 <= m.min() and m.max() <= 63
        assert profile_workload(qm).macs_per_frame > 0

    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 5), st.lists(st.integers(1, 4), min_size=1, max_size=3)),
            min_size=1, max_size=3,
        ),
        order_0=st.booleans(),
        data=st.data(),
    )
    def test_file_loads_exactly_when_the_cell_rule_accepts_its_cells(self, topology, order_0,
                                                                      data):
        # A frozen model as it is, or with a new order-0 cell whose encoders
        # are widened to match.  An order-0 cell used to fail the
        # accumulator proof with numpy's "zero-size array" message, which
        # named neither the cell nor the rule.
        rng = np.random.default_rng(0)
        model = build_model(ModelConfig(input_dim=3, layers=tuple(
            LayerConfig(hidden=hidden, cells=tuple(CellConfig(order, 0.2) for order in orders))
            for hidden, orders in topology)), rng)
        qm = freeze(model, 8, calibrate_activation_scales(model, rng.standard_normal((2, 4, 3))))
        i = data.draw(st.integers(0, len(qm.layers) - 1), label="layer")
        k = data.draw(st.integers(0, len(qm.layers[i].cells) - (not order_0)), label="cell")
        if order_0:
            _add_order_0_cell(qm, i, k)
        order = qm.layers[i].cells[k].order
        try:
            legendre_state_space(order, 0.2)
            accepted = True
        except ValueError:
            accepted = False
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.lmuq"
            save_model(qm, path)
            if accepted:
                assert load_model(path).layers[i].cells[k].order == order
            else:
                with pytest.raises(ModelFormatError, match=rf"layer{i}\.cell{k}: "):
                    load_model(path)

    @pytest.mark.parametrize("text", [b"label0"], ids=["label"])  # labels are the only text
    def test_text_that_is_not_utf8_rejected(self, small_model_files, tmp_path, text):
        body = small_model_files[1].read_bytes()[:-4]
        at = body.index(struct.pack("<H", len(text)) + text) + 2
        _with_crc(tmp_path / "m.lmuq", body[:at] + b"\xff" + body[at + 1:])
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model(tmp_path / "m.lmuq")

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

    def test_nonzero_payload_in_pruned_slot_rejected(self, tmp_path):
        # Such a weight would run in the engine but not count in the size metric.
        model, scales, _, _ = _calibrated(27)
        mask = prune_magnitude(model, 0.5)
        apply_mask(model, mask)
        qm = freeze(model, 4, scales, mask=mask)
        name = "layer0.memory_kernel"
        pruned = np.argwhere(~qm.keep_masks[name])[0]
        qm.layers[0].memory_kernel.q[tuple(pruned)] = 1
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        with pytest.raises(ModelFormatError, match=f"{name}.*pruned"):
            load_model(path)

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

    def test_output_bias_off_its_grid_rejected(self, tmp_path):
        # The head adds its bias to the product sum on the sum's grid; a bias
        # stored 5 steps finer would be added as integers of another grid.
        _, _, qm, _ = _calibrated(33)
        bias = qm.output_bias
        qm.output_bias = QuantTensor(bias.q, QuantSpec(32, bias.spec.scale_exp - 5))
        with pytest.raises(ValueError, match="output bias grid"):
            assert_accumulator_safe(qm)
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        with pytest.raises(ModelFormatError, match="output bias grid"):
            load_model(path)

    def test_tensor_shape_must_match_topology(self, tmp_path):
        # Written without the check, this file would read back as another model.
        _, _, qm, _ = _calibrated(23)
        kernel = qm.layers[0].memory_kernel
        qm.layers[0].memory_kernel = QuantTensor(kernel.q[:, :-1], kernel.spec)
        with pytest.raises(ValueError, match=r"'layer0\.memory_kernel' is 8-bit \(9, 6\); "
                                             r"the topology needs 8-bit \(9, 7\)"):
            save_model(qm, tmp_path / "model.lmuq")
        # So would a keep-mask of another shape than its tensor's.
        qm.layers[0].memory_kernel = kernel
        qm.keep_masks["layer0.memory_kernel"] = np.ones((9, 6), dtype=bool)
        with pytest.raises(ValueError, match=r"memory_kernel' is 8-bit \(9, 7\) with a "
                                             r"\(9, 6\) keep-mask"):
            save_model(qm, tmp_path / "model.lmuq")
        assert not (tmp_path / "model.lmuq").exists()

    def test_exactly_12_labels(self, tmp_path):
        _, _, qm, _ = _calibrated(24)
        qm.label_names = qm.label_names[:11]
        path = tmp_path / "model.lmuq"
        save_model(qm, path)
        with pytest.raises(ModelFormatError, match="labels"):
            load_model(path)

    @pytest.mark.parametrize("name, bits", [
        ("input_kernel", 4),  # an 8-bit model's weight stored at 4 bits
        ("bias", 8),
    ])
    def test_bit_widths(self, tmp_path, name, bits):
        _, _, qm, _ = _calibrated(25)
        old = getattr(qm.layers[0], name)
        setattr(qm.layers[0], name,
                QuantTensor(np.clip(old.q, -8, 7), QuantSpec(bits, old.spec.scale_exp)))
        with pytest.raises(ValueError, match=f"{name}.*{bits}-bit"):
            save_model(qm, tmp_path / "model.lmuq")

    def test_memory_matrix_bit_width(self, tmp_path):
        _, _, qm, _ = _calibrated(26)
        cell = qm.layers[0].cells[0]
        cell.B = QuantTensor(np.clip(cell.B.q, -8, 7), QuantSpec(4, cell.B.spec.scale_exp))
        with pytest.raises(ValueError, match=r"cell0\.B' is 4-bit"):
            save_model(qm, tmp_path / "model.lmuq")
