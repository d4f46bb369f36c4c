"""Tests for the Legendre memory unit and the float forward over a model."""

import numpy as np
import pytest

from lmukws.lmu import (
    CellConfig,
    LayerConfig,
    MemoryCell,
    ModelConfig,
    build_model,
    decode_window,
    discretize,
    legendre_state_space,
    shifted_legendre,
)
from lmukws.training import hat_forward


class TestLegendreStateSpace:
    def test_order_one(self):
        ss = legendre_state_space(1, 1.0)
        np.testing.assert_allclose(ss.A, [[-1.0]])
        np.testing.assert_allclose(ss.B, [1.0])

    def test_order_two_half_second(self):
        # Hand-expanded from the closed form at d=2, theta=0.5.
        ss = legendre_state_space(2, 0.5)
        np.testing.assert_allclose(ss.A, [[-2.0, -2.0], [6.0, -6.0]])
        np.testing.assert_allclose(ss.B, [2.0, -6.0])

    def test_theta_scales_inversely(self):
        a = legendre_state_space(5, 1.0)
        b = legendre_state_space(5, 0.25)
        np.testing.assert_allclose(b.A, a.A * 4.0)
        np.testing.assert_allclose(b.B, a.B * 4.0)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
    def test_hurwitz(self, order):
        # Every continuous-time eigenvalue strictly in the left half plane.
        ss = legendre_state_space(order, 0.3)
        assert np.all(np.linalg.eigvals(ss.A).real < 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            legendre_state_space(0, 1.0)
        with pytest.raises(ValueError):
            legendre_state_space(4, 0.0)
        with pytest.raises(ValueError):
            legendre_state_space(4, -1.0)


class TestDiscretize:
    def test_scalar_zoh_exact(self):
        # dm/dt = -m + u discretized at dt=0.1: A_d = e^-0.1, B_d = 1 - e^-0.1.
        ss = legendre_state_space(1, 1.0)
        A_d, B_d = discretize(ss, 0.1)
        np.testing.assert_allclose(A_d, [[np.exp(-0.1)]], rtol=1e-14)
        np.testing.assert_allclose(B_d, [1.0 - np.exp(-0.1)], rtol=1e-14)

    @pytest.mark.parametrize("order,theta", [(4, 0.2), (8, 0.2), (16, 1.0), (32, 0.2)])
    def test_zoh_spectral_radius_below_one(self, order, theta):
        ss = legendre_state_space(order, theta)
        A_d, _ = discretize(ss, 0.02)
        assert np.max(np.abs(np.linalg.eigvals(A_d))) < 1.0

    def test_zoh_exact_for_constant_input(self):
        # ZOH is exact when u is piecewise constant: constant u=1 drives the
        # scalar system m' = -m + 1 to m(t) = 1 - e^-t exactly at step edges.
        cell = MemoryCell(1, 1.0, 0.05)
        for k in range(1, 201):
            cell.step(1.0)
            np.testing.assert_allclose(cell.m[0], 1.0 - np.exp(-0.05 * k), rtol=1e-12)

    def test_rejects_bad_arguments(self):
        ss = legendre_state_space(2, 1.0)
        with pytest.raises(ValueError):
            discretize(ss, 0.0)
        with pytest.raises(ValueError):
            discretize(ss, -0.02)


class TestDecodeWindow:
    def test_shifted_legendre_endpoints(self):
        # P~_i(1) = 1 for all i; P~_i(0) = (-1)^i.
        vals1 = shifted_legendre(6, 1.0)
        vals0 = shifted_legendre(6, 0.0)
        np.testing.assert_allclose(vals1, np.ones(6), atol=1e-13)
        np.testing.assert_allclose(vals0, (-1.0) ** np.arange(6), atol=1e-13)

    def test_constant_input_decodes_to_constant(self):
        # After the window fills with a constant, every tap reads it back.
        cell = MemoryCell(6, 0.2, 0.02)
        for _ in range(400):
            cell.step(0.75)
        for r in [0.0, 0.25, 0.5, 1.0]:
            assert abs(decode_window(cell, r) - 0.75) < 1e-6

    def test_r_out_of_range(self):
        cell = MemoryCell(4, 0.2, 0.02)
        with pytest.raises(ValueError):
            decode_window(cell, 1.5)
        with pytest.raises(ValueError):
            decode_window(cell, -0.1)

    def test_delayed_noise_nrmse_smoke(self):
        # Small-seed version of the full delay-decoding check in the
        # acceptance suite: reading the oldest tap (r=1) of a 0.2 s window
        # recovers the input from 10 steps ago.
        errs = [_delay_nrmse(order=8, seed=s) for s in range(3)]
        assert max(errs) < 0.15


def _band_limited_noise(rng, n, dt, f_max=4.25, p=6):
    """Unit-variance noise with a smooth spectral rolloff above f_max Hz."""
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    freqs = np.fft.fftfreq(n, dt)
    spec *= np.exp(-((np.abs(freqs) / f_max) ** p))
    sig = np.fft.ifft(spec).real
    return sig / np.std(sig)


def _delay_nrmse(order, seed, theta=0.2, dt=0.02, n=3000, warmup=500):
    """NRMSE of the r=1 readout against the exactly theta-delayed input."""
    rng = np.random.default_rng(seed)
    u = _band_limited_noise(rng, n, dt)
    cell = MemoryCell(order, theta, dt)
    decoded = np.empty(n)
    for t in range(n):
        cell.step(u[t])
        decoded[t] = decode_window(cell, 1.0)
    delay = int(round(theta / dt))
    est = decoded[warmup:]
    ref = u[warmup - delay : n - delay]
    return np.sqrt(np.mean((est - ref) ** 2)) / np.sqrt(np.mean(ref**2))


def _small_config(seed_labels=False):
    return ModelConfig(
        input_dim=3,
        layers=(
            LayerConfig(hidden=5, cells=(CellConfig(3, 0.3), CellConfig(2, 0.15))),
            LayerConfig(hidden=4, cells=(CellConfig(4, 0.2),)),
        ),
        dt=0.02,
    )


def _reference_forward(model, features):
    """Unrolled plain-loop evaluator, independent of the library's forward."""
    T = features.shape[0]
    h = [np.zeros(l.hidden_dim) for l in model.layers]
    m = [[np.zeros(c.order) for c in l.cells] for l in model.layers]
    logits = np.zeros((T, 12))
    for t in range(T):
        x = features[t]
        for i, layer in enumerate(model.layers):
            u = []
            for k in range(len(layer.cells)):
                acc = 0.0
                for a in range(len(x)):
                    acc += layer.input_encoder[k, a] * x[a]
                for a in range(len(h[i])):
                    acc += layer.hidden_encoder[k, a] * h[i][a]
                u.append(acc)
            for k, cell in enumerate(layer.cells):
                m[i][k] = cell.A_d @ m[i][k] + cell.B_d * u[k]
            m_cat = np.concatenate(m[i])
            pre = layer.input_kernel @ x + layer.memory_kernel @ m_cat + layer.bias
            x = np.maximum(pre, 0.0)
            h[i] = x
        logits[t] = model.output_weight @ x + model.output_bias
    return logits


class TestModelForward:
    def test_matches_naive_reference(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = build_model(_small_config(), rng)
            # Break the zero hidden-encoder init so the h feedback is hit too.
            for layer in model.layers:
                layer.hidden_encoder[:] = rng.uniform(-0.5, 0.5, layer.hidden_encoder.shape)
            feats = rng.standard_normal((4, 12, 3))
            logits = hat_forward(model, feats).logits
            for b in range(feats.shape[0]):
                np.testing.assert_allclose(
                    logits[b], _reference_forward(model, feats[b]), rtol=1e-12
                )

    def test_causality(self):
        # Perturbing the input at step t must not change logits before t.
        rng = np.random.default_rng(3)
        model = build_model(_small_config(), rng)
        feats = rng.standard_normal((1, 20, 3))
        base = hat_forward(model, feats).logits[0]
        bumped = feats.copy()
        bumped[0, 12] += 5.0
        out = hat_forward(model, bumped).logits[0]
        np.testing.assert_array_equal(out[:12], base[:12])
        assert not np.array_equal(out[12:], base[12:])

    def test_long_run_stays_bounded(self):
        # The fixed memory is strictly stable, so bounded input keeps the
        # state bounded over hundreds of thousands of steps.
        rng = np.random.default_rng(0)
        cell = MemoryCell(8, 0.2, 0.02)
        u = rng.uniform(-1.0, 1.0, 200_000)
        peak = 0.0
        for v in u:
            cell.step(v)
            peak = max(peak, np.max(np.abs(cell.m)))
        assert peak < 50.0

    def test_rejects_bad_feature_shape(self):
        model = build_model(_small_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            hat_forward(model, np.zeros((1, 5, 4)))
        with pytest.raises(ValueError):
            hat_forward(model, np.zeros((1, 0, 3)))

    def test_validate_catches_shape_drift(self):
        model = build_model(_small_config(), np.random.default_rng(0))
        model.layers[0].memory_kernel = model.layers[0].memory_kernel[:, :-1]
        with pytest.raises(ValueError):
            model.validate()


class TestBuildModel:
    def test_deterministic_given_seed(self):
        a = build_model(_small_config(), np.random.default_rng(42))
        b = build_model(_small_config(), np.random.default_rng(42))
        for (_, ta), (_, tb) in zip(a.trainable_tensors(), b.trainable_tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_parameter_count(self):
        # Per layer: c*n + c*h + h*n + h*D + h, plus the 12-way output head.
        model = build_model(_small_config(), np.random.default_rng(0))
        expected = (2 * 3 + 2 * 5 + 5 * 3 + 5 * 5 + 5) + (1 * 5 + 1 * 4 + 4 * 5 + 4 * 4 + 4) + (
            12 * 4 + 12
        )
        assert model.parameter_count() == expected
