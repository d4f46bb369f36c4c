"""Tests for the Legendre memory unit and the float forward over a model."""

import hashlib

import numpy as np
import pytest

from lmukws.configs import REFERENCE_CONFIGS
from lmukws.fixedpoint import quantize, weight_quant_spec
from lmukws.lmu import (
    CellConfig,
    LayerConfig,
    MemoryCell,
    ModelConfig,
    build_model,
    decode_window,
    discretize,
    expm,
    legendre_state_space,
    shifted_legendre,
    tensor_shapes,
)
from lmukws.training import hat_forward


class TestLegendreStateSpace:
    def test_order_one(self):
        A, B = legendre_state_space(1, 1.0)
        np.testing.assert_allclose(A, [[-1.0]])
        np.testing.assert_allclose(B, [1.0])

    def test_order_two_half_second(self):
        # Hand-expanded from the closed form at d=2, theta=0.5.
        A, B = legendre_state_space(2, 0.5)
        np.testing.assert_allclose(A, [[-2.0, -2.0], [6.0, -6.0]])
        np.testing.assert_allclose(B, [2.0, -6.0])

    def test_theta_scales_inversely(self):
        a_A, a_B = legendre_state_space(5, 1.0)
        b_A, b_B = legendre_state_space(5, 0.25)
        np.testing.assert_allclose(b_A, a_A * 4.0)
        np.testing.assert_allclose(b_B, a_B * 4.0)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32])
    def test_hurwitz(self, order):
        # Every continuous-time eigenvalue strictly in the left half plane.
        A, _ = legendre_state_space(order, 0.3)
        assert np.all(np.linalg.eigvals(A).real < 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            legendre_state_space(0, 1.0)
        with pytest.raises(ValueError):
            legendre_state_space(4, 0.0)
        with pytest.raises(ValueError):
            legendre_state_space(4, -1.0)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_rejects_a_window_that_is_not_finite(self, theta):
        # An infinite window gave A = 0, which discretize cannot invert.
        with pytest.raises(ValueError, match="theta must be finite and > 0"):
            legendre_state_space(4, theta)


class TestDiscretize:
    def test_scalar_zoh_exact(self):
        # dm/dt = -m + u discretized at dt=0.1: A_d = e^-0.1, B_d = 1 - e^-0.1.
        A_d, B_d = discretize(*legendre_state_space(1, 1.0), 0.1)
        np.testing.assert_allclose(A_d, [[np.exp(-0.1)]], rtol=1e-14)
        np.testing.assert_allclose(B_d, [1.0 - np.exp(-0.1)], rtol=1e-14)

    @pytest.mark.parametrize("order,theta", [(4, 0.2), (8, 0.2), (16, 1.0), (32, 0.2)])
    def test_zoh_spectral_radius_below_one(self, order, theta):
        A_d, _ = discretize(*legendre_state_space(order, theta), 0.02)
        assert np.max(np.abs(np.linalg.eigvals(A_d))) < 1.0

    def test_zoh_exact_for_constant_input(self):
        # ZOH is exact when u is piecewise constant: constant u=1 drives the
        # scalar system m' = -m + 1 to m(t) = 1 - e^-t exactly at step edges.
        cell = MemoryCell(1, 1.0, 0.05)
        for k in range(1, 201):
            cell.step(1.0)
            np.testing.assert_allclose(cell.m[0], 1.0 - np.exp(-0.05 * k), rtol=1e-12)

    def test_rejects_bad_arguments(self):
        A, B = legendre_state_space(2, 1.0)
        with pytest.raises(ValueError):
            discretize(A, B, 0.0)
        with pytest.raises(ValueError):
            discretize(A, B, -0.02)
        with pytest.raises(ValueError, match="finite"):  # expm of an infinite matrix
            discretize(A, B, float("inf"))


class TestExpm:
    # Each tolerance is ten times the worst error scipy.linalg.expm gave on
    # the same check, rounded up to one significant digit.  Where scipy is
    # exact (it exponentiates a triangular matrix's diagonal directly), the
    # zero matrix stays exact and the diagonal allows 1e-14 relative.

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_zero_is_identity(self, n):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))

    def test_diagonal(self):
        d = np.array([-7.5, -3.0, -0.5, 0.0, 0.25, 1.0, 2.0, 4.5])
        E = expm(np.diag(d))
        np.testing.assert_array_equal(E - np.diag(np.diag(E)), 0.0)
        np.testing.assert_allclose(np.diag(E), np.exp(d), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 2.5, 3.0, 10.0, 40.0])
    def test_rotation(self, a):
        R = expm(np.array([[0.0, -a], [a, 0.0]]))
        c, s = np.cos(a), np.sin(a)
        np.testing.assert_allclose(R, [[c, -s], [s, c]], rtol=0, atol=3e-13)  # scipy: 2.9e-14

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_strictly_upper_triangular_is_a_finite_series(self, n, scale):
        N = np.triu(np.random.default_rng(n).uniform(-scale, scale, (n, n)), 1)
        series, term = np.eye(n), np.eye(n)
        for k in range(1, n):  # N^n = 0
            term = term @ N / k
            series = series + term
        err = np.max(np.abs(expm(N) - series)) / np.max(np.abs(series))
        assert err <= 4e-15  # scipy: 3.0e-16

    @pytest.mark.parametrize("order,theta", [(o, t) for o in (8, 12, 16) for t in (0.1, 0.2, 0.4, 0.8)])
    def test_legendre_inverse_and_commutation(self, order, theta):
        X = legendre_state_space(order, theta)[0] * 0.02
        E, E_inv = expm(X), expm(-X)
        scale = np.linalg.norm(E, 1)
        inverse_err = np.max(np.abs(E @ E_inv - np.eye(order))) / (scale * np.linalg.norm(E_inv, 1))
        commute_err = np.max(np.abs(E @ X - X @ E)) / (scale * np.linalg.norm(X, 1))
        assert inverse_err <= 8e-16  # scipy: 7.5e-17
        assert commute_err <= 6e-16  # scipy: 5.1e-17


# SHA-256 of each preset cell's deployed 8-bit A and B at dt = 0.02: payload
# and scale_exp of A, then of B, as freeze quantizes them.  Taken from
# scipy.linalg.expm's A_d, before lmu had its own expm.
DEPLOYED_CELL_DIGESTS = {
    (8, 0.1): "729f1f75c20e5e759b20178b9a0afe62d4e9778ab04fd6f3bd02f4ca44d6cd6e",
    (8, 0.2): "7dd578d14c9304f2fa801f3189f39b0b90681e421dc0f03e7d697396c0481f8d",
    (8, 0.4): "f36d77a470f9050af8f2349bcecbade23d13ef23a9cee500e7b6ea1ea0480c5d",
    (8, 0.8): "cb3ba47b6a1a69af3b56c7ba65f4950d9dd5ec5d655d83bb6008530216001809",
    (12, 0.1): "568c148ff30e2f1e78d5d7b27e389e23984809956e8292debd331646b547327f",
    (12, 0.2): "a398a29c4cc349f86ec64dffd355a5c219fb418c5d9cc9d778551521c44c7b0f",
    (12, 0.4): "f9e7b99399f0ce816ed81a41bcf90ded7a7fdfb22bcde97e7ce8cb7e02070ebf",
    (12, 0.8): "ebf09af6b1b5142b61f57541717d6c31dbe57093619e54f98e62147f89257a12",
    (16, 0.1): "241f79f82fcdae4b477969729a33d39ac8bba131e6448bbeb86f810c82063bb1",
    (16, 0.2): "a7b3a6d275744b1449b4fbe9b5e3d9695a0e72c09d3fa0264b3de86ebd8234a2",
    (16, 0.4): "5ea0701695573181b9610b893689d9cd43b65ae69a64b6d993cfaf63a4bd32ed",
    (16, 0.8): "b3aec3294e8b47536950e79c8cb4ff47e6b0bc3dd2c98792f256763f3ecae3a9",
}


def test_digests_cover_every_preset_cell():
    cells = {(c.order, c.theta) for cfg in REFERENCE_CONFIGS.values()
             for layer in cfg.layers for c in layer.cells}
    assert cells == set(DEPLOYED_CELL_DIGESTS)


@pytest.mark.parametrize("order,theta", DEPLOYED_CELL_DIGESTS)
def test_deployed_cell_matrices_are_pinned(order, theta):
    cell = MemoryCell(order, theta, 0.02)
    h = hashlib.sha256()
    for m in (cell.A_d, cell.B_d):
        qt = quantize(m, weight_quant_spec(m, 8))
        h.update(qt.q.astype("<i8").tobytes())
        h.update(str(qt.spec.scale_exp).encode())
    assert h.hexdigest() == DEPLOYED_CELL_DIGESTS[order, theta]


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

    @pytest.mark.parametrize("name", tensor_shapes(3, [(5, [3, 2]), (4, [4])]))  # _small_config
    def test_validate_checks_every_tensor_shape(self, name):
        # Every trainable tensor, cut by one entry on its last axis.
        model = build_model(_small_config(), np.random.default_rng(0))
        owner, attr = name.split(".")
        if owner == "output":
            owner, attr = model, f"output_{attr}"
        else:
            owner = model.layers[int(owner.removeprefix("layer"))]
        setattr(owner, attr, getattr(owner, attr)[..., :-1])
        with pytest.raises(ValueError, match=name):
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
