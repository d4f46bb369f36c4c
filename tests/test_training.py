"""Tests for gradients, the optimizer, pruning schedule, and the train loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmukws import training
from lmukws.frontend import N_LABELS
from lmukws.lmu import CellConfig, LayerConfig, ModelConfig, build_model
from lmukws.modelfile import save_model
from lmukws.qmodel import calibrate_activation_scales, freeze, quantized_forward
from lmukws.training import (
    Adam,
    TrainConfig,
    TrainingError,
    evaluate,
    forward_backward,
    hat_forward,
    majority_baseline,
    softmax_cross_entropy,
    sparsity_at,
    train,
)

TINY = ModelConfig(
    input_dim=4,
    layers=(LayerConfig(hidden=6, cells=(CellConfig(4, 0.2),)),),
)


def _tiny_model(seed):
    rng = np.random.default_rng(seed)
    model = build_model(TINY, rng)
    for layer in model.layers:
        layer.hidden_encoder[:] = rng.uniform(-0.5, 0.5, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    return model, rng


def _loss_only(model, batch):
    cache = hat_forward(model, batch[0])
    loss, _ = softmax_cross_entropy(cache.logits[:, -1], batch[1])
    return loss


def _worst_fd_error(model, feats, labels, h=1e-5):
    """Largest relative gap between reverse mode and central differences."""
    _, grads = forward_backward(model, (feats, labels))
    worst = 0.0
    for name, w in model.trainable_tensors():
        g = grads[name]
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = _loss_only(model, (feats, labels))
            w[idx] = orig - h
            dn = _loss_only(model, (feats, labels))
            w[idx] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8))
    return worst


def _toy_dataset(seed, n=240, T=20, F=6, classes=(0, 1, 2, 3)):
    """Separable sequence classes: shared noise plus a class-specific ramp."""
    rng = np.random.default_rng(seed)
    patterns = rng.standard_normal((len(classes), F))
    x = np.empty((n, T, F), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        k = i % len(classes)
        ramp = np.linspace(0.2, 1.0, T)[:, None]
        x[i] = 0.3 * rng.standard_normal((T, F)) + ramp * patterns[k]
        y[i] = classes[k]
    cut = int(0.8 * n)
    return SimpleNamespace(
        train_x=x[:cut], train_y=y[:cut], val_x=x[cut:], val_y=y[cut:],
        label_names=[f"label{i}" for i in range(12)], frontend_hash=bytes(32),
    )


class TestLossAndGradients:
    def test_uniform_logits_loss_is_ln12(self):
        # Zero weights leave every logit equal, so the softmax is uniform.
        model = build_model(TINY, None)
        feats = np.random.default_rng(0).standard_normal((3, 10, 4))
        loss, _ = forward_backward(model, (feats, np.array([0, 5, 11])))
        np.testing.assert_allclose(loss, np.log(12.0), rtol=1e-12)

    def test_certain_predictions_give_positive_zero_loss(self):
        # Every log-probability rounds to 0; train-log.txt printed -0.000000.
        loss, _ = softmax_cross_entropy(np.array([[800.0, 0, 0], [0, 900.0, 0]]), np.array([0, 1]))
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0

    def test_finite_difference_check(self):
        # Closed-form reverse mode vs central differences, double precision.
        model, rng = _tiny_model(1)
        feats = rng.standard_normal((3, 10, 4))
        labels = np.array([2, 7, 0])
        assert _worst_fd_error(model, feats, labels) < 1e-4

    def test_finite_difference_check_two_cells(self):
        # Two cells share one block-diagonal memory; a gradient leaking
        # across blocks would show here and not in the one-cell check.
        cfg = ModelConfig(
            input_dim=3,
            layers=(LayerConfig(hidden=4, cells=(CellConfig(3, 0.2), CellConfig(2, 0.1))),),
        )
        rng = np.random.default_rng(5)
        model = build_model(cfg, rng)
        model.layers[0].hidden_encoder[:] = rng.uniform(-0.5, 0.5, (2, 4))
        model.layers[0].bias[:] = rng.uniform(-0.3, 0.3, 4)
        feats = rng.standard_normal((2, 8, 3))
        assert _worst_fd_error(model, feats, np.array([4, 9])) < 1e-4

    def test_memory_matrices_have_no_gradients(self):
        model, rng = _tiny_model(2)
        _, grads = forward_backward(model, (rng.standard_normal((2, 8, 4)), np.array([1, 3])))
        assert set(grads) == {name for name, _ in model.trainable_tensors()}

    def test_saturated_activations_block_gradient(self):
        # Calibrate scales, then inflate the encoders so u saturates at every
        # step: the straight-through rule zeroes both encoder gradients.
        model, rng = _tiny_model(3)
        calib = [rng.standard_normal((10, 4)) for _ in range(4)]
        scales = calibrate_activation_scales(model, calib)
        model.layers[0].input_encoder *= 1e4
        feats = np.ones((2, 10, 4))
        _, grads = forward_backward(
            model, (feats, np.array([0, 1])), quant_on=True, scales=scales, weight_bits=8
        )
        np.testing.assert_array_equal(grads["layer0.input_encoder"], 0.0)
        np.testing.assert_array_equal(grads["layer0.hidden_encoder"], 0.0)

    def test_quant_on_requires_scales_and_weight_width(self):
        # Each has no default of its own: the width comes from the model's
        # config, as the scales come from calibration.
        model, rng = _tiny_model(3)
        feats = rng.standard_normal((2, 6, 4))
        scales = calibrate_activation_scales(model, feats)
        for kw in ({"scales": scales}, {"weight_bits": 8}):
            with pytest.raises(ValueError, match="scales and a weight width"):
                hat_forward(model, feats, quant_on=True, **kw)
            with pytest.raises(ValueError, match="scales and a weight width"):
                forward_backward(model, (feats, np.array([0, 1])), quant_on=True, **kw)

    def test_non_finite_loss_raises(self):
        model, rng = _tiny_model(4)
        model.output_weight[:] = 1e300
        model.layers[0].input_kernel[:] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                forward_backward(model, (rng.standard_normal((2, 6, 4)), np.array([0, 1])))


class TestEvaluate:
    def test_zero_utterances_rejected_for_both_model_kinds(self):
        model, rng = _tiny_model(6)
        scales = calibrate_activation_scales(model, rng.standard_normal((4, 10, 4)))
        qm = freeze(model, 8, scales)
        for m in (model, qm):
            with pytest.raises(ValueError, match="zero utterances"):
                evaluate(m, np.zeros((0, 10, 4)), np.zeros(0, dtype=np.int64))


    @settings(max_examples=30, deadline=None)
    @given(
        topology=st.lists(
            st.tuples(st.integers(1, 9), st.lists(st.integers(1, 8), min_size=1, max_size=3)),
            min_size=0, max_size=3,
        ),
        input_dim=st.integers(1, 6),
        n=st.integers(1, 40),
        t=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_accuracy_is_hat_forwards_on_the_last_frame(self, topology, input_dim,
                                                              n, t, seed):
        # evaluate steps a float model through time and applies the head to
        # the last h only; its argmax is the one of hat_forward's last frame.
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
        model.output_bias[:] = rng.uniform(-0.3, 0.3, model.output_bias.shape)
        feats = rng.standard_normal((n, t, input_dim))
        pred = hat_forward(model, feats).logits[:, -1].argmax(axis=1)
        # About half the labels are the prediction, so a wrong frame shows.
        y = np.where(rng.random(n) < 0.5, pred, rng.integers(0, N_LABELS, n))
        assert evaluate(model, feats, y) == float((pred == y).mean())


class TestAdam:
    def test_single_step_matches_hand_calc(self):
        # One Adam step from zero moments moves each weight by exactly
        # lr * g / (|g| + eps) regardless of the gradient's size.
        model = build_model(TINY, np.random.default_rng(0))
        before = {n: w.copy() for n, w in model.trainable_tensors()}
        opt = Adam(model, lr=0.01)
        opt.step({n: np.full_like(w, 2.0) for n, w in model.trainable_tensors()})
        for name, w in model.trainable_tensors():
            np.testing.assert_allclose(before[name] - w, 0.01 * 2.0 / (2.0 + 1e-8))


class TestPruningSchedule:
    def test_cubic_ramp_shape(self):
        cfg = TrainConfig(model=TINY, prune_start=100, prune_end=200, target_sparsity=0.8)
        assert sparsity_at(0, cfg) == 0.0
        assert sparsity_at(99, cfg) == 0.0
        assert sparsity_at(200, cfg) == 0.8
        assert sparsity_at(1000, cfg) == 0.8
        np.testing.assert_allclose(sparsity_at(150, cfg), 0.8 * (1 - 0.5**3))
        mid = [sparsity_at(s, cfg) for s in range(100, 201)]
        assert all(b >= a for a, b in zip(mid, mid[1:]))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(model=TINY, prune_start=100, prune_end=50, target_sparsity=0.5)
        with pytest.raises(ValueError):
            TrainConfig(model=TINY, prune_start=100, prune_end=None, target_sparsity=0.5)
        with pytest.raises(ValueError):
            TrainConfig(model=TINY, target_sparsity=1.0)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("steps", -1), ("batch_size", 0), ("log_every", 0),
        ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("quant_on_step", -1),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(model=TINY, **{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(model=TINY, steps=1, batch_size=1, log_every=1,
                    learning_rate=1e-12, quant_on_step=0)
        TrainConfig(model=TINY, quant_on_step=None)

    def test_log_every_zero_fails_before_any_step(self):
        # It raised ZeroDivisionError at step 0, after the first update.
        with pytest.raises(ValueError, match="log_every"):
            train(TrainConfig(model=TINY, steps=2, log_every=0), _never_read())


def _never_read():
    """A dataset whose every attribute read fails the test."""
    class Dataset:
        def __getattr__(self, name):
            raise AssertionError(f"dataset.{name} read")
    return Dataset()


class TestTrainLoop:
    def test_loss_falls_and_beats_baseline(self):
        data = _toy_dataset(0)
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=16, cells=(CellConfig(6, 0.2),)),),
            ),
            steps=150,
            learning_rate=1e-2,
            seed=0,
        )
        result = train(cfg, data)
        assert result.final_loss < np.log(12.0)
        acc = evaluate(result.model, data.val_x, data.val_y)
        assert acc > majority_baseline(data.val_y) + 0.2

    def test_hat_run_freezes_matching_deployment(self):
        data = _toy_dataset(1)
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=12, cells=(CellConfig(5, 0.2),)),),
                weight_bits=4,
            ),
            steps=120,
            quant_on_step=60,
            seed=1,
        )
        result = train(cfg, data)
        assert result.quantized is not None
        # Deployed integer accuracy equals the fake-quant graph's accuracy:
        # bit-exactness makes them literally the same classifier.
        fq_logits = hat_forward(result.model, data.val_x, quant_on=True,
                                scales=result.scales, weight_bits=4).logits
        fq_acc = float((fq_logits[:, -1].argmax(axis=1) == data.val_y).mean())
        q_acc = evaluate(result.quantized, data.val_x, data.val_y)
        assert fq_acc == q_acc

    def test_float_run_freezes_on_the_first_training_sequences(self, tmp_path, monkeypatch):
        # Without HAT, train() calibrates on the first CALIBRATION_SEQUENCES
        # training sequences, then freezes with the run's mask and frontend.
        # The corpus has 192, so the count is lowered to show which are read.
        monkeypatch.setattr(training, "CALIBRATION_SEQUENCES", 50)
        data = _toy_dataset(5)
        data.frontend_hash = bytes(range(32))
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=8, cells=(CellConfig(4, 0.2),)),),
                weight_bits=4,
            ),
            steps=30,
            prune_start=5,
            prune_end=20,
            target_sparsity=0.5,
            seed=5,
        )
        before = data.train_x.copy()
        result = train(cfg, data)
        np.testing.assert_array_equal(data.train_x, before)  # calibrated on a view of it
        scales = calibrate_activation_scales(result.model, data.train_x[:50])
        assert result.scales == scales
        expected = freeze(result.model, 4, scales, mask=result.mask,
                          frontend_hash=data.frontend_hash)
        save_model(result.quantized, tmp_path / "trained.lmuq")
        save_model(expected, tmp_path / "expected.lmuq")
        assert (tmp_path / "trained.lmuq").read_bytes() == (tmp_path / "expected.lmuq").read_bytes()

    def test_sparsity_hits_exact_target(self):
        data = _toy_dataset(2)
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=10, cells=(CellConfig(4, 0.2),)),),
                weight_bits=4,
            ),
            steps=80,
            quant_on_step=20,
            prune_start=30,
            prune_end=60,
            target_sparsity=0.75,
            seed=2,
        )
        result = train(cfg, data)
        n = result.model.parameter_count()
        pruned = sum(int((~m).sum()) for m in result.mask.values())
        assert pruned == int(0.75 * n)
        zeros = sum(int((w == 0).sum()) for _, w in result.model.trainable_tensors())
        assert zeros >= pruned

    def test_seeded_run_reproducible(self):
        data = _toy_dataset(3)
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=8, cells=(CellConfig(4, 0.2),)),),
            ),
            steps=40,
            seed=7,
        )
        a = train(cfg, data)
        b = train(cfg, data)
        for (_, wa), (_, wb) in zip(a.model.trainable_tensors(), b.model.trainable_tensors()):
            np.testing.assert_array_equal(wa, wb)

    def test_streaming_eval_matches_offline(self):
        # Deployed model, one long feature stream cut into utterances.
        data = _toy_dataset(4)
        cfg = TrainConfig(
            model=ModelConfig(
                input_dim=6,
                layers=(LayerConfig(hidden=8, cells=(CellConfig(4, 0.2),)),),
                weight_bits=8,
            ),
            steps=60,
            quant_on_step=30,
            seed=3,
        )
        qm = train(cfg, data).quantized
        feats = data.val_x[0]
        one, _ = quantized_forward(qm, feats)
        from lmukws.qmodel import QuantStreamState

        state = QuantStreamState(qm)
        parts = []
        for row in feats:
            out, state = quantized_forward(qm, row[None], state)
            parts.append(out)
        np.testing.assert_array_equal(np.concatenate(parts), one)
