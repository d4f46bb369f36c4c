"""The training step, fake-quant and magnitude pruning against reference loops.

The library's training step uses preallocated buffers, skips multiplies by
all-true straight-through masks, fake-quantizes in one pass and prunes by
linear-time selection.  Each of those must give the same float bits as the
straightforward versions kept here: the quantize -> dequantize round trip,
the per-step backward that allocates every product, and the stable argsort.
Bytes are compared with ``tobytes``, so a signed zero counts as a difference.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lmukws.fixedpoint import (
    ACTIVATION_BITS,
    QuantSpec,
    fake_quant,
    prune_magnitude,
    quantize,
    weight_quant_spec,
)
from lmukws.lmu import CellConfig, LayerConfig, ModelConfig, build_model
from lmukws.qmodel import ActivationScales, calibrate_activation_scales, preactivation_exp
from lmukws.training import forward_backward, hat_forward, softmax_cross_entropy


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

def ref_fake_quant(x, spec):
    x = np.asarray(x, dtype=np.float64)
    y = quantize(x, spec).dequantize()
    lo = spec.qmin * spec.step
    hi = spec.qmax * spec.step
    return y, (x >= lo) & (x <= hi)


def ref_prune_magnitude(model, sparsity):
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
            masks[name] &= ~drop[offset : offset + t.size].reshape(t.shape)
            offset += t.size
    return masks


def _ref_fq_weight(w, bits):
    spec = weight_quant_spec(w, bits)
    y, mask = ref_fake_quant(w, spec)
    # A weight's grid covers its largest magnitude, so its straight-through
    # mask passes every entry; the step keeps no weight masks on that basis.
    assert mask.all()
    return y, spec.scale_exp


def _ref_memory_matrices(layer, quant_on):
    D = layer.memory_dim
    A = np.zeros((D, D))
    B = np.zeros((len(layer.cells), D))
    off = 0
    for k, cell in enumerate(layer.cells):
        sl = slice(off, off + cell.order)
        A_k, B_k = cell.A_d, cell.B_d
        if quant_on:
            A_k, B_k = _ref_fq_weight(A_k, 8)[0], _ref_fq_weight(B_k, 8)[0]
        A[sl, sl], B[k, sl] = A_k, B_k
        off += cell.order
    return A, B


def ref_hat_forward(model, feats, quant_on=False, scales=None, weight_bits=8):
    """The unrolled forward with every mask materialized, one step at a time."""
    feats = np.asarray(feats, dtype=np.float64)
    B, T, _ = feats.shape

    def act_fq(x, exp):
        if not quant_on:
            return x, np.ones(x.shape, dtype=bool)
        return ref_fake_quant(x, QuantSpec(ACTIVATION_BITS, exp))

    x, _ = act_fq(feats, scales.input_exp if quant_on else 0)
    x_exp = scales.input_exp if quant_on else 0
    layers = []
    for li, layer in enumerate(model.layers):
        if quant_on:
            u_exp, m_exp, h_exp = scales.layer_exps[li]
        w_fq, w_exp = {}, {}
        for name in ("input_encoder", "hidden_encoder", "input_kernel", "memory_kernel"):
            w = getattr(layer, name)
            if quant_on:
                w_fq[name], w_exp[name] = _ref_fq_weight(w, weight_bits)
            else:
                w_fq[name] = w
        if quant_on:
            pre_exp = preactivation_exp(w_exp["input_kernel"], x_exp,
                                        w_exp["memory_kernel"], m_exp)
            w_fq["bias"], bias_mask = ref_fake_quant(layer.bias, QuantSpec(32, pre_exp))
        else:
            w_fq["bias"], bias_mask = layer.bias, np.ones(layer.bias.shape, dtype=bool)
        A, B_in = _ref_memory_matrices(layer, quant_on)
        c_dim, h_dim, D = len(layer.cells), layer.hidden_dim, layer.memory_dim
        U, M, H = np.empty((B, T, c_dim)), np.empty((B, T, D)), np.empty((B, T, h_dim))
        mask_u = np.empty((B, T, c_dim), dtype=bool)
        mask_m = np.empty((B, T, D), dtype=bool)
        mask_h = np.empty((B, T, h_dim), dtype=bool)
        h_prev, m_prev = np.zeros((B, h_dim)), np.zeros((B, D))
        for t in range(T):
            u_pre = x[:, t] @ w_fq["input_encoder"].T + h_prev @ w_fq["hidden_encoder"].T
            u, mu = act_fq(u_pre, u_exp if quant_on else 0)
            m, mm = act_fq(m_prev @ A.T + u @ B_in, m_exp if quant_on else 0)
            pre = x[:, t] @ w_fq["input_kernel"].T + m @ w_fq["memory_kernel"].T + w_fq["bias"]
            h, mh = act_fq(np.maximum(pre, 0.0), h_exp if quant_on else 0)
            U[:, t], M[:, t], H[:, t] = u, m, h
            mask_u[:, t], mask_m[:, t] = mu, mm
            mask_h[:, t] = mh & (pre > 0.0)
            h_prev, m_prev = h, m
        layers.append(dict(x=x, u=U, m=M, h=H, mask_u=mask_u, mask_m=mask_m,
                           mask_h=mask_h, bias_mask=bias_mask, w_fq=w_fq, A=A, B=B_in))
        x = H
        if quant_on:
            x_exp = h_exp
    if quant_on:
        out_w, out_exp = _ref_fq_weight(model.output_weight, weight_bits)
        out_b, out_b_mask = ref_fake_quant(model.output_bias, QuantSpec(32, out_exp + x_exp))
    else:
        out_w = model.output_weight
        out_b = model.output_bias
        out_b_mask = np.ones(out_b.shape, dtype=bool)
    return layers, x @ out_w.T + out_b, out_w, out_b_mask


def ref_forward_backward(model, batch, quant_on=False, scales=None, weight_bits=8):
    """Loss and gradients, every product freshly allocated, layer 0's dX kept."""
    feats, labels = batch
    layers, logits, out_w, out_b_mask = ref_hat_forward(model, feats, quant_on, scales,
                                                        weight_bits)
    loss, dz = softmax_cross_entropy(logits[:, -1, :], np.asarray(labels))
    grads = {}
    B, T, _ = logits.shape
    grads["output.weight"] = dz.T @ layers[-1]["h"][:, -1]
    grads["output.bias"] = dz.sum(axis=0) * out_b_mask
    dh_ext = np.zeros_like(layers[-1]["h"])
    dh_ext[:, -1] = dz @ out_w
    for li in range(len(model.layers) - 1, -1, -1):
        layer, lc = model.layers[li], layers[li]
        w = lc["w_fq"]
        dWex = np.zeros_like(layer.input_encoder)
        dWeh = np.zeros_like(layer.hidden_encoder)
        dWx = np.zeros_like(layer.input_kernel)
        dWm = np.zeros_like(layer.memory_kernel)
        db = np.zeros_like(layer.bias)
        dX = np.zeros_like(lc["x"])
        dh_carry = np.zeros((B, layer.hidden_dim))
        dm_carry = np.zeros((B, layer.memory_dim))
        for t in range(T - 1, -1, -1):
            dh = (dh_ext[:, t] + dh_carry) * lc["mask_h"][:, t]
            db += dh.sum(axis=0)
            dWx += dh.T @ lc["x"][:, t]
            dWm += dh.T @ lc["m"][:, t]
            dX[:, t] += dh @ w["input_kernel"]
            dm = (dh @ w["memory_kernel"] + dm_carry) * lc["mask_m"][:, t]
            du = (dm @ lc["B"].T) * lc["mask_u"][:, t]
            dm_carry = dm @ lc["A"]
            dWex += du.T @ lc["x"][:, t]
            h_prev = lc["h"][:, t - 1] if t > 0 else np.zeros((B, layer.hidden_dim))
            dWeh += du.T @ h_prev
            dX[:, t] += du @ w["input_encoder"]
            dh_carry = du @ w["hidden_encoder"]
        grads[f"layer{li}.input_encoder"] = dWex
        grads[f"layer{li}.hidden_encoder"] = dWeh
        grads[f"layer{li}.input_kernel"] = dWx
        grads[f"layer{li}.memory_kernel"] = dWm
        grads[f"layer{li}.bias"] = db * lc["bias_mask"]
        dh_ext = dX
    return loss, grads, layers, logits


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------

@st.composite
def _step_case(draw):
    n_layers = draw(st.integers(1, 3))
    layers = tuple(
        LayerConfig(hidden=draw(st.integers(1, 6)),
                    cells=tuple(CellConfig(order=draw(st.integers(1, 4)),
                                           theta=draw(st.sampled_from((0.1, 0.2, 0.4))))
                                for _ in range(draw(st.integers(1, 3)))))
        for _ in range(n_layers)
    )
    cfg = ModelConfig(input_dim=draw(st.integers(1, 5)), layers=layers)
    return dict(
        cfg=cfg, B=draw(st.integers(1, 5)), T=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        quant_on=draw(st.booleans()), weight_bits=draw(st.sampled_from((4, 8))),
        # shifting the calibrated grids coarser or finer makes sites saturate
        # or round to zero, so both mask paths run
        shift=draw(st.integers(-3, 3)),
        zero_frac=draw(st.sampled_from((0.0, 0.3))),
    )


def _random_model(cfg, rng, zero_frac):
    model = build_model(cfg, rng)
    for layer in model.layers:
        layer.hidden_encoder[:] = rng.uniform(-0.8, 0.8, layer.hidden_encoder.shape)
        layer.bias[:] = rng.uniform(-0.5, 0.5, layer.bias.shape)
    model.output_bias[:] = rng.uniform(-0.5, 0.5, model.output_bias.shape)
    for _, t in model.trainable_tensors():
        t[rng.random(t.shape) < zero_frac] = 0.0  # exact zeros, as pruning leaves
    return model


def _shifted(scales, shift):
    return ActivationScales(
        input_exp=scales.input_exp + shift,
        layer_exps=tuple(tuple(e + shift for e in exps) for exps in scales.layer_exps),
    )


@settings(max_examples=150, deadline=None)
@given(case=_step_case())
def test_step_is_bit_identical_to_reference(case):
    cfg, B, T = case["cfg"], case["B"], case["T"]
    rng = np.random.default_rng(case["seed"])
    model = _random_model(cfg, rng, case["zero_frac"])
    feats = rng.standard_normal((B, T, cfg.input_dim)) * rng.uniform(0.1, 3.0)
    feats[rng.random(feats.shape) < 0.2] = 0.0
    labels = rng.integers(0, 12, size=B)
    scales = None
    if case["quant_on"]:
        scales = _shifted(calibrate_activation_scales(model, feats), case["shift"])
    kw = dict(quant_on=case["quant_on"], scales=scales, weight_bits=case["weight_bits"])

    loss, grads = forward_backward(model, (feats, labels), **kw)
    ref_loss, ref_grads, ref_layers, ref_logits = ref_forward_backward(
        model, (feats, labels), **kw)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name

    cache = hat_forward(model, feats, **kw)
    assert cache.logits.tobytes() == ref_logits.tobytes()
    for lc, ref in zip(cache.layers, ref_layers):
        for site in ("u", "m", "h"):
            assert getattr(lc, site).tobytes() == ref[site].tobytes(), site


def test_saturated_output_bias_gets_no_gradient():
    # On an h grid 40 steps finer, the logits' grid tops out near 1e-6, so
    # an output bias of 5.0 saturates.  Its gradient came through unmasked.
    cfg = ModelConfig(input_dim=3, layers=(LayerConfig(hidden=4, cells=(CellConfig(2, 0.2),)),))
    rng = np.random.default_rng(0)
    model = _random_model(cfg, rng, 0.0)
    model.output_bias[:] = 5.0
    feats = rng.standard_normal((4, 3, cfg.input_dim))
    labels = np.arange(4)
    scales = calibrate_activation_scales(model, feats)
    (u_exp, m_exp, h_exp), = scales.layer_exps
    scales = ActivationScales(input_exp=scales.input_exp,
                              layer_exps=((u_exp, m_exp, h_exp - 40),))
    _, grads = forward_backward(model, (feats, labels), quant_on=True, scales=scales,
                                weight_bits=8)
    assert np.all(grads["output.bias"] == 0.0)
    assert np.any(grads["output.weight"] != 0.0)
    cache = hat_forward(model, feats, quant_on=True, scales=scales, weight_bits=8)
    assert np.all(cache.out_b_fq < 1e-5)
    assert not cache.out_b_mask.any()


# ---------------------------------------------------------------------------
# fake_quant
# ---------------------------------------------------------------------------

@st.composite
def _fq_case(draw):
    bits = draw(st.sampled_from((4, 7, 8, 32)))
    # 2.0**e is a finite nonzero float for -1074 <= e <= 1023
    e = draw(st.one_of(st.integers(-12, 12), st.integers(-1074, 1023),
                       st.sampled_from((-1074, -1060, -1024, -1023, -1022, -1000,
                                        1000, 1021, 1022, 1023))))
    spec = QuantSpec(bits, e)
    # on-grid values, exact .5 ties and the saturation edges, in grid units
    k = draw(st.integers(-(1 << (bits - 1)) - 3, (1 << (bits - 1)) + 2))
    units = [k, k + 0.5, k - 0.5, spec.qmin, spec.qmax, spec.qmin - 0.5, spec.qmax + 0.5,
             spec.qmin - 0.25, spec.qmax + 0.25]
    with np.errstate(over="ignore"):
        grid = np.ldexp(np.array(units + [-0.25], dtype=np.float64), e)
    free = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    return spec, np.concatenate([grid[np.isfinite(grid)], free, [0.0, -0.0]])


@settings(max_examples=400, deadline=None)
@given(case=_fq_case())
@example(case=(QuantSpec(7, -3), np.array([-0.0, -0.01, 0.0625, -0.0625, 0.1875, 7.9375, -8.0,
                                               -8.1, 8.0, 1e300, -1e300])))
@example(case=(QuantSpec(32, -40), np.array([-0.0, 2.0**-41, -(2.0**-41), 3 * 2.0**-41,
                                                (2**31 - 0.5) * 2.0**-40, -(2**31 + 0.5) * 2.0**-40])))
def test_fake_quant_is_bit_identical_to_round_trip(case):
    spec, x = case
    with np.errstate(over="ignore", under="ignore"):
        y, mask = fake_quant(x, spec)
        ref_y, ref_mask = ref_fake_quant(x, spec)
    assert y.tobytes() == ref_y.tobytes()
    assert mask.tobytes() == ref_mask.tobytes()


def test_fake_quant_gives_positive_zero():
    y, _ = fake_quant(np.array([-0.0, -0.01]), QuantSpec(7, -3))
    assert np.signbit(y).tolist() == [False, False]


def test_fake_quant_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        try:
            fake_quant(np.array([1.0, bad]), QuantSpec(8, 0))
        except ValueError:
            continue
        raise AssertionError(f"{bad} was accepted")


# ---------------------------------------------------------------------------
# prune_magnitude
# ---------------------------------------------------------------------------

class _Tensors:
    def __init__(self, tensors):
        self.tensors = tensors

    def trainable_tensors(self):
        yield from self.tensors.items()


_MAGNITUDES = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, 2.0, np.nan)),
                        st.floats(-4, 4))


@st.composite
def _prune_case(draw):
    tensors = {}
    for i in range(draw(st.integers(1, 3))):
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
        values = draw(st.lists(_MAGNITUDES, min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        tensors[f"t{i}"] = np.array(values, dtype=np.float64).reshape(shape)
    n = sum(t.size for t in tensors.values())
    k = draw(st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1)))
    return tensors, n, k


@settings(max_examples=400, deadline=None)
@given(case=_prune_case())
def test_prune_is_the_stable_argsort_selection(case):
    tensors, n, k = case
    sparsity = (k + 0.5) / n  # int(sparsity * n) == k
    model = _Tensors(tensors)
    mask = prune_magnitude(model, sparsity)
    ref = ref_prune_magnitude(model, sparsity)
    assert sum(int((~m).sum()) for m in mask.values()) == k
    assert mask.keys() == ref.keys()
    for name in ref:
        assert mask[name].tobytes() == ref[name].tobytes(), name
        assert mask[name].dtype == bool and mask[name].shape == tensors[name].shape
