"""Training: reverse-mode gradients through the unrolled recurrence, Adam,
quantization-aware fine-tuning, and gradual magnitude pruning.

The quantization-aware forward here is the reference the deployed integer
path is held to: with quant_on, every weight, bias and memory matrix is the
tensor ``freeze`` stores (``qmodel.deployed_tensors``), dequantized, and every
activation is fake-quantized at its frozen scale.  All arithmetic lands on
power-of-two grids where float64 is exact, so the deployed integer model
reproduces this graph bit for bit.  Gradients use the straight-through
estimator: rounding is treated as identity inside the representable range,
zero outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import (
    ACTIVATION_BITS,
    PruneMask,
    QuantSpec,
    apply_mask,
    fake_quant,
    in_range,
    prune_magnitude,
)
from .lmu import ModelConfig, ModelGraph, build_model
from .qmodel import (
    ActivationScales,
    QuantizedModel,
    calibrate_activation_scales,
    deployed_tensors,
    freeze,
    quantized_forward,
)


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss)."""


@dataclass
class TrainConfig:
    model: ModelConfig
    learning_rate: float = 1e-2
    batch_size: int = 32
    steps: int = 200
    quant_on_step: int | None = None  # None disables HAT
    prune_start: int | None = None
    prune_end: int | None = None
    target_sparsity: float = 0.0
    calibration_sequences: int = 256
    seed: int = 0
    log_every: int = 20

    def __post_init__(self):
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError("target_sparsity must be in [0, 1)")
        check_prune_steps(self.prune_start, self.prune_end)


def check_prune_steps(prune_start: int | None, prune_end: int | None) -> None:
    """Raise ValueError unless both pruning steps are unset, or both set with
    start <= end."""
    if (prune_start is None) != (prune_end is None):
        raise ValueError("prune_start and prune_end must be set together")
    if prune_start is not None and prune_end < prune_start:
        raise ValueError("pruning schedule must be monotone")


def check_init_tensors(model: ModelGraph, tensors: dict) -> None:
    """Raise ValueError unless ``tensors`` holds, for every trainable tensor
    of ``model``, a finite real array of its shape."""
    for name, tensor in model.trainable_tensors():
        if name not in tensors:
            raise ValueError(f"missing tensor {name!r}")
        src = np.asarray(tensors[name])
        if src.shape != tensor.shape:
            raise ValueError(f"tensor {name!r} has shape {src.shape}, model expects {tensor.shape}")
        if src.dtype.kind not in "biuf" or not np.isfinite(src).all():
            raise ValueError(f"tensor {name!r} is not finite real numbers")


@dataclass
class GradientSet:
    """Per-trainable-tensor gradients, keyed like ModelGraph.trainable_tensors."""

    tensors: dict = field(default_factory=dict)


def sparsity_at(step: int, cfg: TrainConfig) -> float:
    """Cubic pruning ramp: 0 before start, exact target at and after end."""
    if cfg.prune_start is None or cfg.target_sparsity == 0.0 or step < cfg.prune_start:
        return 0.0
    if step >= cfg.prune_end:
        return cfg.target_sparsity
    progress = (step - cfg.prune_start) / (cfg.prune_end - cfg.prune_start)
    return cfg.target_sparsity * (1.0 - (1.0 - progress) ** 3)


# ---------------------------------------------------------------------------
# Forward (shared by training, evaluation, and the bit-exactness contract)
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    x: np.ndarray  # (B, T, n) layer input as consumed (post fake-quant)
    u: np.ndarray  # (B, T, c) post fake-quant
    m: np.ndarray  # (B, T, D) post fake-quant, cells concatenated
    h: np.ndarray  # (B, T, h) post relu and fake-quant
    # Straight-through masks; None where every entry would be True.  Without
    # fake-quant the u, m and bias masks are all True, and the h mask is the
    # relu's, h > 0.  A weight's mask is always all True: its grid covers its
    # largest magnitude (``qmodel.deployed_tensors``), so none is kept.
    mask_u: np.ndarray | None
    mask_m: np.ndarray | None
    mask_h: np.ndarray | None  # relu and fake-quant masks combined
    bias_mask: np.ndarray | None
    w_fq: dict  # weights and bias used (with quant_on, the stored ones)
    A: np.ndarray  # (D, D) block-diagonal memory matrix used
    B: np.ndarray  # (c, D) input matrix used: row k holds cell k's B_d in its block


@dataclass
class ForwardCache:
    layers: list
    logits: np.ndarray  # (B, T, 12)
    out_w_fq: np.ndarray
    out_b_fq: np.ndarray
    out_b_mask: np.ndarray | None  # None where every entry would be True
    logits_exp: int | None  # grid of the logits when quant_on, else None


def _memory_matrices(blocks):
    """One layer's memory cells, given as each cell's (A, B), as a single
    linear system m' = m A^T + u B: each A fills its own diagonal block, and
    row k of B holds cell k's B in that block."""
    D = sum(len(B_k) for _, B_k in blocks)
    A = np.zeros((D, D))
    B = np.zeros((len(blocks), D))
    off = 0
    for k, (A_k, B_k) in enumerate(blocks):
        sl = slice(off, off + len(B_k))
        A[sl, sl], B[k, sl] = A_k, B_k
        off += len(B_k)
    return A, B


def hat_forward(
    model: ModelGraph,
    feats: np.ndarray,
    quant_on: bool = False,
    scales: ActivationScales | None = None,
    weight_bits: int = 8,
) -> ForwardCache:
    """Unrolled batch forward storing everything backward needs.

    feats is (B, T, input_dim) with T >= 1.  This is the one float forward:
    training, evaluation and calibration all run it.  With quant_on,
    ``scales`` must hold the frozen activation scales; the parameters are
    then read from ``deployed_tensors(model, weight_bits, scales)`` and the
    arithmetic matches deployment exactly.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[2] != model.input_dim:
        raise ValueError(f"feats must be (B, T, {model.input_dim}), got {feats.shape}")
    if feats.shape[1] < 1:
        raise ValueError("feature sequences must contain at least one step")
    if quant_on and scales is None:
        raise ValueError("quant_on requires calibrated activation scales")
    B, T, _ = feats.shape
    qm = deployed_tensors(model, weight_bits, scales) if quant_on else None

    def act_fq(x, exp):
        if not quant_on:
            return x, None
        return fake_quant(x, QuantSpec(ACTIVATION_BITS, exp))

    x, _ = act_fq(feats, qm.input_exp if quant_on else None)
    caches = []
    names = ("input_encoder", "hidden_encoder", "input_kernel", "memory_kernel", "bias")
    for li, layer in enumerate(model.layers):
        if quant_on:
            ql = qm.layers[li]
            u_exp, m_exp, h_exp = ql.u_exp, ql.m_exp, ql.h_exp
            w_fq = {name: getattr(ql, name).dequantize() for name in names}
            bias_mask = in_range(layer.bias, ql.bias.spec)
            A, B_in = _memory_matrices([(c.A.dequantize(), c.B.dequantize()) for c in ql.cells])
        else:
            u_exp = m_exp = h_exp = None
            w_fq = {name: getattr(layer, name) for name in names}
            bias_mask = None
            A, B_in = _memory_matrices([(c.A_d, c.B_d) for c in layer.cells])
        bias_fq = w_fq["bias"]

        c_dim, h_dim, D = len(layer.cells), layer.hidden_dim, layer.memory_dim
        U = np.empty((B, T, c_dim))
        M = np.empty((B, T, D))
        H = np.empty((B, T, h_dim))
        mask_u = mask_m = mask_h = None
        if quant_on:
            mask_u = np.empty((B, T, c_dim), dtype=bool)
            mask_m = np.empty((B, T, D), dtype=bool)
            mask_h = np.empty((B, T, h_dim), dtype=bool)
        h_prev = np.zeros((B, h_dim))
        m_prev = np.zeros((B, D))
        # Each product goes into a buffer made once per layer and is summed
        # in the order the expressions (a @ b + c @ d) + bias would sum it.
        # m alternates between two buffers, so m_prev is never the output.
        u_pre, u_h = np.empty((B, c_dim)), np.empty((B, c_dim))
        m_bufs, m_u = (np.empty((B, D)), np.empty((B, D))), np.empty((B, D))
        pre, pre_m, relu = np.empty((B, h_dim)), np.empty((B, h_dim)), np.empty((B, h_dim))
        WexT, WehT = w_fq["input_encoder"].T, w_fq["hidden_encoder"].T
        WkT, WmT, AT = w_fq["input_kernel"].T, w_fq["memory_kernel"].T, A.T
        for t in range(T):
            x_t = x[:, t]
            np.matmul(x_t, WexT, out=u_pre)
            u_pre += np.matmul(h_prev, WehT, out=u_h)
            u, mu = act_fq(u_pre, u_exp)
            m_pre = m_bufs[t % 2]
            np.matmul(m_prev, AT, out=m_pre)
            m_pre += np.matmul(u, B_in, out=m_u)
            m, mm = act_fq(m_pre, m_exp)
            np.matmul(x_t, WkT, out=pre)
            pre += np.matmul(m, WmT, out=pre_m)
            pre += bias_fq
            np.maximum(pre, 0.0, out=relu)
            h, mh = act_fq(relu, h_exp)
            U[:, t], M[:, t], H[:, t] = u, m, h
            if quant_on:
                mask_u[:, t], mask_m[:, t] = mu, mm
                np.logical_and(mh, pre > 0.0, out=mask_h[:, t])
            h_prev, m_prev = h, m
        caches.append(
            _LayerCache(x=x, u=U, m=M, h=H, mask_u=mask_u, mask_m=mask_m,
                        mask_h=mask_h, bias_mask=bias_mask, w_fq=w_fq, A=A, B=B_in)
        )
        x = H

    if quant_on:
        out_w, out_b = qm.output_weight.dequantize(), qm.output_bias.dequantize()
        out_b_mask = in_range(model.output_bias, qm.output_bias.spec)
        logits_exp = qm.logits_exp
    else:
        out_w, out_b, out_b_mask = model.output_weight, model.output_bias, None
        logits_exp = None
    logits = x @ out_w.T + out_b
    return ForwardCache(
        layers=caches, logits=logits, out_w_fq=out_w, out_b_fq=out_b,
        out_b_mask=out_b_mask, logits_exp=logits_exp,
    )


# ---------------------------------------------------------------------------
# Loss and backward
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over the batch; returns (loss, dlogits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    B = logits.shape[0]
    loss = -logp[np.arange(B), labels].mean()
    probs = np.exp(logp)
    probs[np.arange(B), labels] -= 1.0
    return loss, probs / B


def forward_backward(
    model: ModelGraph,
    batch,
    quant_on: bool = False,
    scales: ActivationScales | None = None,
    weight_bits: int = 8,
):
    """Loss and exact reverse-mode gradients on a (features, labels) batch.

    Loss is softmax cross entropy on the final-frame logits.  The fixed
    memory matrices get no gradient entries.
    """
    feats, labels = batch
    labels = np.asarray(labels)
    cache = hat_forward(model, feats, quant_on=quant_on, scales=scales,
                        weight_bits=weight_bits)
    final_logits = cache.logits[:, -1, :]
    loss, dz = softmax_cross_entropy(final_logits, labels)
    if not math.isfinite(loss):
        raise TrainingError(
            f"non-finite loss {loss!r}; logit range "
            f"[{np.min(final_logits)}, {np.max(final_logits)}]"
        )

    grads = {}
    h_last = cache.layers[-1].h[:, -1]
    grads["output.weight"] = dz.T @ h_last
    grads["output.bias"] = dz.sum(axis=0)
    if cache.out_b_mask is not None:
        grads["output.bias"] *= cache.out_b_mask

    # External dh per step, time-major; the top layer receives the loss path.
    B, T, _ = cache.logits.shape
    dh_ext = np.zeros((T,) + h_last.shape)
    dh_ext[-1] = dz @ cache.out_w_fq
    for li in range(len(model.layers) - 1, -1, -1):
        lc = cache.layers[li]
        grad, dh_ext = _layer_backward(lc, dh_ext, need_dx=li > 0)
        if lc.bias_mask is not None:
            grad["bias"] *= lc.bias_mask
        for name, g in grad.items():
            grads[f"layer{li}.{name}"] = g
    return loss, GradientSet(tensors=grads)


def _layer_backward(lc: _LayerCache, dh_ext: np.ndarray, need_dx: bool):
    """One layer's reverse pass through all T steps, latest first.

    ``dh_ext`` is (T, B, h): the gradient its outputs receive from above.
    Returns the weight gradients (the bias's not yet masked) and, when
    ``need_dx``, the (T, B, n) gradient with respect to the layer input
    (else None).  Every product is the same BLAS call on the same operands,
    in the same t order, as a loop that allocates each one; it writes into
    a buffer made once per call.
    The only skipped work is exact: multiplies by all-True masks, adding the
    zero products of the zero state before t = 0, and carries nothing reads.
    The input gradient is P + Q where that loop forms (0 + P) + Q, so the two
    differ at most in the sign of a zero.  No weight gradient can see that:
    each is a sum that starts at +0.
    """
    w = lc.w_fq
    B, T, n = lc.x.shape
    h_dim, c_dim, D = lc.h.shape[2], lc.u.shape[2], lc.m.shape[2]
    grad = {name: np.zeros_like(w[name]) for name in
            ("input_encoder", "hidden_encoder", "input_kernel", "memory_kernel", "bias")}
    dWex, dWeh = grad["input_encoder"], grad["hidden_encoder"]
    dWx, dWm, db = grad["input_kernel"], grad["memory_kernel"], grad["bias"]
    prod = {name: np.empty_like(g) for name, g in grad.items() if name != "bias"}
    dh, dh_carry = np.empty((B, h_dim)), np.zeros((B, h_dim))
    dm, dm_carry = np.empty((B, D)), np.zeros((B, D))
    du = np.empty((B, c_dim))
    dX = np.empty((T, B, n)) if need_dx else None
    dx_u = np.empty((B, n)) if need_dx else None
    for t in range(T - 1, -1, -1):
        x_t = lc.x[:, t]
        np.add(dh_ext[t], dh_carry, out=dh)
        dh *= lc.h[:, t] > 0.0 if lc.mask_h is None else lc.mask_h[:, t]
        db += dh.sum(axis=0)
        dWx += np.matmul(dh.T, x_t, out=prod["input_kernel"])
        dWm += np.matmul(dh.T, lc.m[:, t], out=prod["memory_kernel"])
        np.matmul(dh, w["memory_kernel"], out=dm)
        dm += dm_carry
        if lc.mask_m is not None:
            dm *= lc.mask_m[:, t]
        np.matmul(dm, lc.B.T, out=du)
        if lc.mask_u is not None:
            du *= lc.mask_u[:, t]
        dWex += np.matmul(du.T, x_t, out=prod["input_encoder"])
        if need_dx:
            np.matmul(dh, w["input_kernel"], out=dX[t])
            dX[t] += np.matmul(du, w["input_encoder"], out=dx_u)
        if t > 0:
            dWeh += np.matmul(du.T, lc.h[:, t - 1], out=prod["hidden_encoder"])
            np.matmul(dm, lc.A, out=dm_carry)
            np.matmul(du, w["hidden_encoder"], out=dh_carry)
    return grad, dX


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba 2015

    def __init__(self, model: ModelGraph, lr: float):
        self.model = model
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(w) for name, w in model.trainable_tensors()}
        self.v = {name: np.zeros_like(w) for name, w in model.trainable_tensors()}

    def step(self, grads: GradientSet) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, w in self.model.trainable_tensors():
            g = grads.tensors[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            w -= self.lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.eps)


# ---------------------------------------------------------------------------
# Training pipeline and evaluation
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    quantized: QuantizedModel  # the frozen model
    model: ModelGraph
    scales: ActivationScales  # the HAT run's, or calibrated after float training
    mask: PruneMask | None
    log: list
    final_loss: float


def train(config: TrainConfig, dataset, init_tensors: dict | None = None) -> TrainResult:
    """Full pipeline: float warmup, HAT fine-tuning, pruning ramp, freeze.

    A run without HAT steps calibrates its activation scales on the first
    ``calibration_sequences`` training sequences before it freezes.

    ``dataset`` needs train_x (N, T, F), train_y (N,), label_names, and
    frontend_hash; see frontend.FeatureDataset.  ``init_tensors`` (a name ->
    array checkpoint) overrides the random initialization, so a run can
    resume from previously trained weights.
    """
    rng = np.random.default_rng(config.seed)
    model = build_model(config.model, rng)
    if init_tensors is not None:
        check_init_tensors(model, init_tensors)
        for name, tensor in model.trainable_tensors():
            tensor[...] = init_tensors[name]
    opt = Adam(model, config.learning_rate)
    n = dataset.train_x.shape[0]
    scales = None
    mask = None
    log = []
    loss = math.nan
    weight_bits = config.model.weight_bits
    for step in range(config.steps):
        quant_on = config.quant_on_step is not None and step >= config.quant_on_step
        if quant_on and scales is None:
            take = min(config.calibration_sequences, n)
            idx = rng.choice(n, size=take, replace=False)
            scales = calibrate_activation_scales(model, dataset.train_x[idx])
        target = sparsity_at(step, config)
        if target > 0.0:
            mask = prune_magnitude(model, target)
            apply_mask(model, mask)
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        batch = (dataset.train_x[idx], dataset.train_y[idx])
        loss, grads = forward_backward(
            model, batch, quant_on=quant_on, scales=scales, weight_bits=weight_bits
        )
        opt.step(grads)
        if mask is not None:
            apply_mask(model, mask)
        if step % config.log_every == 0 or step == config.steps - 1:
            log.append(
                {"step": step, "loss": float(loss), "quant_on": bool(quant_on),
                 "sparsity": float(target)}
            )
    if config.target_sparsity > 0.0 and mask is None:
        mask = prune_magnitude(model, config.target_sparsity)
        apply_mask(model, mask)
    if scales is None:  # no HAT step ran: calibrate the float model
        scales = calibrate_activation_scales(model, dataset.train_x[:config.calibration_sequences])
    quantized = freeze(
        model, weight_bits, scales, mask=mask,
        frontend_hash=getattr(dataset, "frontend_hash", bytes(32)),
    )
    return TrainResult(quantized=quantized, model=model, scales=scales, mask=mask,
                       log=log, final_loss=float(loss))


def evaluate(model, x: np.ndarray, y: np.ndarray) -> float:
    """Final-frame classification accuracy on (N, T, F) features of a float
    ModelGraph or a deployed QuantizedModel."""
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot evaluate on zero utterances")
    if isinstance(model, QuantizedModel):
        logits, _ = quantized_forward(model, x)
    else:
        logits = hat_forward(model, x).logits
    return float((logits[:, -1].argmax(axis=1) == y).mean())


def majority_baseline(y: np.ndarray) -> float:
    y = np.asarray(y)
    return np.bincount(y).max() / y.size if y.size else 0.0
