"""Training: reverse-mode gradients through the unrolled recurrence, Adam,
quantization-aware fine-tuning, and gradual magnitude pruning.

The quantization-aware forward here is the reference the deployed integer
path is held to: with quant_on, every weight and activation is fake-quantized
at deployment widths and scales, all arithmetic lands on power-of-two grids
where float64 is exact, so the deployed integer model reproduces this graph
bit for bit.  Gradients use the straight-through estimator: rounding is
treated as identity inside the representable range, zero outside.
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
    prune_magnitude,
    weight_quant_spec,
)
from .lmu import ModelConfig, ModelGraph, build_model
from .qmodel import (
    ActivationScales,
    QuantizedModel,
    calibrate_activation_scales,
    freeze,
    preactivation_exp,
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if (self.prune_start is None) != (self.prune_end is None):
            raise ValueError("prune_start and prune_end must be set together")
        if self.prune_start is not None and self.prune_end < self.prune_start:
            raise ValueError("pruning schedule must be monotone")


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
    mask_u: np.ndarray
    mask_m: np.ndarray
    mask_h: np.ndarray  # relu and fake-quant masks combined
    w_fq: dict  # fake-quantized weights used
    w_mask: dict  # straight-through masks for the weights
    A: np.ndarray  # (D, D) block-diagonal memory matrix used
    B: np.ndarray  # (c, D) input matrix used: row k holds cell k's B_d in its block


@dataclass
class ForwardCache:
    layers: list
    logits: np.ndarray  # (B, T, 12)
    out_w_fq: np.ndarray
    out_b_fq: np.ndarray
    out_w_mask: np.ndarray
    logits_exp: int | None  # grid of the logits when quant_on, else None


def _fq_weight(w: np.ndarray, bits: int):
    spec = weight_quant_spec(w, bits)
    y, mask = fake_quant(w, spec)
    return y, mask, spec.scale_exp


def _memory_matrices(layer, quant_on: bool):
    """One layer's memory cells as a single linear system m' = m A^T + u B.

    Each cell's A_d and B_d fill its own diagonal block; with quant_on each
    block is fake-quantized at 8 bits on that cell's own scale, as freeze
    stores it.
    """
    D = layer.memory_dim
    A = np.zeros((D, D))
    B = np.zeros((len(layer.cells), D))
    off = 0
    for k, cell in enumerate(layer.cells):
        sl = slice(off, off + cell.order)
        A_k, B_k = cell.A_d, cell.B_d
        if quant_on:
            A_k, B_k = _fq_weight(A_k, 8)[0], _fq_weight(B_k, 8)[0]
        A[sl, sl], B[k, sl] = A_k, B_k
        off += cell.order
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
    ``scales`` must hold the frozen activation scales and the arithmetic
    matches deployment exactly.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[2] != model.input_dim:
        raise ValueError(f"feats must be (B, T, {model.input_dim}), got {feats.shape}")
    if feats.shape[1] < 1:
        raise ValueError("feature sequences must contain at least one step")
    if quant_on and scales is None:
        raise ValueError("quant_on requires calibrated activation scales")
    B, T, _ = feats.shape

    def act_fq(x, exp):
        if not quant_on:
            return x, np.ones(x.shape, dtype=bool)
        return fake_quant(x, QuantSpec(ACTIVATION_BITS, exp))

    x, _ = act_fq(feats, scales.input_exp if quant_on else 0)
    x_exp = scales.input_exp if quant_on else 0
    caches = []
    for li, layer in enumerate(model.layers):
        if quant_on:
            u_exp, m_exp, h_exp = scales.layer_exps[li]
        w_fq, w_mask, w_exp = {}, {}, {}
        for name in ("input_encoder", "hidden_encoder", "input_kernel", "memory_kernel"):
            w = getattr(layer, name)
            if quant_on:
                w_fq[name], w_mask[name], w_exp[name] = _fq_weight(w, weight_bits)
            else:
                w_fq[name] = w
                w_mask[name] = np.ones(w.shape, dtype=bool)
        if quant_on:
            pre_exp = preactivation_exp(
                w_exp["input_kernel"], x_exp, w_exp["memory_kernel"], m_exp
            )
            bias_fq, bias_mask = fake_quant(layer.bias, QuantSpec(32, pre_exp))
        else:
            bias_fq, bias_mask = layer.bias, np.ones(layer.bias.shape, dtype=bool)
        w_fq["bias"], w_mask["bias"] = bias_fq, bias_mask
        A, B_in = _memory_matrices(layer, quant_on)

        c_dim, h_dim, D = len(layer.cells), layer.hidden_dim, layer.memory_dim
        U = np.empty((B, T, c_dim))
        M = np.empty((B, T, D))
        H = np.empty((B, T, h_dim))
        mask_u = np.empty((B, T, c_dim), dtype=bool)
        mask_m = np.empty((B, T, D), dtype=bool)
        mask_h = np.empty((B, T, h_dim), dtype=bool)
        h_prev = np.zeros((B, h_dim))
        m_prev = np.zeros((B, D))
        for t in range(T):
            u_pre = x[:, t] @ w_fq["input_encoder"].T + h_prev @ w_fq["hidden_encoder"].T
            u, mu = act_fq(u_pre, u_exp if quant_on else 0)
            m, mm = act_fq(m_prev @ A.T + u @ B_in, m_exp if quant_on else 0)
            pre = x[:, t] @ w_fq["input_kernel"].T + m @ w_fq["memory_kernel"].T + bias_fq
            relu = np.maximum(pre, 0.0)
            h, mh = act_fq(relu, h_exp if quant_on else 0)
            U[:, t], M[:, t], H[:, t] = u, m, h
            mask_u[:, t], mask_m[:, t] = mu, mm
            mask_h[:, t] = mh & (pre > 0.0)
            h_prev, m_prev = h, m
        caches.append(
            _LayerCache(x=x, u=U, m=M, h=H, mask_u=mask_u, mask_m=mask_m,
                        mask_h=mask_h, w_fq=w_fq, w_mask=w_mask, A=A, B=B_in)
        )
        x = H
        if quant_on:
            x_exp = h_exp

    if quant_on:
        out_w, out_mask, out_exp = _fq_weight(model.output_weight, weight_bits)
        logits_exp = out_exp + x_exp
        out_b, _ = fake_quant(model.output_bias, QuantSpec(32, logits_exp))
    else:
        out_w, out_mask = model.output_weight, np.ones(model.output_weight.shape, dtype=bool)
        out_b, logits_exp = model.output_bias, None
    logits = x @ out_w.T + out_b
    return ForwardCache(
        layers=caches, logits=logits, out_w_fq=out_w, out_b_fq=out_b,
        out_w_mask=out_mask, logits_exp=logits_exp,
    )


def hat_forward_trace(model, feats, scales, weight_bits):
    """Single-sequence quantized-graph forward, reported on the integer grid.

    Returns (logits_q, trace) shaped exactly like quantized_forward's
    collect_trace output, for direct integer comparison against deployment.
    """
    cache = hat_forward(model, feats[None], quant_on=True, scales=scales,
                        weight_bits=weight_bits)
    T = feats.shape[0]
    trace = {"u": [], "m": [], "h": []}
    for t in range(T):
        trace["u"].append([])
        trace["m"].append([])
        trace["h"].append([])
        for li, lc in enumerate(cache.layers):
            u_exp, m_exp, h_exp = scales.layer_exps[li]
            trace["u"][t].append(np.rint(lc.u[0, t] / 2.0**u_exp).astype(np.int64))
            trace["m"][t].append(np.rint(lc.m[0, t] / 2.0**m_exp).astype(np.int64))
            trace["h"][t].append(np.rint(lc.h[0, t] / 2.0**h_exp).astype(np.int64))
    logits_q = np.rint(cache.logits[0] / 2.0**cache.logits_exp).astype(np.int64)
    return logits_q, trace


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
    B, T, _ = cache.logits.shape
    h_last = cache.layers[-1].h[:, -1]
    grads["output.weight"] = (dz.T @ h_last) * cache.out_w_mask
    grads["output.bias"] = dz.sum(axis=0)

    # External dh per layer and step; the top layer receives the loss path.
    dh_ext = np.zeros_like(cache.layers[-1].h)
    dh_ext[:, -1] = dz @ cache.out_w_fq
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        lc = cache.layers[li]
        w = lc.w_fq
        dWex = np.zeros_like(layer.input_encoder)
        dWeh = np.zeros_like(layer.hidden_encoder)
        dWx = np.zeros_like(layer.input_kernel)
        dWm = np.zeros_like(layer.memory_kernel)
        db = np.zeros_like(layer.bias)
        dX = np.zeros_like(lc.x)
        dh_carry = np.zeros((B, layer.hidden_dim))
        dm_carry = np.zeros((B, layer.memory_dim))
        for t in range(T - 1, -1, -1):
            dh = (dh_ext[:, t] + dh_carry) * lc.mask_h[:, t]
            db += dh.sum(axis=0)
            dWx += dh.T @ lc.x[:, t]
            dWm += dh.T @ lc.m[:, t]
            dX[:, t] += dh @ w["input_kernel"]
            dm = (dh @ w["memory_kernel"] + dm_carry) * lc.mask_m[:, t]
            du = (dm @ lc.B.T) * lc.mask_u[:, t]
            dm_carry = dm @ lc.A
            dWex += du.T @ lc.x[:, t]
            h_prev = lc.h[:, t - 1] if t > 0 else np.zeros((B, layer.hidden_dim))
            dWeh += du.T @ h_prev
            dX[:, t] += du @ w["input_encoder"]
            dh_carry = du @ w["hidden_encoder"]
        grads[f"layer{li}.input_encoder"] = dWex * lc.w_mask["input_encoder"]
        grads[f"layer{li}.hidden_encoder"] = dWeh * lc.w_mask["hidden_encoder"]
        grads[f"layer{li}.input_kernel"] = dWx * lc.w_mask["input_kernel"]
        grads[f"layer{li}.memory_kernel"] = dWm * lc.w_mask["memory_kernel"]
        grads[f"layer{li}.bias"] = db * lc.w_mask["bias"]
        dh_ext = dX
    return loss, GradientSet(tensors=grads)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, model: ModelGraph, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model = model
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
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
    quantized: QuantizedModel | None
    model: ModelGraph
    scales: ActivationScales | None
    mask: PruneMask | None
    log: list
    final_loss: float


def train(config: TrainConfig, dataset, init_tensors: dict | None = None) -> TrainResult:
    """Full pipeline: float warmup, HAT fine-tuning, pruning ramp, freeze.

    ``dataset`` needs train_x (N, T, F), train_y (N,), label_names, and
    frontend_hash; see frontend.FeatureDataset.  ``init_tensors`` (a name ->
    array checkpoint) overrides the random initialization, so a run can
    resume from previously trained weights.
    """
    rng = np.random.default_rng(config.seed)
    model = build_model(config.model, rng)
    if init_tensors is not None:
        for name, tensor in model.trainable_tensors():
            if name not in init_tensors:
                raise TrainingError(f"checkpoint is missing tensor {name!r}")
            src = np.asarray(init_tensors[name], dtype=np.float64)
            if src.shape != tensor.shape:
                raise TrainingError(
                    f"checkpoint tensor {name!r} has shape {src.shape}, "
                    f"model expects {tensor.shape}"
                )
            tensor[...] = src
    opt = Adam(model, config.learning_rate, config.beta1, config.beta2, config.eps)
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
    quantized = None
    if scales is not None:
        quantized = freeze(
            model, weight_bits, scales, mask=mask,
            frontend_hash=getattr(dataset, "frontend_hash", bytes(32)),
        )
    return TrainResult(quantized=quantized, model=model, scales=scales, mask=mask,
                       log=log, final_loss=float(loss))


def evaluate(model, x: np.ndarray, y: np.ndarray, scales=None, weight_bits: int = 8) -> float:
    """Final-frame classification accuracy on (N, T, F) features.

    Accepts a float ModelGraph (optionally with fake-quant when scales are
    given) or a deployed QuantizedModel.
    """
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot evaluate on zero utterances")
    if isinstance(model, QuantizedModel):
        correct = 0
        for i in range(x.shape[0]):
            logits, _ = quantized_forward(model, x[i])
            correct += int(np.argmax(logits[-1]) == y[i])
        return correct / x.shape[0]
    cache = hat_forward(model, x, quant_on=scales is not None, scales=scales,
                        weight_bits=weight_bits)
    return float((cache.logits[:, -1].argmax(axis=1) == y).mean())


def majority_baseline(y: np.ndarray) -> float:
    y = np.asarray(y)
    return np.bincount(y).max() / y.size if y.size else 0.0
