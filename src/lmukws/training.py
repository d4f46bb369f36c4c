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
from dataclasses import dataclass

import numpy as np

from .fixedpoint import (
    ACTIVATION_BITS,
    QuantSpec,
    apply_mask,
    fake_quant,
    in_range,
    prune_magnitude,
)
from .frontend import DIGEST_SIZE
from .lmu import LAYER_TENSORS, ModelConfig, ModelGraph, build_model, memory_system
from .qmodel import (
    ActivationScales,
    QuantizedModel,
    calibrate_activation_scales,
    deployed_tensors,
    freeze,
    quantized_forward,
)


# Training sequences the activation scales are calibrated on.
CALIBRATION_SEQUENCES = 256


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
    seed: int = 0
    log_every: int = 20

    def __post_init__(self):
        for name in ("steps", "batch_size", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.quant_on_step is not None and self.quant_on_step < 0:
            raise ValueError(f"quant_on_step must be None or >= 0, got {self.quant_on_step!r}")
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError("target_sparsity must be in [0, 1)")
        if (self.prune_start is None) != (self.prune_end is None):
            raise ValueError("prune_start and prune_end must be set together")
        if self.prune_start is not None and self.prune_end < self.prune_start:
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


def check_feats(model: ModelGraph, feats: np.ndarray) -> None:
    """Raise ValueError unless ``feats`` is (B, T, input_dim) with T >= 1."""
    if feats.ndim != 3 or feats.shape[2] != model.input_dim:
        raise ValueError(f"feats must be (B, T, {model.input_dim}), got {feats.shape}")
    if feats.shape[1] < 1:
        raise ValueError("feature sequences must contain at least one step")


def _act_fq(x, exp):
    """Fake-quantize an activation at grid ``exp``; None means float."""
    if exp is None:
        return x, None
    return fake_quant(x, QuantSpec(ACTIVATION_BITS, exp))


def hat_forward(
    model: ModelGraph,
    feats: np.ndarray,
    quant_on: bool = False,
    scales: ActivationScales | None = None,
    weight_bits: int | None = None,
) -> ForwardCache:
    """Unrolled batch forward storing everything backward needs.

    feats is (B, T, input_dim) with T >= 1.  This is the one float forward:
    training runs it, and evaluation and calibration drive the same
    ``LayerStep`` through ``float_steps``.  With quant_on, ``scales`` must
    hold the frozen activation scales and ``weight_bits`` the stored weight
    width; the parameters are then read from ``deployed_tensors(model,
    weight_bits, scales)`` and the arithmetic matches deployment exactly.
    """
    feats = np.asarray(feats, dtype=np.float64)
    check_feats(model, feats)
    if quant_on and (scales is None or weight_bits is None):
        raise ValueError("quant_on requires calibrated activation scales and a weight width")
    qm = deployed_tensors(model, weight_bits, scales) if quant_on else None

    x, _ = _act_fq(feats, qm.input_exp if quant_on else None)
    caches = []
    for li, layer in enumerate(model.layers):
        caches.append(layer_forward(layer, x, qm.layers[li] if quant_on else None))
        x = caches[-1].h

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


def layer_forward(layer, x: np.ndarray, ql=None) -> _LayerCache:
    """One layer unrolled over all T steps of its (B, T, n) input ``x``.

    ``ql`` is the layer's deployed tensors (``QuantizedModel.layers[i]``) for
    the fake-quant graph, or None for the float one.  The returned cache
    holds ``x`` itself, not a copy.
    """
    B, T, _ = x.shape
    step = LayerStep(layer, B, ql)
    c_dim, h_dim, D = len(layer.cells), layer.hidden_dim, layer.memory_dim
    U = np.empty((B, T, c_dim))
    M = np.empty((B, T, D))
    H = np.empty((B, T, h_dim))
    quant_on = ql is not None
    mask_u = mask_m = mask_h = None
    if quant_on:
        mask_u = np.empty((B, T, c_dim), dtype=bool)
        mask_m = np.empty((B, T, D), dtype=bool)
        mask_h = np.empty((B, T, h_dim), dtype=bool)
    for t in range(T):
        u, m, h, mu, mm, mh = step(x[:, t])
        U[:, t], M[:, t], H[:, t] = u, m, h
        if quant_on:
            mask_u[:, t], mask_m[:, t], mask_h[:, t] = mu, mm, mh
    return _LayerCache(x=x, u=U, m=M, h=H, mask_u=mask_u, mask_m=mask_m,
                       mask_h=mask_h, bias_mask=step.bias_mask, w_fq=step.w_fq,
                       A=step.A, B=step.B)


class LayerStep:
    """One layer's recurrence, advanced one time step per call on a batch of
    rows: the body of the one float forward.

    ``ql`` is the layer's deployed tensors (``QuantizedModel.layers[i]``) for
    the fake-quant graph, or None for the float one.  Each call takes the
    layer's (rows, n) input at the next step and returns (u, m, h, mask_u,
    mask_m, mask_h); the straight-through masks are None without fake-quant,
    and mask_h combines the relu's and the fake-quant's.  Without fake-quant,
    u, m and h are the step's own buffers: a later call overwrites them.
    """

    def __init__(self, layer, rows: int, ql=None):
        if ql is not None:
            self.exps = (ql.u_exp, ql.m_exp, ql.h_exp)
            self.w_fq = {name: getattr(ql, name).dequantize() for name in LAYER_TENSORS}
            self.bias_mask = in_range(layer.bias, ql.bias.spec)
            self.A, self.B = memory_system(
                [(c.A.dequantize(), c.B.dequantize()) for c in ql.cells])
        else:
            self.exps = (None, None, None)
            self.w_fq = {name: getattr(layer, name) for name in LAYER_TENSORS}
            self.bias_mask = None
            self.A, self.B = memory_system([(c.A_d, c.B_d) for c in layer.cells])
        c_dim, h_dim, D = len(layer.cells), layer.hidden_dim, layer.memory_dim
        self.h_prev, self.m_prev = np.zeros((rows, h_dim)), np.zeros((rows, D))
        # Each product goes into a buffer made once per layer and is summed
        # in the order the expressions (a @ b + c @ d) + bias would sum it.
        # m alternates between two buffers, so m_prev is never the output.
        self.u_pre, self.u_h = np.empty((rows, c_dim)), np.empty((rows, c_dim))
        self.m_bufs, self.m_u = (np.empty((rows, D)), np.empty((rows, D))), np.empty((rows, D))
        self.pre, self.pre_m = np.empty((rows, h_dim)), np.empty((rows, h_dim))
        self.relu = np.empty((rows, h_dim))
        w = self.w_fq
        self.WexT, self.WehT = w["input_encoder"].T, w["hidden_encoder"].T
        self.WkT, self.WmT, self.AT = w["input_kernel"].T, w["memory_kernel"].T, self.A.T
        self.t = 0

    def __call__(self, x_t: np.ndarray):
        u_exp, m_exp, h_exp = self.exps
        u_pre, pre = self.u_pre, self.pre
        np.matmul(x_t, self.WexT, out=u_pre)
        u_pre += np.matmul(self.h_prev, self.WehT, out=self.u_h)
        u, mu = _act_fq(u_pre, u_exp)
        m_pre = self.m_bufs[self.t % 2]
        np.matmul(self.m_prev, self.AT, out=m_pre)
        m_pre += np.matmul(u, self.B, out=self.m_u)
        m, mm = _act_fq(m_pre, m_exp)
        np.matmul(x_t, self.WkT, out=pre)
        pre += np.matmul(m, self.WmT, out=self.pre_m)
        pre += self.w_fq["bias"]
        np.maximum(pre, 0.0, out=self.relu)
        h, mh = _act_fq(self.relu, h_exp)
        if mh is not None:
            np.logical_and(mh, pre > 0.0, out=mh)
        self.h_prev, self.m_prev = h, m
        self.t += 1
        return u, m, h, mu, mm, mh


def float_steps(model: ModelGraph, feats: np.ndarray):
    """Every layer's float ``LayerStep`` on all rows of checked (N, T, n)
    ``feats`` at once, one time step at a time.

    Yields, for each t, the step's input ``feats[:, t]`` and each layer's
    (u, m, h); layer i + 1 reads layer i's h straight from its buffer, so
    each product is the one ``hat_forward`` computes and no (N, T, width)
    array is made.  The arrays are the steps' own buffers, valid until the
    next step is drawn.
    """
    steps = [LayerStep(layer, len(feats)) for layer in model.layers]
    for t in range(feats.shape[1]):
        x = x_t = feats[:, t]
        acts = []
        for step in steps:
            u, m, x, *_ = step(x)
            acts.append((u, m, x))
        yield x_t, acts


# ---------------------------------------------------------------------------
# Loss and backward
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over the batch; returns (loss, dlogits)."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    B = logits.shape[0]
    loss = 0.0 - logp[np.arange(B), labels].mean()  # +0.0, never -0.0
    probs = np.exp(logp)
    probs[np.arange(B), labels] -= 1.0
    return loss, probs / B


def forward_backward(
    model: ModelGraph,
    batch,
    quant_on: bool = False,
    scales: ActivationScales | None = None,
    weight_bits: int | None = None,
):
    """Loss and exact reverse-mode gradients on a (features, labels) batch.

    Loss is softmax cross entropy on the final-frame logits.  The gradients
    are a dict keyed like ``ModelGraph.trainable_tensors``; the fixed memory
    matrices get no entries.
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

    # Every layer steps back through t together, top layer first, and hands
    # the layer below the (B, n) gradient of its input at that step, which
    # that layer reads before the next step overwrites it.  The top layer's
    # outputs receive the loss path at the last step and +0 at every other.
    steps = [LayerReverseStep(lc, need_dx=li > 0) for li, lc in enumerate(cache.layers)]
    dh_loss = dz @ cache.out_w_fq
    dh_zero = np.zeros_like(dh_loss)
    T = cache.logits.shape[1]
    for t in range(T - 1, -1, -1):
        dh_above = dh_loss if t == T - 1 else dh_zero
        for step in reversed(steps):
            dh_above = step(dh_above)
    for li, step in enumerate(steps):
        if step.lc.bias_mask is not None:
            step.grad["bias"] *= step.lc.bias_mask
        for name, g in step.grad.items():
            grads[f"layer{li}.{name}"] = g
    return loss, grads


class LayerReverseStep:
    """One layer's reverse pass, stepped back one time step per call: the
    mirror of ``LayerStep``.

    ``lc`` is the layer's forward cache; the first call handles its last
    step, the T-th its first.  Each call takes the (B, h) gradient the
    layer's output at that step receives from above and returns, when
    ``need_dx``, the (B, n) gradient of the layer's input at that step (else
    None); that is the step's own buffer, which the next call overwrites.
    ``grad`` holds the weight gradients summed so far, the bias's not yet
    masked.  Every product is the same BLAS call on the same operands, in
    the same t order, as a loop that allocates each one; it writes into a
    buffer made once per layer.
    The only skipped work is exact: multiplies by all-True masks, adding the
    zero products of the zero state before t = 0, and carries nothing reads.
    The input gradient is P + Q where that loop forms (0 + P) + Q, so the two
    differ at most in the sign of a zero.  No weight gradient can see that:
    each is a sum that starts at +0.
    """

    def __init__(self, lc: _LayerCache, need_dx: bool):
        self.lc, w = lc, lc.w_fq
        B, T, n = lc.x.shape
        h_dim, c_dim, D = lc.h.shape[2], lc.u.shape[2], lc.m.shape[2]
        self.grad = {name: np.zeros_like(w[name]) for name in LAYER_TENSORS}
        self.prod = {name: np.empty_like(g) for name, g in self.grad.items() if name != "bias"}
        self.dh, self.dh_carry = np.empty((B, h_dim)), np.zeros((B, h_dim))
        self.dm, self.dm_carry = np.empty((B, D)), np.zeros((B, D))
        self.du = np.empty((B, c_dim))
        self.dx = np.empty((B, n)) if need_dx else None
        self.dx_u = np.empty((B, n)) if need_dx else None
        self.t = T

    def __call__(self, dh_above: np.ndarray):
        self.t -= 1
        t, lc, w, grad, prod = self.t, self.lc, self.lc.w_fq, self.grad, self.prod
        dh, dm, du, dx = self.dh, self.dm, self.du, self.dx
        x_t = lc.x[:, t]
        np.add(dh_above, self.dh_carry, out=dh)
        dh *= lc.h[:, t] > 0.0 if lc.mask_h is None else lc.mask_h[:, t]
        grad["bias"] += dh.sum(axis=0)
        grad["input_kernel"] += np.matmul(dh.T, x_t, out=prod["input_kernel"])
        grad["memory_kernel"] += np.matmul(dh.T, lc.m[:, t], out=prod["memory_kernel"])
        np.matmul(dh, w["memory_kernel"], out=dm)
        dm += self.dm_carry
        if lc.mask_m is not None:
            dm *= lc.mask_m[:, t]
        np.matmul(dm, lc.B.T, out=du)
        if lc.mask_u is not None:
            du *= lc.mask_u[:, t]
        grad["input_encoder"] += np.matmul(du.T, x_t, out=prod["input_encoder"])
        if dx is not None:
            np.matmul(dh, w["input_kernel"], out=dx)
            dx += np.matmul(du, w["input_encoder"], out=self.dx_u)
        if t > 0:
            grad["hidden_encoder"] += np.matmul(du.T, lc.h[:, t - 1], out=prod["hidden_encoder"])
            np.matmul(dm, lc.A, out=self.dm_carry)
            np.matmul(du, w["hidden_encoder"], out=self.dh_carry)
        return dx


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

    def step(self, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, w in self.model.trainable_tensors():
            g = grads[name]
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
    mask: dict | None  # name -> keep array, as prune_magnitude returns it
    log: list
    final_loss: float


def train(config: TrainConfig, dataset, init_tensors: dict | None = None) -> TrainResult:
    """Full pipeline: float warmup, HAT fine-tuning, pruning ramp, freeze.

    A run without HAT steps calibrates its activation scales on the first
    ``CALIBRATION_SEQUENCES`` training sequences before it freezes.

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
            take = min(CALIBRATION_SEQUENCES, n)
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
        scales = calibrate_activation_scales(model, dataset.train_x[:CALIBRATION_SEQUENCES])
    quantized = freeze(
        model, weight_bits, scales, mask=mask,
        frontend_hash=getattr(dataset, "frontend_hash", bytes(DIGEST_SIZE)),
    )
    return TrainResult(quantized=quantized, model=model, scales=scales, mask=mask,
                       log=log, final_loss=float(loss))


def evaluate(model, x: np.ndarray, y: np.ndarray) -> float:
    """Final-frame classification accuracy on (N, T, F) features of a float
    ModelGraph or a deployed QuantizedModel.  A float model is stepped
    through time by ``float_steps`` and its head reads the last h only."""
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot evaluate on zero utterances")
    if isinstance(model, QuantizedModel):
        logits = quantized_forward(model, x)[0][:, -1]
    else:
        x = np.asarray(x, dtype=np.float64)
        check_feats(model, x)
        for x_t, acts in float_steps(model, x):
            pass
        logits = (acts[-1][2] if acts else x_t) @ model.output_weight.T + model.output_bias
    return float((logits.argmax(axis=1) == y).mean())


def majority_baseline(y: np.ndarray) -> float:
    y = np.asarray(y)
    return np.bincount(y).max() / y.size if y.size else 0.0
