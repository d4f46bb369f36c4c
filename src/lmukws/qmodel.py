"""Deployable quantized models: calibration, freezing, integer-only inference.

The deployed path never touches floating point: weights are 4- or 8-bit
integers, activations 7-bit, and every step's sums live in a 32-bit
accumulator whose worst case is checked at freeze time.  Multi-term sums are
aligned by shifting each term to the finest grid among them (always an exact
left shift, since scales are powers of two), then requantized once.

Scale bookkeeping that must match the training graph exactly:
  - weight scales are a pure function of the weight tensor (exact-max rule),
  - activation scales are frozen at calibration,
  - the hidden preactivation grid is min(input-kernel grid, memory-kernel
    grid) and biases are stored as 32-bit integers on that grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import (
    ACTIVATION_BITS,
    MAX_FAN_IN,
    PruneMask,
    QuantSpec,
    QuantTensor,
    activation_quant_spec,
    quantize,
    requantize,
    weight_quant_spec,
)
from .lmu import ModelGraph

ACC_LIMIT = 2**31  # worst-case |accumulator| must stay below this


@dataclass(frozen=True)
class ActivationScales:
    """Frozen power-of-two scale exponents for every 7-bit activation site."""

    input_exp: int
    layer_exps: tuple  # per layer: (u_exp, m_exp, h_exp)


@dataclass
class QuantizedCell:
    """8-bit fixed memory matrices for one cell."""

    A: QuantTensor
    B: QuantTensor
    order: int
    theta: float


@dataclass
class QuantizedLayer:
    input_encoder: QuantTensor
    hidden_encoder: QuantTensor
    input_kernel: QuantTensor
    memory_kernel: QuantTensor
    bias: QuantTensor  # 32-bit, on the preactivation grid
    cells: list
    u_exp: int
    m_exp: int
    h_exp: int

    @property
    def hidden_dim(self) -> int:
        return self.input_kernel.shape[0]


@dataclass
class QuantizedModel:
    """Everything deployment needs; holds no floating-point weight data."""

    input_dim: int
    dt: float
    weight_bits: int
    label_names: list
    input_exp: int
    layers: list
    output_weight: QuantTensor
    output_bias: QuantTensor  # 32-bit, on the output accumulator grid
    keep_masks: dict = field(default_factory=dict)
    frontend_hash: bytes = bytes(32)

    @property
    def logits_exp(self) -> int:
        return self.output_bias.spec.scale_exp

    def weight_tensor_items(self):
        """(name, QuantTensor) for every stored trainable tensor, fixed order."""
        for i, layer in enumerate(self.layers):
            yield f"layer{i}.input_encoder", layer.input_encoder
            yield f"layer{i}.hidden_encoder", layer.hidden_encoder
            yield f"layer{i}.input_kernel", layer.input_kernel
            yield f"layer{i}.memory_kernel", layer.memory_kernel
            yield f"layer{i}.bias", layer.bias
        yield "output.weight", self.output_weight
        yield "output.bias", self.output_bias


def model_size_kbits(qm: QuantizedModel) -> float:
    """Storage metric: retained parameter count x weight bits / 1000.

    Counts every unpruned parameter (a stored zero still occupies a slot);
    biases count at weight precision; the fixed memory matrices are shared
    constants and are excluded.
    """
    total = 0
    for name, qt in qm.weight_tensor_items():
        mask = qm.keep_masks.get(name)
        total += int(mask.sum()) if mask is not None else qt.q.size
    return total * qm.weight_bits / 1000.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate_activation_scales(model: ModelGraph, sequences) -> ActivationScales:
    """Choose frozen activation scales from the float graph's magnitudes.

    ``sequences`` is (N, T, input_dim); the u, m and h samples come from one
    float ``training.hat_forward`` over all of them.
    """
    from .training import hat_forward  # training imports this module

    feats = np.asarray(sequences, dtype=np.float64)
    cache = hat_forward(model, feats)
    layer_exps = tuple(
        (
            activation_quant_spec(lc.u).scale_exp,
            activation_quant_spec(lc.m).scale_exp,
            activation_quant_spec(lc.h).scale_exp,
        )
        for lc in cache.layers
    )
    return ActivationScales(
        input_exp=activation_quant_spec(feats).scale_exp, layer_exps=layer_exps
    )


# ---------------------------------------------------------------------------
# Freezing
# ---------------------------------------------------------------------------

def preactivation_exp(input_kernel_exp: int, input_exp: int, memory_kernel_exp: int, m_exp: int) -> int:
    """Grid of the hidden preactivation sum; biases live on this grid."""
    return min(input_kernel_exp + input_exp, memory_kernel_exp + m_exp)


def freeze(
    model: ModelGraph,
    weight_bits: int,
    scales: ActivationScales,
    mask: PruneMask | None = None,
    frontend_hash: bytes = bytes(32),
) -> QuantizedModel:
    """Quantize a trained float model into its deployable integer form.

    The float model must already have pruned weights zeroed (apply_mask);
    the mask is carried along purely for size accounting.
    """
    if weight_bits not in (4, 8):
        raise ValueError(f"weight_bits must be 4 or 8, got {weight_bits}")
    if len(frontend_hash) != 32:
        raise ValueError("frontend_hash must be a 32-byte digest")
    model.validate()
    keep_masks = {}
    if mask is not None:
        keep_masks = {name: m.copy() for name, m in mask.masks.items()}

    def qw(w):
        return quantize(w, weight_quant_spec(w, weight_bits))

    qlayers = []
    x_exp = scales.input_exp
    for i, layer in enumerate(model.layers):
        u_exp, m_exp, h_exp = scales.layer_exps[i]
        w_in, w_hid = qw(layer.input_encoder), qw(layer.hidden_encoder)
        w_x, w_m = qw(layer.input_kernel), qw(layer.memory_kernel)
        pre_exp = preactivation_exp(
            w_x.spec.scale_exp, x_exp, w_m.spec.scale_exp, m_exp
        )
        bias = quantize(layer.bias, QuantSpec(32, pre_exp))
        cells = []
        for cell in layer.cells:
            cells.append(
                QuantizedCell(
                    A=quantize(cell.A_d, weight_quant_spec(cell.A_d, 8)),
                    B=quantize(cell.B_d, weight_quant_spec(cell.B_d, 8)),
                    order=cell.order,
                    theta=cell.theta,
                )
            )
        qlayers.append(
            QuantizedLayer(
                input_encoder=w_in,
                hidden_encoder=w_hid,
                input_kernel=w_x,
                memory_kernel=w_m,
                bias=bias,
                cells=cells,
                u_exp=u_exp,
                m_exp=m_exp,
                h_exp=h_exp,
            )
        )
        x_exp = h_exp

    w_out = qw(model.output_weight)
    out_exp = w_out.spec.scale_exp + x_exp
    qm = QuantizedModel(
        input_dim=model.input_dim,
        dt=model.layers[0].cells[0].dt if model.layers and model.layers[0].cells else 0.02,
        weight_bits=weight_bits,
        label_names=list(model.label_names),
        input_exp=scales.input_exp,
        layers=qlayers,
        output_weight=w_out,
        output_bias=quantize(model.output_bias, QuantSpec(32, out_exp)),
        keep_masks=keep_masks,
        frontend_hash=bytes(frontend_hash),
    )
    assert_accumulator_safe(qm)
    return qm


def assert_accumulator_safe(qm: QuantizedModel) -> None:
    """Prove no 32-bit accumulator can overflow, for any input whatsoever.

    Uses the exact worst case: every 7-bit activation at magnitude 64, every
    weight at its stored magnitude, including the alignment shifts.
    """
    act_max = 1 << (ACTIVATION_BITS - 1)

    def worst(termspecs):
        # termspecs: (|W| row sums, grid exponent) per term; returns worst
        # |sum| on the common (minimum) grid.
        gmin = min(g for _, g in termspecs)
        return sum(int(np.max(rows)) << (g - gmin) for rows, g in termspecs), gmin

    x_exp = qm.input_exp
    for i, layer in enumerate(qm.layers):
        for name, qt in (
            (f"layer{i}.input_encoder", layer.input_encoder),
            (f"layer{i}.hidden_encoder", layer.hidden_encoder),
            (f"layer{i}.input_kernel", layer.input_kernel),
            (f"layer{i}.memory_kernel", layer.memory_kernel),
        ):
            if qt.shape[1] > MAX_FAN_IN:
                raise ValueError(f"{name}: fan-in {qt.shape[1]} exceeds {MAX_FAN_IN}")
        u_terms = [
            (np.abs(layer.input_encoder.q).sum(axis=1) * act_max,
             layer.input_encoder.spec.scale_exp + x_exp),
            (np.abs(layer.hidden_encoder.q).sum(axis=1) * act_max,
             layer.hidden_encoder.spec.scale_exp + layer.h_exp),
        ]
        peak, _ = worst(u_terms)
        if peak >= ACC_LIMIT:
            raise ValueError(f"layer{i}: u accumulator worst case {peak} >= 2^31")
        for k, cell in enumerate(layer.cells):
            m_terms = [
                (np.abs(cell.A.q).sum(axis=1) * act_max, cell.A.spec.scale_exp + layer.m_exp),
                (np.abs(cell.B.q) * act_max, cell.B.spec.scale_exp + layer.u_exp),
            ]
            peak, _ = worst(m_terms)
            if peak >= ACC_LIMIT:
                raise ValueError(f"layer{i}.cell{k}: m accumulator worst case {peak} >= 2^31")
        h_terms = [
            (np.abs(layer.input_kernel.q).sum(axis=1) * act_max,
             layer.input_kernel.spec.scale_exp + x_exp),
            (np.abs(layer.memory_kernel.q).sum(axis=1) * act_max,
             layer.memory_kernel.spec.scale_exp + layer.m_exp),
        ]
        peak, gmin = worst(h_terms)
        if gmin != layer.bias.spec.scale_exp:
            raise ValueError(
                f"layer{i}: bias grid 2^{layer.bias.spec.scale_exp} != "
                f"preactivation grid 2^{gmin}"
            )
        peak += int(np.max(np.abs(layer.bias.q), initial=0))
        if peak >= ACC_LIMIT:
            raise ValueError(f"layer{i}: h accumulator worst case {peak} >= 2^31")
        x_exp = layer.h_exp
    peak = int(np.max(np.abs(qm.output_weight.q).sum(axis=1))) * act_max
    peak += int(np.max(np.abs(qm.output_bias.q), initial=0))
    if peak >= ACC_LIMIT:
        raise ValueError(f"output accumulator worst case {peak} >= 2^31")


# ---------------------------------------------------------------------------
# Integer inference
# ---------------------------------------------------------------------------

class QuantStreamState:
    """Per-stream integer recurrent state (7-bit h and m per layer)."""

    def __init__(self, qm: QuantizedModel):
        self._shapes = [
            (layer.hidden_dim, [c.order for c in layer.cells]) for layer in qm.layers
        ]
        self.reset()

    def reset(self) -> None:
        self.h = [np.zeros(hd, dtype=np.int64) for hd, _ in self._shapes]
        self.m = [[np.zeros(d, dtype=np.int64) for d in orders] for _, orders in self._shapes]


def _act_spec(exp: int) -> QuantSpec:
    return QuantSpec(ACTIVATION_BITS, exp)


def _aligned_sum(terms):
    """Sum (acc, grid_exp) terms on their common minimum grid, exactly."""
    gmin = min(g for _, g in terms)
    total = 0
    for acc, g in terms:
        total = total + (acc << (g - gmin))
    return total, gmin


def quantized_forward(
    qm: QuantizedModel,
    features: np.ndarray,
    state: QuantStreamState | None = None,
    collect_trace: bool = False,
):
    """Integer-only inference over a (T, input_dim) float feature array.

    Features are quantized to the model's input format at the boundary; all
    arithmetic after that is integer.  Logits are returned as int64 on the
    grid 2**qm.logits_exp (argmax works directly on them).

    Returns (logits_q, state) or (logits_q, state, trace) with trace holding
    per-step quantized u/m/h per layer when collect_trace is set.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != qm.input_dim:
        raise ValueError(f"features must be (T, {qm.input_dim}), got {features.shape}")
    if state is None:
        state = QuantStreamState(qm)
    x_q_all = quantize(features, _act_spec(qm.input_exp)).q
    T = features.shape[0]
    logits = np.empty((T, 12), dtype=np.int64)
    trace = {"u": [], "m": [], "h": []} if collect_trace else None
    for t in range(T):
        x = x_q_all[t]
        x_exp = qm.input_exp
        step_u, step_m, step_h = [], [], []
        for i, layer in enumerate(qm.layers):
            acc_u, g_u = _aligned_sum(
                [
                    (layer.input_encoder.q @ x, layer.input_encoder.spec.scale_exp + x_exp),
                    (layer.hidden_encoder.q @ state.h[i],
                     layer.hidden_encoder.spec.scale_exp + layer.h_exp),
                ]
            )
            u = requantize(acc_u, g_u, layer.u_exp, _act_spec(layer.u_exp))
            for k, cell in enumerate(layer.cells):
                acc_m, g_m = _aligned_sum(
                    [
                        (cell.A.q @ state.m[i][k], cell.A.spec.scale_exp + layer.m_exp),
                        (cell.B.q * u[k], cell.B.spec.scale_exp + layer.u_exp),
                    ]
                )
                state.m[i][k] = requantize(acc_m, g_m, layer.m_exp, _act_spec(layer.m_exp))
            m_cat = np.concatenate(state.m[i])
            acc_h, g_pre = _aligned_sum(
                [
                    (layer.input_kernel.q @ x, layer.input_kernel.spec.scale_exp + x_exp),
                    (layer.memory_kernel.q @ m_cat,
                     layer.memory_kernel.spec.scale_exp + layer.m_exp),
                ]
            )
            acc_h = np.maximum(acc_h + layer.bias.q, 0)
            state.h[i] = requantize(acc_h, g_pre, layer.h_exp, _act_spec(layer.h_exp))
            if collect_trace:
                step_u.append(u.copy())
                step_m.append(m_cat.copy())
                step_h.append(state.h[i].copy())
            x = state.h[i]
            x_exp = layer.h_exp
        logits[t] = qm.output_weight.q @ x + qm.output_bias.q
        if collect_trace:
            trace["u"].append(step_u)
            trace["m"].append(step_m)
            trace["h"].append(step_h)
    if collect_trace:
        return logits, state, trace
    return logits, state

