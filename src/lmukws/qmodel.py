"""Deployable quantized models: calibration, freezing, integer-only inference.

The deployed arithmetic is integer: weights are 4- or 8-bit integers,
activations 7-bit, and every step's sums live in a 32-bit accumulator whose
worst case is proven when a model is compiled.  Multi-term sums are aligned
by shifting each term to the finest grid among them (always an exact left
shift, since scales are powers of two), then requantized once; ``stages``
lists every such sum, and the proof, the compiler and the hardware cost
model (``hwmodel.profile_workload``) all read it.  The engine runs each
layer as three float64 matmuls over weights pre-scaled onto their stage's
output grid; float64 holds every such sum exactly (see ``compile_model``).

Scale bookkeeping, all in ``deployed_tensors``, which both ``freeze`` and
the training graph (``training.hat_forward``) read:
  - weight scales are a pure function of the weight tensor (exact-max rule),
  - activation scales are frozen at calibration,
  - the hidden preactivation grid is min(input-kernel grid, memory-kernel
    grid) and biases are stored as 32-bit integers on that grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fixedpoint import (
    ACCUMULATOR_BITS,
    ACTIVATION_BITS,
    BIAS_BITS,
    CELL_BITS,
    MAX_FAN_IN,
    WEIGHT_BIT_CHOICES,
    MagnitudeTail,
    QuantSpec,
    QuantTensor,
    quantize,
    requantize,  # noqa: F401  (unused here; perfbench's HOOKS rebind qmodel.requantize)
    round_saturate,
    weight_quant_spec,
)
from .frontend import DIGEST_SIZE
from .lmu import ModelGraph, cell_name, memory_system, trainable_items


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

    @property
    def order(self) -> int:
        return len(self.B.q)


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
    weight_bits: int
    label_names: list
    input_exp: int
    layers: list
    output_weight: QuantTensor
    output_bias: QuantTensor  # 32-bit, on the output accumulator grid
    keep_masks: dict = field(default_factory=dict)
    frontend_hash: bytes = bytes(DIGEST_SIZE)
    # The engine's stages: set by freeze and load_model, rebuilt by the
    # engine when the model has been edited since (see compile_model).
    compiled: "CompiledModel | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def logits_exp(self) -> int:
        return self.output_bias.spec.scale_exp

    def stored_tensors(self) -> list:
        """Each cell's A and B, then ``trainable_items``: the model file's order."""
        cells = [qt for layer in self.layers for cell in layer.cells for qt in (cell.A, cell.B)]
        return cells + [qt for _, qt in trainable_items(self)]


def kept_parameters(qm: QuantizedModel) -> dict:
    """name -> kept entries, for every stored trainable tensor: the entries
    its mask keeps, or all of them when it has no mask (a stored zero still
    occupies a slot)."""
    return {name: int(qm.keep_masks[name].sum()) if name in qm.keep_masks else qt.q.size
            for name, qt in trainable_items(qm)}


def model_size_kbits(qm: QuantizedModel) -> float:
    """Storage metric: kept parameter count x weight bits / 1000.

    Biases count at weight precision; the fixed memory matrices are shared
    constants and are excluded.
    """
    return sum(kept_parameters(qm).values()) * qm.weight_bits / 1000.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate_activation_scales(model: ModelGraph, sequences) -> ActivationScales:
    """Choose frozen activation scales from the float graph's magnitudes.

    ``sequences`` is (N, T, input_dim) with N >= 1.  ``training.float_steps``
    runs every layer's ``LayerStep``, the float forward's step, on all N
    sequences at once, one time step at a time, so each product is the one
    ``training.hat_forward`` computes and no (N, T, width) array is made.
    Each site (the input, then u, m and h per layer) feeds every step's
    magnitudes to its own ``MagnitudeTail``, which keeps only those that can
    decide its 99.9th percentile.  The output head never runs, and
    ``sequences`` itself is never written.
    """
    from .training import check_feats, float_steps  # training imports this module

    feats = np.asarray(sequences, dtype=np.float64)
    check_feats(model, feats)
    N, T, _ = feats.shape
    if N < 1:
        raise ValueError("calibration needs at least one sequence")
    input_tail = MagnitudeTail(feats.size)
    layer_tails = [[MagnitudeTail(N * T * width)
                    for width in (len(layer.cells), layer.memory_dim, layer.hidden_dim)]
                   for layer in model.layers]
    for x, acts in float_steps(model, feats):
        input_tail.feed(x)
        for tails, layer_acts in zip(layer_tails, acts):
            for tail, a in zip(tails, layer_acts):
                tail.feed(a)
    return ActivationScales(
        input_exp=input_tail.spec().scale_exp,
        layer_exps=tuple(tuple(tail.spec().scale_exp for tail in tails)
                         for tails in layer_tails),
    )


# ---------------------------------------------------------------------------
# Freezing
# ---------------------------------------------------------------------------

def preactivation_exp(input_kernel_exp: int, input_exp: int, memory_kernel_exp: int, m_exp: int) -> int:
    """Grid of the hidden preactivation sum; biases live on this grid."""
    return min(input_kernel_exp + input_exp, memory_kernel_exp + m_exp)


def deployed_tensors(model: ModelGraph, weight_bits: int,
                     scales: ActivationScales) -> QuantizedModel:
    """Every tensor of ``model`` in the format the hardware stores.

    Each weight has ``weight_bits`` on its exact-max grid, each cell's A and
    B 8 bits on their own grids, and each bias 32 bits on its stage's
    accumulator grid.  The result is not compiled and has no keep-masks or
    frontend digest (``freeze`` adds them).  The quantization-aware forward,
    ``training.hat_forward``, trains on these tensors dequantized.
    """
    def qw(w, bits=weight_bits):
        return quantize(w, weight_quant_spec(w, bits))

    qlayers = []
    x_exp = scales.input_exp
    for i, layer in enumerate(model.layers):
        u_exp, m_exp, h_exp = scales.layer_exps[i]
        w_x, w_m = qw(layer.input_kernel), qw(layer.memory_kernel)
        pre_exp = preactivation_exp(w_x.spec.scale_exp, x_exp, w_m.spec.scale_exp, m_exp)
        qlayers.append(QuantizedLayer(
            input_encoder=qw(layer.input_encoder),
            hidden_encoder=qw(layer.hidden_encoder),
            input_kernel=w_x,
            memory_kernel=w_m,
            bias=quantize(layer.bias, QuantSpec(BIAS_BITS, pre_exp)),
            cells=[QuantizedCell(qw(cell.A_d, CELL_BITS), qw(cell.B_d, CELL_BITS))
                   for cell in layer.cells],
            u_exp=u_exp,
            m_exp=m_exp,
            h_exp=h_exp,
        ))
        x_exp = h_exp

    w_out = qw(model.output_weight)
    return QuantizedModel(
        input_dim=model.input_dim,
        weight_bits=weight_bits,
        label_names=list(model.label_names),
        input_exp=scales.input_exp,
        layers=qlayers,
        output_weight=w_out,
        output_bias=quantize(model.output_bias, QuantSpec(BIAS_BITS, w_out.spec.scale_exp + x_exp)),
    )


def freeze(
    model: ModelGraph,
    weight_bits: int,
    scales: ActivationScales,
    mask: dict | None = None,
    frontend_hash: bytes = bytes(DIGEST_SIZE),
) -> QuantizedModel:
    """Quantize a trained float model into its deployable integer form.

    The float model must already have pruned weights zeroed (apply_mask);
    the mask, name -> keep array as ``prune_magnitude`` returns it, is
    carried along purely for size accounting.
    """
    if weight_bits not in WEIGHT_BIT_CHOICES:
        raise ValueError(f"weight_bits must be {' or '.join(map(str, WEIGHT_BIT_CHOICES))}, "
                         f"got {weight_bits}")
    if len(frontend_hash) != DIGEST_SIZE:
        raise ValueError(f"frontend_hash must be a {DIGEST_SIZE}-byte digest")
    model.validate()
    qm = deployed_tensors(model, weight_bits, scales)
    if mask is not None:
        qm.keep_masks = {name: m.copy() for name, m in mask.items()}
    qm.frontend_hash = bytes(frontend_hash)
    qm.compiled = compile_model(qm)
    return qm


class Term(NamedTuple):
    """One product of a stage: integer weights, one row per output, their
    stored width, and the grid exponent of their products."""

    q: np.ndarray
    bits: int
    grid: int


class Stage(NamedTuple):
    """One accumulator of the engine.

    Its terms are listed in the order of the operand row the stage reads.
    They are aligned on the finest of their grids (an exact left shift of
    each coarser one), the bias is added on that grid, and the sum is
    requantized onto 2**out_exp (the head's sum is the logits, unrounded).
    """

    name: str  # the prefix of the proof's messages
    terms: list  # of Term
    out_exp: int
    bias: QuantTensor | None = None

    @property
    def grid(self) -> int:
        """The exponent of the aligned sum."""
        return min(t.grid for t in self.terms)

    def aligned(self):
        """(weights, left shift onto ``grid``) per term."""
        return [(t.q, t.grid - self.grid) for t in self.terms]

    def worst_case(self) -> int:
        """The largest |sum| any input can reach: every 7-bit activation at
        magnitude 64, every weight at its stored magnitude, bias included."""
        act_max = 1 << (ACTIVATION_BITS - 1)
        peak = sum(int(np.max(np.abs(q).sum(axis=1))) * act_max << shift
                   for q, shift in self.aligned())
        if self.bias is not None:
            peak += int(np.max(np.abs(self.bias.q), initial=0))
        return peak


def stages(qm: QuantizedModel) -> list:
    """Every stage the engine runs, in order: per layer u over [h | x], one
    m per cell over [its m | its u] and h over [x | m]; then the head."""
    def term(qt, act_exp):
        return Term(qt.q, qt.spec.bits, qt.spec.scale_exp + act_exp)

    out = []
    x_exp = qm.input_exp
    for i, layer in enumerate(qm.layers):
        out.append(Stage(f"layer{i}: u", [term(layer.hidden_encoder, layer.h_exp),
                                          term(layer.input_encoder, x_exp)], layer.u_exp))
        for k, cell in enumerate(layer.cells):
            b = term(cell.B, layer.u_exp)  # (d,): one column, over the cell's u
            out.append(Stage(f"{cell_name(i, k)}: m", [term(cell.A, layer.m_exp),
                                                       b._replace(q=b.q[:, None])], layer.m_exp))
        out.append(Stage(f"layer{i}: h", [term(layer.input_kernel, x_exp),
                                          term(layer.memory_kernel, layer.m_exp)],
                         layer.h_exp, layer.bias))
        x_exp = layer.h_exp
    w = term(qm.output_weight, x_exp)
    return out + [Stage("output", [w], w.grid, qm.output_bias)]


def assert_accumulator_safe(qm: QuantizedModel) -> None:
    """Prove no 32-bit accumulator can overflow, for any input whatsoever,
    and that every bias lies on its stage's grid."""
    for st in stages(qm):
        for t in st.terms:
            if t.q.shape[1] > MAX_FAN_IN:
                raise ValueError(f"{st.name} fan-in {t.q.shape[1]} exceeds {MAX_FAN_IN}")
        if st.bias is not None and st.bias.spec.scale_exp != st.grid:
            raise ValueError(
                f"{st.name} bias grid 2^{st.bias.spec.scale_exp} != accumulator grid 2^{st.grid}"
            )
        peak, limit_exp = st.worst_case(), ACCUMULATOR_BITS - 1  # a signed accumulator
        if peak >= 1 << limit_exp:
            raise ValueError(f"{st.name} accumulator worst case {peak} >= 2^{limit_exp}")


# ---------------------------------------------------------------------------
# Integer inference: each layer compiled into three exact float64 matmuls
# ---------------------------------------------------------------------------

def _const(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: a ufunc takes one in under half the
    time it takes a Python number, whose dtype it must first resolve."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ACT = QuantSpec(ACTIVATION_BITS, 0)  # every activation site's range
_LO, _HI, _ZERO = _const(_ACT.qmin), _const(_ACT.qmax), _const(0.0)
# A stage's scale factor 2**k, from its accumulator grid to its output grid,
# is clamped to these k: below, every sum under 2^31 rounds to 0; above,
# every nonzero one saturates.  So the outputs are unchanged, and the folded
# weights stay normal floats for any exponents a model file holds.
_FOLD_MIN = -ACCUMULATOR_BITS  # |sum| < 2^31, so |sum| * 2^-32 < 1/2
_FOLD_MAX = ACTIVATION_BITS  # |sum| >= 1, so |sum| * 2^7 > 64


def _folded(st: Stage) -> tuple:
    """The stage's weights side by side, one row per output, and its bias
    (or None), as float64 integers moved onto the stage's grid, then scaled
    to its output grid 2**out_exp."""
    fold = min(max(st.grid - st.out_exp, _FOLD_MIN), _FOLD_MAX)
    W = np.concatenate([np.ldexp(q.astype(np.float64), shift + fold)
                        for q, shift in st.aligned()], axis=1)
    bias = None if st.bias is None else np.ldexp(st.bias.q.astype(np.float64), fold)
    return W, bias


class Operands(NamedTuple):
    """The parts of a layer's operand row [h | x | m | u] each stage uses:
    slices in ``CompiledLayer.parts``, views of one row in a state."""

    h: slice | np.ndarray
    x: slice | np.ndarray
    m: slice | np.ndarray
    u: slice | np.ndarray
    hx: slice | np.ndarray  # the u stage's input
    mu: slice | np.ndarray  # the m stage's input
    xm: slice | np.ndarray  # the h stage's input


@dataclass
class CompiledLayer:
    """One layer's u, m and h stages over its operand row [h | x | m | u].

    Each stage reads one contiguous slice of the row, u from [h | x], m
    from [m | u] and h from [x | m], and is one matmul by weights already
    scaled onto its output grid, then ``round_saturate``.  Each cell's part
    of M has its own factor, because each cell's A and B have their own
    scales.
    """

    U: np.ndarray  # (nh + nx, c): [W_eh | W_ex].T
    M: np.ndarray  # (D + c, D): [A.T ; B] of lmu.memory_system, over the cells' folded A and B
    H: np.ndarray  # (nx + D, nh): [W_x | W_m].T
    bias: np.ndarray  # (nh,), on the output grid

    def __post_init__(self):
        nh, D = self.H.shape[1], self.M.shape[1]
        nx = self.H.shape[0] - D
        self.width = nh + nx + D + self.U.shape[1]
        self.parts = Operands(
            h=slice(0, nh), x=slice(nh, nh + nx), m=slice(nh + nx, nh + nx + D),
            u=slice(nh + nx + D, None), hx=slice(0, nh + nx), mu=slice(nh + nx, None),
            xm=slice(nh, nh + nx + D),
        )


@dataclass
class CompiledModel:
    """Every layer's stages and the output head, with what they were built
    from, so that an edited model is recompiled and re-proved."""

    x_step: np.ndarray  # the input features' grid step, 2**qm.input_exp
    layers: list
    out_W: np.ndarray  # (nh, 12), on the logits grid
    out_b: np.ndarray  # (12,)
    source: tuple  # _source(qm) at compile time


def _source(qm: "QuantizedModel") -> tuple:
    """Every exponent and integer the stages are built from."""
    return (
        qm.input_exp,
        tuple((layer.u_exp, layer.m_exp, layer.h_exp) for layer in qm.layers),
        tuple((qt.spec, qt.shape, qt.q.tobytes()) for qt in qm.stored_tensors()),
    )


def compile_model(qm: QuantizedModel) -> CompiledModel:
    """Prove qm's accumulators safe, then build its float64 stages.

    A stage's aligned integer sum lives on its finest grid; its weights are
    those integers times the power of two 2**k that moves the sum onto the
    output grid, so the product is the scaled sum and the stage only rounds
    and clips it.  Float64 computes it exactly: the proof bounds every
    aligned sum, bias included, by a sum of magnitudes below 2^31; any
    partial sum BLAS forms, in any order, is 2**k times an integer bounded
    by the same sum, and scaling by a power of two is exact, so it stays far
    inside the 53 bits float64 holds exactly.
    """
    assert_accumulator_safe(qm)
    folded = map(_folded, stages(qm))
    layers = []
    for layer in qm.layers:
        U, _ = next(folded)
        cells = [next(folded)[0] for _ in layer.cells]  # each [A | B]: its m, then its u
        A, B = memory_system([(AB[:, :-1], AB[:, -1]) for AB in cells])
        H, bias = next(folded)
        layers.append(CompiledLayer(
            U=np.ascontiguousarray(U.T), M=np.concatenate([A.T, B]),
            H=np.ascontiguousarray(H.T), bias=bias,
        ))
    out_W, out_b = next(folded)
    return CompiledModel(
        x_step=_const(2.0**qm.input_exp),
        layers=layers,
        out_W=np.ascontiguousarray(out_W.T),
        out_b=out_b,
        source=_source(qm),
    )


def _engine(qm: QuantizedModel) -> CompiledModel:
    """qm's compiled stages; recompiled, with the proof, if qm was edited."""
    if qm.compiled is None or qm.compiled.source != _source(qm):
        qm.compiled = compile_model(qm)
    return qm.compiled


class QuantStreamState:
    """Integer recurrent state (7-bit h and m per layer) of ``batch`` streams.

    Each layer's state lives in its operand row, ``batch + (n,)`` float64
    holding integers laid out [h | x | m | u] (see ``CompiledLayer``), which
    the engine steps in place; ``h`` and ``m`` are int64 read-outs of their
    slices.  The streams run the stages of ``qm`` as they are when the state
    is made; an edit of ``qm`` after that reaches new states only.
    """

    def __init__(self, qm: QuantizedModel, batch: tuple = ()):
        self._qm = qm
        self.batch = tuple(batch)
        self.engine = _engine(qm)
        self.rows = []
        for st in self.engine.layers:
            row = np.zeros((*self.batch, st.width))
            self.rows.append(Operands(*(row[..., part] for part in st.parts)))
        # The m stage reads the m it replaces, so it writes here first.
        self.m_next = [np.zeros(row.m.shape) for row in self.rows]
        # The step's quantized input: the first layer's x, or its own row
        # in a model without layers.
        self.x_q = self.rows[0].x if self.rows else np.zeros((*self.batch, qm.input_dim))

    @property
    def h(self) -> list:
        return [row.h.astype(np.int64) for row in self.rows]

    @property
    def m(self) -> list:
        return [row.m.astype(np.int64) for row in self.rows]


def quantized_forward(
    qm: QuantizedModel,
    features: np.ndarray,
    state: QuantStreamState | None = None,
):
    """Integer-only inference over (..., T, input_dim) float features.

    Leading axes are independent streams stepped together, each stage one
    exact matmul over all rows (see ``compile_model``), so a row's integers
    equal a call on that row alone; a given ``state`` has their shape.
    Features are quantized to the model's input format at the boundary,
    straight into the first layer's operand row; all arithmetic after that
    is on integers (held exactly in float64).  Logits are int64
    (..., T, 12) on the grid 2**qm.logits_exp.  Returns (logits_q, state).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2 or features.shape[-1] != qm.input_dim:
        raise ValueError(f"features must be (..., T, {qm.input_dim}), got {features.shape}")
    batch = features.shape[:-2]
    if state is None:
        state = QuantStreamState(qm, batch)
    elif state._qm is not qm:
        raise ValueError("state was made for another model")
    elif state.batch != batch:
        raise ValueError(f"state holds a batch of {state.batch}, features have {batch}")
    if not np.isfinite(features).all():
        raise ValueError("cannot quantize non-finite values")
    engine = state.engine
    T = features.shape[-2]
    # The head runs per step into its row of the logits; every sum is below
    # 2^31 (assert_accumulator_safe), so they are exact in any order.
    out = np.empty(batch + (T, engine.out_W.shape[1]))
    for t in range(T):
        h = np.divide(features[..., t, :], engine.x_step, out=state.x_q)
        round_saturate(h, _LO, _HI)
        for i, (st, row, m) in enumerate(zip(engine.layers, state.rows, state.m_next)):
            if i:
                row.x[...] = h
            round_saturate(np.matmul(row.hx, st.U, out=row.u), _LO, _HI)
            round_saturate(np.matmul(row.mu, st.M, out=m), _LO, _HI)
            row.m[...] = m
            h = np.matmul(row.xm, st.H, out=row.h)
            h += st.bias
            round_saturate(h, _ZERO, _HI)  # the relu: its lower bound is 0
        np.matmul(h, engine.out_W, out=out[..., t, :])
    out += engine.out_b
    return out.astype(np.int64), state
