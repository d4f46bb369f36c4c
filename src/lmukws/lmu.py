"""The Legendre memory unit: fixed memory cells, layer parameters, model graph.

The unit couples a fixed linear memory (a state-space system whose state holds
the Legendre coefficients of the recent input window) with a trained nonlinear
layer.  Per step, with input ``x_t`` and previous hidden state ``h_{t-1}``:

    u_t = input_encoder @ x_t + hidden_encoder @ h_{t-1}     (one scalar per cell)
    m_t = A_d m_{t-1} + B_d u_t                              (per memory cell)
    h_t = relu(input_kernel @ x_t + memory_kernel @ m_t + bias)

``A_d``/``B_d`` are fixed (never trained): they are the zero-order-hold
discretization of the closed-form Legendre delay system.  The state ``m`` can
be decoded back into the input window via shifted Legendre polynomials.  The
batched forward over a whole model is ``training.hat_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legval
from scipy.linalg import expm


def legendre_state_space(order: int, theta: float) -> "ContinuousStateSpace":
    """Closed-form continuous-time system that optimally buffers a sliding window.

    Args:
        order: number of Legendre coefficients d (>= 1).
        theta: window length in seconds (> 0).

    Returns:
        ContinuousStateSpace with A (d x d, units 1/s) and B (d, units 1/s).
        All eigenvalues of A have negative real part.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if not theta > 0:
        raise ValueError(f"theta must be > 0 seconds, got {theta!r}")
    i = np.arange(order)[:, None]
    j = np.arange(order)[None, :]
    A = (2 * i + 1) / theta * np.where(i < j, -1.0, (-1.0) ** (i - j + 1))
    B = (2 * np.arange(order) + 1) * (-1.0) ** np.arange(order) / theta
    return ContinuousStateSpace(order=order, theta=theta, A=A, B=B)


@dataclass(frozen=True)
class ContinuousStateSpace:
    """Continuous-time linear system dm/dt = A m + B u."""

    order: int
    theta: float
    A: np.ndarray
    B: np.ndarray


def discretize(ss: ContinuousStateSpace, dt: float):
    """Zero-order-hold discretization of ``ss`` at timestep ``dt``.

    Assumes the input is held constant over each step and is exact for such
    inputs: A_d = expm(A dt), B_d = A^-1 (A_d - I) B.  The Legendre A is
    Hurwitz, hence invertible.

    Returns:
        (A_d, B_d) with spectral radius of A_d < 1 for the Legendre system.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    A_d = expm(ss.A * dt)
    B_d = np.linalg.solve(ss.A, (A_d - np.eye(ss.order)) @ ss.B)
    return A_d, B_d


class MemoryCell:
    """One fixed linear memory: discretized Legendre system plus its state.

    Owns a mutable state vector ``m`` so a cell can be used standalone as a
    streaming window buffer; inside a model the cell only supplies its
    matrices.  A cell instance is single-owner; share the matrices, not the
    object.
    """

    def __init__(self, order: int, theta: float, dt: float):
        ss = legendre_state_space(order, theta)
        self.order = order
        self.theta = theta
        self.dt = dt
        self.A_d, self.B_d = discretize(ss, dt)
        self.m = np.zeros(order)

    def step(self, u: float) -> np.ndarray:
        """Advance one timestep with scalar input; returns the new state."""
        self.m = self.A_d @ self.m + self.B_d * u
        return self.m


def shifted_legendre(order: int, x: float) -> np.ndarray:
    """Values of the shifted Legendre polynomials P~_0..P~_{order-1} at x.

    P~_i(x) = P_i(2x - 1) on [0, 1], normalized so P~_i(1) = 1.
    """
    return np.array([legval(2.0 * x - 1.0, [0.0] * i + [1.0]) for i in range(order)])


def decode_window(cell: MemoryCell, r: float, m: np.ndarray | None = None) -> float:
    """Estimate the input from ``r * theta`` seconds ago out of the memory state.

    r = 0 reads the newest edge of the window, r = 1 the oldest (a full
    ``theta`` ago).  Uses the state on the cell unless ``m`` is given.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r!r}")
    if m is None:
        m = cell.m
    return float(shifted_legendre(cell.order, r) @ m)


@dataclass
class LmuLayerParams:
    """Trainable tensors of one layer plus its (fixed) memory cells.

    Shapes for input width n, hidden width h, c cells of total memory size D:
    input_encoder (c, n), hidden_encoder (c, h), input_kernel (h, n),
    memory_kernel (h, D), bias (h,).
    """

    input_encoder: np.ndarray
    hidden_encoder: np.ndarray
    input_kernel: np.ndarray
    memory_kernel: np.ndarray
    bias: np.ndarray
    cells: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.input_kernel.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.input_kernel.shape[0]

    @property
    def memory_dim(self) -> int:
        return sum(c.order for c in self.cells)

    def validate(self) -> None:
        n, h, c = self.input_dim, self.hidden_dim, len(self.cells)
        if self.input_encoder.shape != (c, n):
            raise ValueError(f"input_encoder shape {self.input_encoder.shape} != {(c, n)}")
        if self.hidden_encoder.shape != (c, h):
            raise ValueError(f"hidden_encoder shape {self.hidden_encoder.shape} != {(c, h)}")
        if self.memory_kernel.shape != (h, self.memory_dim):
            raise ValueError(
                f"memory_kernel shape {self.memory_kernel.shape} != {(h, self.memory_dim)}"
            )
        if self.bias.shape != (h,):
            raise ValueError(f"bias shape {self.bias.shape} != {(h,)}")


@dataclass
class ModelGraph:
    """Stack of LMU layers plus a dense affine output to 12 label logits."""

    layers: list
    output_weight: np.ndarray
    output_bias: np.ndarray
    input_dim: int
    label_names: list

    def validate(self) -> None:
        n = self.input_dim
        for layer in self.layers:
            layer.validate()
            if layer.input_dim != n:
                raise ValueError(f"layer expects input {layer.input_dim}, got {n}")
            n = layer.hidden_dim
        if self.output_weight.shape != (12, n):
            raise ValueError(f"output_weight shape {self.output_weight.shape} != {(12, n)}")
        if self.output_bias.shape != (12,):
            raise ValueError("output bias must have 12 entries")
        if len(self.label_names) != 12:
            raise ValueError("exactly 12 label names required")

    def trainable_tensors(self):
        """Yield (name, array) for every trainable tensor, in a fixed order.

        The fixed memory matrices are deliberately absent: they are never
        trained, pruned, or counted as parameters.
        """
        for i, layer in enumerate(self.layers):
            yield f"layer{i}.input_encoder", layer.input_encoder
            yield f"layer{i}.hidden_encoder", layer.hidden_encoder
            yield f"layer{i}.input_kernel", layer.input_kernel
            yield f"layer{i}.memory_kernel", layer.memory_kernel
            yield f"layer{i}.bias", layer.bias
        yield "output.weight", self.output_weight
        yield "output.bias", self.output_bias

    def parameter_count(self) -> int:
        return sum(int(np.prod(t.shape)) for _, t in self.trainable_tensors())


# ---------------------------------------------------------------------------
# Architecture configuration and initialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellConfig:
    order: int
    theta: float


@dataclass(frozen=True)
class LayerConfig:
    hidden: int
    cells: tuple


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description: enough to build a ModelGraph deterministically."""

    input_dim: int
    layers: tuple
    dt: float = 0.02
    label_names: tuple = ()
    weight_bits: int = 8
    target_sparsity: float = 0.0


def build_model(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelGraph:
    """Instantiate a ModelGraph from a config; weights random unless rng is None (zeros)."""
    def init(shape, fan_in, zero=False):
        if rng is None or zero:
            return np.zeros(shape)
        bound = np.sqrt(3.0 / max(fan_in, 1))
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    n = config.input_dim
    for lc in config.layers:
        cells = [MemoryCell(cc.order, cc.theta, config.dt) for cc in lc.cells]
        D = sum(c.order for c in cells)
        layers.append(
            LmuLayerParams(
                input_encoder=init((len(cells), n), n),
                hidden_encoder=np.zeros((len(cells), lc.hidden)),
                input_kernel=init((lc.hidden, n), n),
                memory_kernel=init((lc.hidden, D), D),
                bias=np.zeros(lc.hidden),
                cells=cells,
            )
        )
        n = lc.hidden
    labels = list(config.label_names) or [f"label{i}" for i in range(12)]
    model = ModelGraph(
        layers=layers,
        output_weight=init((12, n), n),
        output_bias=np.zeros(12),
        input_dim=config.input_dim,
        label_names=labels,
    )
    model.validate()
    return model
