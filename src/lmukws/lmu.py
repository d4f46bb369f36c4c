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

from .fixedpoint import BIAS_BITS, CELL_BITS
from .frontend import N_LABELS, FeatureConfig


def check_cell(order: int) -> None:
    """ValueError unless a cell's order is an integer >= 1."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")


def legendre_state_space(order: int, theta: float):
    """Closed-form continuous-time system dm/dt = A m + B u that optimally
    buffers a sliding window.

    Args:
        order: number of Legendre coefficients d (>= 1).
        theta: window length in seconds (finite, > 0).

    Returns:
        (A, B): A is d x d and B has d entries, both in units of 1/s.  All
        eigenvalues of A have negative real part.
    """
    check_cell(order)
    if not 0 < theta < np.inf:
        raise ValueError(f"window theta must be finite and > 0 seconds, got {theta!r}")
    i = np.arange(order)[:, None]
    j = np.arange(order)[None, :]
    A = (2 * i + 1) / theta * np.where(i < j, -1.0, (-1.0) ** (i - j + 1))
    B = (2 * np.arange(order) + 1) * (-1.0) ** np.arange(order) / theta
    return A, B


def expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005): the Taylor
    series of X / 2^s, with s the least that brings its 1-norm to at most 1,
    squared s times.  21 terms leave a remainder near 1/21! ~ 2e-20."""
    norm = np.linalg.norm(X, 1)
    s = max(0, int(np.ceil(np.log2(norm)))) if norm > 0 else 0
    X = X / 2.0**s
    E = term = np.eye(len(X))
    for k in range(1, 21):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def discretize(A: np.ndarray, B: np.ndarray, dt: float):
    """Zero-order-hold discretization of dm/dt = A m + B u at timestep ``dt``.

    Assumes the input is held constant over each step and is exact for such
    inputs: A_d = expm(A dt), B_d = A^-1 (A_d - I) B.  The Legendre A is
    Hurwitz, hence invertible.

    Returns:
        (A_d, B_d) with spectral radius of A_d < 1 for the Legendre system.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    A_d = expm(A * dt)
    B_d = np.linalg.solve(A, (A_d - np.eye(len(B))) @ B)
    return A_d, B_d


class MemoryCell:
    """One fixed linear memory: discretized Legendre system plus its state.

    Owns a mutable state vector ``m`` so a cell can be used standalone as a
    streaming window buffer; inside a model the cell only supplies its
    matrices.  A cell instance is single-owner; share the matrices, not the
    object.
    """

    def __init__(self, order: int, theta: float, dt: float):
        self.order = order
        self.A_d, self.B_d = discretize(*legendre_state_space(order, theta), dt)
        self.m = np.zeros(order)

    def step(self, u: float) -> np.ndarray:
        """Advance one timestep with scalar input; returns the new state."""
        self.m = self.A_d @ self.m + self.B_d * u
        return self.m


def shifted_legendre(order: int, x: float) -> np.ndarray:
    """Values of the shifted Legendre polynomials P~_0..P~_{order-1} at x.

    P~_i(x) = P_i(2x - 1) on [0, 1], normalized so P~_i(1) = 1.
    """
    from numpy.polynomial.legendre import legval  # only decoding needs it: import on use

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


# The trainable tensors of one layer, in the order they are stored.
LAYER_TENSORS = ("input_encoder", "hidden_encoder", "input_kernel", "memory_kernel", "bias")


def tensor_shapes(input_dim: int, topology) -> dict:
    """name -> shape of every trainable tensor of a model, in stored order.

    ``topology`` lists each layer as (hidden width, its cells' orders).
    For layer input width n, hidden width h and c cells of total memory size
    D: input_encoder (c, n), hidden_encoder (c, h), input_kernel (h, n),
    memory_kernel (h, D), bias (h,); then the head maps the last width to
    12 label logits.
    """
    shapes = {}
    n = input_dim
    for i, (h, orders) in enumerate(topology):
        c, D = len(orders), sum(orders)
        for name, shape in zip(LAYER_TENSORS, ((c, n), (c, h), (h, n), (h, D), (h,))):
            shapes[f"layer{i}.{name}"] = shape
        n = h
    shapes["output.weight"], shapes["output.bias"] = (N_LABELS, n), (N_LABELS,)
    return shapes


def cell_name(i: int, k: int) -> str:
    """Cell k of layer i, as model files and the accumulator proof name it."""
    return f"layer{i}.cell{k}"


def stored_layout(input_dim: int, topology, weight_bits: int) -> dict:
    """name -> (shape, width) of every tensor a model file stores, in stored
    order: each layer's cells' fixed A (d, d) and B (d,) at ``CELL_BITS``,
    then ``tensor_shapes``, each bias at ``BIAS_BITS`` and each weight at
    ``weight_bits``."""
    cells = {f"{cell_name(i, k)}.{part}": (shape, CELL_BITS)
             for i, (_, orders) in enumerate(topology) for k, d in enumerate(orders)
             for part, shape in (("A", (d, d)), ("B", (d,)))}
    return cells | {name: (shape, BIAS_BITS if name.endswith("bias") else weight_bits)
                    for name, shape in tensor_shapes(input_dim, topology).items()}


def model_topology(model) -> list:
    """Each layer's (hidden width, cell orders) of a ModelGraph or QuantizedModel."""
    return [(layer.hidden_dim, [cell.order for cell in layer.cells]) for layer in model.layers]


def memory_system(blocks):
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


def trainable_items(model):
    """Yield (name, tensor) for every trainable tensor of a ``ModelGraph``
    or a ``qmodel.QuantizedModel``, in stored order: each layer's
    ``LAYER_TENSORS``, then the head's weight and bias.

    The fixed memory matrices are deliberately absent: they are never
    trained, pruned, or counted as parameters.
    """
    for i, layer in enumerate(model.layers):
        for name in LAYER_TENSORS:
            yield f"layer{i}.{name}", getattr(layer, name)
    yield "output.weight", model.output_weight
    yield "output.bias", model.output_bias


@dataclass
class LmuLayerParams:
    """Trainable tensors of one layer (shapes in ``tensor_shapes``) plus its
    fixed memory cells."""

    input_encoder: np.ndarray
    hidden_encoder: np.ndarray
    input_kernel: np.ndarray
    memory_kernel: np.ndarray
    bias: np.ndarray
    cells: list = field(default_factory=list)

    @property
    def hidden_dim(self) -> int:
        return self.input_kernel.shape[0]

    @property
    def memory_dim(self) -> int:
        return sum(c.order for c in self.cells)


@dataclass
class ModelGraph:
    """Stack of LMU layers plus a dense affine output to 12 label logits."""

    layers: list
    output_weight: np.ndarray
    output_bias: np.ndarray
    input_dim: int
    label_names: list

    def validate(self) -> None:
        shapes = tensor_shapes(self.input_dim, model_topology(self))
        for name, tensor in self.trainable_tensors():
            if tensor.shape != shapes[name]:
                raise ValueError(f"{name} shape {tensor.shape} != {shapes[name]}")
        if len(self.label_names) != N_LABELS:
            raise ValueError(f"exactly {N_LABELS} label names required")

    def trainable_tensors(self):
        """(name, array) for every trainable tensor: ``trainable_items``."""
        return trainable_items(self)

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
    label_names: tuple = ()
    weight_bits: int = 8
    target_sparsity: float = 0.0


def build_model(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelGraph:
    """Instantiate a ModelGraph from a config; weights random unless rng is None (zeros).

    Encoders, kernels and the head's weight are drawn uniform in
    +-sqrt(3 / fan-in), in stored order; hidden encoders and biases start at
    zero.  The memory cells step once per frontend hop.
    """
    topology = [(lc.hidden, [cc.order for cc in lc.cells]) for lc in config.layers]
    tensors = {}
    for name, shape in tensor_shapes(config.input_dim, topology).items():
        if rng is None or name.endswith(("hidden_encoder", "bias")):
            tensors[name] = np.zeros(shape)
        else:
            bound = np.sqrt(3.0 / max(shape[-1], 1))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    layers = [
        LmuLayerParams(**{name: tensors[f"layer{i}.{name}"] for name in LAYER_TENSORS},
                       cells=[MemoryCell(cc.order, cc.theta, FeatureConfig.hop_s)
                              for cc in lc.cells])
        for i, lc in enumerate(config.layers)
    ]
    model = ModelGraph(
        layers=layers,
        output_weight=tensors["output.weight"],
        output_bias=tensors["output.bias"],
        input_dim=config.input_dim,
        label_names=list(config.label_names) or [f"label{i}" for i in range(N_LABELS)],
    )
    model.validate()
    return model
