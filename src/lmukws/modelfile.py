"""Binary model files: magic "LMUQ", version, topology, tensors, CRC32.

Layout (all integers little-endian):
  magic "LMUQ" | u16 version | 32-byte frontend-config digest
  u16 input_dim | u8 weight_bits | f64 dt (the frontend's hop, 0.02) | i16 input_exp
  u16 n_labels, then per label u16 length + utf-8 bytes
  u16 n_layers, then per layer:
      u16 hidden | i16 u_exp | i16 m_exp | i16 h_exp
      u16 n_cells, then per cell u16 order + f64 theta
  u32 n_tensors, then per tensor:
      u16 name length + utf-8 name
      u8 bits | i16 scale_exp | u8 ndim | u32 dims...
      u8 has_mask, then packed keep-mask bits if set
      u64 payload length + payload
  u32 CRC32 of everything above

Payloads: 4-bit tensors pack two values per byte (low nibble first), 8-bit
as int8, 32-bit as int32.  Round-trips are bit-exact.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib

import numpy as np

from .fixedpoint import WEIGHT_BIT_CHOICES, QuantSpec, QuantTensor, pack_nibbles, unpack_nibbles
from .frontend import FeatureConfig
from .lmu import LAYER_TENSORS, tensor_shapes
from .qmodel import QuantizedCell, QuantizedLayer, QuantizedModel, compile_model

MAGIC = b"LMUQ"
VERSION = 1
# The one frame period a model file may hold: the frontend's hop.
FRAME_PERIOD_S = FeatureConfig.hop_ms / 1000


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or corrupted."""


def _encode_payload(qt: QuantTensor) -> bytes:
    flat = qt.q.ravel()
    if qt.spec.bits == 4:
        return pack_nibbles(flat)
    if qt.spec.bits == 8:
        return flat.astype("<i1").tobytes()
    return flat.astype("<i4").tobytes()


def _decode_payload(data: bytes, bits: int, count: int) -> np.ndarray:
    if bits == 4:
        return unpack_nibbles(data, count)
    dtype = "<i1" if bits == 8 else "<i4"
    expected = count * np.dtype(dtype).itemsize
    if len(data) != expected:
        raise ModelFormatError(f"payload length {len(data)} != expected {expected}")
    return np.frombuffer(data, dtype=dtype).astype(np.int64)


def _tensor_record(name: str, qt: QuantTensor, mask: np.ndarray | None) -> bytes:
    out = [struct.pack("<H", len(name.encode())), name.encode()]
    out.append(struct.pack("<Bh", qt.spec.bits, qt.spec.scale_exp))
    out.append(struct.pack("<B", qt.q.ndim))
    for d in qt.q.shape:
        out.append(struct.pack("<I", d))
    if mask is not None:
        out.append(struct.pack("<B", 1))
        out.append(np.packbits(mask.ravel().astype(np.uint8)).tobytes())
    else:
        out.append(struct.pack("<B", 0))
    payload = _encode_payload(qt)
    out.append(struct.pack("<Q", len(payload)))
    out.append(payload)
    return b"".join(out)


def save_model(qm: QuantizedModel, path) -> None:
    """Write the deployable model to path; load_model inverts it bit-exactly."""
    out = [MAGIC, struct.pack("<H", VERSION), qm.frontend_hash]
    out.append(struct.pack("<HBdh", qm.input_dim, qm.weight_bits, FRAME_PERIOD_S, qm.input_exp))
    out.append(struct.pack("<H", len(qm.label_names)))
    for label in qm.label_names:
        enc = label.encode()
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
    out.append(struct.pack("<H", len(qm.layers)))
    for layer in qm.layers:
        out.append(
            struct.pack(
                "<Hhhh", layer.hidden_dim, layer.u_exp, layer.m_exp, layer.h_exp
            )
        )
        out.append(struct.pack("<H", len(layer.cells)))
        for cell in layer.cells:
            out.append(struct.pack("<Hd", cell.order, cell.theta))
    records = list(qm.tensor_items())
    out.append(struct.pack("<I", len(records)))
    for name, qt in records:
        out.append(_tensor_record(name, qt, qm.keep_masks.get(name)))
    blob = b"".join(out)
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self) -> str:
        """A u16-length-prefixed UTF-8 string."""
        (n,) = self.unpack("<H")
        raw = self.read(n)
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise ModelFormatError(f"text field {raw!r} is not UTF-8") from None


def _expected_tensors(input_dim: int, weight_bits: int, layer_meta) -> dict:
    """name -> (shape, bits) of every tensor the stored topology implies."""
    expected = {}
    for i, (*_, cells) in enumerate(layer_meta):
        for k, (order, _) in enumerate(cells):
            expected[f"layer{i}.cell{k}.A"] = ((order, order), 8)
            expected[f"layer{i}.cell{k}.B"] = ((order,), 8)
    topology = [(hidden, [order for order, _ in cells]) for hidden, *_, cells in layer_meta]
    for name, shape in tensor_shapes(input_dim, topology).items():
        expected[name] = (shape, 32 if name.endswith("bias") else weight_bits)
    return expected


def load_model(path) -> QuantizedModel:
    """Read a model file, verifying magic, version, structure, and CRC.

    The tensor records must be those the stored topology implies, in order
    and of the shapes and widths it gives; every pruned slot must hold zero,
    and there must be 12 labels.  The model is then compiled, which re-runs
    the 32-bit accumulator proof that freeze runs, so no file the engine
    accepts can overflow it.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 2 + 4:
        raise ModelFormatError("file too short to be a model")
    if data[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"bad magic {data[:4]!r}")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ModelFormatError("CRC mismatch: file corrupted")
    r = _Reader(data[:-4])
    r.read(len(MAGIC))
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    frontend_hash = r.read(32)
    input_dim, weight_bits, dt, input_exp = r.unpack("<HBdh")
    (n_labels,) = r.unpack("<H")
    labels = []
    for _ in range(n_labels):
        labels.append(r.text())
    (n_layers,) = r.unpack("<H")
    layer_meta = []
    for i in range(n_layers):
        hidden, u_exp, m_exp, h_exp = r.unpack("<Hhhh")
        (n_cells,) = r.unpack("<H")
        cells = [r.unpack("<Hd") for _ in range(n_cells)]
        for k, (_, theta) in enumerate(cells):
            if not 0 < theta < math.inf:  # lmu.legendre_state_space's rule
                raise ModelFormatError(f"layer{i}.cell{k}: window theta = {theta!r} s "
                                       "is not a finite number > 0")
        layer_meta.append((hidden, u_exp, m_exp, h_exp, cells))
    (n_tensors,) = r.unpack("<I")
    tensors, masks = {}, {}
    for _ in range(n_tensors):
        name = r.text()
        if name in tensors:
            raise ModelFormatError(f"tensor {name!r} appears twice")
        bits, scale_exp = r.unpack("<Bh")
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack("<I")[0] for _ in range(ndim))
        count = math.prod(shape)  # exact: np.prod wraps past 2^63
        (has_mask,) = r.unpack("<B")
        mask_bytes = r.read((count + 7) // 8) if has_mask else None
        (payload_len,) = r.unpack("<Q")
        payload = r.read(payload_len)
        try:  # reshape rejects more dimensions than numpy supports
            if mask_bytes is not None:
                masks[name] = (
                    np.unpackbits(np.frombuffer(mask_bytes, dtype=np.uint8))[:count]
                    .astype(bool)
                    .reshape(shape)
                )
            q = _decode_payload(payload, bits, count).reshape(shape)
            tensors[name] = QuantTensor(q=q, spec=QuantSpec(bits, scale_exp))
        except ValueError as exc:
            raise ModelFormatError(f"tensor {name!r}: {exc}") from exc
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes before CRC")
    if len(labels) != 12:
        raise ModelFormatError(f"{len(labels)} labels; a model has exactly 12")
    if weight_bits not in WEIGHT_BIT_CHOICES:
        raise ModelFormatError(f"weight width {weight_bits} is not 4 or 8")
    if dt != FRAME_PERIOD_S:  # the engine runs, and the cost model times, 20 ms hops
        raise ModelFormatError(f"frame period dt = {dt!r} is not the frontend's "
                               f"{FRAME_PERIOD_S!r} s hop")
    expected = _expected_tensors(input_dim, weight_bits, layer_meta)
    for i, (name, want) in enumerate(itertools.zip_longest(tensors, expected)):
        if name != want:  # an extra, missing, renamed or reordered record
            raise ModelFormatError(f"tensor record {i} is {name!r}; the topology implies {want!r}")
    for name, (shape, bits) in expected.items():
        qt = tensors[name]
        if qt.shape != shape or qt.spec.bits != bits:
            raise ModelFormatError(
                f"tensor {name!r} is {qt.spec.bits}-bit {qt.shape}; the topology "
                f"needs {bits}-bit {shape}"
            )
    for name, mask in masks.items():
        # The size metric skips pruned slots, so a payload there would run
        # in the engine without being counted.
        if np.any(tensors[name].q[~mask]):
            raise ModelFormatError(f"tensor {name!r} has a nonzero payload in a pruned slot")

    layers = []
    for i, (_, u_exp, m_exp, h_exp, cell_meta) in enumerate(layer_meta):
        cells = [QuantizedCell(A=tensors[f"layer{i}.cell{k}.A"],
                               B=tensors[f"layer{i}.cell{k}.B"], theta=theta)
                 for k, (_, theta) in enumerate(cell_meta)]
        layers.append(QuantizedLayer(
            **{name: tensors[f"layer{i}.{name}"] for name in LAYER_TENSORS},
            cells=cells, u_exp=u_exp, m_exp=m_exp, h_exp=h_exp,
        ))
    qm = QuantizedModel(
        input_dim=input_dim,
        weight_bits=weight_bits,
        label_names=labels,
        input_exp=input_exp,
        layers=layers,
        output_weight=tensors["output.weight"],
        output_bias=tensors["output.bias"],
        keep_masks=masks,
        frontend_hash=frontend_hash,
    )
    try:
        qm.compiled = compile_model(qm)
    except ValueError as exc:
        raise ModelFormatError(f"model fails the accumulator proof: {exc}") from exc
    return qm
