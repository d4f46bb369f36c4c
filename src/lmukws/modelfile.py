"""Binary model files: magic "LMUQ", version, topology, tensors, CRC32.

A file is a run of the records declared below, all little-endian:
  PREAMBLE, HEADER, then U16 n_labels and per label a text field
  U16 n_layers, then per layer LAYER, U16 n_cells and per cell CELL
  U32 n_tensors, then per tensor: its name as a text field, TENSOR, a U32
      per dim, U8 has_mask and the packed keep-mask bits if set, U64
      payload length and the payload
  U32 CRC32 of everything above
A text field is its U16 length in bytes, then its UTF-8 bytes.

Payloads: 4-bit tensors pack two values per byte (low nibble first), 8-bit
as int8, 32-bit as int32.  Round-trips are bit-exact.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib

import numpy as np

from .fixedpoint import (BIAS_BITS, CELL_BITS, WEIGHT_BIT_CHOICES, QuantSpec, QuantTensor,
                         pack_nibbles, unpack_nibbles)
from .frontend import N_LABELS, FeatureConfig
from .lmu import LAYER_TENSORS, cell_name, check_cell, stored_shapes, tensor_shapes
from .qmodel import QuantizedCell, QuantizedLayer, QuantizedModel, compile_model

MAGIC = b"LMUQ"
VERSION = 1

# Each record of the layout above, declared once for the writer and the reader.
PREAMBLE = struct.Struct("<4sH")  # magic, version
HEADER = struct.Struct("<32sHBdh")  # frontend digest, input_dim, weight_bits, dt, input_exp
LAYER = struct.Struct("<Hhhh")  # hidden, u_exp, m_exp, h_exp
CELL = struct.Struct("<Hd")  # order, theta
TENSOR = struct.Struct("<BhB")  # bits, scale_exp, ndim
U8, U16, U32, U64 = (struct.Struct(f"<{code}") for code in "BHIQ")


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


def _text(text: str) -> bytes:
    raw = text.encode()
    return U16.pack(len(raw)) + raw


def _tensor_record(name: str, qt: QuantTensor, mask: np.ndarray | None) -> bytes:
    out = [_text(name), TENSOR.pack(qt.spec.bits, qt.spec.scale_exp, qt.q.ndim)]
    out += [U32.pack(d) for d in qt.q.shape] + [U8.pack(mask is not None)]
    if mask is not None:
        out.append(np.packbits(mask.ravel().astype(np.uint8)).tobytes())
    payload = _encode_payload(qt)
    out += [U64.pack(len(payload)), payload]
    return b"".join(out)


def save_model(qm: QuantizedModel, path) -> None:
    """Write the deployable model to path; load_model inverts it bit-exactly."""
    out = [PREAMBLE.pack(MAGIC, VERSION),
           HEADER.pack(qm.frontend_hash, qm.input_dim, qm.weight_bits, FeatureConfig.hop_s,
                       qm.input_exp),
           U16.pack(len(qm.label_names))]
    out += [_text(label) for label in qm.label_names]
    out.append(U16.pack(len(qm.layers)))
    for layer in qm.layers:
        out.append(LAYER.pack(layer.hidden_dim, layer.u_exp, layer.m_exp, layer.h_exp))
        out.append(U16.pack(len(layer.cells)))
        out += [CELL.pack(cell.order, cell.theta) for cell in layer.cells]
    records = list(qm.tensor_items())
    out.append(U32.pack(len(records)))
    out += [_tensor_record(name, qt, qm.keep_masks.get(name)) for name, qt in records]
    blob = b"".join(out)
    with open(path, "wb") as f:
        f.write(blob)
        f.write(U32.pack(zlib.crc32(blob)))


class _Reader:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, record: struct.Struct) -> tuple:
        return record.unpack(self.read(record.size))

    def count(self, record: struct.Struct) -> int:
        return self.unpack(record)[0]

    def text(self) -> str:
        """A U16-length-prefixed UTF-8 string."""
        raw = self.read(self.count(U16))
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise ModelFormatError(f"text field {raw!r} is not UTF-8") from None


def load_model(path) -> QuantizedModel:
    """Read a model file, verifying magic, version, structure, and CRC.

    Every cell must pass ``lmu.check_cell``.  The tensor records must be
    those the stored topology implies, in order and of the shapes and widths
    it gives; every pruned slot must hold zero, and there must be 12 labels.
    The model is then compiled, which re-runs the 32-bit accumulator proof
    that freeze runs, so no file the engine accepts can overflow it.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < PREAMBLE.size + U32.size:
        raise ModelFormatError("file too short to be a model")
    if data[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"bad magic {data[:4]!r}")
    (stored_crc,) = U32.unpack_from(data, len(data) - U32.size)
    if zlib.crc32(data[: -U32.size]) != stored_crc:
        raise ModelFormatError("CRC mismatch: file corrupted")
    r = _Reader(data[: -U32.size])
    _, version = r.unpack(PREAMBLE)
    if version != VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    frontend_hash, input_dim, weight_bits, dt, input_exp = r.unpack(HEADER)
    labels = [r.text() for _ in range(r.count(U16))]
    layer_meta = []
    for i in range(r.count(U16)):
        head = r.unpack(LAYER)  # hidden, u_exp, m_exp, h_exp
        cells = [r.unpack(CELL) for _ in range(r.count(U16))]
        for k, (order, theta) in enumerate(cells):
            try:
                check_cell(order, theta)
            except ValueError as exc:
                raise ModelFormatError(f"{cell_name(i, k)}: {exc}") from exc
        layer_meta.append((head, cells))
    tensors, masks = {}, {}
    for _ in range(r.count(U32)):
        name = r.text()
        if name in tensors:
            raise ModelFormatError(f"tensor {name!r} appears twice")
        bits, scale_exp, ndim = r.unpack(TENSOR)
        shape = tuple(r.count(U32) for _ in range(ndim))
        count = math.prod(shape)  # exact: np.prod wraps past 2^63
        mask_bytes = r.read((count + 7) // 8) if r.count(U8) else None
        payload = r.read(r.count(U64))
        try:  # reshape rejects more dimensions than numpy supports
            if mask_bytes is not None:
                keep = np.unpackbits(np.frombuffer(mask_bytes, dtype=np.uint8))[:count]
                masks[name] = keep.astype(bool).reshape(shape)
            q = _decode_payload(payload, bits, count).reshape(shape)
            tensors[name] = QuantTensor(q=q, spec=QuantSpec(bits, scale_exp))
        except ValueError as exc:
            raise ModelFormatError(f"tensor {name!r}: {exc}") from exc
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes before CRC")
    if len(labels) != N_LABELS:
        raise ModelFormatError(f"{len(labels)} labels; a model has exactly {N_LABELS}")
    if weight_bits not in WEIGHT_BIT_CHOICES:
        raise ModelFormatError(f"weight width {weight_bits} is not "
                               f"{' or '.join(map(str, WEIGHT_BIT_CHOICES))}")
    if dt != FeatureConfig.hop_s:  # the engine runs, and the cost model times, 20 ms hops
        raise ModelFormatError(f"frame period dt = {dt!r} is not the frontend's "
                               f"{FeatureConfig.hop_s!r} s hop")
    # name -> (shape, bits) of every tensor the stored topology implies
    topology = [(head[0], [order for order, _ in cells]) for head, cells in layer_meta]
    expected = {name: (shape, CELL_BITS) for name, shape in stored_shapes(input_dim, topology).items()}
    expected |= {name: (shape, BIAS_BITS if name.endswith("bias") else weight_bits)
                 for name, shape in tensor_shapes(input_dim, topology).items()}
    for i, (name, want) in enumerate(itertools.zip_longest(tensors, expected)):
        if name != want:  # an extra, missing, renamed or reordered record
            raise ModelFormatError(f"tensor record {i} is {name!r}; the topology implies {want!r}")
    for name, (shape, bits) in expected.items():
        qt = tensors[name]
        if qt.shape != shape or qt.spec.bits != bits:
            raise ModelFormatError(f"tensor {name!r} is {qt.spec.bits}-bit {qt.shape}; "
                                   f"the topology needs {bits}-bit {shape}")
    for name, mask in masks.items():
        # The size metric skips pruned slots, so a payload there would run
        # in the engine without being counted.
        if np.any(tensors[name].q[~mask]):
            raise ModelFormatError(f"tensor {name!r} has a nonzero payload in a pruned slot")

    records = iter(tensors.values())  # in stored order: every cell's A and B come first
    layers = [QuantizedLayer(**{name: tensors[f"layer{i}.{name}"] for name in LAYER_TENSORS},
                             cells=[QuantizedCell(A=next(records), B=next(records), theta=theta)
                                    for _, theta in cells],
                             u_exp=u_exp, m_exp=m_exp, h_exp=h_exp)
              for i, ((_, u_exp, m_exp, h_exp), cells) in enumerate(layer_meta)]
    qm = QuantizedModel(
        input_dim=input_dim, weight_bits=weight_bits, label_names=labels, input_exp=input_exp,
        layers=layers, output_weight=tensors["output.weight"],
        output_bias=tensors["output.bias"], keep_masks=masks, frontend_hash=frontend_hash,
    )
    try:
        qm.compiled = compile_model(qm)
    except ValueError as exc:
        raise ModelFormatError(f"model fails the accumulator proof: {exc}") from exc
    return qm
