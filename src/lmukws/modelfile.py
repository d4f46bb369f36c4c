"""Binary model files: magic "LMUQ", version, topology, tensors, CRC32.

A file is a run of the records declared below, all little-endian:
  PREAMBLE, HEADER, then U16 n_labels and per label a text field
  U16 n_layers, then per layer LAYER, U16 n_cells and per cell its U16 order
  per tensor: TENSOR, the packed keep-mask bits if it has a mask, the payload
  U32 CRC32 of everything above
A text field is its U16 length in bytes, then its UTF-8 bytes.

The topology fixes the rest: the tensors are ``lmu.stored_layout``'s, in
its order and of the shapes and widths it gives, so a record stores
neither a name, a shape, a width nor a length.  ``save_model`` refuses a
model whose tensors differ from that layout, so every file it writes reads
back as the same model.  Payloads: 4-bit tensors pack two values per byte
(low nibble first), 8-bit as int8, 32-bit as int32.  Round-trips are
bit-exact.  A file of any other version, version 1 included, is refused.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .fixedpoint import WEIGHT_BIT_CHOICES, QuantSpec, QuantTensor, pack_nibbles, unpack_nibbles
from .frontend import DIGEST_SIZE, N_LABELS
from .lmu import LAYER_TENSORS, cell_name, check_cell, model_topology, stored_layout
from .qmodel import QuantizedCell, QuantizedLayer, QuantizedModel, compile_model

MAGIC = b"LMUQ"
VERSION = 2

# Each record of the layout above, declared once for the writer and the reader.
PREAMBLE = struct.Struct("<4sH")  # magic, version
HEADER = struct.Struct(f"<{DIGEST_SIZE}sHBh")  # frontend digest, input_dim, weight_bits, input_exp
LAYER = struct.Struct("<Hhhh")  # hidden, u_exp, m_exp, h_exp
TENSOR = struct.Struct("<h?")  # scale_exp, has_mask
U16, U32 = (struct.Struct(f"<{code}") for code in "HI")


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
    return np.frombuffer(data, dtype="<i1" if bits == 8 else "<i4").astype(np.int64)


def _text(text: str) -> bytes:
    raw = text.encode()
    return U16.pack(len(raw)) + raw


def _tensor_record(name: str, qt: QuantTensor, mask: np.ndarray | None, shape: tuple,
                   bits: int) -> bytes:
    """The record of a tensor the layout gives as ``bits``-bit ``shape``;
    ValueError naming it if the tensor or its keep-mask is another."""
    if qt.shape != shape or qt.spec.bits != bits or (mask is not None and mask.shape != shape):
        raise ValueError(f"tensor {name!r} is {qt.spec.bits}-bit {qt.shape}"
                         + ("" if mask is None else f" with a {mask.shape} keep-mask")
                         + f"; the topology needs {bits}-bit {shape}")
    out = [TENSOR.pack(qt.spec.scale_exp, mask is not None)]
    if mask is not None:
        out.append(np.packbits(mask.ravel().astype(np.uint8)).tobytes())
    out.append(_encode_payload(qt))
    return b"".join(out)


def save_model(qm: QuantizedModel, path) -> None:
    """Write the deployable model to path; load_model inverts it bit-exactly.

    Raises ValueError, and writes nothing, if a tensor's shape or width
    differs from what ``lmu.stored_layout`` gives for the model's topology.
    """
    layout = stored_layout(qm.input_dim, model_topology(qm), qm.weight_bits)
    records = [_tensor_record(name, qt, qm.keep_masks.get(name), shape, bits)
               for (name, (shape, bits)), qt in zip(layout.items(), qm.stored_tensors())]
    out = [PREAMBLE.pack(MAGIC, VERSION),
           HEADER.pack(qm.frontend_hash, qm.input_dim, qm.weight_bits, qm.input_exp),
           U16.pack(len(qm.label_names))]
    out += [_text(label) for label in qm.label_names]
    out.append(U16.pack(len(qm.layers)))
    for layer in qm.layers:
        out.append(LAYER.pack(layer.hidden_dim, layer.u_exp, layer.m_exp, layer.h_exp))
        out.append(U16.pack(len(layer.cells)))
        out += [U16.pack(cell.order) for cell in layer.cells]
    blob = b"".join(out + records)
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

    Every cell must pass ``lmu.check_cell``, the weight width must be one
    of ``WEIGHT_BIT_CHOICES`` and there must be 12 labels.  The tensors are
    read as ``lmu.stored_layout`` lays them out for the stored topology;
    every pruned slot must hold zero.  The model is then compiled, which
    re-runs the 32-bit accumulator proof that freeze runs, so no file the
    engine accepts can overflow it.
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
    frontend_hash, input_dim, weight_bits, input_exp = r.unpack(HEADER)
    if weight_bits not in WEIGHT_BIT_CHOICES:
        raise ModelFormatError(f"weight width {weight_bits} is not "
                               f"{' or '.join(map(str, WEIGHT_BIT_CHOICES))}")
    labels = [r.text() for _ in range(r.count(U16))]
    layer_meta = []
    for i in range(r.count(U16)):
        head = r.unpack(LAYER)  # hidden, u_exp, m_exp, h_exp
        orders = [r.count(U16) for _ in range(r.count(U16))]
        for k, order in enumerate(orders):
            try:
                check_cell(order)
            except ValueError as exc:
                raise ModelFormatError(f"{cell_name(i, k)}: {exc}") from exc
        layer_meta.append((head, orders))
    topology = [(head[0], orders) for head, orders in layer_meta]
    tensors, masks = {}, {}
    for name, (shape, bits) in stored_layout(input_dim, topology, weight_bits).items():
        scale_exp, has_mask = r.unpack(TENSOR)
        count = math.prod(shape)
        if has_mask:
            keep = np.unpackbits(np.frombuffer(r.read((count + 7) // 8), dtype=np.uint8))
            masks[name] = keep[:count].astype(bool).reshape(shape)
        payload = r.read((count * bits + 7) // 8)
        tensors[name] = QuantTensor(q=_decode_payload(payload, bits, count).reshape(shape),
                                    spec=QuantSpec(bits, scale_exp))
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes before CRC")
    if len(labels) != N_LABELS:
        raise ModelFormatError(f"{len(labels)} labels; a model has exactly {N_LABELS}")
    for name, mask in masks.items():
        # The size metric skips pruned slots, so a payload there would run
        # in the engine without being counted.
        if np.any(tensors[name].q[~mask]):
            raise ModelFormatError(f"tensor {name!r} has a nonzero payload in a pruned slot")

    records = iter(tensors.values())  # in stored order: every cell's A and B come first
    layers = [QuantizedLayer(**{name: tensors[f"layer{i}.{name}"] for name in LAYER_TENSORS},
                             cells=[QuantizedCell(A=next(records), B=next(records))
                                    for _ in orders],
                             u_exp=u_exp, m_exp=m_exp, h_exp=h_exp)
              for i, ((_, u_exp, m_exp, h_exp), orders) in enumerate(layer_meta)]
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
