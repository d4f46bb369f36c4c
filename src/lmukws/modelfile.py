"""Binary model files: magic "LMUQ", version, topology, tensors, CRC32.

Layout (all integers little-endian):
  magic "LMUQ" | u16 version | 32-byte frontend-config digest
  u16 input_dim | u8 weight_bits | f64 dt | i16 input_exp
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

import struct
import zlib

import numpy as np

from .fixedpoint import QuantSpec, QuantTensor, pack_nibbles, unpack_nibbles
from .qmodel import QuantizedCell, QuantizedLayer, QuantizedModel, assert_accumulator_safe

MAGIC = b"LMUQ"
VERSION = 1


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
    out.append(struct.pack("<HBdh", qm.input_dim, qm.weight_bits, qm.dt, qm.input_exp))
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
    records = []
    for i, layer in enumerate(qm.layers):
        for k, cell in enumerate(layer.cells):
            records.append((f"layer{i}.cell{k}.A", cell.A))
            records.append((f"layer{i}.cell{k}.B", cell.B))
    records.extend(qm.weight_tensor_items())
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


def load_model(path) -> QuantizedModel:
    """Read a model file, verifying magic, version, structure, and CRC.

    The 32-bit accumulator proof that freeze runs is re-run on the loaded
    model, so no file the engine accepts can overflow it.
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
        (ln,) = r.unpack("<H")
        labels.append(r.read(ln).decode())
    (n_layers,) = r.unpack("<H")
    layer_meta = []
    for _ in range(n_layers):
        hidden, u_exp, m_exp, h_exp = r.unpack("<Hhhh")
        (n_cells,) = r.unpack("<H")
        cells = [r.unpack("<Hd") for _ in range(n_cells)]
        layer_meta.append((hidden, u_exp, m_exp, h_exp, cells))
    (n_tensors,) = r.unpack("<I")
    tensors, masks = {}, {}
    for _ in range(n_tensors):
        (name_len,) = r.unpack("<H")
        name = r.read(name_len).decode()
        bits, scale_exp = r.unpack("<Bh")
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack("<I")[0] for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        (has_mask,) = r.unpack("<B")
        if has_mask:
            mask_bytes = r.read((count + 7) // 8)
            masks[name] = (
                np.unpackbits(np.frombuffer(mask_bytes, dtype=np.uint8))[:count]
                .astype(bool)
                .reshape(shape)
            )
        (payload_len,) = r.unpack("<Q")
        payload = r.read(payload_len)
        try:
            q = _decode_payload(payload, bits, count).reshape(shape)
            tensors[name] = QuantTensor(q=q, spec=QuantSpec(bits, scale_exp))
        except ValueError as exc:
            raise ModelFormatError(f"tensor {name!r}: {exc}") from exc
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes before CRC")

    def take(name):
        if name not in tensors:
            raise ModelFormatError(f"missing tensor {name!r}")
        return tensors[name]

    layers = []
    for i, (hidden, u_exp, m_exp, h_exp, cell_meta) in enumerate(layer_meta):
        cells = [
            QuantizedCell(
                A=take(f"layer{i}.cell{k}.A"),
                B=take(f"layer{i}.cell{k}.B"),
                order=order,
                theta=theta,
            )
            for k, (order, theta) in enumerate(cell_meta)
        ]
        layers.append(
            QuantizedLayer(
                input_encoder=take(f"layer{i}.input_encoder"),
                hidden_encoder=take(f"layer{i}.hidden_encoder"),
                input_kernel=take(f"layer{i}.input_kernel"),
                memory_kernel=take(f"layer{i}.memory_kernel"),
                bias=take(f"layer{i}.bias"),
                cells=cells,
                u_exp=u_exp,
                m_exp=m_exp,
                h_exp=h_exp,
            )
        )
    qm = QuantizedModel(
        input_dim=input_dim,
        dt=dt,
        weight_bits=weight_bits,
        label_names=labels,
        input_exp=input_exp,
        layers=layers,
        output_weight=take("output.weight"),
        output_bias=take("output.bias"),
        keep_masks=masks,
        frontend_hash=frontend_hash,
    )
    try:
        assert_accumulator_safe(qm)
    except ValueError as exc:
        raise ModelFormatError(f"model fails the accumulator proof: {exc}") from exc
    return qm
