"""Bit-exact model checkpoints.

Layout: 8-byte magic, a little-endian uint64 header length, a UTF-8 JSON
header, then each tensor's raw little-endian payload in header index order.
The header carries the format version, the model geometry, each tensor's
parametrization group, and an index of (name, shape, dtype, byte offset)
entries. Loading refuses a version it does not understand and reports the
exact byte offset of any truncation.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from . import mup
from .config import PTConfig
from .errors import CheckpointError
from .model import tensor_order, tensor_shapes

__all__ = ["MAGIC", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"PTCHKPT\x00"
FORMAT_VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, config: PTConfig, params: dict, extra: dict | None = None) -> None:
    """Write config + tensors (+ an optional JSON-serializable extra dict)."""
    names = tensor_order(config)
    shapes = tensor_shapes(config)
    index = []
    offset = 0
    for name in names:
        tensor = np.asarray(params[name])
        if tuple(tensor.shape) != shapes[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {tuple(tensor.shape)}, expected {shapes[name]}")
        dtype = str(tensor.dtype)
        if dtype not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dtype!r} for tensor {name!r}")
        nbytes = tensor.size * tensor.itemsize
        index.append({"name": name, "shape": list(tensor.shape),
                      "dtype": dtype, "offset": offset})
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "groups": {name: mup.classify_param(name) for name in names},
        "tensors": index,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in names:
            tensor = np.ascontiguousarray(np.asarray(params[name]))
            f.write(tensor.astype(tensor.dtype.newbyteorder("<"), copy=False).tobytes())


def load_checkpoint(path) -> tuple[PTConfig, dict, dict]:
    """Read a checkpoint back; returns (config, tensors, extra)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 8:
        raise CheckpointError(
            f"truncated checkpoint: {len(data)} bytes is shorter than the fixed preamble "
            f"({len(MAGIC) + 8} bytes)")
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    body_start = len(MAGIC) + 8
    if len(data) < body_start + header_len:
        raise CheckpointError(
            f"truncated checkpoint: header claims {header_len} bytes but the file "
            f"ends at byte {len(data)} (needed {body_start + header_len})")
    try:
        header = json.loads(data[body_start:body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from None

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})")

    config = PTConfig(**header["config"])
    payload_start = body_start + header_len
    tensors = {}
    for entry in header["tensors"]:
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = payload_start + entry["offset"]
        end = start + count * dtype.itemsize
        if end > len(data):
            raise CheckpointError(
                f"truncated checkpoint: tensor {entry['name']!r} needs bytes "
                f"{start}..{end} but the file ends at byte {len(data)}")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        tensors[entry["name"]] = arr.reshape(shape).astype(arr.dtype.newbyteorder("="))
    return config, tensors, header.get("extra", {})
