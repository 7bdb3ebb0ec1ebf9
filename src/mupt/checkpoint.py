"""Bit-exact model checkpoints.

Layout: 8-byte magic, a little-endian uint64 header length, a UTF-8 JSON
header, then each tensor's raw little-endian payload in header index order.
The header carries the format version, the model geometry, each tensor's
parametrization group, and an index of (name, shape, dtype, byte offset)
entries. Loading refuses a version it does not understand, checks the index
against the geometry (every tensor once, with its expected shape, a known
dtype and a payload inside the file), reports the exact byte offset of any
truncation, and turns every malformed header into a CheckpointError.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from . import mup
from .config import PTConfig
from .errors import CheckpointError, ConfigError
from .model import tensor_order, tensor_shapes
from .util import atomic_write

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
    with atomic_write(path) as f:
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

    if not isinstance(header, dict):
        raise CheckpointError(
            f"corrupt checkpoint header: expected a JSON object, got {type(header).__name__}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})")

    if not isinstance(header.get("config"), dict):
        raise CheckpointError("checkpoint header has no config object")
    # Files written before the sweep count left the geometry carry it here.
    fields = {k: v for k, v in header["config"].items() if k != "mfvi_iters"}
    try:
        config = PTConfig(**fields)
    except (TypeError, ConfigError) as e:
        raise CheckpointError(f"invalid config in checkpoint header: {e}") from None
    entries, extra = header.get("tensors"), header.get("extra", {})
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint header has no tensor index list")
    if not isinstance(extra, dict):
        raise CheckpointError("checkpoint header extra must be a JSON object")
    shapes = tensor_shapes(config)
    payload_start = body_start + header_len
    tensors = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"name", "shape", "dtype", "offset"}:
            raise CheckpointError(f"malformed tensor index entry: {entry!r}")
        name, offset = entry["name"], entry["offset"]
        if not isinstance(name, str) or name not in shapes:
            raise CheckpointError(f"unknown tensor {name!r} for this geometry")
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} is indexed twice")
        if entry["shape"] != list(shapes[name]):
            raise CheckpointError(
                f"tensor {name!r} has shape {entry['shape']!r}, expected {list(shapes[name])}")
        if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {entry['dtype']!r} for tensor {name!r}")
        if type(offset) is not int or offset < 0:
            raise CheckpointError(f"tensor {name!r} has invalid offset {offset!r}")
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        count = int(np.prod(shapes[name], dtype=np.int64))
        start = payload_start + offset
        end = start + count * dtype.itemsize
        if end > len(data):
            raise CheckpointError(
                f"truncated checkpoint: tensor {name!r} needs bytes "
                f"{start}..{end} but the file ends at byte {len(data)}")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        tensors[name] = arr.reshape(shapes[name]).astype(arr.dtype.newbyteorder("="))
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise CheckpointError(f"checkpoint lacks tensors {missing}")
    return config, tensors, extra
