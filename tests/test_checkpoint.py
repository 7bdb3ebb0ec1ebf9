"""Checkpoint format: bit-exact round-trips and hostile-input handling."""
import json
import re
import struct

import numpy as np
import pytest

from mupt.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from mupt.config import PTConfig
from mupt.errors import CheckpointError
from mupt.model import ModelParams, tensor_order
from mupt.rng import SeededRng

CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
               pos_bias=True, pos_buckets=8, pos_clip=4)


def _params():
    return ModelParams.init(CFG, SeededRng(0).spawn("params")).tensors


def _save(tmp_path, extra=None):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, CFG, _params(), extra=extra)
    return path


def test_roundtrip_bit_exact(tmp_path):
    params = _params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, CFG, params, extra={"step": 7})
    config, tensors, extra = load_checkpoint(path)
    assert config == CFG
    assert extra == {"step": 7}
    assert set(tensors) == set(tensor_order(CFG))
    for name, t in params.items():
        assert tensors[name].dtype == np.float64
        np.testing.assert_array_equal(tensors[name], t)


def test_float32_roundtrip(tmp_path):
    params = {k: v.astype(np.float32) for k, v in _params().items()}
    path = tmp_path / "model32.ckpt"
    save_checkpoint(path, CFG, params)
    _, tensors, _ = load_checkpoint(path)
    for name, t in params.items():
        assert tensors[name].dtype == np.float32
        np.testing.assert_array_equal(tensors[name], t)


def test_save_validates_shapes_and_dtypes(tmp_path):
    params = _params()
    params["S"] = params["S"][:, :4]
    with pytest.raises(CheckpointError, match="shape"):
        save_checkpoint(tmp_path / "x.ckpt", CFG, params)
    params = _params()
    params["S"] = params["S"].astype(np.int64)
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "x.ckpt", CFG, params)


def test_bad_magic(tmp_path):
    path = _save(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(b"NOTAFILE" + raw[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_refused(tmp_path):
    path = _save(tmp_path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(raw[start:start + header_len])
    assert header["format_version"] == FORMAT_VERSION
    header["format_version"] = FORMAT_VERSION + 1
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + header_len:])
    with pytest.raises(CheckpointError, match="not supported"):
        load_checkpoint(path)


def test_truncation_reports_offsets(tmp_path):
    path = _save(tmp_path)
    raw = path.read_bytes()

    path.write_bytes(raw[:4])
    with pytest.raises(CheckpointError, match="preamble"):
        load_checkpoint(path)

    path.write_bytes(raw[:len(MAGIC) + 8 + 10])  # header cut short
    with pytest.raises(CheckpointError, match="header claims"):
        load_checkpoint(path)

    path.write_bytes(raw[:-8])  # last tensor loses one value
    with pytest.raises(CheckpointError, match=rf"ends at byte {len(raw) - 8}"):
        load_checkpoint(path)


def test_corrupt_header_json(tmp_path):
    path = _save(tmp_path)
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    broken = bytearray(raw)
    broken[start] = ord("!")  # header no longer parses as JSON
    path.write_bytes(bytes(broken))
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        load_checkpoint(path)


def test_header_is_inspectable_json(tmp_path):
    # the header region is plain JSON so external tools can read the geometry
    path = _save(tmp_path, extra={"note": "hello"})
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])
    assert header["config"]["width"] == CFG.width
    assert header["groups"]["W_out"] == "output"
    assert header["extra"]["note"] == "hello"
    names = [e["name"] for e in header["tensors"]]
    assert names == list(tensor_order(CFG))
    offsets = [e["offset"] for e in header["tensors"]]
    assert offsets == sorted(offsets) and offsets[0] == 0



_DROP = object()


def _rewrite_header(path, key_path, value):
    """Set (or with _DROP, delete) one header entry; an empty key path
    replaces the whole header."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(raw[start:start + header_len])
    if not key_path:
        header = value
    else:
        node = header
        for key in key_path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[key_path[-1]]
        else:
            node[key_path[-1]] = value
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + header_len:])


S_ENTRY = {"name": "S", "shape": [17, 8], "dtype": "float64", "offset": 0, "crc32": 0}


@pytest.mark.parametrize("key_path, value, message", [
    ((), [1], "expected a JSON object, got list"),
    (("config",), _DROP, "no config object"),
    (("config",), [8, 2], "no config object"),
    (("config", "depth"), 3, "invalid config"),
    (("config", "width"), -8, "invalid config"),
    (("config", "pos_buckets"), "many", "invalid config"),
    (("tensors",), _DROP, "no tensor index"),
    (("tensors",), {"S": 0}, "no tensor index"),
    (("extra",), [1], "extra must be a JSON object"),
    (("tensors", 0), 5, "malformed tensor index entry"),
    (("tensors", 0, "offset"), _DROP, "malformed tensor index entry"),
    (("tensors", 0, "name"), "Q", "unknown tensor 'Q'"),
    (("tensors", 0, "name"), ["S"], "unknown tensor"),
    (("tensors", 1), S_ENTRY, "indexed twice"),
    (("tensors", 0, "shape"), [1, 8], "has shape [1, 8], expected [17, 8]"),
    (("tensors", 0, "shape"), "17x8", "has shape"),
    (("tensors", 0, "dtype"), "float16", "unsupported dtype 'float16'"),
    (("tensors", 0, "dtype"), ["float64"], "unsupported dtype"),
    (("tensors", -1, "offset"), -8, "invalid offset -8"),
    (("tensors", -1, "offset"), 8.0, "invalid offset 8.0"),
    (("tensors", -1, "offset"), True, "invalid offset True"),
    (("tensors", -1, "offset"), 1 << 40, "truncated checkpoint"),
    (("tensors", -1), _DROP, "lacks tensors ['P_rel']"),
    (("tensors", 0, "crc32"), _DROP, "malformed tensor index entry"),
    (("tensors", 0, "crc32"), "0", "invalid crc32 '0'"),
    (("tensors", 0, "crc32"), -1, "invalid crc32 -1"),
    (("tensors", 0, "crc32"), 1 << 32, "invalid crc32 4294967296"),
    (("tensors", 0, "crc32"), 12345, "has payload crc32"),
], ids=["list-header", "no-config", "config-not-object", "unknown-config-key",
        "bad-config-value", "config-wrong-type", "no-index", "index-not-list",
        "extra-not-object", "entry-not-object", "entry-missing-field", "unknown-name",
        "unhashable-name", "duplicate-entry", "wrong-shape", "shape-not-list",
        "unknown-dtype", "unhashable-dtype", "negative-offset", "float-offset",
        "bool-offset", "offset-past-end", "dropped-entry", "no-crc32", "crc32-not-int",
        "negative-crc32", "crc32-past-32-bits", "wrong-crc32"])
def test_malformed_header_is_a_checkpoint_error(tmp_path, key_path, value, message):
    path = _save(tmp_path)
    _rewrite_header(path, key_path, value)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)


def test_legacy_sweep_count_in_config_is_ignored(tmp_path):
    # version-1 files once stored the sweep count in the geometry; only that
    # one extra key is tolerated
    params = _params()
    path = _save(tmp_path)
    _rewrite_header(path, ("config", "mfvi_iters"), 6)
    config, tensors, _ = load_checkpoint(path)
    assert config == CFG
    for name, t in params.items():
        np.testing.assert_array_equal(tensors[name], t)
    _rewrite_header(path, ("config", "mfvi_iter"), 6)
    with pytest.raises(CheckpointError, match="invalid config"):
        load_checkpoint(path)


def test_a_flipped_payload_byte_is_a_checkpoint_error(tmp_path):
    path = _save(tmp_path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8 + header_len
    header = json.loads(raw[len(MAGIC) + 8:start])
    for entry in header["tensors"]:
        broken = bytearray(raw)
        broken[start + entry["offset"]] ^= 0x01      # the lowest bit of its first byte
        path.write_bytes(bytes(broken))
        with pytest.raises(CheckpointError, match=rf"tensor '{entry['name']}' has payload "
                           rf"crc32 0x[0-9a-f]{{8}}, its index entry {entry['crc32']:#010x}"):
            load_checkpoint(path)


def test_a_version_1_file_without_checksums_still_loads(tmp_path):
    params = _params()
    path = _save(tmp_path, extra={"step": 3})
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(raw[start:start + header_len])
    header["format_version"] = 1
    for entry in header["tensors"]:
        del entry["crc32"]
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + header_len:])
    config, tensors, extra = load_checkpoint(path)
    assert config == CFG and extra == {"step": 3}
    for name, t in params.items():
        assert tensors[name].tobytes() == t.tobytes()
    # a version-1 entry carrying a checksum is malformed
    _rewrite_header(path, ("tensors", 0, "crc32"), 0)
    with pytest.raises(CheckpointError, match="malformed tensor index entry"):
        load_checkpoint(path)
