"""Canonical serialization and atomic writes shared by artifacts and checkpoints."""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress

__all__ = ["canonical_json", "short_hash", "atomic_write", "write_text"]


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, stable floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def short_hash(obj) -> str:
    """12-hex digest of an object's canonical JSON; names artifact files."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]


@contextmanager
def atomic_write(path):
    """A binary file that replaces path once the block ends; if the block
    raises, path is left as it was. The file is written beside path under a
    temporary name and moved over it with os.replace, so a killed run never
    leaves half a file. No fsync: it is the process that may die, not the
    machine.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> str:
    """Write text as UTF-8 to path atomically, ending it with one newline
    if it has none; returns path."""
    with atomic_write(path) as f:
        f.write((text if text.endswith("\n") else text + "\n").encode("utf-8"))
    return path
