"""Versioned binary checkpoint container: named float64 arrays and a JSON header.

Layout (version 2): magic "AGCK", u32 version, u32 header length, the JSON
header ``{"arrays": [{"key", "shape"}, ...], "meta": {...}, "step": int}``,
then the raw float64 little-endian payload of each array in header order
(keys sorted). The container gives the keys and ``meta`` no meaning; the
writer does (`training.fit`). No timestamps are stored, so identical runs
produce byte-identical checkpoints. Version 1 files, with their fixed
params/optimizer/ema sections, are refused.

Writes are atomic: the bytes go to a temporary file beside the target, which
then replaces it, so a crash leaves either the old file or the new one.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "atomic_open"]

MAGIC = b"AGCK"
VERSION = 2

_PREAMBLE = struct.Struct("<4sII")


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    step: int = 0
    meta: dict = field(default_factory=dict)


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing; it replaces ``path``
    when the block exits cleanly and is removed when the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], step: int = 0,
                    meta: dict | None = None) -> None:
    keys = sorted(arrays)
    header = {"step": int(step), "meta": meta or {},
              "arrays": [{"key": k, "shape": list(np.shape(arrays[k]))} for k in keys]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_open(path) as f:
        f.write(_PREAMBLE.pack(MAGIC, VERSION, len(blob)))
        f.write(blob)
        for k in keys:
            f.write(np.ascontiguousarray(arrays[k], dtype="<f8"))


def load_checkpoint(source: str | Path | bytes) -> Checkpoint:
    """Read a checkpoint from a path, or parse one from the file's bytes."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    name = "checkpoint" if isinstance(source, bytes) else source
    if len(raw) < _PREAMBLE.size:
        raise ValueError(f"{name}: truncated preamble")
    magic, version, hlen = _PREAMBLE.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{name}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{name}: unsupported checkpoint version {version} "
                         f"(this build reads version {VERSION})")
    pos = _PREAMBLE.size + hlen
    header = json.loads(raw[_PREAMBLE.size: pos].decode())
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        if pos + 8 * count > len(raw):
            raise ValueError(f"{name}: truncated payload for {spec['key']}")
        arrays[spec["key"]] = np.frombuffer(raw, "<f8", count, pos).reshape(shape).copy()
        pos += 8 * count
    return Checkpoint(arrays=arrays, step=int(header["step"]), meta=header["meta"])
