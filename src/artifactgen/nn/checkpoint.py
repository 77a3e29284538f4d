"""Versioned binary checkpoint container.

Layout: magic "AGCK", u32 version, u32 header length, JSON header, then the
raw float64 little-endian array payloads in header order. Arrays cover model
parameters, optimizer moments and the EMA shadow; scalars (step, optimizer
counters, hyperparameters, metadata) live in the JSON header. No timestamps
are stored, so identical runs produce byte-identical checkpoints.

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
VERSION = 1

_PREAMBLE = struct.Struct("<4sII")


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    step: int = 0
    optimizer: dict | None = None     # {"t": int, "hyper": {...}, "m": {...}, "v": {...}}
    ema: dict[str, np.ndarray] | None = None
    meta: dict = field(default_factory=dict)


def _coerce(arrays: dict) -> dict[str, np.ndarray]:
    out = {}
    for k, v in arrays.items():
        data = v.data if hasattr(v, "data") and isinstance(getattr(v, "data"), np.ndarray) else v
        out[k] = np.asarray(data, dtype=np.float64)
    return out


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


def save_checkpoint(
    path: str | Path,
    params: dict,
    step: int = 0,
    optimizer: dict | None = None,
    ema: dict | None = None,
    meta: dict | None = None,
) -> None:
    params = _coerce(params)
    arrays: dict[str, np.ndarray] = {f"params/{k}": v for k, v in params.items()}
    header: dict = {"step": int(step), "meta": meta or {}}
    if optimizer is not None:
        header["optimizer"] = {"t": int(optimizer["t"]), "hyper": optimizer["hyper"]}
        arrays.update({f"optim/m/{k}": v for k, v in _coerce(optimizer["m"]).items()})
        arrays.update({f"optim/v/{k}": v for k, v in _coerce(optimizer["v"]).items()})
    if ema is not None:
        arrays.update({f"ema/{k}": v for k, v in _coerce(ema).items()})

    keys = sorted(arrays)
    header["arrays"] = [{"key": k, "shape": list(arrays[k].shape)} for k in keys]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_open(path) as f:
        f.write(_PREAMBLE.pack(MAGIC, VERSION, len(blob)))
        f.write(blob)
        for k in keys:
            f.write(np.ascontiguousarray(arrays[k], dtype="<f8").tobytes())


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
        raise ValueError(f"{name}: unsupported checkpoint version {version}")
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

    def collect(prefix: str) -> dict[str, np.ndarray]:
        plen = len(prefix)
        return {k[plen:]: v for k, v in arrays.items() if k.startswith(prefix)}

    optimizer = None
    if "optimizer" in header:
        optimizer = {
            "t": header["optimizer"]["t"],
            "hyper": header["optimizer"]["hyper"],
            "m": collect("optim/m/"),
            "v": collect("optim/v/"),
        }
    ema = collect("ema/") or None
    return Checkpoint(params=collect("params/"), step=int(header["step"]),
                      optimizer=optimizer, ema=ema, meta=header.get("meta", {}))
