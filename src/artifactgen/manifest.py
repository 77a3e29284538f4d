"""Window files, manifests, split and class-map CSVs.

Window binary format "AGW1": magic, little-endian u32 C, u32 L, u32 label,
then C*L float32 values channel-major, one file per window. The manifest
(version 2) is a JSON document with the run's config hash and seed, the class
map, one top-level ``"normalization": {"scheme", "eps"}`` for the whole set,
and one entry per window: its ``path``, ``label``, ``subject``, ``split`` and
the normalization ``stats`` that invert it. Other versions are refused.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .normalize import EPS, SCHEMES
from .windowing import ClassMap

__all__ = [
    "MAGIC",
    "MANIFEST_VERSION",
    "SPLITS",
    "write_window_file",
    "read_window_file",
    "ManifestEntry",
    "Manifest",
    "SplitViolation",
    "validate_split",
    "config_hash",
    "write_split_csv",
    "read_split_csv",
    "write_class_map_csv",
    "read_class_map_csv",
    "read_window_stack",
    "load_window_set",
]

MAGIC = b"AGW1"
MANIFEST_VERSION = 2
SPLITS = ("train", "val", "test")

_HEADER = struct.Struct("<4sIII")


def write_window_file(path: str | Path, data: np.ndarray, label: int) -> None:
    """Write one (C, L) window as AGW1: header then float32 LE, channel-major."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"window must be (C, L), got {data.shape}")
    c, length = data.shape
    payload = np.ascontiguousarray(data, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, c, length, int(label)))
        f.write(payload)


def read_window_file(path: str | Path) -> tuple[np.ndarray, int]:
    """Read an AGW1 window file, returning float32 (C, L) data and its label."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, c, length, label = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        payload = f.read(4 * c * length)
    if len(payload) != 4 * c * length:
        raise ValueError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(c, length)
    return data, int(label)


@dataclass
class ManifestEntry:
    path: str
    label: int
    subject: str
    split: str
    stats: dict

    def to_dict(self) -> dict:
        return {"path": self.path, "label": self.label, "subject": self.subject,
                "split": self.split, "stats": self.stats}

    @classmethod
    def from_dict(cls, d: dict) -> "ManifestEntry":
        return cls(path=d["path"], label=int(d["label"]), subject=d["subject"],
                   split=d["split"], stats=dict(d["stats"]))


@dataclass
class Manifest:
    config_hash: str
    seed: int
    class_map: ClassMap
    scheme: str
    entries: list[ManifestEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "class_map": self.class_map.as_pairs(),
            "normalization": {"scheme": self.scheme, "eps": EPS},
            "entries": [e.to_dict() for e in self.entries],
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        with open(path) as f:
            d = json.load(f)
        if d.get("version") != MANIFEST_VERSION:
            raise ValueError(f"{path}: unsupported manifest version {d.get('version')}; "
                             f"curate the dataset again to write version {MANIFEST_VERSION}")
        norm = d.get("normalization", {})
        if norm.get("scheme") not in SCHEMES or norm.get("eps") != EPS:
            raise ValueError(f"{path}: unknown normalization {norm}; expected a scheme "
                             f"in {SCHEMES} with eps {EPS}")
        pairs = sorted(d["class_map"], key=lambda p: p[1])
        if [i for _, i in pairs] != list(range(len(pairs))):
            raise ValueError("class map indices must be 0..K-1")
        return cls(
            config_hash=d["config_hash"],
            seed=int(d["seed"]),
            class_map=ClassMap(tuple(n for n, _ in pairs)),
            scheme=norm["scheme"],
            entries=[ManifestEntry.from_dict(e) for e in d["entries"]],
        )


class SplitViolation(ValueError):
    """A subject appears in more than one split."""


def validate_split(manifest: Manifest) -> dict:
    """Assert subject-disjoint splits; report per-split subject/window counts per class.

    Raises :class:`SplitViolation` naming the first offending subject. An empty
    split only warns (desk-scale corpora may lack one).
    """
    subject_splits: dict[str, str] = {}
    for e in manifest.entries:
        if e.split not in SPLITS:
            raise ValueError(f"entry {e.path}: unknown split '{e.split}'")
        prev = subject_splits.get(e.subject)
        if prev is None:
            subject_splits[e.subject] = e.split
        elif prev != e.split:
            raise SplitViolation(
                f"subject '{e.subject}' appears in both '{prev}' and '{e.split}' splits")

    k = len(manifest.class_map)
    report = {s: {"subjects": set(), "windows": 0, "per_class": [0] * k} for s in SPLITS}
    for e in manifest.entries:
        r = report[e.split]
        r["subjects"].add(e.subject)
        r["windows"] += 1
        r["per_class"][e.label] += 1
    for s in SPLITS:
        report[s]["subjects"] = sorted(report[s]["subjects"])
        if not report[s]["windows"]:
            warnings.warn(f"split '{s}' is empty", stacklevel=2)
    return report


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON serialization of a config dict."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_split_csv(path: str | Path, assignment: dict[str, str]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["subject_id", "split"])
        for subject in sorted(assignment):
            w.writerow([subject, assignment[subject]])


def read_split_csv(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["subject_id", "split"]:
            raise ValueError(f"{path}: expected header 'subject_id,split'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            subject, split = row[0].strip(), row[1].strip()
            if split not in SPLITS:
                raise ValueError(f"{path}: unknown split '{split}' for subject '{subject}'")
            if subject in out and out[subject] != split:
                raise SplitViolation(f"subject '{subject}' assigned to both "
                                     f"'{out[subject]}' and '{split}'")
            out[subject] = split
    return out


def write_class_map_csv(path: str | Path, class_map: ClassMap) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label_name", "index"])
        for name, idx in class_map.as_pairs():
            w.writerow([name, idx])


def read_class_map_csv(path: str | Path) -> ClassMap:
    pairs: list[tuple[str, int]] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["label_name", "index"]:
            raise ValueError(f"{path}: expected header 'label_name,index'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            pairs.append((row[0].strip(), int(row[1])))
    pairs.sort(key=lambda p: p[1])
    if [i for _, i in pairs] != list(range(len(pairs))):
        raise ValueError(f"{path}: indices must be exactly 0..K-1")
    return ClassMap(tuple(n for n, _ in pairs))


def write_windows(
    windows: Sequence[np.ndarray],
    labels: Sequence[int],
    subjects: list[str],
    stats: list[dict],
    out_dir: str | Path,
    split_of: dict[str, str],
    cfg_hash: str,
    seed: int,
    class_map: ClassMap,
    scheme: str,
) -> Manifest:
    """Write each (C, L) window (a list of them, or an (N, C, L) array) as an
    AGW1 file under ``out_dir`` and build the manifest: window i has
    ``labels[i]``, ``subjects[i]`` and ``stats[i]``, and all of them were
    normalized by ``scheme``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (window, label, subject, window_stats) in enumerate(
            zip(windows, map(int, labels), subjects, stats, strict=True)):
        split = split_of.get(subject)
        if split is None:
            raise ValueError(f"subject '{subject}' missing from split assignment")
        name = f"w{i:06d}.agw"
        write_window_file(out_dir / name, window, label)
        entries.append(ManifestEntry(path=name, label=label, subject=subject, split=split,
                                     stats=window_stats))
    return Manifest(config_hash=cfg_hash, seed=seed, class_map=class_map, scheme=scheme,
                    entries=entries)


def read_window_stack(paths: list[Path]) -> tuple[np.ndarray, np.ndarray]:
    """Read AGW1 window files of one shape into an (N, C, L) float64 array and
    their (N,) int64 labels."""
    windows, labels = zip(*map(read_window_file, paths))
    shapes = {w.shape for w in windows}
    if len(shapes) != 1:
        raise ValueError(f"non-uniform window shapes: {sorted(shapes)}")
    return np.array(windows, dtype=np.float64), np.array(labels, dtype=np.int64)


def load_window_set(
    manifest: Manifest,
    base_dir: str | Path,
    split: str | None = None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Load windows referenced by a manifest into (N, C, L) float64 arrays.

    Returns (data, labels, subjects), optionally restricted to one split.
    """
    entries = [e for e in manifest.entries if split is None or e.split == split]
    if not entries:
        raise ValueError(f"no windows for split '{split}'" if split else "empty manifest")
    data, labels = read_window_stack([Path(base_dir) / e.path for e in entries])
    for e, label in zip(entries, labels):
        if label != e.label:
            raise ValueError(f"{e.path}: file label {label} != manifest label {e.label}")
    return data, labels, [e.subject for e in entries]
