"""Window files, manifests, split and class-map CSVs, and the one JSON writer.

Window binary format "AGW1": magic, little-endian u32 C, u32 L, u32 label,
then C*L float32 values channel-major, one file per window. The manifest
(version 3) is a JSON document with the run's config hash and seed, the class
map, the sampling rate ``fs`` the windows were cut at, one top-level
``"normalization": {"scheme", "eps"}`` for the whole set, and one entry per
window: its ``path``, ``label``, ``subject`` and ``split``. `Manifest.load`
refuses other versions, a missing or malformed key, a label outside [0, K) and
a subject in two splits. `write_json` writes the manifest and every other JSON
record whole (through `nn.checkpoint.atomic_open`), as the CSV writers write
theirs, so a failed write leaves the previous file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .nn.checkpoint import atomic_open
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
    "write_json",
]

MAGIC = b"AGW1"
MANIFEST_VERSION = 3
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


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a final newline; a
    failed write leaves the previous file."""
    with atomic_open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class ManifestEntry:
    path: str
    label: int
    subject: str
    split: str


@dataclass
class Manifest:
    config_hash: str
    seed: int
    class_map: ClassMap
    scheme: str
    fs: float
    entries: list[ManifestEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "class_map": self.class_map.as_pairs(),
            "fs": self.fs,
            "normalization": {"scheme": self.scheme, "eps": EPS},
            "entries": [asdict(e) for e in self.entries],
        }

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise ValueError(f"{path}: malformed manifest: not a JSON object")
        if d.get("version") != MANIFEST_VERSION:
            raise ValueError(f"{path}: unsupported manifest version {d.get('version')}; "
                             f"curate the dataset again to write version {MANIFEST_VERSION}")
        norm = d.get("normalization")
        if not (isinstance(norm, dict) and norm.get("scheme") in SCHEMES
                and norm.get("eps") == EPS):
            raise ValueError(f"{path}: unknown normalization {norm}; expected a scheme "
                             f"in {SCHEMES} with eps {EPS}")
        try:
            manifest = cls(
                config_hash=d["config_hash"],
                seed=int(d["seed"]),
                class_map=ClassMap.from_pairs(d["class_map"]),
                scheme=norm["scheme"],
                fs=float(d["fs"]),
                entries=[ManifestEntry(e["path"], int(e["label"]), e["subject"], e["split"])
                         for e in d["entries"]],
            )
        except KeyError as exc:
            raise ValueError(f"{path}: no {exc} key") from None
        except (TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed manifest: {exc}") from None
        _check_entries(manifest, path)
        return manifest


class SplitViolation(ValueError):
    """A subject appears in more than one split."""


def _check_entries(manifest: Manifest, source: str | Path) -> None:
    """ValueError, naming ``source``, on an entry whose path, subject or split
    is not a string, of an unknown split or of a label outside [0, K), and
    :class:`SplitViolation` on the first subject found in two splits."""
    k = len(manifest.class_map)
    subject_splits: dict[str, str] = {}
    for e in manifest.entries:
        if not all(isinstance(v, str) for v in (e.path, e.subject, e.split)):
            raise ValueError(f"{source}: entry {e.path!r}: path, subject and split must be strings")
        if not 0 <= e.label < k:
            raise ValueError(f"{source}: entry {e.path}: label {e.label} outside [0, {k})")
        if e.split not in SPLITS:
            raise ValueError(f"{source}: entry {e.path}: unknown split '{e.split}'")
        prev = subject_splits.setdefault(e.subject, e.split)
        if prev != e.split:
            raise SplitViolation(f"{source}: subject '{e.subject}' appears in both "
                                 f"'{prev}' and '{e.split}' splits")


def validate_split(manifest: Manifest) -> dict:
    """Assert subject-disjoint splits; report per-split subject/window counts per class.

    Raises :class:`SplitViolation` naming the first offending subject. An empty
    split only warns (desk-scale corpora may lack one).
    """
    _check_entries(manifest, "manifest")
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


def _write_pairs(path: str | Path, header: tuple[str, str], rows) -> None:
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_pairs(path: str | Path, header: tuple[str, str]) -> list[tuple[str, str]]:
    """The stripped two-field rows under ``header``; blank rows are skipped."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or [h.strip() for h in rows[0]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    pairs = []
    for row in filter(None, rows[1:]):
        if len(row) != 2:
            raise ValueError(f"{path}: malformed row {row!r}")
        pairs.append((row[0].strip(), row[1].strip()))
    return pairs


def write_split_csv(path: str | Path, assignment: dict[str, str]) -> None:
    _write_pairs(path, ("subject_id", "split"), sorted(assignment.items()))


def read_split_csv(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for subject, split in _read_pairs(path, ("subject_id", "split")):
        if split not in SPLITS:
            raise ValueError(f"{path}: unknown split '{split}' for subject '{subject}'")
        if subject in out and out[subject] != split:
            raise SplitViolation(f"subject '{subject}' assigned to both "
                                 f"'{out[subject]}' and '{split}'")
        out[subject] = split
    return out


def write_class_map_csv(path: str | Path, class_map: ClassMap) -> None:
    _write_pairs(path, ("label_name", "index"), class_map.as_pairs())


def read_class_map_csv(path: str | Path) -> ClassMap:
    return ClassMap.from_pairs(
        (name, int(index)) for name, index in _read_pairs(path, ("label_name", "index")))


def write_windows(
    windows: Sequence[np.ndarray],
    labels: Sequence[int],
    subjects: list[str],
    out_dir: str | Path,
    split_of: dict[str, str],
    cfg_hash: str,
    seed: int,
    class_map: ClassMap,
    scheme: str,
    fs: float,
) -> Manifest:
    """Write each (C, L) window (a list of them, or an (N, C, L) array) as an
    AGW1 file under ``out_dir`` and build the manifest: window i has
    ``labels[i]`` and ``subjects[i]``, all of them were cut at ``fs`` and
    normalized by ``scheme``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (window, label, subject) in enumerate(
            zip(windows, map(int, labels), subjects, strict=True)):
        split = split_of.get(subject)
        if split is None:
            raise ValueError(f"subject '{subject}' missing from split assignment")
        name = f"w{i:06d}.agw"
        write_window_file(out_dir / name, window, label)
        entries.append(ManifestEntry(path=name, label=label, subject=subject, split=split))
    return Manifest(config_hash=cfg_hash, seed=seed, class_map=class_map, scheme=scheme,
                    fs=fs, entries=entries)


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
