"""Windowing of annotated multi-channel recordings into fixed-length labeled windows.

Window length, stride and per-interval window count follow the floor-based
formulas; boundary fragments shorter than one window are zero-padded (fragment
at the start, zeros on the right), strided tails are dropped. Recordings that
do not carry the full required montage are rejected wholesale. A recording's
windows come out as one (N, C, L) float64 array with its (N,) int64 labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CANONICAL_CHANNELS",
    "CANONICAL_FS",
    "DEFAULT_CLASS_NAMES",
    "ClassMap",
    "Annotation",
    "Recording",
    "window_length",
    "stride",
    "window_count",
    "extract_windows",
]

CANONICAL_CHANNELS = ("Fp1", "Fp2", "C3", "C4", "O1", "O2", "T3", "T4")
CANONICAL_FS = 250.0

DEFAULT_CLASS_NAMES = ("muscle", "eye", "electrode", "chewing", "shiver")


@dataclass(frozen=True)
class ClassMap:
    """Stable label-name -> index mapping (indices 0..K-1 in tuple order)."""

    names: tuple[str, ...] = DEFAULT_CLASS_NAMES

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate class names")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        return self.names.index(name)

    def as_pairs(self) -> list[list]:
        return [[n, i] for i, n in enumerate(self.names)]

    @classmethod
    def from_pairs(cls, pairs) -> "ClassMap":
        """Inverse of :meth:`as_pairs`: (name, index) pairs in any order,
        whose indices are exactly 0..K-1."""
        pairs = sorted(pairs, key=lambda p: p[1])
        if [i for _, i in pairs] != list(range(len(pairs))):
            raise ValueError("class map indices must be exactly 0..K-1")
        return cls(tuple(n for n, _ in pairs))


@dataclass(frozen=True)
class Annotation:
    """Labeled half-open sample interval [start, end) within a recording."""

    start: int
    end: int
    label: str


@dataclass
class Recording:
    data: np.ndarray                     # (C, T), microvolt scale
    fs: float
    subject_id: str
    channel_names: tuple[str, ...]
    annotations: list[Annotation] = field(default_factory=list)
    rec_id: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"recording data must be (C, T), got {self.data.shape}")
        if self.data.shape[0] != len(self.channel_names):
            raise ValueError("channel count does not match channel_names")
        t = self.data.shape[1]
        for a in self.annotations:
            if not (0 <= a.start < a.end <= t):
                raise ValueError(f"annotation [{a.start}, {a.end}) outside recording of length {t}")


# floor of a product computed in floats: guard against results like
# (1 - 0.9) * 500 = 49.999999999999986 flooring below the exact value
_FLOOR_GUARD = 1e-9


def window_length(window_seconds: float, fs: float) -> int:
    """L = floor(S * fs)."""
    if window_seconds <= 0 or fs <= 0:
        raise ValueError("window_seconds and fs must be > 0")
    length = int(np.floor(window_seconds * fs + _FLOOR_GUARD))
    if length == 0:
        raise ValueError(f"window of {window_seconds}s at {fs} Hz has zero samples")
    return length


def stride(length: int, overlap: float) -> int:
    """s = floor((1 - overlap) * L), must stay >= 1."""
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    s = int(np.floor((1.0 - overlap) * length + _FLOOR_GUARD))
    if s == 0:
        raise ValueError(f"overlap {overlap} too high for window length {length}")
    return s


def window_count(interval_len: int, length: int, step: int) -> int:
    """N = max(0, floor((T_i - L) / s) + 1)."""
    if length < 1 or step < 1:
        raise ValueError("length and step must be >= 1")
    return max(0, (interval_len - length) // step + 1)


def extract_windows(
    rec: Recording,
    window_seconds: float,
    overlap: float,
    class_map: ClassMap,
    required_channels: tuple[str, ...] | None = CANONICAL_CHANNELS,
    rejections: list[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut every annotated interval of ``rec`` into labeled windows: an
    (N, C, L) float64 array, in annotation order and then start order, and its
    (N,) int64 class indices.

    Intervals yielding no full window emit a single zero-padded window instead.
    Unknown labels skip the interval; a montage mismatch rejects the whole
    recording. Both paths append a message to ``rejections`` when given.
    """

    def reject(msg: str):
        if rejections is not None:
            rejections.append(msg)

    length = window_length(window_seconds, rec.fs)
    step = stride(length, overlap)
    n_chan = rec.data.shape[0]

    spans: list[tuple[int, int]] = []    # [start, end) of each window's samples
    labels: list[int] = []
    if required_channels is not None and tuple(rec.channel_names) != tuple(required_channels):
        missing = set(required_channels) - set(rec.channel_names)
        detail = f"missing {sorted(missing)}" if missing else "channel order mismatch"
        reject(f"recording {rec.rec_id or rec.subject_id}: montage rejected ({detail})")
    else:
        for ann in rec.annotations:
            if ann.label not in class_map:
                reject(f"recording {rec.rec_id or rec.subject_id}: unknown label "
                       f"'{ann.label}' in [{ann.start}, {ann.end})")
                continue
            n_win = window_count(ann.end - ann.start, length, step)
            for start in [ann.start + i * step for i in range(n_win)] or [ann.start]:
                spans.append((start, min(start + length, ann.end)))
                labels.append(class_map.index(ann.label))

    data = np.zeros((len(spans), n_chan, length))
    for window, (start, end) in zip(data, spans):
        window[:, : end - start] = rec.data[:, start:end]
    return data, np.array(labels, dtype=np.int64)
