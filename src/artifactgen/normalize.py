"""Model-specific normalization: per-window min-max to [-1, 1] and
per-recording per-channel z-score, both with epsilon 1e-8 and persisted stats."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .windowing import Recording, Window

__all__ = [
    "EPS",
    "MINMAX_WINDOW",
    "ZSCORE_RECORDING",
    "NormMeta",
    "minmax_normalize",
    "minmax_denormalize",
    "zscore_normalize",
]

EPS = 1e-8

MINMAX_WINDOW = "minmax_window"
ZSCORE_RECORDING = "zscore_recording"

_SCHEMES = (MINMAX_WINDOW, ZSCORE_RECORDING)


@dataclass
class NormMeta:
    """Normalization scheme plus the statistics needed to invert it."""

    scheme: str
    stats: dict = field(default_factory=dict)
    eps: float = EPS
    degenerate: bool = False

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown normalization scheme '{self.scheme}'")

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "stats": self.stats, "eps": self.eps,
                "degenerate": self.degenerate}

    @classmethod
    def from_dict(cls, d: dict) -> "NormMeta":
        return cls(scheme=d["scheme"], stats=dict(d["stats"]), eps=float(d["eps"]),
                   degenerate=bool(d.get("degenerate", False)))


def minmax_normalize(w: Window) -> tuple[Window, NormMeta]:
    """Map a window to [-1, 1] using its global extrema: 2(x-m)/max(M-m, eps) - 1.

    A constant window takes the epsilon path and maps to all -1 (flagged).
    """
    m = float(w.data.min())
    big = float(w.data.max())
    denom = max(big - m, EPS)
    scaled = 2.0 * (w.data - m) / denom - 1.0
    meta = NormMeta(MINMAX_WINDOW, stats={"m": m, "M": big}, degenerate=(big - m) <= EPS)
    out = Window(scaled, w.label, w.subject_id, w.source, norm=meta)
    return out, meta


def minmax_denormalize(w: Window, meta: NormMeta | None = None) -> Window:
    """Inverse of :func:`minmax_normalize` using the persisted (m, M)."""
    meta = meta or w.norm
    if meta is None or meta.scheme != MINMAX_WINDOW:
        raise ValueError("window carries no min-max normalization metadata")
    m, big = meta.stats["m"], meta.stats["M"]
    data = (w.data + 1.0) / 2.0 * max(big - m, meta.eps) + m
    return Window(data, w.label, w.subject_id, w.source, norm=None)


def zscore_normalize(rec: Recording) -> tuple[Recording, NormMeta]:
    """Per-channel z-score over the whole recording: (x - mu_c) / (sigma_c + eps).

    Zero-variance channels come out all zero and are flagged degenerate.
    """
    if rec.data.shape[1] < 2:
        raise ValueError("recording too short to z-score")
    mu = rec.data.mean(axis=1)
    sigma = rec.data.std(axis=1)
    scaled = (rec.data - mu[:, None]) / (sigma[:, None] + EPS)
    meta = NormMeta(
        ZSCORE_RECORDING,
        stats={"mu": mu.tolist(), "sigma": sigma.tolist()},
        degenerate=bool(np.any(sigma == 0.0)),
    )
    out = Recording(scaled, rec.fs, rec.subject_id, rec.channel_names,
                    list(rec.annotations), rec.rec_id)
    return out, meta
