"""Model-specific normalization: per-window min-max to [-1, 1] and
per-recording per-channel z-score, both with epsilon 1e-8.

Each scheme returns the statistics that invert it. A manifest names its one
scheme and epsilon at the top level and keeps each window's statistics in
its entry: ``{"m", "M"}`` for min-max, the recording's ``{"mu", "sigma"}``
for z-score.
"""

from __future__ import annotations

import numpy as np

from .windowing import Recording

__all__ = [
    "EPS",
    "MINMAX_WINDOW",
    "ZSCORE_RECORDING",
    "SCHEMES",
    "minmax_normalize",
    "minmax_denormalize",
    "zscore_normalize",
]

EPS = 1e-8

MINMAX_WINDOW = "minmax_window"
ZSCORE_RECORDING = "zscore_recording"
SCHEMES = (MINMAX_WINDOW, ZSCORE_RECORDING)


def minmax_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map each (C, L) window of a (..., C, L) stack to [-1, 1] by its global
    extrema, 2(x - m) / max(M - m, eps) - 1; returns the scaled stack and the
    per-window m and M, each of shape (...).

    A constant window (M - m <= eps) takes the epsilon path and maps to all -1.
    """
    m = x.min(axis=(-2, -1))
    big = x.max(axis=(-2, -1))
    denom = np.maximum(big - m, EPS)
    scaled = 2.0 * (x - m[..., None, None]) / denom[..., None, None] - 1.0
    return scaled, m, big


def minmax_denormalize(x: np.ndarray, m: np.ndarray, big: np.ndarray) -> np.ndarray:
    """Inverse of :func:`minmax_normalize` from the per-window m and M."""
    m, big = np.asarray(m)[..., None, None], np.asarray(big)[..., None, None]
    return (x + 1.0) / 2.0 * np.maximum(big - m, EPS) + m


def zscore_normalize(rec: Recording) -> tuple[Recording, dict]:
    """Per-channel z-score over the whole recording: (x - mu_c) / (sigma_c + eps);
    returns the scaled recording and ``{"mu": [...], "sigma": [...]}``.

    Zero-variance channels (any sigma == 0) come out all zero.
    """
    if rec.data.shape[1] < 2:
        raise ValueError("recording too short to z-score")
    mu = rec.data.mean(axis=1)
    sigma = rec.data.std(axis=1)
    scaled = (rec.data - mu[:, None]) / (sigma[:, None] + EPS)
    out = Recording(scaled, rec.fs, rec.subject_id, rec.channel_names,
                    list(rec.annotations), rec.rec_id)
    return out, {"mu": mu.tolist(), "sigma": sigma.tolist()}
