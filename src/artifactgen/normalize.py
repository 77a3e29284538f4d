"""Model-specific normalization: per-window min-max to [-1, 1] and
per-recording per-channel z-score, both with epsilon 1e-8.

Each scheme returns the scaled data only. A manifest names its one scheme and
epsilon at the top level; no statistics are kept to invert either map.
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
    "zscore_normalize",
]

EPS = 1e-8

MINMAX_WINDOW = "minmax_window"
ZSCORE_RECORDING = "zscore_recording"
SCHEMES = (MINMAX_WINDOW, ZSCORE_RECORDING)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Map each (C, L) window of a (..., C, L) stack to [-1, 1] by its global
    extrema m and M: 2(x - m) / max(M - m, eps) - 1.

    A constant window (M - m <= eps) takes the epsilon path and maps to all -1.
    """
    m = x.min(axis=(-2, -1))[..., None, None]
    denom = np.maximum(x.max(axis=(-2, -1))[..., None, None] - m, EPS)
    return 2.0 * (x - m) / denom - 1.0


def zscore_normalize(rec: Recording) -> Recording:
    """Per-channel z-score over the whole recording: (x - mu_c) / (sigma_c + eps);
    returns the scaled recording.

    Zero-variance channels (any sigma == 0) come out all zero.
    """
    if rec.data.shape[1] < 2:
        raise ValueError("recording too short to z-score")
    mu = rec.data.mean(axis=1)
    sigma = rec.data.std(axis=1)
    scaled = (rec.data - mu[:, None]) / (sigma[:, None] + EPS)
    return Recording(scaled, rec.fs, rec.subject_id, rec.channel_names,
                     list(rec.annotations), rec.rec_id)
