"""Deterministic signal-processing primitives of the evaluation suite.

Welch PSD, band power, autocorrelation and channel covariance, all computed
in double precision on raw numpy arrays. (The differentiable STFT of the
spectral loss is `gan._stft_mag`.) Conventions:

- Batched: ``welch_psd`` and ``autocorrelation`` work along the last axis of
  ``(..., L)`` arrays, ``channel_covariance`` on the last two of
  ``(..., C, L)``, so a whole ``(N, C, L)`` set is one call.
- Welch: segments as a strided frame view, per-segment mean removal, periodic
  Hann taper, one rfft, density scaling (integral of a unit-variance
  white-noise PSD over [0, fs/2] is ~1).
- Band integration: rectangle rule over bins with lo <= f < hi.
- ACF: biased normalized estimator, so |r| <= 1 and r[0] = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Psd",
    "BandSpec",
    "CANONICAL_BANDS",
    "canonical_bands",
    "welch_psd",
    "band_power",
    "autocorrelation",
    "channel_covariance",
]


# Signals per chunk times L: bounds the temporaries of Welch and the ACF to a few MB.
_CHUNK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class Psd:
    """One-sided power spectral density on a uniform frequency grid."""

    freqs: np.ndarray   # Hz, ascending, freqs[0] == 0
    power: np.ndarray   # density, >= 0, shape (..., len(freqs))
    nperseg: int
    noverlap: int

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class BandSpec:
    """Half-open frequency band [lo, hi) in Hz."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"band {self.name}: lo must be < hi, got [{self.lo}, {self.hi})")


# Standard clinical band edges; gamma capped at 100 Hz.
CANONICAL_BANDS = (
    BandSpec("delta", 0.5, 4.0),
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 13.0),
    BandSpec("beta", 13.0, 30.0),
    BandSpec("gamma", 30.0, 100.0),
)


def canonical_bands(fs: float) -> tuple[BandSpec, ...]:
    """Canonical bands with upper edges clipped to the Nyquist frequency."""
    nyq = fs / 2.0
    return tuple(BandSpec(b.name, b.lo, min(b.hi, nyq)) for b in CANONICAL_BANDS if b.lo < nyq)


def _hann_periodic(n: int) -> np.ndarray:
    # Periodic Hann (DFT-even), the spectral-analysis variant.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _by_rows(fn, x: np.ndarray, width: int) -> np.ndarray:
    """``fn`` applied to bounded chunks of the signals in ``x`` (..., L); each call
    maps (rows, L) to (rows, width), and the result has shape (..., width)."""
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((len(rows), width))
    step = max(1, _CHUNK_SAMPLES // x.shape[-1])
    for i in range(0, len(rows), step):
        out[i: i + step] = fn(rows[i: i + step])
    return out.reshape(x.shape[:-1] + (width,))


def welch_psd(
    x: np.ndarray,
    fs: float,
    nperseg: int | None = None,
    overlap_frac: float = 0.5,
) -> Psd:
    """Averaged periodogram over Hann-tapered segments of each signal along the last axis.

    Segments start every ``floor((1 - overlap_frac) * nperseg)`` samples; each
    is mean-removed, tapered and transformed. Scaling is density-style:
    ``|X_k|^2 / (fs * sum(w^2))`` with one-sided doubling.
    ``power`` has shape ``x.shape[:-1] + (nperseg // 2 + 1,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if fs <= 0:
        raise ValueError("fs must be > 0")
    n = x.shape[-1]
    if nperseg is None:
        nperseg = min(n, 256)
    if nperseg == 0:
        raise ValueError("nperseg must be >= 1")
    if nperseg > n:
        raise ValueError(f"segment longer than signal (nperseg={nperseg}, L={n})")
    if not 0.0 <= overlap_frac < 1.0:
        raise ValueError("overlap_frac must be in [0, 1)")

    step = max(int(np.floor((1.0 - overlap_frac) * nperseg)), 1)

    def periodogram(rows):
        frames = np.lib.stride_tricks.sliding_window_view(rows, nperseg, axis=-1)[..., ::step, :]
        frames = frames - frames.mean(axis=-1, keepdims=True)
        spec = np.fft.rfft(frames * _hann_periodic(nperseg), axis=-1)
        return (spec.real ** 2 + spec.imag ** 2).mean(axis=-2)

    p = _by_rows(periodogram, x, nperseg // 2 + 1) / (fs * np.sum(_hann_periodic(nperseg) ** 2))
    p[..., 1:] *= 2.0
    if nperseg % 2 == 0:
        p[..., -1] /= 2.0
    return Psd(freqs=np.fft.rfftfreq(nperseg, d=1.0 / fs), power=p, nperseg=nperseg,
               noverlap=nperseg - step)


def band_power(psd: Psd, band: BandSpec) -> float:
    """Rectangle-rule integral of ``psd.power`` over bins with lo <= f < hi.

    An empty band (no bins inside) yields 0 with a warning.
    """
    mask = (psd.freqs >= band.lo) & (psd.freqs < band.hi)
    if not np.any(mask):
        warnings.warn(f"band {band.name} [{band.lo}, {band.hi}) contains no PSD bins", stacklevel=2)
        return 0.0
    return float(np.sum(psd.power[mask]) * psd.df)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased normalized autocorrelation r[0..max_lag] of each signal along the
    last axis, shape ``x.shape[:-1] + (max_lag + 1,)``.

    r[tau] = sum_t (x_t - mean)(x_{t+tau} - mean) / sum_t (x_t - mean)^2, by FFT with
    zero-padding to 2L. Zero-variance signals are degenerate: r = [1, 0, ...], with a warning.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if max_lag >= n:
        raise ValueError(f"max_lag must be < signal length ({max_lag} >= {n})")

    def normalized_acov(rows):
        spec = np.fft.rfft(rows - rows.mean(axis=1, keepdims=True), 2 * n)
        acov = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, 2 * n)[:, : max_lag + 1]
        return acov / np.maximum(acov[:, :1], np.finfo(np.float64).tiny)  # flat rows reset below

    r = _by_rows(normalized_acov, x, max_lag + 1)
    flat = np.ptp(x, axis=-1) == 0.0
    if np.any(flat):
        warnings.warn(f"{np.count_nonzero(flat)} zero-variance signal(s): autocorrelation "
                      "is degenerate", stacklevel=2)
        r[flat] = np.eye(1, max_lag + 1)
    return r


def channel_covariance(w: np.ndarray) -> np.ndarray:
    """Sample covariance (C x C) across time of each (C, L) window in the last two
    axes, per-channel mean removed, divisor L-1."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2:
        raise ValueError(f"expected (..., C, L) windows, got shape {w.shape}")
    length = w.shape[-1]
    if length < 2:
        raise ValueError("need at least 2 samples for covariance")
    wc = w - w.mean(axis=-1, keepdims=True)
    return wc @ wc.swapaxes(-1, -2) / (length - 1)

