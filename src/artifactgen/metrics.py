"""Evaluation suite for comparing real and synthetic window sets.

Spectral fidelity (bandwise relative error, PSD L2), amplitude bias
(per-channel mean discrepancies), distributional similarity (unbiased MMD with
an RBF kernel on the median-heuristic bandwidth), a pairwise-correlation
diversity proxy, channel-covariance Frobenius and ACF L2 distances, 1-NN
real-vs-fake separability, and class-conditional kNN recovery.

All metrics operate on flattened raw windows (there is no learned feature
encoder in this artifact); the report header records that choice. Welch
settings are shared between both sides of every comparison.

`compute_report` computes each set's statistics once, over the whole
``(N, C, L)`` array, and each pair of sets' squared-distance block once, which
MMD, 1-NN and kNN all read. The public pair functions run the same kernels.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import dsp

__all__ = [
    "WindowSet",
    "WelchSettings",
    "MetricReport",
    "bandwise_rel_err",
    "psd_l2_error",
    "mmd_unbiased",
    "diversity",
    "cov_frobenius",
    "acf_l2",
    "one_nn_separability",
    "knn_class_recovery",
    "compute_report",
    "render_table",
]

REL_ERR_EPS = 1e-8
MODEL_PREFIX = {"ddpm": "d", "wgan": "g"}  # paper-style field prefixes


@dataclass
class WindowSet:
    """A uniform stack of labeled windows from one origin (real or a model)."""

    data: np.ndarray            # (N, C, L) float64
    labels: np.ndarray          # (N,) int
    origin: str = "real"
    fs: float = 250.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 3 or self.data.shape[0] == 0:
            raise ValueError(f"window set needs nonempty (N, C, L) data, got {self.data.shape}")
        if self.labels.shape != (self.data.shape[0],):
            raise ValueError("labels must align with windows")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("window set contains non-finite values")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    def flat(self) -> np.ndarray:
        return self.data.reshape(self.n, -1)


@dataclass(frozen=True)
class WelchSettings:
    nperseg: int | None = None    # None -> min(L, 256)
    overlap: float = 0.5

    def to_dict(self) -> dict:
        return {"nperseg": self.nperseg, "overlap": self.overlap, "window": "hann",
                "detrend": True}


def _check_pair(real: WindowSet, fake: WindowSet) -> None:
    if real.data.shape[1:] != fake.data.shape[1:]:
        raise ValueError(f"window shapes differ: {real.data.shape[1:]} vs {fake.data.shape[1:]}")
    if real.fs != fake.fs:
        raise ValueError(f"sampling rates differ: {real.fs} vs {fake.fs}")


class _SetStats:
    """The statistics of one window set that the metrics read. Each is computed
    on first use, over the whole (N, C, L) array, and then kept."""

    def __init__(self, ws: WindowSet, welch: WelchSettings = WelchSettings(), max_lag: int = 50):
        self.ws, self.welch, self.max_lag = ws, welch, max_lag
        self.flat = ws.flat()
        self.mu = ws.data.mean(axis=(0, 2))           # (C,) channel means
        self.sq = np.sum(self.flat ** 2, axis=1)       # (N,) squared row norms

    @cached_property
    def psd(self) -> dsp.Psd:
        """Welch PSD averaged over windows and channels (linear, so band powers commute)."""
        w = self.welch
        psd = dsp.welch_psd(self.ws.data, self.ws.fs, nperseg=w.nperseg, overlap_frac=w.overlap)
        return replace(psd, power=psd.power.mean(axis=(0, 1)))

    @cached_property
    def acf(self) -> np.ndarray:
        """ACF averaged over windows and channels; a zero-variance channel adds [1, 0, ...]."""
        return dsp.autocorrelation(self.ws.data, self.max_lag).mean(axis=(0, 1))

    @cached_property
    def cov(self) -> np.ndarray:
        return dsp.channel_covariance(self.ws.data).mean(axis=0)

    @cached_property
    def d2(self) -> np.ndarray:
        return self.sq_dist(self)

    def sq_dist(self, other: "_SetStats") -> np.ndarray:
        """Squared Euclidean distances from this set's rows to other's, not clamped at 0."""
        return self.sq[:, None] + other.sq[None, :] - 2.0 * (self.flat @ other.flat.T)


def _rel_err(r: _SetStats, f: _SetStats, bands: tuple[dsp.BandSpec, ...]) -> dict[str, float]:
    out = {}
    for b in bands:
        pr = dsp.band_power(r.psd, b)
        out[b.name] = abs(dsp.band_power(f.psd, b) - pr) / (pr + REL_ERR_EPS)
    return out


def _mmd(x: _SetStats, y: _SetStats, d_xy: np.ndarray, bandwidth: float | None = None) -> float:
    m, n = d_xy.shape
    if m < 2 or n < 2:
        raise ValueError("MMD needs at least 2 samples on each side")
    if bandwidth is None:
        # the median heuristic: the median of the pooled pairwise distances, read
        # from the within-set upper triangles and the whole cross block
        pairs = np.concatenate([x.d2[np.triu_indices(m, k=1)], y.d2[np.triu_indices(n, k=1)],
                                d_xy.ravel()])
        bandwidth = float(np.median(np.sqrt(np.maximum(pairs, 0.0)))) or 1.0
    gamma = 1.0 / (2.0 * bandwidth ** 2)
    kxx, kyy, kxy = (np.exp(-gamma * np.maximum(d2, 0.0)) for d2 in (x.d2, y.d2, d_xy))
    term_x = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(term_x + term_y - 2.0 * kxy.sum() / (m * n))


def _one_nn(r: _SetStats, f: _SetStats, d_rf: np.ndarray) -> float:
    n = min(d_rf.shape)
    if n < 2:
        raise ValueError("1-NN separability needs a pooled set of at least 4")
    d2 = np.block([[r.d2[:n, :n], d_rf[:n, :n]], [d_rf[:n, :n].T, f.d2[:n, :n]]])
    np.fill_diagonal(d2, np.inf)
    is_fake = np.arange(2 * n) >= n
    return float(np.mean(is_fake[np.argmin(d2, axis=1)] == is_fake))


def _knn(d_fr: np.ndarray, y_real: np.ndarray, y_fake: np.ndarray, k: int) -> dict:
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    if k > len(y_real):
        raise ValueError(f"k={k} exceeds real training set size {len(y_real)}")
    neighbor_labels = y_real[np.argpartition(d_fr, k - 1, axis=1)[:, :k]]
    classes = np.arange(int(max(y_real.max(), y_fake.max())) + 1)
    votes = np.sum(neighbor_labels[:, :, None] == classes, axis=1)   # (N_fake, classes)
    pred = np.argmax(votes, axis=1)  # argmax takes the lowest index on ties
    per_class = {int(c): float(np.mean(pred[y_fake == c] == c)) if c in y_real else None
                 for c in np.unique(y_fake)}
    accs = [a for a in per_class.values() if a is not None]
    return {"per_class": per_class, "macro": float(np.mean(accs)) if accs else float("nan"),
            "k": k}


def bandwise_rel_err(real: WindowSet, fake: WindowSet,
                     bands: tuple[dsp.BandSpec, ...] | None = None,
                     welch: WelchSettings = WelchSettings()) -> dict[str, float]:
    """|P_b^fake - P_b^real| / (P_b^real + eps) per canonical band."""
    _check_pair(real, fake)
    if bands is None:
        bands = dsp.canonical_bands(real.fs)
    return _rel_err(_SetStats(real, welch), _SetStats(fake, welch), bands)


def psd_l2_error(real: WindowSet, fake: WindowSet,
                 welch: WelchSettings = WelchSettings()) -> float:
    """Squared L2 distance between channel-averaged mean PSD vectors."""
    _check_pair(real, fake)
    return float(np.sum((_SetStats(real, welch).psd.power - _SetStats(fake, welch).psd.power) ** 2))


def mmd_unbiased(x_set: WindowSet, y_set: WindowSet,
                 bandwidth: float | None = None) -> float:
    """Unbiased squared-MMD U-statistic with an RBF kernel on flattened windows.

    Kernel bandwidth defaults to the median heuristic over the pooled pairwise
    distances. The estimate can be slightly negative (unbiasedness).
    """
    x, y = _SetStats(x_set), _SetStats(y_set)
    if x.flat.shape[1] != y.flat.shape[1]:
        raise ValueError("flattened dimensions differ")
    return _mmd(x, y, x.sq_dist(y), bandwidth)


def diversity(s: WindowSet) -> float:
    """1 - mean pairwise Pearson correlation across flattened windows, in [0, 2].

    Pairs involving a constant (zero-variance) window count as correlation 0
    and raise a warning.
    """
    z = s.flat()
    n = len(z)
    if n < 2:
        raise ValueError("diversity needs at least 2 windows")
    zc = z - z.mean(axis=1, keepdims=True)
    gram = zc @ zc.T
    d = np.diag(gram).copy()
    degenerate = d <= 0.0
    if np.any(degenerate):
        warnings.warn("constant window(s) in set: their pair correlations count as 0",
                      stacklevel=2)
        d[degenerate] = 1.0
    denom = np.sqrt(np.outer(d, d))
    corr = gram / denom
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    iu = np.triu_indices(n, k=1)
    return float(1.0 - np.mean(corr[iu]))


def cov_frobenius(real: WindowSet, fake: WindowSet) -> float:
    """Frobenius distance between window-averaged channel covariance matrices."""
    if real.n_channels != fake.n_channels:
        raise ValueError("channel counts differ")
    return float(np.linalg.norm(_SetStats(real).cov - _SetStats(fake).cov))


def acf_l2(real: WindowSet, fake: WindowSet, max_lag: int = 50) -> float:
    """L2 distance between set-averaged, channel-averaged autocorrelations."""
    _check_pair(real, fake)
    return float(np.linalg.norm(_SetStats(real, max_lag=max_lag).acf
                                - _SetStats(fake, max_lag=max_lag).acf))


def one_nn_separability(real: WindowSet, fake: WindowSet) -> float:
    """Leave-one-out 1-NN accuracy classifying real vs fake on the pooled set.

    0.5 means indistinguishable, 1.0 trivially separable. Both sets are
    truncated to the smaller size. Ties break toward the lower pooled index.
    """
    r, f = _SetStats(real), _SetStats(fake)
    return _one_nn(r, f, r.sq_dist(f))


def knn_class_recovery(real_train: WindowSet, fake_eval: WindowSet,
                       k: int = 5) -> dict:
    """kNN (Euclidean, flattened) fitted on real windows, evaluated on fake labels.

    Returns per-class accuracy (None for classes absent from the real set) and
    macro accuracy over evaluable classes. Vote ties break toward the lower
    class index.
    """
    d_fr = _SetStats(fake_eval).sq_dist(_SetStats(real_train))
    return _knn(d_fr, real_train.labels, fake_eval.labels, k)


@dataclass
class MetricReport:
    """All comparison statistics for one (real, {model: fake}) evaluation."""

    meta: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "metrics": self.metrics}

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "MetricReport":
        with open(path) as f:
            d = json.load(f)
        return cls(meta=d["meta"], metrics=d["metrics"])


def compute_report(
    real: WindowSet,
    fakes: dict[str, WindowSet],
    welch: WelchSettings = WelchSettings(),
    max_lag: int = 50,
    knn_k: int = 5,
    normalization: str = "unknown",
    seeds: dict | None = None,
) -> MetricReport:
    """Run the full suite for each model set against the shared real set."""
    bad = set(fakes) - set(MODEL_PREFIX)
    if bad:
        raise ValueError(f"unknown model keys {sorted(bad)}; expected subset of "
                         f"{sorted(MODEL_PREFIX)}")
    for fake in fakes.values():
        _check_pair(real, fake)
    bands = dsp.canonical_bands(real.fs)

    metrics: dict = {"diversity_real": diversity(real)}
    skipped = {m: "no window set provided" for m in MODEL_PREFIX if m not in fakes}
    if skipped:
        metrics["skipped"] = skipped

    r = _SetStats(real, welch, max_lag)
    stats = {name: _SetStats(fake, welch, max_lag) for name, fake in fakes.items()}
    for name, fake in fakes.items():
        f, p = stats[name], MODEL_PREFIX[name]
        for band_name, val in _rel_err(r, f, bands).items():
            metrics[f"rel_err_{band_name}_{name}"] = val
        metrics[f"psd_l2_{name}"] = float(np.sum((r.psd.power - f.psd.power) ** 2))
        delta = f.mu - r.mu
        metrics[f"{p}_mu_diff"] = delta.tolist()
        metrics[f"{p}_mean_effect"] = float(np.mean(np.abs(delta)))
        d_rf = r.sq_dist(f)
        metrics[f"mmd_r_{name}"] = _mmd(r, f, d_rf)
        metrics[f"diversity_{name}"] = diversity(fake)
        metrics[f"cov_frob_{name}"] = float(np.linalg.norm(r.cov - f.cov))
        metrics[f"acf_l2_{name}"] = float(np.linalg.norm(r.acf - f.acf))
        metrics[f"one_nn_acc_{name}"] = _one_nn(r, f, d_rf)
        rec = _knn(d_rf.T, real.labels, fake.labels, knn_k)
        metrics[f"knn_recovery_{name}"] = {
            "per_class": {str(c): a for c, a in rec["per_class"].items()},
            "macro": rec["macro"], "k": rec["k"],
        }

    if "ddpm" in stats and "wgan" in stats:
        d, g = stats["ddpm"], stats["wgan"]
        metrics["mmd_ddpm_wgan"] = _mmd(d, g, d.sq_dist(g))

    meta = {
        "welch": welch.to_dict(),
        "bands": [[b.name, b.lo, b.hi] for b in bands],
        "kernel": "rbf_median_heuristic",
        "feature_space": "flattened_window",
        "max_lag": max_lag,
        "knn_k": knn_k,
        "normalization": normalization,
        "fs": real.fs,
        "set_sizes": {"real": real.n, **{k: v.n for k, v in fakes.items()}},
        "seeds": seeds or {},
    }
    return MetricReport(meta=meta, metrics=metrics)


def render_table(report: MetricReport) -> str:
    """Aligned text table: per-band relative errors per model, MMD pairs,
    diversity, per-channel mean discrepancies and the remaining globals."""
    m = report.metrics
    models = [name for name in MODEL_PREFIX if f"psd_l2_{name}" in m]
    bands = [b[0] for b in report.meta["bands"]]
    lines = []
    width = 14

    header = "band rel_err".ljust(width) + "".join(name.rjust(width) for name in models)
    lines.append(header)
    for band in bands:
        row = band.ljust(width)
        for name in models:
            row += f"{m[f'rel_err_{band}_{name}']:.6g}".rjust(width)
        lines.append(row)

    lines.append("")
    for key in ("psd_l2", "mmd_r", "cov_frob", "acf_l2", "one_nn_acc", "diversity"):
        row = key.ljust(width)
        for name in models:
            row += f"{m[f'{key}_{name}']:.6g}".rjust(width)
        lines.append(row)
    if "mmd_ddpm_wgan" in m:
        lines.append("mmd_ddpm_wgan".ljust(width) + f"{m['mmd_ddpm_wgan']:.6g}".rjust(width))
    lines.append("diversity_real".ljust(width) + f"{m['diversity_real']:.6g}".rjust(width))

    lines.append("")
    for name in models:
        p = MODEL_PREFIX[name]
        mu = m[f"{p}_mu_diff"]
        lines.append(f"{p}_mu_diff".ljust(width)
                     + " ".join(f"{v:+.4g}" for v in mu)
                     + f"   ({p}_mean_effect={m[f'{p}_mean_effect']:.6g})")
    for name in models:
        rec = m[f"knn_recovery_{name}"]
        per = " ".join(f"{c}:{(f'{a:.3f}' if a is not None else 'n/a')}"
                       for c, a in sorted(rec["per_class"].items()))
        lines.append(f"knn_{name}".ljust(width) + f"macro={rec['macro']:.4g}  {per}")
    return "\n".join(lines)
