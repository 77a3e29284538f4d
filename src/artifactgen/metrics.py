"""Evaluation suite for comparing real and synthetic window sets.

Spectral fidelity (bandwise relative error, PSD L2), distributional
similarity (unbiased MMD with an RBF kernel on the median-heuristic
bandwidth), a pairwise-correlation diversity proxy, channel-covariance
Frobenius and ACF L2 distances, 1-NN real-vs-fake separability, and
class-conditional kNN recovery. Each report key is ``<metric>_<model>``.

All metrics operate on flattened raw windows (there is no learned feature
encoder in this artifact); the report header records that choice. Welch
settings are shared between both sides of every comparison.

A `WindowSet` holds a read-only view of its windows and keeps the statistics
the metrics read, each computed on first use over the whole ``(N, C, L)``
array: the channel covariance, the PSD per `WelchSettings`, the ACF per lag
count, and the squared-distance block to itself and to each set it meets, so
MMD, 1-NN and kNN of one pair share one GEMM. `compute_report` is a loop over
the public pair functions and `diversity`.
"""

from __future__ import annotations

import warnings
import weakref
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
MODELS = ("ddpm", "wgan")


@dataclass(frozen=True)
class WelchSettings:
    nperseg: int | None = None    # None -> min(L, 256)
    overlap: float = 0.5

    def to_dict(self) -> dict:
        return {"nperseg": self.nperseg, "overlap": self.overlap, "window": "hann",
                "detrend": True}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class WindowSet:
    """A uniform stack of labeled windows from one origin (real or a model).

    Its fields cannot be reassigned, and its arrays and kept statistics are
    read-only. The arrays are views of those given, not copies, so write no more
    into those either. Sets compare by identity."""

    data: np.ndarray            # (N, C, L) float64
    labels: np.ndarray          # (N,) int
    origin: str = "real"
    fs: float = 250.0
    _psd: dict = field(default_factory=dict, init=False, repr=False)
    _acf: dict = field(default_factory=dict, init=False, repr=False)
    _d2: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                           init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("data", np.float64), ("labels", np.int64)):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype).view()))
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

    @cached_property
    def cov(self) -> np.ndarray:
        """Window-averaged (C, C) channel covariance."""
        return _frozen(dsp.channel_covariance(self.data).mean(axis=0))

    def psd(self, welch: WelchSettings) -> dsp.Psd:
        """Welch PSD averaged over windows and channels (linear, so band powers commute)."""
        if welch not in self._psd:
            psd = dsp.welch_psd(self.data, self.fs, nperseg=welch.nperseg,
                                overlap_frac=welch.overlap)
            self._psd[welch] = replace(psd, power=_frozen(psd.power.mean(axis=(0, 1))))
        return self._psd[welch]

    def acf(self, max_lag: int) -> np.ndarray:
        """ACF averaged over windows and channels; a zero-variance channel adds [1, 0, ...]."""
        if max_lag not in self._acf:
            self._acf[max_lag] = _frozen(dsp.autocorrelation(self.data, max_lag).mean(axis=(0, 1)))
        return self._acf[max_lag]

    @cached_property
    def _sq(self) -> np.ndarray:
        return _frozen(np.sum(self.flat() ** 2, axis=1))       # (N,) squared row norms

    def sq_dist(self, other: WindowSet) -> np.ndarray:
        """Squared Euclidean distances from this set's rows to other's, not clamped at 0.
        A pair's block is computed once and kept by the set that asked first."""
        if other in self._d2:
            return self._d2[other]
        if self in other._d2:
            return other._d2[self].T
        block = self._sq[:, None] + other._sq[None, :] - 2.0 * (self.flat() @ other.flat().T)
        self._d2[other] = _frozen(block)
        return block


def _check_pair(real: WindowSet, fake: WindowSet) -> None:
    if real.data.shape[1:] != fake.data.shape[1:]:
        raise ValueError(f"window shapes differ: {real.data.shape[1:]} vs {fake.data.shape[1:]}")
    if real.fs != fake.fs:
        raise ValueError(f"sampling rates differ: {real.fs} vs {fake.fs}")


def bandwise_rel_err(real: WindowSet, fake: WindowSet,
                     bands: tuple[dsp.BandSpec, ...] | None = None,
                     welch: WelchSettings = WelchSettings()) -> dict[str, float]:
    """|P_b^fake - P_b^real| / (P_b^real + eps) per canonical band."""
    _check_pair(real, fake)
    if bands is None:
        bands = dsp.canonical_bands(real.fs)
    out = {}
    for b in bands:
        pr = dsp.band_power(real.psd(welch), b)
        out[b.name] = abs(dsp.band_power(fake.psd(welch), b) - pr) / (pr + REL_ERR_EPS)
    return out


def psd_l2_error(real: WindowSet, fake: WindowSet,
                 welch: WelchSettings = WelchSettings()) -> float:
    """Squared L2 distance between channel-averaged mean PSD vectors."""
    _check_pair(real, fake)
    return float(np.sum((real.psd(welch).power - fake.psd(welch).power) ** 2))


def mmd_unbiased(x_set: WindowSet, y_set: WindowSet) -> float:
    """Unbiased squared-MMD U-statistic with an RBF kernel on flattened windows.

    The kernel bandwidth is the median heuristic: the median of the pooled
    pairwise distances, read from the within-set upper triangles and the whole
    cross block. The estimate can be slightly negative (unbiasedness).
    """
    _check_pair(x_set, y_set)
    m, n = x_set.n, y_set.n
    if m < 2 or n < 2:
        raise ValueError("MMD needs at least 2 samples on each side")
    d_xx, d_yy, d_xy = x_set.sq_dist(x_set), y_set.sq_dist(y_set), x_set.sq_dist(y_set)
    pairs = np.concatenate([d_xx[np.triu_indices(m, k=1)], d_yy[np.triu_indices(n, k=1)],
                            d_xy.ravel()])
    bandwidth = float(np.median(np.sqrt(np.maximum(pairs, 0.0)))) or 1.0
    gamma = 1.0 / (2.0 * bandwidth ** 2)
    kxx, kyy, kxy = (np.exp(-gamma * np.maximum(d2, 0.0)) for d2 in (d_xx, d_yy, d_xy))
    term_x = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return float(term_x + term_y - 2.0 * kxy.sum() / (m * n))


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
    _check_pair(real, fake)
    return float(np.linalg.norm(real.cov - fake.cov))


def acf_l2(real: WindowSet, fake: WindowSet, max_lag: int = 50) -> float:
    """L2 distance between set-averaged, channel-averaged autocorrelations."""
    _check_pair(real, fake)
    return float(np.linalg.norm(real.acf(max_lag) - fake.acf(max_lag)))


def one_nn_separability(real: WindowSet, fake: WindowSet) -> float:
    """Leave-one-out 1-NN accuracy classifying real vs fake on the pooled set.

    0.5 means indistinguishable, 1.0 trivially separable. Both sets are
    truncated to the smaller size. Ties break toward the lower pooled index.
    """
    _check_pair(real, fake)
    n = min(real.n, fake.n)
    if n < 2:
        raise ValueError("1-NN separability needs a pooled set of at least 4")
    d_rf = real.sq_dist(fake)[:n, :n]
    d2 = np.block([[real.sq_dist(real)[:n, :n], d_rf], [d_rf.T, fake.sq_dist(fake)[:n, :n]]])
    np.fill_diagonal(d2, np.inf)
    is_fake = np.arange(2 * n) >= n
    return float(np.mean(is_fake[np.argmin(d2, axis=1)] == is_fake))


def knn_class_recovery(real_train: WindowSet, fake_eval: WindowSet,
                       k: int = 5) -> dict:
    """kNN (Euclidean, flattened) fitted on real windows, evaluated on fake labels.

    Returns per-class accuracy (None for classes absent from the real set) and
    macro accuracy over evaluable classes. Vote ties break toward the lower
    class index.
    """
    _check_pair(real_train, fake_eval)
    y_real, y_fake = real_train.labels, fake_eval.labels
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    if k > len(y_real):
        raise ValueError(f"k={k} exceeds real training set size {len(y_real)}")
    d_fr = fake_eval.sq_dist(real_train)
    neighbor_labels = y_real[np.argpartition(d_fr, k - 1, axis=1)[:, :k]]
    classes = np.arange(int(max(y_real.max(), y_fake.max())) + 1)
    votes = np.sum(neighbor_labels[:, :, None] == classes, axis=1)   # (N_fake, classes)
    pred = np.argmax(votes, axis=1)  # argmax takes the lowest index on ties
    per_class = {int(c): float(np.mean(pred[y_fake == c] == c)) if c in y_real else None
                 for c in np.unique(y_fake)}
    accs = [a for a in per_class.values() if a is not None]
    return {"per_class": per_class, "macro": float(np.mean(accs)) if accs else float("nan"),
            "k": k}


@dataclass
class MetricReport:
    """All comparison statistics for one (real, {model: fake}) evaluation."""

    meta: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "metrics": self.metrics}


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
    bad = set(fakes) - set(MODELS)
    if bad:
        raise ValueError(f"unknown model keys {sorted(bad)}; expected subset of "
                         f"{sorted(MODELS)}")
    for fake in fakes.values():
        _check_pair(real, fake)
    bands = dsp.canonical_bands(real.fs)

    metrics: dict = {"diversity_real": diversity(real)}
    skipped = {m: "no window set provided" for m in MODELS if m not in fakes}
    if skipped:
        metrics["skipped"] = skipped

    for name, fake in fakes.items():
        for band_name, val in bandwise_rel_err(real, fake, bands, welch).items():
            metrics[f"rel_err_{band_name}_{name}"] = val
        metrics[f"psd_l2_{name}"] = psd_l2_error(real, fake, welch)
        metrics[f"mmd_r_{name}"] = mmd_unbiased(real, fake)
        metrics[f"diversity_{name}"] = diversity(fake)
        metrics[f"cov_frob_{name}"] = cov_frobenius(real, fake)
        metrics[f"acf_l2_{name}"] = acf_l2(real, fake, max_lag)
        metrics[f"one_nn_acc_{name}"] = one_nn_separability(real, fake)
        rec = knn_class_recovery(real, fake, knn_k)
        metrics[f"knn_recovery_{name}"] = {
            "per_class": {str(c): a for c, a in rec["per_class"].items()},
            "macro": rec["macro"], "k": rec["k"],
        }

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
    """Aligned text table: per-band relative errors per model, the pair
    metrics and diversity per model, and kNN class recovery."""
    m = report.metrics
    models = [name for name in MODELS if f"psd_l2_{name}" in m]
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
    lines.append("diversity_real".ljust(width) + f"{m['diversity_real']:.6g}".rjust(width))

    lines.append("")
    for name in models:
        rec = m[f"knn_recovery_{name}"]
        per = " ".join(f"{c}:{(f'{a:.3f}' if a is not None else 'n/a')}"
                       for c, a in sorted(rec["per_class"].items()))
        lines.append(f"knn_{name}".ljust(width) + f"macro={rec['macro']:.4g}  {per}")
    return "\n".join(lines)
