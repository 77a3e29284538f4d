"""Output checks that hold for any workload seed.

None of them pins another layer's exact values: gradients are compared with
finite differences of the same loss, the sampler with a hand-written update
from the same generator state, and the metric report with independent
reference implementations (scipy's Welch, a direct MMD U-statistic,
``np.corrcoef`` and friends) on the same windows.
"""

from __future__ import annotations

import numpy as np
from scipy import signal
from scipy.spatial.distance import cdist, pdist

from artifactgen import diffusion, dsp, metrics
from artifactgen.nn import backward, no_grad

FD_STEP = 1e-5
FD_TOL = 1e-6        # |directional FD - <grad, d>| relative to |grad| (d has unit norm)
REPORT_RTOL = 1e-7
REPORT_ATOL = 1e-9


def directional_fd(loss_fn, params: dict) -> tuple[bool, str]:
    """Central difference of ``loss_fn`` along a random unit direction over all
    ``params`` against the directional derivative from ``backward``.

    ``loss_fn`` must be deterministic (draw its randomness from a fixed seed).
    """
    for p in params.values():
        p.grad = None
    backward(loss_fn())
    rng = np.random.default_rng(0)
    direction = {k: rng.standard_normal(p.data.shape) for k, p in params.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    grads = {k: (p.grad.data if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in params) / norm
    grad_norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))

    saved = {k: p.data for k, p in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, p in params.items():
            p.data = saved[k] + sign * FD_STEP * direction[k] / norm
        values.append(loss_fn().item())   # with the tape on: a penalty differentiates inside
    for k, p in params.items():
        p.data = saved[k]
        p.grad = None
    numeric = (values[0] - values[1]) / (2.0 * FD_STEP)
    ok = bool(np.isfinite(numeric)) and abs(numeric - analytic) <= FD_TOL * max(grad_norm, 1e-12)
    return ok, f"directional derivative {analytic!r} vs finite difference {numeric!r}"


def one_step_sample(net, sched, labels: np.ndarray, guidance: float, seed: int) -> tuple[bool, str]:
    """A 1-step guided `sample` equals the DDIM update written out by hand."""
    cfg = diffusion.SamplerConfig(num_steps=1, guidance_scale=guidance)
    got = diffusion.sample(net, labels, sched, cfg, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((len(labels), net.n_channels, net.sample_length))
    t = np.full(len(labels), sched.num_steps)
    null = np.full(len(labels), net.null_token)
    with no_grad():
        eps = diffusion.cfg_epsilon(net(x, t, labels).data, net(x, t, null).data, guidance)
    ab = sched.alpha_bar[sched.num_steps]
    want = (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)   # alpha_bar[0] = 1 after the last step
    ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12)
    return bool(ok), f"max |sample - manual update| {np.max(np.abs(got - want))!r}"


def _ref_mean_psd(data: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    nperseg = min(data.shape[-1], 256)
    freqs, power = signal.welch(data, fs=fs, window="hann", nperseg=nperseg,
                                noverlap=nperseg - nperseg // 2, detrend="constant",
                                scaling="density", axis=-1)
    return freqs, power.mean(axis=(0, 1))


def _ref_mmd(x: np.ndarray, y: np.ndarray) -> float:
    bandwidth = float(np.median(pdist(np.concatenate([x, y]))))
    kernel = lambda a, b: np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth ** 2))
    m, n = len(x), len(y)
    kxx, kyy = kernel(x, x), kernel(y, y)
    off_x = sum(kxx[i, j] for i in range(m) for j in range(m) if i != j)
    off_y = sum(kyy[i, j] for i in range(n) for j in range(n) if i != j)
    return off_x / (m * (m - 1)) + off_y / (n * (n - 1)) - 2.0 * kernel(x, y).mean()


def _ref_acf(data: np.ndarray, max_lag: int) -> np.ndarray:
    acc = np.zeros(max_lag + 1)
    for ch in data.reshape(-1, data.shape[-1]):
        xc = ch - ch.mean()
        full = np.correlate(xc, xc, "full")[len(xc) - 1:]
        acc += full[: max_lag + 1] / full[0]
    return acc / (data.shape[0] * data.shape[1])


def _ref_knn_macro(real: metrics.WindowSet, fake: metrics.WindowSet, k: int) -> float:
    d = cdist(fake.flat(), real.flat(), "sqeuclidean")
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    n_classes = int(max(real.labels.max(), fake.labels.max())) + 1
    pred = np.array([np.argmax(np.bincount(real.labels[row], minlength=n_classes))
                     for row in nearest])
    present = set(real.labels.tolist())
    accs = [np.mean(pred[fake.labels == c] == c) for c in np.unique(fake.labels) if c in present]
    return float(np.mean(accs))


def reference_report(real: metrics.WindowSet, fakes: dict, max_lag: int, knn_k: int) -> dict:
    """The report's scalar metrics, recomputed without artifactgen's metric code."""
    fs = real.fs
    freqs, p_real = _ref_mean_psd(real.data, fs)
    df = freqs[1] - freqs[0]
    corr = np.corrcoef(real.flat())
    out = {"diversity_real": 1.0 - corr[np.triu_indices(real.n, 1)].mean()}
    acf_real = _ref_acf(real.data, max_lag)
    cov_real = np.mean([np.cov(w) for w in real.data], axis=0)
    for name, fake in fakes.items():
        _, p_fake = _ref_mean_psd(fake.data, fs)
        for b in dsp.canonical_bands(fs):
            mask = (freqs >= b.lo) & (freqs < b.hi)
            pr, pf = p_real[mask].sum() * df, p_fake[mask].sum() * df
            out[f"rel_err_{b.name}_{name}"] = abs(pf - pr) / (pr + metrics.REL_ERR_EPS)
        out[f"psd_l2_{name}"] = float(np.sum((p_real - p_fake) ** 2))
        out[f"mmd_r_{name}"] = _ref_mmd(real.flat(), fake.flat())
        corr = np.corrcoef(fake.flat())
        out[f"diversity_{name}"] = 1.0 - corr[np.triu_indices(fake.n, 1)].mean()
        cov_fake = np.mean([np.cov(w) for w in fake.data], axis=0)
        out[f"cov_frob_{name}"] = float(np.linalg.norm(cov_real - cov_fake))
        out[f"acf_l2_{name}"] = float(np.linalg.norm(acf_real - _ref_acf(fake.data, max_lag)))
        n = min(real.n, fake.n)
        pooled = np.concatenate([real.flat()[:n], fake.flat()[:n]])
        d = cdist(pooled, pooled, "sqeuclidean")
        np.fill_diagonal(d, np.inf)
        is_fake = np.arange(2 * n) >= n
        out[f"one_nn_acc_{name}"] = float(np.mean(is_fake[np.argmin(d, axis=1)] == is_fake))
        out[f"knn_recovery_{name}.macro"] = _ref_knn_macro(real, fake, knn_k)
    return out


def report_matches_reference(real: metrics.WindowSet, fakes: dict,
                             max_lag: int = 50, knn_k: int = 5) -> tuple[bool, str]:
    """`compute_report` on the given sets agrees with `reference_report`."""
    got = metrics.compute_report(real, fakes, max_lag=max_lag, knn_k=knn_k).metrics
    want = reference_report(real, fakes, max_lag, knn_k)
    bad = []
    for key, ref in want.items():
        name, _, sub = key.partition(".")
        value = got[name][sub] if sub else got[name]
        if not np.isclose(value, ref, rtol=REPORT_RTOL, atol=REPORT_ATOL, equal_nan=True):
            bad.append(f"{key}: {value!r} vs reference {ref!r}")
    return not bad, "; ".join(bad) or f"{len(want)} report values match the reference"
