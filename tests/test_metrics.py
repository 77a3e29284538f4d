"""Evaluation suite: `compute_report` against independent references (scipy's
Welch, `np.correlate`, `np.cov`, a direct MMD U-statistic, `cdist` nearest
neighbours), against the per-(window, channel) formulation and against a
report written by the previous implementation; the batched dsp primitives
against per-row calls; zero-variance channels; one dsp call per window set
and one distance block per pair; read-only sets and kept statistics; and the
text table of a two-model and a one-model report."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.spatial.distance import cdist, pdist

from artifactgen import dsp, metrics
from artifactgen.metrics import WelchSettings, WindowSet, compute_report, render_table

FS = 250.0
C, L = 3, 128
MAX_LAG, KNN_K = 20, 3
# The batched statistics sum in another order than the per-channel loops, so
# report scalars agree to rounding; neighbour results exactly.
RTOL, ATOL = 1e-9, 1e-13
EXACT = ("one_nn_acc_", "knn_recovery_")
WELCH = [WelchSettings(), WelchSettings(nperseg=64, overlap=0.5)]  # one segment; three
# `compute_report(real, fakes)` of `large_sets()`, written by the implementation
# that ran private kernels on a per-call statistics cache. The report JSON of
# the set-kept statistics had the same SHA-256 (OpenBLAS 0.3.31, 2 threads).
# The per-channel mean offsets `{d,g}_mu_diff` and `{d,g}_mean_effect` were
# deleted from the report since, and from this file with them.
PARENT_REPORT = Path(__file__).parent / "data" / "report_500x2x500.json"


def window_set(n, seed, origin="real", classes=(0, 1, 2), noise=0.6):
    """Per-class sines with random phases in noise, on per-channel offsets."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(classes)[np.arange(n) % len(classes)]
    freq = np.array([6.0, 11.0, 23.0, 40.0])[labels]
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, C, 1))
    t = np.arange(L) / FS
    data = (np.sin(2.0 * np.pi * freq[:, None, None] * t + phase)
            + noise * rng.standard_normal((n, C, L)) + np.array([0.0, 0.3, -0.2])[:, None])
    return WindowSet(data, labels, origin=origin, fs=FS)


@pytest.fixture(scope="module")
def sets():
    """Unequal sizes, so 1-NN truncates; wgan carries a class the real set lacks."""
    real = window_set(45, 1)
    fakes = {"ddpm": window_set(30, 2, "ddpm", noise=0.8),
             "wgan": window_set(38, 3, "wgan", classes=(0, 1, 2, 3))}
    return real, fakes


def fresh(ws):
    """A copy of a set that keeps no statistics yet."""
    return WindowSet(ws.data, ws.labels, origin=ws.origin, fs=ws.fs)


def fresh_sets(real, fakes):
    return fresh(real), {name: fresh(f) for name, f in fakes.items()}


def large_sets():
    """500 real windows against two fake sets of 500."""
    return window_set(500, 11), {"ddpm": window_set(500, 12, "ddpm", noise=0.8),
                                 "wgan": window_set(500, 13, "wgan", classes=(0, 1, 2, 3))}


def flat_values(report_metrics):
    """Every leaf of a report's metrics as {dotted key: value}."""
    out = {}
    for key, value in report_metrics.items():
        if isinstance(value, dict):
            for sub, v in flat_values(value).items():
                out[f"{key}.{sub}"] = v
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------- references

def reference_mean_psd(ws, welch):
    nperseg = welch.nperseg or min(ws.data.shape[-1], 256)
    step = int(np.floor((1.0 - welch.overlap) * nperseg))
    freqs, power = signal.welch(ws.data, fs=ws.fs, window="hann", nperseg=nperseg,
                                noverlap=nperseg - step, detrend="constant",
                                scaling="density", axis=-1)
    return freqs, power.mean(axis=(0, 1))


def reference_acf(ws):
    acc = np.zeros(MAX_LAG + 1)
    for ch in ws.data.reshape(-1, ws.data.shape[-1]):
        xc = ch - ch.mean()
        full = np.correlate(xc, xc, "full")[len(xc) - 1:]
        acc += full[: MAX_LAG + 1] / full[0]
    return acc / (ws.n * ws.n_channels)


def reference_mmd(x, y):
    """The U-statistic written out: off-diagonal within-set means, full cross mean."""
    bandwidth = np.median(pdist(np.concatenate([x, y])))
    kernel = lambda a, b: np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth ** 2))
    kxx, kyy = kernel(x, x), kernel(y, y)
    off_x = kxx[~np.eye(len(x), dtype=bool)].mean()
    off_y = kyy[~np.eye(len(y), dtype=bool)].mean()
    return off_x + off_y - 2.0 * kernel(x, y).mean()


def reference_knn(real, fake, k):
    nearest = np.argsort(cdist(fake.flat(), real.flat(), "sqeuclidean"), axis=1, kind="stable")
    n_classes = int(max(real.labels.max(), fake.labels.max())) + 1
    pred = np.array([np.argmax(np.bincount(real.labels[row[:k]], minlength=n_classes))
                     for row in nearest])
    per_class = {str(c): (float(np.mean(pred[fake.labels == c] == c))
                          if c in real.labels else None) for c in np.unique(fake.labels)}
    accs = [a for a in per_class.values() if a is not None]
    return per_class, float(np.mean(accs))


def independent_report(real, fakes, welch):
    freqs, p_real = reference_mean_psd(real, welch)
    df = freqs[1] - freqs[0]
    mean_cov = lambda ws: np.mean([np.cov(w) for w in ws.data], axis=0)
    diversity = lambda ws: 1.0 - np.corrcoef(ws.flat())[np.triu_indices(ws.n, 1)].mean()
    out = {"diversity_real": diversity(real)}
    for name, fake in fakes.items():
        _, p_fake = reference_mean_psd(fake, welch)
        for b in dsp.canonical_bands(FS):
            mask = (freqs >= b.lo) & (freqs < b.hi)
            pr, pf = p_real[mask].sum() * df, p_fake[mask].sum() * df
            out[f"rel_err_{b.name}_{name}"] = abs(pf - pr) / (pr + metrics.REL_ERR_EPS)
        out[f"psd_l2_{name}"] = np.sum((p_real - p_fake) ** 2)
        out[f"mmd_r_{name}"] = reference_mmd(real.flat(), fake.flat())
        out[f"diversity_{name}"] = diversity(fake)
        out[f"cov_frob_{name}"] = np.sqrt(np.sum((mean_cov(real) - mean_cov(fake)) ** 2))
        out[f"acf_l2_{name}"] = np.sqrt(np.sum((reference_acf(real) - reference_acf(fake)) ** 2))
        n = min(real.n, fake.n)
        pooled = np.concatenate([real.flat()[:n], fake.flat()[:n]])
        d = cdist(pooled, pooled, "sqeuclidean")
        np.fill_diagonal(d, np.inf)
        is_fake = np.arange(2 * n) >= n
        out[f"one_nn_acc_{name}"] = float(np.mean(is_fake[np.argmin(d, axis=1)] == is_fake))
        per_class, macro = reference_knn(real, fake, KNN_K)
        for c, acc in per_class.items():
            out[f"knn_recovery_{name}.per_class.{c}"] = acc
        out[f"knn_recovery_{name}.macro"] = macro
        out[f"knn_recovery_{name}.k"] = KNN_K
    return out


def per_channel_report(real, fakes, welch):
    """`compute_report`'s metrics as the evaluator computed them one (window,
    channel) at a time, with pooled distance matrices: the reference for the
    batched statistics."""

    def mean_psd(ws):
        psds = [dsp.welch_psd(ch, ws.fs, nperseg=welch.nperseg, overlap_frac=welch.overlap)
                for win in ws.data for ch in win]
        return dsp.Psd(psds[0].freqs, sum(p.power for p in psds) / len(psds),
                       psds[0].nperseg, psds[0].noverlap)

    def mean_acf(ws):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # degenerate channels contribute [1, 0, ...]
            return sum(dsp.autocorrelation(ch, MAX_LAG) for win in ws.data for ch in win) / (
                ws.n * ws.n_channels)

    def mean_cov(ws):
        return np.mean([dsp.channel_covariance(w) for w in ws.data], axis=0)

    def sq_dist(a, b):
        return np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :] - 2.0 * (a @ b.T)

    def mmd(x, y):
        z = np.concatenate([x, y])
        d2 = np.maximum(sq_dist(z, z), 0.0)
        med = float(np.median(np.sqrt(d2[np.triu_indices(len(z), k=1)])))
        gamma = 1.0 / (2.0 * (med if med > 0 else 1.0) ** 2)
        kxx, kyy, kxy = (np.exp(-gamma * np.maximum(sq_dist(a, b), 0.0))
                         for a, b in ((x, x), (y, y), (x, y)))
        m, n = len(x), len(y)
        return float((kxx.sum() - np.trace(kxx)) / (m * (m - 1))
                     + (kyy.sum() - np.trace(kyy)) / (n * (n - 1)) - 2.0 * kxy.sum() / (m * n))

    def one_nn(xr, xf):
        n = min(len(xr), len(xf))
        pooled = np.concatenate([xr[:n], xf[:n]])
        d2 = sq_dist(pooled, pooled)
        np.fill_diagonal(d2, np.inf)
        labels = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        return float(np.mean(labels[np.argmin(d2, axis=1)] == labels))

    def knn(real_set, fake_set):
        yr, yf = real_set.labels, fake_set.labels
        idx = np.argpartition(sq_dist(fake_set.flat(), real_set.flat()), KNN_K - 1, axis=1)
        votes = np.zeros((len(yf), int(max(yr.max(), yf.max())) + 1), dtype=int)
        for j in range(KNN_K):
            np.add.at(votes, (np.arange(len(yf)), yr[idx[:, j]]), 1)
        pred = np.argmax(votes, axis=1)
        per_class, accs = {}, []
        for c in sorted(set(int(c) for c in np.unique(yf))):
            if c not in set(int(c) for c in yr):
                per_class[str(c)] = None
                continue
            per_class[str(c)] = float(np.mean(pred[yf == c] == c))
            accs.append(per_class[str(c)])
        return {"per_class": per_class, "macro": float(np.mean(accs)), "k": KNN_K}

    bands = dsp.canonical_bands(real.fs)
    p_real, acf_real, cov_real = mean_psd(real), mean_acf(real), mean_cov(real)
    out = {"diversity_real": metrics.diversity(real)}
    for name, fake in fakes.items():
        p_fake = mean_psd(fake)
        for b in bands:
            pr, pf = dsp.band_power(p_real, b), dsp.band_power(p_fake, b)
            out[f"rel_err_{b.name}_{name}"] = abs(pf - pr) / (pr + metrics.REL_ERR_EPS)
        out[f"psd_l2_{name}"] = float(np.sum((p_real.power - p_fake.power) ** 2))
        out[f"mmd_r_{name}"] = mmd(real.flat(), fake.flat())
        out[f"diversity_{name}"] = metrics.diversity(fake)
        out[f"cov_frob_{name}"] = float(np.linalg.norm(cov_real - mean_cov(fake), ord="fro"))
        out[f"acf_l2_{name}"] = float(np.linalg.norm(acf_real - mean_acf(fake)))
        out[f"one_nn_acc_{name}"] = one_nn(real.flat(), fake.flat())
        out[f"knn_recovery_{name}"] = knn(real, fake)
    return out


def assert_report_matches(got: dict, want: dict, rtol=RTOL, atol=ATOL):
    got, want = flat_values(got), flat_values(want)
    assert set(got) == set(want)
    for key, ref in want.items():
        if any(tag in key for tag in EXACT) or not isinstance(ref, (float, list)):
            assert got[key] == ref, key
        else:
            np.testing.assert_allclose(got[key], ref, rtol=rtol, atol=atol, err_msg=key)


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("welch", WELCH)
def test_report_matches_independent_references(sets, welch):
    real, fakes = sets
    got = flat_values(compute_report(real, fakes, welch=welch, max_lag=MAX_LAG,
                                     knn_k=KNN_K).metrics)
    want = independent_report(real, fakes, welch)
    for key, ref in want.items():
        if key.startswith("knn_recovery_") or key.startswith("one_nn_acc_"):
            assert got[key] == ref, key
        else:
            np.testing.assert_allclose(got[key], ref, rtol=RTOL, atol=ATOL, err_msg=key)
    assert got["knn_recovery_wgan.per_class.3"] is None   # class 3 is absent from the real set


@pytest.mark.parametrize("welch", WELCH)
def test_report_matches_per_channel_formulation(sets, welch):
    real, fakes = sets
    report = compute_report(real, fakes, welch=welch, max_lag=MAX_LAG, knn_k=KNN_K)
    assert_report_matches(report.metrics, per_channel_report(real, fakes, welch))
    assert report.meta["set_sizes"] == {"real": 45, "ddpm": 30, "wgan": 38}


def test_public_pair_functions_match_the_report(sets):
    """The report runs the pair functions on sets that share their statistics;
    each function on fresh sets computes its own and gives the same value."""
    real, fakes = sets
    welch = WELCH[1]
    m = compute_report(real, fakes, welch=welch, max_lag=MAX_LAG, knn_k=KNN_K).metrics
    r, f = lambda: fresh(real), lambda: fresh(fakes["wgan"])
    rel = metrics.bandwise_rel_err(r(), f(), welch=welch)
    assert rel == {b: m[f"rel_err_{b}_wgan"] for b in rel}
    assert metrics.psd_l2_error(r(), f(), welch) == m["psd_l2_wgan"]
    assert metrics.mmd_unbiased(r(), f()) == m["mmd_r_wgan"]
    assert metrics.cov_frobenius(r(), f()) == m["cov_frob_wgan"]
    assert metrics.acf_l2(r(), f(), MAX_LAG) == m["acf_l2_wgan"]
    assert metrics.one_nn_separability(r(), f()) == m["one_nn_acc_wgan"]
    rec = metrics.knn_class_recovery(r(), f(), KNN_K)
    assert rec["macro"] == m["knn_recovery_wgan"]["macro"]
    assert {str(c): a for c, a in rec["per_class"].items()} == m["knn_recovery_wgan"]["per_class"]


def test_report_matches_the_previous_implementation():
    real, fakes = large_sets()
    got = json.loads(json.dumps(compute_report(real, fakes).to_dict()))
    want = json.loads(PARENT_REPORT.read_text())
    assert got["meta"] == want["meta"]
    assert_report_matches(got["metrics"], want["metrics"], rtol=1e-12, atol=0.0)


def test_batched_dsp_matches_per_row_calls(monkeypatch):
    x = np.random.default_rng(4).standard_normal((7, C, L)) ** 3
    x[2, 1] = 0.25    # a zero-variance channel
    monkeypatch.setattr(dsp, "_CHUNK_SAMPLES", 4 * L)   # 4 signals per chunk
    psd = dsp.welch_psd(x, FS, nperseg=40, overlap_frac=0.25)
    with pytest.warns(UserWarning, match="1 zero-variance"):
        acf = dsp.autocorrelation(x, MAX_LAG)
    cov = dsp.channel_covariance(x)
    assert psd.power.shape == (7, C, 21) and acf.shape == (7, C, MAX_LAG + 1)
    assert cov.shape == (7, C, C)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the zero-variance channel warns per call
        for i in range(len(x)):
            np.testing.assert_allclose(cov[i], dsp.channel_covariance(x[i]), rtol=1e-12)
            np.testing.assert_allclose(cov[i], np.cov(x[i]), rtol=1e-12, atol=1e-15)
            for c in range(C):
                row = x[i, c]
                one = dsp.welch_psd(row, FS, nperseg=40, overlap_frac=0.25)
                np.testing.assert_allclose(psd.power[i, c], one.power, rtol=1e-12, atol=0)
                np.testing.assert_allclose(acf[i, c], dsp.autocorrelation(row, MAX_LAG),
                                           rtol=1e-12, atol=1e-15)
                if np.ptp(row) > 0:
                    xc = row - row.mean()
                    direct = np.correlate(xc, xc, "full")[L - 1: L + MAX_LAG]
                    np.testing.assert_allclose(acf[i, c], direct / direct[0], rtol=1e-9,
                                               atol=1e-13)
    assert acf[2, 1].tolist() == [1.0] + [0.0] * MAX_LAG


def test_zero_variance_channel_inside_a_set(sets):
    real, fakes = sets
    data = real.data.copy()
    data[3, 1] = 0.7    # one flat channel among 45 x 3
    flat = WindowSet(data, real.labels, fs=FS)
    with pytest.warns(UserWarning, match="zero-variance"):
        report = compute_report(flat, fakes, max_lag=MAX_LAG, knn_k=KNN_K)
    values = [v for v in flat_values(report.metrics).values() if isinstance(v, float)]
    assert np.all(np.isfinite(values))
    assert_report_matches(report.metrics, per_channel_report(flat, fakes, WelchSettings()))


def test_one_welch_call_per_window_set(sets, monkeypatch):
    """Each dsp statistic runs once per set; a second report computes none."""
    real, fakes = fresh_sets(*sets)
    calls = {name: [] for name in ("welch_psd", "autocorrelation", "channel_covariance")}
    for name, seen in calls.items():
        original = getattr(dsp, name)

        def counting(x, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(id(x))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(dsp, name, counting)
    first = compute_report(real, fakes, max_lag=MAX_LAG, knn_k=KNN_K)
    sets_in = {id(real.data), *(id(f.data) for f in fakes.values())}
    for name, seen in calls.items():
        assert sorted(seen) == sorted(sets_in), name
    assert compute_report(real, fakes, max_lag=MAX_LAG, knn_k=KNN_K).metrics == first.metrics
    for name, seen in calls.items():
        assert len(seen) == len(sets_in), name


def test_one_distance_block_per_pair(sets, monkeypatch):
    """MMD, 1-NN and kNN of a pair read one block per pair of sets that
    meet, the within-set blocks included; the two fakes never meet."""
    real, fakes = fresh_sets(*sets)
    blocks = {}
    original = WindowSet.sq_dist

    def recording(self, other):
        block = original(self, other)
        owner = block if block.base is None else block.base    # a transposed read
        blocks.setdefault(frozenset((id(self), id(other))), []).append(owner)
        return block

    monkeypatch.setattr(WindowSet, "sq_dist", recording)
    compute_report(real, fakes, max_lag=MAX_LAG, knn_k=KNN_K)
    assert len(blocks) == 5    # 3 within-set blocks, real-ddpm, real-wgan
    for reads in blocks.values():
        assert all(b is reads[0] for b in reads)


def test_a_set_and_its_kept_statistics_are_read_only(sets):
    """A set's kept statistics cannot go stale through the set: its windows,
    labels and every statistic it hands out are read-only, and its fields
    cannot be reassigned. The caller's own array stays writeable."""
    real, fakes = sets
    data = real.data.copy()
    ws = WindowSet(data, real.labels, fs=FS)
    before = compute_report(ws, fakes, max_lag=MAX_LAG, knn_k=KNN_K).metrics
    kept = [ws.data, ws.flat(), ws.labels, ws.cov, ws.psd(WelchSettings()).power,
            ws.acf(MAX_LAG), ws.sq_dist(ws), ws.sq_dist(fakes["ddpm"]),
            fakes["ddpm"].sq_dist(ws)]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    for name in ("data", "labels", "fs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ws, name, getattr(fakes["ddpm"], name))
    assert data.flags.writeable and ws.data.base is data
    assert compute_report(ws, fakes, max_lag=MAX_LAG, knn_k=KNN_K).metrics == before
    assert compute_report(*fresh_sets(ws, fakes), max_lag=MAX_LAG, knn_k=KNN_K).metrics == before


def test_report_refuses_mismatched_sets(sets):
    real, fakes = sets
    short = WindowSet(fakes["ddpm"].data[:, :, :64], fakes["ddpm"].labels, fs=FS)
    with pytest.raises(ValueError, match="window shapes differ"):
        compute_report(real, {"ddpm": short})
    with pytest.raises(ValueError, match="unknown model keys"):
        compute_report(real, {"gan": fakes["wgan"]})
    # each pair function refuses too, a reshape with the same flattened size included
    fake = fakes["ddpm"]
    refolded = WindowSet(fake.data.reshape(fake.n, 1, -1), fake.labels, fs=FS)
    other_rate = WindowSet(fake.data, fake.labels, fs=2 * FS)
    pair_functions = (metrics.bandwise_rel_err, metrics.psd_l2_error, metrics.mmd_unbiased,
                      metrics.cov_frobenius, metrics.acf_l2, metrics.one_nn_separability,
                      metrics.knn_class_recovery)
    for fn in pair_functions:
        with pytest.raises(ValueError, match="window shapes differ"):
            fn(real, refolded)
        with pytest.raises(ValueError, match="sampling rates differ"):
            fn(real, other_rate)


def table_rows(report):
    """The table's nonblank lines as {first word: the words after it}."""
    return {words[0]: words[1:] for words in map(str.split, render_table(report).splitlines())
            if words}


def test_render_table_of_two_models(sets):
    real, fakes = sets
    report = compute_report(real, fakes, max_lag=MAX_LAG, knn_k=KNN_K)
    m, rows = report.metrics, table_rows(report)
    assert render_table(report).splitlines()[0].split() == ["band", "rel_err", "ddpm", "wgan"]
    assert set(rows) == {"band", *(b.name for b in dsp.canonical_bands(FS)), "psd_l2", "mmd_r",
                         "cov_frob", "acf_l2", "one_nn_acc", "diversity", "diversity_real",
                         "knn_ddpm", "knn_wgan"}
    for band in dsp.canonical_bands(FS):
        assert rows[band.name] == [f"{m[f'rel_err_{band.name}_{n}']:.6g}" for n in fakes]
    for key in ("psd_l2", "mmd_r", "cov_frob", "acf_l2", "one_nn_acc", "diversity"):
        assert rows[key] == [f"{m[f'{key}_{n}']:.6g}" for n in fakes], key
    assert rows["diversity_real"] == [f"{m['diversity_real']:.6g}"]
    assert rows["knn_wgan"][0] == f"macro={m['knn_recovery_wgan']['macro']:.4g}"
    assert rows["knn_wgan"][-1] == "3:n/a"    # class 3 is absent from the real set
    assert len(rows["knn_ddpm"]) == 1 + 3


def test_render_table_of_one_model_with_the_other_skipped(sets):
    real, fakes = sets
    report = compute_report(real, {"ddpm": fakes["ddpm"]}, max_lag=MAX_LAG, knn_k=KNN_K)
    assert report.metrics["skipped"] == {"wgan": "no window set provided"}
    table, rows = render_table(report), table_rows(report)
    assert table.splitlines()[0].split() == ["band", "rel_err", "ddpm"]
    assert "wgan" not in table and "knn_wgan" not in rows
    for band in dsp.canonical_bands(FS):
        assert rows[band.name] == [f"{report.metrics[f'rel_err_{band.name}_ddpm']:.6g}"]
    assert rows["mmd_r"] == [f"{report.metrics['mmd_r_ddpm']:.6g}"]
    assert {"knn_ddpm", "diversity_real"} <= set(rows)
