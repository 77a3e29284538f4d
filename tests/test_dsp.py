"""Signal-primitive tests against independent oracles (explicit DFT sums,
analytic ACFs, Monte-Carlo statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifactgen.dsp import (
    BandSpec,
    CANONICAL_BANDS,
    autocorrelation,
    band_power,
    canonical_bands,
    channel_covariance,
    welch_psd,
)

FS = 250.0


def dft_periodogram_oracle(x, fs, detrend=True):
    """Independent O(n^2) DFT periodogram on the same periodic-Hann taper."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    seg = (x - x.mean()) if detrend else x
    seg = seg * win
    nbins = n // 2 + 1
    t = np.arange(n)
    power = np.zeros(nbins)
    for k in range(nbins):
        re = np.sum(seg * np.cos(2.0 * np.pi * k * t / n))
        im = -np.sum(seg * np.sin(2.0 * np.pi * k * t / n))
        p = (re * re + im * im) / (fs * np.sum(win ** 2))
        if k > 0:
            p *= 2.0
        if n % 2 == 0 and k == nbins - 1:
            p /= 2.0
        power[k] = p
    return np.fft.rfftfreq(n, 1.0 / fs), power


def sine(freq, n, fs=FS, phase=0.0):
    return np.sin(2.0 * np.pi * freq * np.arange(n) / fs + phase)


class TestWelch:
    def test_zero_signal_zero_power(self):
        psd = welch_psd(np.zeros(250), FS)
        assert np.all(psd.power == 0.0)

    def test_sine_peak_at_10hz(self):
        psd = welch_psd(sine(10.0, 250), FS, nperseg=250)
        assert psd.freqs[np.argmax(psd.power)] == pytest.approx(10.0)

    def test_matches_dft_oracle_single_segment(self):
        rng = np.random.default_rng(7)
        for n in (128, 200, 250, 101):  # even and odd lengths
            x = rng.standard_normal(n)
            psd = welch_psd(x, FS, nperseg=n, overlap_frac=0.0)
            freqs, oracle = dft_periodogram_oracle(x, FS)
            assert np.allclose(psd.freqs, freqs)
            assert np.allclose(psd.power, oracle, rtol=1e-9, atol=1e-12)

    def test_white_noise_total_power_near_variance(self):
        # Monte-Carlo oracle: density normalization means the one-sided
        # integral estimates the signal variance
        integrals = []
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(4096)
            psd = welch_psd(x, FS, nperseg=256)
            integrals.append(np.sum(psd.power) * psd.df)
        integrals = np.asarray(integrals)
        assert np.all(np.abs(integrals - 1.0) < 0.15)
        assert abs(integrals.mean() - 1.0) < 0.05

    def test_parseval_total_within_1e6_relative(self):
        rng = np.random.default_rng(3)
        for n in (250, 256, 333):
            x = rng.standard_normal(n) * 12.0
            psd = welch_psd(x, FS, nperseg=n, overlap_frac=0.0)
            _, oracle = dft_periodogram_oracle(x, FS)
            total = np.sum(psd.power) * psd.df
            total_oracle = np.sum(oracle) * psd.df
            assert total == pytest.approx(total_oracle, rel=1e-6)

    def test_mean_invariance_above_dc_with_detrend(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512)
        a = welch_psd(x, FS, nperseg=256)
        b = welch_psd(x + 42.0, FS, nperseg=256)
        assert np.allclose(a.power[1:], b.power[1:], rtol=1e-9, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="segment longer than signal"):
            welch_psd(np.zeros(100), FS, nperseg=200)
        with pytest.raises(ValueError):
            welch_psd(np.zeros(100), FS, nperseg=0)

    def test_scipy_cross_check(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2048)
        ours = welch_psd(x, FS, nperseg=256, overlap_frac=0.5)
        f_ref, p_ref = scipy_signal.welch(x, fs=FS, nperseg=256, noverlap=128)
        assert np.allclose(ours.freqs, f_ref)
        assert np.allclose(ours.power, p_ref, rtol=1e-9, atol=1e-12)


class TestBandPower:
    def test_zero_psd_zero_everywhere(self):
        psd = welch_psd(np.zeros(512), FS, nperseg=256)
        for band in canonical_bands(FS):
            assert band_power(psd, band) == 0.0

    def test_alpha_sine_concentrates_in_alpha(self):
        psd = welch_psd(sine(10.0, 4096), FS, nperseg=512)
        alpha = band_power(psd, BandSpec("alpha", 8.0, 13.0))
        above = band_power(psd, BandSpec("all", 0.5, FS / 2))
        assert alpha >= 0.95 * above

    def test_delta_vs_beta_for_2hz_sine(self):
        psd = welch_psd(sine(2.0, 4096), FS, nperseg=1024)
        delta = band_power(psd, BandSpec("delta", 0.5, 4.0))
        beta = band_power(psd, BandSpec("beta", 13.0, 30.0))
        assert delta >= 100.0 * beta

    def test_additive_over_partition(self):
        x = np.random.default_rng(0).standard_normal(2048)
        psd = welch_psd(x, FS, nperseg=256)
        edges = [0.0, 4.0, 8.0, 13.0, 30.0, 100.0, FS / 2]
        parts = sum(band_power(psd, BandSpec(f"b{i}", lo, hi))
                    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])))
        total = np.sum(psd.power[psd.freqs < FS / 2]) * psd.df
        assert parts == pytest.approx(total, rel=1e-12)

    def test_empty_band_warns_and_returns_zero(self):
        psd = welch_psd(np.ones(40), FS, nperseg=10)  # 25 Hz grid
        with pytest.warns(UserWarning, match="no PSD bins"):
            assert band_power(psd, BandSpec("sliver", 124.0, 125.0)) == 0.0

    def test_canonical_bands_clip_to_nyquist(self):
        bands = canonical_bands(100.0)
        assert bands[-1].name == "gamma" and bands[-1].hi == 50.0
        assert [b.name for b in CANONICAL_BANDS] == ["delta", "theta", "alpha", "beta", "gamma"]


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(1).standard_normal(100)
        assert autocorrelation(x, 10)[0] == 1.0

    def test_sine_matches_analytic_cosine_acf(self):
        # biased estimator of a pure sine: r[tau] ~ (1 - tau/L) cos(2 pi f tau / fs)
        n = 10000
        x = sine(10.0, n)
        r = autocorrelation(x, 30)
        taus = np.arange(31)
        oracle = (1.0 - taus / n) * np.cos(2.0 * np.pi * 10.0 * taus / FS)
        assert np.allclose(r, oracle, atol=0.01)
        assert r[25] == pytest.approx(1.0, abs=0.05)  # one full period

    def test_iid_noise_decorrelates(self):
        x = np.random.default_rng(2).standard_normal(10000)
        r = autocorrelation(x, 20)
        assert np.all(np.abs(r[1:]) < 0.05)

    def test_constant_signal_degenerate(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            r = autocorrelation(np.full(50, 3.3), 5)
        assert r[0] == 1.0 and np.all(r[1:] == 0.0)

    def test_max_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(10), 10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(20, 200))
    def test_bounded_by_one(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n) ** 3
        r = autocorrelation(x, min(10, n - 1))
        assert np.all(np.abs(r) <= 1.0 + 1e-9)


class TestChannelCovariance:
    def test_identical_channels_fully_correlated(self):
        row = np.random.default_rng(0).standard_normal(500)
        cov = channel_covariance(np.stack([row, row]))
        assert cov[0, 1] == pytest.approx(cov[0, 0], rel=1e-12)

    def test_independent_channels_decorrelate(self):
        rng = np.random.default_rng(4)
        cov = channel_covariance(rng.standard_normal((4, 5000)))
        off = cov[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 0.1)

    def test_scaling_is_quadratic(self):
        w = np.random.default_rng(5).standard_normal((3, 100))
        assert np.allclose(channel_covariance(2.0 * w), 4.0 * channel_covariance(w),
                           rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(10, 80))
    def test_symmetric_psd(self, seed, c, n):
        w = np.random.default_rng(seed).standard_normal((c, n))
        cov = channel_covariance(w)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9
