"""Min-max and z-score normalization: exact maps against a per-window
reference, epsilon paths, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from artifactgen.normalize import EPS, minmax_normalize, zscore_normalize
from artifactgen.windowing import CANONICAL_CHANNELS, Recording


def minmax_reference(w):
    """One (C, L) window, mapped as written: 2(x - m) / max(M - m, eps) - 1."""
    m, big = float(w.min()), float(w.max())
    return 2.0 * (w - m) / max(big - m, EPS) - 1.0


class TestMinMax:
    def test_midpoint_maps_to_zero(self):
        out = minmax_normalize(np.array([[-5.0, 0.0, 5.0]]))
        assert out.tolist() == [[-1.0, 0.0, 1.0]]

    def test_extrema_map_to_unit_interval_bounds(self):
        rng = np.random.default_rng(0)
        out = minmax_normalize(rng.uniform(-40, 40, size=(8, 250)))
        assert out.min() == pytest.approx(-1.0, abs=1e-12)
        assert out.max() == pytest.approx(1.0, abs=1e-12)

    def test_constant_window_epsilon_path(self):
        x = np.random.default_rng(5).uniform(-9, 9, size=(3, 4, 10))
        x[1] = 7.25
        out = minmax_normalize(x)
        # x - m = 0, denominator epsilon: everything lands on -1
        assert np.all(out[1] == -1.0)
        assert out[0].max() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 5),
                     st.integers(1, 12)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3, width=64))))
    def test_stack_equals_per_window_reference(self, x):
        out = minmax_normalize(x)
        assert out.shape == x.shape
        for i in np.ndindex(x.shape[:2]):
            assert np.array_equal(out[i], minmax_reference(x[i]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        out = minmax_normalize(rng.normal(scale=30.0, size=(3, 40)))
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestZscore:
    def make_recording(self, data):
        data = np.asarray(data, dtype=np.float64)
        channels = CANONICAL_CHANNELS[: data.shape[0]]
        return Recording(data, 250.0, "s0", channels, [], "r0")

    def test_channels_standardized(self):
        rng = np.random.default_rng(2)
        rec = self.make_recording(rng.normal(5.0, 12.0, size=(8, 5000)))
        out = zscore_normalize(rec)
        assert np.all(np.abs(out.data.mean(axis=1)) < 1e-9)
        assert np.all(np.abs(out.data.std(axis=1) - 1.0) < 1e-6)

    def test_constant_channel_becomes_zero(self):
        data = np.vstack([np.full(100, 3.0), np.random.default_rng(0).standard_normal(100)])
        out = zscore_normalize(self.make_recording(data))
        assert np.all(out.data[0] == 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 2000)) * 8.0
        out1 = zscore_normalize(self.make_recording(base))
        out2 = zscore_normalize(self.make_recording(2.5 * base + 17.0))
        assert np.allclose(out1.data, out2.data, atol=1e-7)

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            zscore_normalize(self.make_recording(np.ones((2, 1))))
