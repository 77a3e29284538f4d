"""Windowing formulas vs brute-force enumeration, extraction and padding
rules, and the class map's pairs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifactgen.windowing import (
    CANONICAL_CHANNELS,
    ClassMap,
    Annotation,
    Recording,
    extract_windows,
    stride,
    window_count,
    window_length,
)


def brute_force_count(interval_len, length, step):
    """Enumerate valid start offsets: the independent oracle for window_count."""
    return sum(1 for start in range(0, max(interval_len, 0), step)
               if start + length <= interval_len)


def make_recording(t=2000, c=8, subject="s0", annotations=(), fs=250.0,
                   channels=CANONICAL_CHANNELS):
    rng = np.random.default_rng(0)
    return Recording(rng.standard_normal((c, t)), fs, subject, tuple(channels),
                     list(annotations), "rec0")


class TestFormulas:
    @pytest.mark.parametrize("s,fs,expected", [(1.0, 250, 250), (2.0, 250, 500),
                                               (0.999, 250, 249)])
    def test_window_length(self, s, fs, expected):
        assert window_length(s, fs) == expected

    def test_window_length_zero_errors(self):
        with pytest.raises(ValueError):
            window_length(0.001, 100)

    @pytest.mark.parametrize("length,rho,expected", [(250, 0.5, 125), (250, 0.0, 250),
                                                     (500, 0.9, 50)])
    def test_stride(self, length, rho, expected):
        assert stride(length, rho) == expected
        # cross-check by enumerating start offsets: consecutive starts differ by s
        starts = list(range(0, 10 * expected, expected))
        assert starts[1] - starts[0] == expected

    def test_stride_zero_errors(self):
        with pytest.raises(ValueError, match="overlap.*too high"):
            stride(5, 0.9)

    @pytest.mark.parametrize("t,l,s,expected", [(500, 250, 125, 3), (249, 250, 125, 0),
                                                (250, 250, 125, 1)])
    def test_window_count_examples(self, t, l, s, expected):
        assert window_count(t, l, s) == expected
        assert brute_force_count(t, l, s) == expected

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 600), st.integers(1, 600))
    def test_window_count_matches_enumeration(self, t, l, s):
        assert window_count(t, l, s) == brute_force_count(t, l, s)


class TestExtraction:
    def test_interval_yields_strided_windows(self):
        rec = make_recording(annotations=[Annotation(100, 600, "eye")])
        data, labels = extract_windows(rec, 1.0, 0.5, ClassMap())
        assert data.shape == (3, 8, 250) and data.dtype == np.float64
        for w, start in zip(data, [100, 225, 350]):
            assert np.array_equal(w, rec.data[:, start:start + 250])
        assert labels.dtype == np.int64
        assert labels.tolist() == [ClassMap().index("eye")] * 3

    def test_windows_follow_annotation_order(self):
        rec = make_recording(annotations=[Annotation(1000, 1250, "shiver"),
                                          Annotation(0, 375, "eye")])
        data, labels = extract_windows(rec, 1.0, 0.5, ClassMap())
        assert labels.tolist() == [ClassMap().index("shiver")] + [ClassMap().index("eye")] * 2
        for w, start in zip(data, [1000, 0, 125]):
            assert np.array_equal(w, rec.data[:, start:start + 250])

    def test_short_interval_zero_padded(self):
        rec = make_recording(annotations=[Annotation(50, 150, "muscle")])
        data, labels = extract_windows(rec, 1.0, 0.5, ClassMap())
        assert data.shape == (1, 8, 250)
        assert np.array_equal(data[0, :, :100], rec.data[:, 50:150])
        assert np.all(data[0, :, 100:] == 0.0)
        assert labels.tolist() == [ClassMap().index("muscle")]

    def test_missing_channel_rejects_recording(self):
        channels = tuple(c for c in CANONICAL_CHANNELS if c != "T4") + ("XX",)
        rec = make_recording(channels=channels,
                             annotations=[Annotation(0, 500, "eye")])
        rejections = []
        data, labels = extract_windows(rec, 1.0, 0.5, ClassMap(), rejections=rejections)
        assert data.shape == (0, 8, 250) and labels.shape == (0,)
        assert len(rejections) == 1 and "T4" in rejections[0]

    def test_unknown_label_skips_interval(self):
        rec = make_recording(annotations=[Annotation(0, 500, "seizure"),
                                          Annotation(500, 1000, "eye")])
        rejections = []
        data, labels = extract_windows(rec, 1.0, 0.5, ClassMap(), rejections=rejections)
        assert len(labels) == 3 and np.all(labels == ClassMap().index("eye"))
        assert np.array_equal(data[0], rec.data[:, 500:750])
        assert len(rejections) == 1 and "seizure" in rejections[0]

    def test_windows_are_copies(self):
        rec = make_recording(annotations=[Annotation(0, 250, "eye")])
        data, _ = extract_windows(rec, 1.0, 0.5, ClassMap())
        data[0] = 99.0
        assert not np.any(rec.data == 99.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 1200), st.floats(0.0, 0.8), st.integers(0, 2 ** 31 - 1))
    def test_shapes_and_finiteness(self, interval, rho, seed):
        rng = np.random.default_rng(seed)
        t = max(interval + 10, 300)
        rec = Recording(rng.standard_normal((8, t)), 250.0, "s0",
                        CANONICAL_CHANNELS, [Annotation(5, 5 + interval, "shiver")], "r")
        data, labels = extract_windows(rec, 1.0, rho, ClassMap())
        expected = window_count(interval, 250, stride(250, rho))
        assert data.shape == (max(expected, 1), 8, 250)
        assert labels.shape == (len(data),)
        assert np.all(np.isfinite(data))

    def test_annotation_bounds_validated(self):
        with pytest.raises(ValueError):
            make_recording(t=100, annotations=[Annotation(50, 200, "eye")])


class TestClassMap:
    def test_from_pairs_inverts_as_pairs_and_refuses_other_indices(self):
        cm = ClassMap(("b", "a", "c"))
        assert ClassMap.from_pairs(cm.as_pairs()) == cm
        assert ClassMap.from_pairs(reversed(cm.as_pairs())) == cm
        with pytest.raises(ValueError, match="0..K-1"):
            ClassMap.from_pairs([["a", 0], ["b", 0]])
