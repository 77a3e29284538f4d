"""Oracle corpus: determinism, class morphologies, band dominance, separability."""

import numpy as np
import pytest

from artifactgen.dsp import BandSpec, band_power, canonical_bands, welch_psd
from artifactgen.metrics import WindowSet, knn_class_recovery
from artifactgen.synthetic import TEMPLATES, generate_corpus, recording_from_npz, recording_to_npz
from artifactgen.windowing import ClassMap, extract_windows

FS = 250.0
CLASS_MAP = ClassMap()


def corpus_windows(n_per_class=6, seed=0):
    data, labels = zip(*(extract_windows(rec, 1.0, 0.5, CLASS_MAP)
                         for rec in generate_corpus(n_per_class, fs=FS, seed=seed)))
    return np.concatenate(data), np.concatenate(labels)


def mean_band_power(windows, band):
    total = 0.0
    for w in windows:
        for ch in w:
            total += band_power(welch_psd(ch, FS, nperseg=250), band)
    return total / (len(windows) * windows.shape[1])


class TestDeterminism:
    def test_same_seed_identical_corpus(self):
        a = generate_corpus(3, fs=FS, seed=11)
        b = generate_corpus(3, fs=FS, seed=11)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.data, rb.data)
            assert ra.annotations == rb.annotations

    def test_different_seed_differs(self):
        a = generate_corpus(2, fs=FS, seed=1)[0]
        b = generate_corpus(2, fs=FS, seed=2)[0]
        assert not np.array_equal(a.data[:, : min(a.data.shape[1], b.data.shape[1])],
                                  b.data[:, : min(a.data.shape[1], b.data.shape[1])])

    def test_one_subject_per_recording_all_classes_annotated(self):
        recs = generate_corpus(4, fs=FS, seed=0)
        assert len({r.subject_id for r in recs}) == 4
        for rec in recs:
            assert sorted(a.label for a in rec.annotations) == sorted(CLASS_MAP.names)


class TestMorphologies:
    def test_muscle_gamma_dominates_eye(self):
        data, labels = corpus_windows(6)
        gamma = BandSpec("gamma", 30.0, 100.0)
        delta = BandSpec("delta", 0.5, 4.0)
        muscle = data[labels == CLASS_MAP.index("muscle")]
        eye = data[labels == CLASS_MAP.index("eye")]
        ratio_muscle = mean_band_power(muscle, gamma) / mean_band_power(muscle, delta)
        ratio_eye = mean_band_power(eye, gamma) / mean_band_power(eye, delta)
        assert ratio_muscle >= 10.0 * ratio_eye

    def test_electrode_energy_is_single_channel(self):
        data, labels = corpus_windows(6)
        electrode = data[labels == CLASS_MAP.index("electrode")]
        for w in electrode:
            # remove per-channel mean; the step + spike dominates one channel
            energy = ((w - w.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
            assert energy.max() / energy.sum() >= 0.8

    def test_each_class_dominant_band_matches_template(self):
        data, labels = corpus_windows(8)
        bands = canonical_bands(FS)
        for name in CLASS_MAP.names:
            cls = data[labels == CLASS_MAP.index(name)]
            powers = {b.name: mean_band_power(cls, b) for b in bands}
            dominant = max(powers, key=powers.get)
            lo, hi = TEMPLATES[name].carrier
            carrier_bands = [b.name for b in bands if b.lo < hi and lo < b.hi]
            assert dominant in carrier_bands, (name, dominant, powers)

    def test_amplitudes_are_microvolt_scale(self):
        recs = generate_corpus(2, fs=FS, seed=3)
        peak = max(np.abs(r.data).max() for r in recs)
        assert 20.0 < peak < 120.0, f"peak {peak:.1f} uV"


class TestSeparability:
    def test_knn_recovery_above_090(self):
        data, labels = corpus_windows(10)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(data))
        half = len(data) // 2
        train = WindowSet(data[order[:half]], labels[order[:half]], "real", FS)
        test = WindowSet(data[order[half:]], labels[order[half:]], "real", FS)
        result = knn_class_recovery(train, test, k=5)
        per_class = {CLASS_MAP.names[c]: acc for c, acc in result["per_class"].items()}
        assert result["macro"] > 0.9, f"macro {result['macro']:.3f}, per class {per_class}"


class TestNpzRoundTrip:
    def test_recording_npz(self, tmp_path):
        rec = generate_corpus(1, fs=FS, seed=9)[0]
        recording_to_npz(rec, tmp_path / "rec.npz")
        back = recording_from_npz(tmp_path / "rec.npz")
        assert np.array_equal(back.data, rec.data)
        assert back.subject_id == rec.subject_id
        assert back.annotations == rec.annotations
        assert back.channel_names == rec.channel_names
