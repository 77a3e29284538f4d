"""Parametric generator of labeled artifact-like multi-channel recordings.

Deterministic per seed; every recording derives its own child generator, so
corpora are reproducible and recordings could be generated in parallel. Class
morphologies (canonical eight-channel montage, microvolt scale, pink-noise
background):

    eye        1-3.5 Hz frontal deflections, Fp1/Fp2-weighted
    muscle     30-100 Hz band-limited noise bursts, temporal-weighted
    electrode  single-channel negative step with slow drift
    chewing    ~1.5 Hz rhythmic bursts of 22-28 Hz activity
    shiver     sustained 8-12 Hz tremor, broad topography

Muscle, chewing and shiver also ride a flat same-sign pedestal along their
topography; see `_interval_signal` for why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windowing import (
    CANONICAL_CHANNELS,
    CANONICAL_FS,
    DEFAULT_CLASS_NAMES,
    Annotation,
    Recording,
)

__all__ = ["ArtifactTemplate", "TEMPLATES", "generate_corpus",
           "recording_to_npz", "recording_from_npz"]


@dataclass(frozen=True)
class ArtifactTemplate:
    label: str
    carrier: tuple[float, float]     # Hz band the morphology concentrates in
    envelope: str                    # burst | step | tremor | rhythmic | slow-wave
    topography: tuple[float, ...]    # per-channel weights, canonical montage order
    noise_floor: float               # background pink-noise sigma (microvolt)
    # Nominal carrier amplitude (microvolt), scaled x0.75-1.25 per event. A
    # channel of weight w peaks at about w * (1 + pedestal) * amplitude; the
    # electrode step plus drift peaks at about 1.5 * amplitude.
    amplitude: float
    pedestal: float = 0.0            # flat same-sign offset, in units of amplitude


TEMPLATES: dict[str, ArtifactTemplate] = {
    "muscle": ArtifactTemplate(
        "muscle", (30.0, 100.0), "burst",
        (0.1, 0.1, 0.3, 0.3, 0.1, 0.1, 1.0, 1.0), 2.0, 30.0, 1.5),
    "eye": ArtifactTemplate(
        "eye", (1.0, 3.5), "slow-wave",
        (1.0, 0.95, 0.2, 0.2, 0.05, 0.05, 0.15, 0.15), 2.0, 45.0),
    "electrode": ArtifactTemplate(
        # the affected channel is drawn per event; weights here are placeholders
        "electrode", (0.5, 4.0), "step",
        (1.0,) * 8, 2.0, 55.0),
    "chewing": ArtifactTemplate(
        "chewing", (22.0, 28.0), "rhythmic",
        (0.5, 0.5, 0.7, 0.7, 0.1, 0.1, 0.6, 0.6), 2.0, 28.0, 0.5),
    "shiver": ArtifactTemplate(
        "shiver", (8.0, 12.0), "tremor",
        (0.6, 0.6, 0.8, 0.8, 0.5, 0.5, 0.7, 0.7), 2.0, 18.0, 2.0),
}


def _pink_noise(rng: np.random.Generator, n_chan: int, n: int) -> np.ndarray:
    """1/f-shaped noise, unit variance per channel."""
    white = rng.standard_normal((n_chan, n))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n, d=1.0)
    shape = np.ones_like(freqs)
    shape[1:] = 1.0 / np.sqrt(freqs[1:])
    spec *= shape[None, :]
    out = np.fft.irfft(spec, n=n, axis=1)
    std = out.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return out / std


def _band_noise(rng: np.random.Generator, n: int, fs: float, lo: float, hi: float) -> np.ndarray:
    """Unit-variance noise band-limited to [lo, hi] Hz."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.fft.irfft(spec, n=n)
    std = out.std()
    return out / std if std > 0 else out


def _ramp_envelope(n: int, frac: float = 0.1) -> np.ndarray:
    """Flat envelope with raised-cosine ramps on both ends."""
    ramp = max(2, int(n * frac))
    env = np.ones(n)
    up = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = up
    env[-ramp:] = up[::-1]
    return env


def _burst_envelope(rng: np.random.Generator, n: int, fs: float,
                    n_bursts: tuple[int, int] = (2, 4), floor: float = 0.25) -> np.ndarray:
    env = np.full(n, floor)
    for _ in range(rng.integers(n_bursts[0], n_bursts[1] + 1)):
        width = int(rng.uniform(0.25, 0.5) * fs)
        center = rng.integers(width // 2, max(width // 2 + 1, n - width // 2))
        lo = max(0, center - width // 2)
        hi = min(n, lo + width)
        bump = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(hi - lo) / (hi - lo))
        env[lo:hi] = np.maximum(env[lo:hi], bump)
    return env


def _burst_train(rng: np.random.Generator, n: int, fs: float, rate: float) -> np.ndarray:
    """Periodic burst envelope at `rate` Hz (chewing rhythm)."""
    env = np.zeros(n)
    period = fs / rate
    width = int(0.45 * period)
    start = rng.uniform(0, period * 0.25)
    centers = np.arange(start + period / 2, n, period)
    for c in centers:
        lo = int(max(0, c - width / 2))
        hi = int(min(n, c + width / 2))
        if hi <= lo:
            continue
        env[lo:hi] = np.maximum(env[lo:hi],
                                0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(hi - lo) / (hi - lo)))
    return env


def _interval_signal(label: str, n: int, fs: float, n_chan: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Artifact contribution (C, n) for one annotated interval.

    Flattened windows of one class are kNN-neighbours because a same-sign
    term along the class topography dominates their geometry: monophasic
    blinks for eye, a flat pedestal (``pedestal * amp``, ramped at the
    interval ends) for muscle, chewing and shiver. The zero-mean carriers
    (band noise, tremor, bursts) are independent between windows, so they only
    add distance; the pedestal keeps the distance between windows of one class
    below the distance to another class's level and topography. Welch's
    per-segment mean removal drops the flat pedestal, so band dominance still
    follows the carrier. Electrode windows share no such term: each event
    draws its channel, and a window lies near only the electrode windows on
    that channel.
    """
    tpl = TEMPLATES[label]
    t = np.arange(n) / fs
    amp = tpl.amplitude * rng.uniform(0.75, 1.25)
    topo = np.asarray(tpl.topography)

    if label == "eye":
        # monophasic positive deflections (blink-like): positive half-waves
        f = rng.uniform(*tpl.carrier)
        lobes = np.maximum(np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi)), 0.0)
        mono = amp * lobes ** 1.5 * _ramp_envelope(n)
    elif label == "muscle":
        env = _burst_envelope(rng, n, fs)
        fast = _band_noise(rng, n, fs, *tpl.carrier)
        mono = 0.5 * amp * fast * env
    elif label == "chewing":
        f = rng.uniform(*tpl.carrier)
        rate = rng.uniform(1.0, 2.0)
        env = _burst_train(rng, n, fs, rate)
        wave = np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        mono = amp * wave * env + 0.35 * amp * env  # jaw-motion slow component
    elif label == "shiver":
        f = rng.uniform(*tpl.carrier)
        wave = np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        drift = 1.0 + 0.3 * np.sin(2.0 * np.pi * rng.uniform(0.2, 0.5) * t)
        env = _ramp_envelope(n)
        mono = amp * wave * drift * env
    elif label == "electrode":
        # one channel only: negative step at onset plus slow drift
        channel = int(rng.integers(n_chan))
        onset = int(rng.uniform(0.05, 0.25) * n)
        f_drift = rng.uniform(0.7, 1.5)
        sig = 0.5 * amp * np.sin(2.0 * np.pi * f_drift * t + rng.uniform(0, 2 * np.pi))
        sig[onset:] -= amp
        out = np.zeros((n_chan, n))
        out[channel] = sig
        return out
    else:
        raise ValueError(f"unknown artifact class '{label}'")

    mono += tpl.pedestal * amp * _ramp_envelope(n)
    return topo[:, None] * mono[None, :]


# Each annotated interval lasts a uniform draw from this range (seconds), and
# quiet background of GAP_SECONDS separates the intervals.
INTERVAL_SECONDS = (2.0, 3.0)
GAP_SECONDS = 0.5


def generate_corpus(
    n_per_class: int,
    fs: float = CANONICAL_FS,
    seed: int = 0,
    channel_names: tuple[str, ...] = CANONICAL_CHANNELS,
) -> list[Recording]:
    """One recording per subject, each holding one interval of every class in
    `DEFAULT_CLASS_NAMES` order.

    With n_per_class recordings, every class appears in n_per_class annotated
    intervals. Deterministic: child seeds derive from the root seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")

    n_chan = len(channel_names)
    gap = int(GAP_SECONDS * fs)
    children = np.random.SeedSequence(seed).spawn(n_per_class)
    recordings = []
    for r in range(n_per_class):
        rng = np.random.default_rng(children[r])
        annotations = []
        spans = []
        cursor = gap
        for name in DEFAULT_CLASS_NAMES:
            dur = int(rng.uniform(*INTERVAL_SECONDS) * fs)
            spans.append((cursor, cursor + dur, name))
            cursor += dur + gap
        total = cursor
        data = TEMPLATES[DEFAULT_CLASS_NAMES[0]].noise_floor * _pink_noise(rng, n_chan, total)
        for start, end, name in spans:
            data[:, start:end] += _interval_signal(name, end - start, fs, n_chan, rng)
            annotations.append(Annotation(start, end, name))
        recordings.append(Recording(
            data=data, fs=fs, subject_id=f"s{r:03d}",
            channel_names=tuple(channel_names),
            annotations=annotations, rec_id=f"rec{r:03d}",
        ))
    return recordings


def recording_to_npz(rec: Recording, path) -> None:
    """Persist a recording as .npz (the pipeline's plain-file input format)."""
    np.savez(
        path,
        data=rec.data,
        fs=np.float64(rec.fs),
        subject_id=np.str_(rec.subject_id),
        rec_id=np.str_(rec.rec_id),
        channel_names=np.array(rec.channel_names, dtype=np.str_),
        ann_start=np.array([a.start for a in rec.annotations], dtype=np.int64),
        ann_end=np.array([a.end for a in rec.annotations], dtype=np.int64),
        ann_label=np.array([a.label for a in rec.annotations], dtype=np.str_),
    )


def recording_from_npz(path) -> Recording:
    z = np.load(path, allow_pickle=False)
    anns = [Annotation(int(s), int(e), str(l))
            for s, e, l in zip(z["ann_start"], z["ann_end"], z["ann_label"])]
    return Recording(
        data=z["data"], fs=float(z["fs"]), subject_id=str(z["subject_id"]),
        channel_names=tuple(str(c) for c in z["channel_names"]),
        annotations=anns, rec_id=str(z["rec_id"]),
    )
