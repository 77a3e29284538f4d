"""Float32 inference.

The dtype rule: with float32 inputs and float32 parameters every primitive
and layer returns float32, and so do the U-Net and the generator end to end
(a silent upcast to float64 would cost the whole speed-up). CLI `sample`,
which runs both nets in float32, stays within stated tolerances of a float64
reference of the same checkpoint, and so does `compute_report` on the two
sample sets. A float32 U-Net in `diffusion.sample` equals the hand-written
DDIM step bit for bit, because both call the same forward.
"""

import json
import warnings

import numpy as np
import pytest
import yaml

from artifactgen import cli, diffusion, gan, metrics
from artifactgen.manifest import Manifest, load_window_set, read_window_file
from artifactgen.nn import (
    Conv1d,
    ConvTranspose1d,
    Embedding,
    GroupNorm,
    Linear,
    Tensor,
    concat,
    film,
    leaky_relu,
    no_grad,
    silu,
)

# Tolerances of float32 sampling against float64, from the dtype's epsilon
# (1.2e-7) grown through a few dozen layers and DDIM steps.
DDPM_RTOL = 1e-5        # max |x32 - x64| over max |x64|
WGAN_ATOL = 1e-6        # max |x32 - x64|, windows in [-1, 1]
REPORT_RTOL, REPORT_ATOL = 1e-4, 1e-6


def _x(rng, dt, *shape):
    return Tensor(rng.standard_normal(shape).astype(dt))


# name -> f(dtype, rng) giving (op, inputs), built from a fresh generator so
# that both dtypes see the same parameters and inputs
OPS = {
    "conv1d": lambda dt, r: (Conv1d(4, 6, 3, 1, 1, r).astype(dt), (_x(r, dt, 2, 4, 10),)),
    "conv1d_strided": lambda dt, r: (Conv1d(4, 6, 4, 2, 1, r).astype(dt), (_x(r, dt, 2, 4, 10),)),
    "conv_transpose1d": lambda dt, r: (ConvTranspose1d(4, 6, 9, 5, 2, r).astype(dt),
                                       (_x(r, dt, 2, 4, 10),)),
    "group_norm": lambda dt, r: (GroupNorm(2, 4).astype(dt), (_x(r, dt, 2, 4, 10),)),
    "linear": lambda dt, r: (Linear(5, 3, r).astype(dt), (_x(r, dt, 2, 5),)),
    "embedding": lambda dt, r: (Embedding(4, 3, r).astype(dt), (np.array([0, 3, 1]),)),
    "film": lambda dt, r: (film, (_x(r, dt, 2, 3, 5), _x(r, dt, 2, 3), _x(r, dt, 2, 3))),
    "concat": lambda dt, r: (lambda a, b: concat([a, b], axis=1),
                             (_x(r, dt, 2, 3), _x(r, dt, 2, 2))),
    "silu": lambda dt, r: (silu, (_x(r, dt, 3, 4),)),
    "leaky_relu": lambda dt, r: (leaky_relu, (_x(r, dt, 3, 4),)),
    "tanh": lambda dt, r: (Tensor.tanh, (_x(r, dt, 3, 4),)),
    "mean": lambda dt, r: (lambda a: a.mean(axis=1), (_x(r, dt, 3, 4),)),
}
SCALAR_OPS = {
    "add": lambda x: x + 1.0, "radd": lambda x: 1.0 + x,
    "sub": lambda x: x - 0.3, "rsub": lambda x: 2 - x,
    "mul": lambda x: x * 0.2, "rmul": lambda x: 3 * x,
    "div": lambda x: x / 3.0, "rdiv": lambda x: 1.0 / x,
    "pow": lambda x: x ** 2, "neg": lambda x: -x,
    "numpy_scalar": lambda x: x * np.float64(0.7),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_layer_keeps_float32(name):
    (op32, in32), (op64, in64) = (OPS[name](dt, np.random.default_rng(0))
                                  for dt in (np.float32, np.float64))
    with no_grad():
        got, want = op32(*in32), op64(*in64)
    assert got.data.dtype == np.float32
    assert want.data.dtype == np.float64
    np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name", sorted(SCALAR_OPS))
def test_python_scalars_take_the_tensor_dtype(name):
    x = np.random.default_rng(1).uniform(0.5, 2.0, (3, 4))
    with no_grad():
        got = SCALAR_OPS[name](Tensor(x.astype(np.float32)))
    want = SCALAR_OPS[name](Tensor(x))
    assert got.data.dtype == np.float32 and want.data.dtype == np.float64
    np.testing.assert_allclose(got.data, want.data, rtol=1e-6)


def test_tensor_keeps_float32_and_stores_anything_else_as_float64():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    for value in (np.ones(2, np.float16), np.arange(3), [1, 2], 1.0, np.ones(2, bool)):
        assert Tensor(value).data.dtype == np.float64


def test_float32_saturation_raises_no_warning():
    """exp(-y) overflows in float32 from y < -88.7; silu and GroupNorm+SiLU
    reach their limit 0 there without a RuntimeWarning."""
    x = Tensor(np.linspace(-500.0, 5.0, 40, dtype=np.float32).reshape(1, 4, 10))
    norm = GroupNorm(2, 4).astype(np.float32)
    norm.gamma.data[:] = 300.0
    with warnings.catch_warnings(), no_grad():
        warnings.simplefilter("error")
        out = silu(x).data
        normed = norm(x).data
    assert out.dtype == normed.dtype == np.float32
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(normed))
    assert out[0, 0, 0] == 0.0


def _unet(rng):
    net = diffusion.UNet1D(3, 4, widths=(8, 16, 16), cond_dim=8, time_dim=8, groups=4, rng=rng)
    net.sample_length = 22
    return net


def test_unet_and_generator_run_in_float32_end_to_end():
    rng = np.random.default_rng(2)
    net = _unet(rng)
    x, t, y = rng.standard_normal((3, 3, 22)), np.array([1, 500, 1000]), np.array([0, 3, 4])
    gen = gan.GeneratorNet(3, 30, 4, gan.GanTrainConfig(channels=(8, 8, 8, 8), latent_dim=6), rng)
    z, labels = rng.standard_normal((3, 6)), np.array([0, 1, 3])
    with no_grad():
        want_u, want_g = net(x, t, y).data, gen(z, labels).data
        got_u = net.astype(np.float32)(x, t, y).data
        got_g = gen.astype(np.float32)(z, labels).data
    assert want_u.dtype == want_g.dtype == np.float64
    assert got_u.dtype == got_g.dtype == np.float32
    assert np.max(np.abs(got_u - want_u)) <= DDPM_RTOL * np.max(np.abs(want_u))
    assert np.max(np.abs(got_g - want_g)) <= WGAN_ATOL


def test_float32_unet_sample_equals_hand_written_step():
    """`sample` keeps x and the DDIM update in float64 around a float32 net:
    one guided step equals the update written out from the same forward."""
    rng = np.random.default_rng(3)
    net = _unet(rng).astype(np.float32)
    sched = diffusion.BetaSchedule.linear(50)
    labels, guidance = np.array([0, 2, 3]), 1.5
    cfg = diffusion.SamplerConfig(num_steps=1, guidance_scale=guidance)
    got = diffusion.sample(net, labels, sched, cfg, np.random.default_rng(9))

    x = np.random.default_rng(9).standard_normal((3, net.n_channels, net.sample_length))
    t, null = np.full(3, sched.num_steps), np.full(3, net.null_token)
    with no_grad():
        eps = diffusion.cfg_epsilon(net(x, t, labels).data, net(x, t, null).data, guidance)
    ab = sched.alpha_bar[sched.num_steps]
    want = (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
    assert eps.dtype == np.float32 and got.dtype == np.float64
    assert np.array_equal(got, want)


# ---- CLI `sample` in float32 against a float64 reference ---------------------

MODELS = {"gan": ("wgan", "minmax_window", {"channels": [16, 16, 8, 8], "latent_dim": 8,
                                            "batch_size": 4, "n_critic": 2}),
          "ddpm": ("ddpm", "zscore_recording", {"widths": [8, 16, 16], "cond_dim": 8,
                                                "time_dim": 8, "groups": 4, "batch_size": 4})}


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """{(model, epochs): (checkpoint, real windows, real labels)}: an untrained
    and a briefly trained net of each model on a small synthetic corpus."""
    root = tmp_path_factory.mktemp("float32")
    out = {}
    for model, (_, norm, cfg) in MODELS.items():
        data_root = root / model
        for epochs in (0, 2):
            config = root / f"{model}{epochs}.yaml"
            config.write_text(yaml.safe_dump({
                "seed": 4, "output_dir": str(data_root), "data": {"normalization": norm},
                "model": {model: dict(cfg, epochs=epochs)}}))
            manifest = data_root / "dataset" / "manifest.json"
            if not manifest.exists():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # few subjects leave val and test empty
                    assert run("curate", "--config", config, "--synthetic",
                               "--n-per-class", 3) == 0
            out_dir = root / f"{model}{epochs}"
            assert run("train", "--config", config, "--model", model, "--manifest", manifest,
                       "--out", out_dir) == 0
            curated = Manifest.load(manifest)
            data, labels, _ = load_window_set(curated, manifest.parent)
            out[model, epochs] = (out_dir / model / f"{model}_best.ckpt", data, labels)
    return out


def _sample(ckpt, out, num, *extra):
    assert run("sample", "--checkpoint", ckpt, "--class", 1, "--num", num, "--seed", 11,
               "--out", out, *extra) == 0
    windows = np.stack([read_window_file(p)[0] for p in sorted(out.glob("*.agw"))])
    return windows.astype(np.float64), json.loads((out / "provenance.json").read_text())


def _both(checkpoints, tmp_path, monkeypatch, model, epochs, num, *extra):
    """Windows of one `sample` call in float32 and in float64."""
    ckpt = checkpoints[model, epochs][0]
    x32, prov32 = _sample(ckpt, tmp_path / "f32", num, *extra)
    monkeypatch.setattr(cli, "SAMPLE_DTYPE", np.float64)
    x64, prov64 = _sample(ckpt, tmp_path / "f64", num, *extra)
    monkeypatch.undo()
    assert prov32["sampler"]["dtype"] == "float32" and prov64["sampler"]["dtype"] == "float64"
    return x32, x64


@pytest.mark.parametrize("epochs", [0, 2], ids=["untrained", "trained"])
@pytest.mark.parametrize("steps", [5, 20])
def test_ddpm_sample_within_tolerance_of_float64(checkpoints, tmp_path, monkeypatch,
                                                 epochs, steps):
    x32, x64 = _both(checkpoints, tmp_path, monkeypatch, "ddpm", epochs, 6, "--steps", steps)
    assert np.max(np.abs(x32 - x64)) <= DDPM_RTOL * np.max(np.abs(x64))


@pytest.mark.parametrize("epochs", [0, 2], ids=["untrained", "trained"])
def test_wgan_sample_within_tolerance_of_float64(checkpoints, tmp_path, monkeypatch, epochs):
    x32, x64 = _both(checkpoints, tmp_path, monkeypatch, "gan", epochs, 40)
    assert np.max(np.abs(x32 - x64)) <= WGAN_ATOL


def _scalars(report) -> dict[str, float]:
    """The report's continuous values by key; kNN and 1-NN results apart."""
    out = {}
    for key, value in report.metrics.items():
        if key.startswith(("knn_recovery", "one_nn", "skipped")):
            continue
        for i, v in enumerate(np.atleast_1d(value)):
            out[f"{key}[{i}]"] = float(v)
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
def test_report_on_float32_samples_within_tolerance(checkpoints, tmp_path, monkeypatch, model):
    """`compute_report` against the real windows reads the same from float32
    and float64 samples of the trained net: continuous values within
    REPORT_RTOL/REPORT_ATOL, and the same kNN recovery and 1-NN accuracy (these
    sets have no distance within the tolerance of a tie)."""
    name = MODELS[model][0]
    extra = ("--steps", 5) if model == "ddpm" else ()
    x32, x64 = _both(checkpoints, tmp_path, monkeypatch, model, 2, 24, *extra)
    _, data, labels = checkpoints[model, 2]
    real = metrics.WindowSet(data, labels)
    fake_labels = np.ones(len(x32), dtype=np.int64)
    got = metrics.compute_report(real, {name: metrics.WindowSet(x32, fake_labels, origin=name)})
    want = metrics.compute_report(real, {name: metrics.WindowSet(x64, fake_labels, origin=name)})
    g, w = _scalars(got), _scalars(want)
    assert g.keys() == w.keys()
    for key in w:
        assert np.isclose(g[key], w[key], rtol=REPORT_RTOL, atol=REPORT_ATOL), \
            (key, g[key], w[key])
    for key in (f"knn_recovery_{name}", f"one_nn_acc_{name}"):
        assert got.metrics[key] == want.metrics[key], key
