"""Float32 inference and float32 training.

The dtype rule: with float32 inputs and float32 parameters every primitive
and layer returns float32, and so do the U-Net and the generator end to end
(a silent upcast to float64 would cost the whole speed-up). CLI `sample`,
which runs both nets in float32, stays within stated tolerances of a float64
reference of the same checkpoint, and so does `compute_report` on the two
sample sets. A float32 U-Net in `diffusion.sample` equals the hand-written
DDIM step bit for bit, because both call the same forward.

`train_ddpm` and `train_wgan` run their nets on float32 twins of their
float64 master nets: the twins' gradients stay float32, agree with float64
ones within stated tolerances, and a short run follows a float64 run's loss
curve and weights. The GroupNorm+SiLU -> Conv1d node's forward and vjp keep
float32 digits when |mean| / std is large.
"""

import copy
import json
import warnings

import numpy as np
import pytest
import yaml

from artifactgen import cli, diffusion, gan, metrics, training
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
    grad,
    leaky_relu,
    no_grad,
    silu,
)
from test_layers import composite_group_norm

# Tolerances of float32 sampling against float64, from the dtype's epsilon
# (1.2e-7) grown through a few dozen layers and DDIM steps.
DDPM_RTOL = 1e-5        # max |x32 - x64| over max |x64|
WGAN_ATOL = 1e-6        # max |x32 - x64|, windows in [-1, 1]
REPORT_RTOL, REPORT_ATOL = 1e-4, 1e-6
# Float32 training against float64, relative by norm. Measured: worst tensor
# 8.4e-7 (enc2.conv1.weight), all parameters 2.8e-7, loss 1.7e-8 for the
# gradients; loss curve 1.1e-7 max and final EMA 3.8e-8 for the 12-step run.
GRAD_TENSOR_RTOL, GRAD_RTOL, LOSS_RTOL = 5e-6, 1e-6, 1e-7
CURVE_RTOL, EMA_RTOL = 1e-6, 5e-7
# The same for the WGAN-GP. Measured: critic (d_loss + gp) worst tensor 3.6e-7
# (conv2.weight), all parameters 2.6e-7, loss 5.3e-8; generator worst tensor
# 5.2e-7 (fc.weight), all parameters 1.6e-7, loss 6.0e-8; 12-step run loss
# curves 4.3e-7 max (g_loss), final masters 3.8e-8 (generator) and 1.6e-9
# (critic).
GAN_LOSS_RTOL, GAN_CURVE_RTOL, GAN_WEIGHTS_RTOL = 5e-7, 2e-6, 5e-7
# GroupNorm+SiLU in float32 against the float64 composite, relative by norm:
# the vjp measured at most 2.1e-7 for |mean| / std of 0, 1e1 and 1e3 (2.2e-4
# at 1e3 with the uncentred sums), the forward at most 7.9e-8 (4.8e-5 at 1e3
# with the mean folded into the shift). Through the GroupNorm+SiLU -> Conv1d
# node the gradients of x, gamma and beta measured at most 2.1e-7 and the
# conv's output 1.1e-7.
GROUP_NORM_RTOL = 1e-6


def _x(rng, dt, *shape):
    return Tensor(rng.standard_normal(shape).astype(dt))


def _norm_conv(norm, conv):
    """GroupNorm+SiLU -> Conv1d as the one node the U-Net runs."""
    return lambda x: conv(x, norm=norm)


# name -> f(dtype, rng) giving (op, inputs), built from a fresh generator so
# that both dtypes see the same parameters and inputs
OPS = {
    "conv1d": lambda dt, r: (Conv1d(4, 6, 3, 1, 1, r).astype(dt), (_x(r, dt, 2, 4, 10),)),
    "conv1d_strided": lambda dt, r: (Conv1d(4, 6, 4, 2, 1, r).astype(dt), (_x(r, dt, 2, 4, 10),)),
    "conv_transpose1d": lambda dt, r: (ConvTranspose1d(4, 6, 9, 5, 2, r).astype(dt),
                                       (_x(r, dt, 2, 4, 10),)),
    "group_norm": lambda dt, r: (_norm_conv(GroupNorm(2, 4).astype(dt),
                                            Conv1d(4, 6, 3, 1, 1, r).astype(dt)),
                                 (_x(r, dt, 2, 4, 10),)),
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
        normed = norm(x)[0].data
    assert out.dtype == normed.dtype == np.float32
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(normed))
    assert out[0, 0, 0] == 0.0


def _unet(rng):
    cfg = diffusion.DiffusionTrainConfig(widths=(8, 16, 16), cond_dim=8, time_dim=8, groups=4)
    return diffusion.UNet1D(3, 22, 4, cfg, rng)


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


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, np.float64) - b) / np.linalg.norm(b))


def _rel_all(got: dict, want: dict) -> float:
    """Relative distance by norm over all tensors of two states."""
    num = sum(np.sum((np.asarray(got[k], np.float64) - want[k]) ** 2) for k in want)
    return float(np.sqrt(num / sum(np.sum(want[k] ** 2) for k in want)))


# ---- GroupNorm in float32 at large |mean| / std ------------------------------


def _group_norm_case(ratio):
    """Float32 input, gamma and beta with |mean| / std of about ``ratio``, and
    the float32 conv that reads the activation."""
    rng = np.random.default_rng(6)
    x = ((rng.standard_normal((4, 8, 50)) + ratio) * 0.7).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, (1, 8, 1)).astype(np.float32)
    beta = rng.standard_normal((1, 8, 1)).astype(np.float32)
    return x, gamma, beta, Conv1d(8, 6, 3, 1, 1, rng).astype(np.float32), rng


def _pair(dt, gamma, beta, conv, fused):
    """The GroupNorm+SiLU -> Conv1d pair in ``dt``: the fused node, or the
    float64 composite GroupNorm+SiLU followed by the conv."""
    gn = GroupNorm(2, 8).astype(dt)
    gn.gamma.data, gn.beta.data = gamma.astype(dt), beta.astype(dt)
    conv = copy.deepcopy(conv).astype(dt)
    forward = (lambda x: conv(x, norm=gn)) if fused else (
        lambda x: conv(composite_group_norm(gn, x)))
    return gn, forward


@pytest.mark.parametrize("ratio", [0.0, 1e1, 1e3])
def test_group_norm_float32_forward_at_large_mean(ratio):
    """A float32 GroupNorm+SiLU -> Conv1d node agrees with the float64
    composite on the same values, though |mean| / std is large."""
    x, gamma, beta, conv, _ = _group_norm_case(ratio)
    outs = []
    for dt, fused in ((np.float32, True), (np.float64, False)):
        _, forward = _pair(dt, gamma, beta, conv, fused)
        with no_grad():
            outs.append(forward(Tensor(x.astype(dt))).data)
    got, want = outs
    assert got.dtype == np.float32
    assert _rel(got, want) <= GROUP_NORM_RTOL


@pytest.mark.parametrize("ratio", [0.0, 1e1, 1e3])
def test_group_norm_float32_gradients_at_large_mean(ratio):
    """Input, gamma and beta gradients of a float32 GroupNorm+SiLU -> Conv1d
    node agree with the float64 composite on the same values, though
    |mean| / std is large."""
    x, gamma, beta, conv, rng = _group_norm_case(ratio)
    w = rng.standard_normal((4, 6, 50)).astype(np.float32)
    grads = []
    for dt, fused in ((np.float32, True), (np.float64, False)):
        gn, forward = _pair(dt, gamma, beta, conv, fused)
        xt = Tensor(x.astype(dt), requires_grad=True)
        out = forward(xt)
        grads.append(grad((out * Tensor(w.astype(dt))).sum(), [xt, gn.gamma, gn.beta]))
    for name, got, want in zip(("x", "gamma", "beta"), *grads):
        assert got.data.dtype == np.float32
        assert _rel(got.data, want.data) <= GROUP_NORM_RTOL, name


# ---- train_ddpm: a float32 twin against float64 master weights ---------------


def _train_data(n, length, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 8, length)), rng.integers(0, 5, n)


def test_twin_gradients_stay_float32(monkeypatch):
    """After one step the twin holds float32 parameters and gradients, and
    the master net float64 ones: a silent upcast would halve the gain."""
    nets = []
    real_loss = diffusion.denoise_loss

    def recording_loss(net, *args):
        nets.append(net)
        return real_loss(net, *args)

    monkeypatch.setattr(diffusion, "denoise_loss", recording_loss)
    data, labels = _train_data(4, 24)
    cfg = diffusion.DiffusionTrainConfig(widths=(8, 16, 16), cond_dim=8, time_dim=8,
                                         groups=4, batch_size=4, epochs=1)
    result = diffusion.train_ddpm(data, labels, 5, cfg)
    (twin,) = nets
    assert twin is not result.net
    twin_params, params = twin.named_parameters(), result.net.named_parameters()
    assert twin_params.keys() == params.keys()
    for k, p in twin_params.items():
        assert p.data.dtype == p.grad.data.dtype == np.float32, k
        assert params[k].data.dtype == params[k].grad.data.dtype == np.float64, k
        assert np.array_equal(p.data, params[k].data.astype(np.float32)), k
    assert all(v.dtype == np.float64 for v in result.ema.shadow.values())


def test_twin_gradients_agree_with_float64():
    """At default widths, B=16, with perturbed parameters (off the
    zero-initialised FiLM path), the float32 twin's loss and gradients agree
    with the float64 net's."""
    rng = np.random.default_rng(0)
    net = diffusion.UNet1D(8, 250, 5, diffusion.DiffusionTrainConfig(), rng)
    for p in net.parameters():
        p.data = p.data + 0.02 * rng.standard_normal(p.data.shape)
    x0, y = rng.standard_normal((16, 8, 250)), rng.integers(0, 5, 16)
    sched = diffusion.BetaSchedule.linear()
    runs = []
    for dt in (np.float32, np.float64):
        m = copy.deepcopy(net).astype(dt)
        params = m.named_parameters()
        loss = diffusion.denoise_loss(m, x0, y, sched, 0.1, np.random.default_rng(1))
        grads = grad(loss, list(params.values()))
        runs.append((loss.item(), {k: g.data for k, g in zip(params, grads)}))
    (loss32, g32), (loss64, g64) = runs
    assert abs(loss32 - loss64) <= LOSS_RTOL * abs(loss64)
    for k in g64:
        assert g32[k].dtype == np.float32
        assert _rel(g32[k], g64[k]) <= GRAD_TENSOR_RTOL, k
    assert _rel_all(g32, g64) <= GRAD_RTOL


def test_short_run_agrees_with_float64_training(monkeypatch):
    """12 steps (64 windows, B=16, 3 epochs) on the float32 twin follow a run
    whose twin is float64, which is plain float64 training: the loss curve and
    the final EMA agree within stated tolerances."""
    data, labels = _train_data(64, 64)
    # a short EMA horizon, so that 12 steps move the EMA away from the init
    cfg = diffusion.DiffusionTrainConfig(widths=(16, 32, 32), batch_size=16, epochs=3,
                                         seed=7, ema_decay=0.9)
    got = diffusion.train_ddpm(data, labels, 5, cfg)
    monkeypatch.setattr(training, "TRAIN_DTYPE", np.float64)
    want = diffusion.train_ddpm(data, labels, 5, cfg)
    curve = [np.array([row["loss"] for row in r.history]) for r in (got, want)]
    assert len(curve[0]) == len(curve[1]) == 12
    assert np.max(np.abs(curve[0] - curve[1]) / np.abs(curve[1])) <= CURVE_RTOL
    assert _rel_all(got.ema.shadow, want.ema.shadow) <= EMA_RTOL
    assert not np.array_equal(curve[0], curve[1])     # the first run was float32


def test_zero_epochs_builds_no_twin(monkeypatch):
    def no_twin(*args):
        raise AssertionError("a run without steps built a twin")

    monkeypatch.setattr(diffusion.UNet1D, "astype", no_twin)
    data, labels = _train_data(4, 24)
    cfg = diffusion.DiffusionTrainConfig(widths=(8, 16, 16), cond_dim=8, time_dim=8,
                                         groups=4, batch_size=4, epochs=0)
    result = diffusion.train_ddpm(data, labels, 5, cfg)
    assert result.history == []


# ---- train_wgan: float32 twins against float64 master weights ---------------


class RecordingTwin(training.Twin):
    made: list = []

    def __init__(self, master):
        super().__init__(master)
        self.made.append(self)


def test_gan_twin_gradients_stay_float32(monkeypatch):
    """After one step both twins hold float32 parameters and gradients, and
    the master nets float64 ones."""
    monkeypatch.setattr(RecordingTwin, "made", [])
    monkeypatch.setattr(gan, "Twin", RecordingTwin)
    rng = np.random.default_rng(5)
    data, labels = rng.uniform(-1, 1, (8, 4, 50)), rng.integers(0, 3, 8)
    cfg = gan.GanTrainConfig(channels=(8, 8, 8, 8), latent_dim=8, batch_size=4, n_critic=2,
                             epochs=1)
    result = gan.train_wgan(data, labels, 3, cfg)
    assert len(result.history) == 1
    twins = RecordingTwin.made
    assert [t.master for t in twins] == [result.generator, result.critic]
    for twin in twins:
        twin_params, params = twin.module.named_parameters(), twin.master.named_parameters()
        assert twin_params.keys() == params.keys()
        for k, p in twin_params.items():
            assert p.data.dtype == p.grad.data.dtype == np.float32, k
            assert params[k].data.dtype == params[k].grad.data.dtype == np.float64, k
            assert np.array_equal(p.data, params[k].data.astype(np.float32)), k


def _perturbed_gan(rng):
    cfg = gan.GanTrainConfig()
    nets = gan.GeneratorNet(8, 250, 5, cfg, rng), gan.ProjectionCritic(8, 250, 5, cfg, rng)
    for p in (p for net in nets for p in net.parameters()):
        p.data = p.data + 0.02 * rng.standard_normal(p.data.shape)
    return cfg, nets


def _assert_gradients_agree(runs):
    (loss32, g32), (loss64, g64) = runs
    assert abs(loss32 - loss64) <= GAN_LOSS_RTOL * abs(loss64)
    for k in g64:
        assert g32[k].dtype == np.float32
        assert _rel(g32[k], g64[k]) <= GRAD_TENSOR_RTOL, k
    assert _rel_all(g32, g64) <= GRAD_RTOL


def test_gan_twin_gradients_agree_with_float64():
    """At default widths, B=16, with perturbed parameters, the float32 twins'
    critic loss (with the penalty's double backward) and generator loss, and
    their gradients, agree with the float64 nets'."""
    rng = np.random.default_rng(0)
    cfg, (gen, critic) = _perturbed_gan(rng)
    x_real, y = rng.uniform(-1, 1, (16, 8, 250)), rng.integers(0, 5, 16)
    z = rng.standard_normal((16, cfg.latent_dim))
    with no_grad():
        x_fake = gen(z, y).data
    critic_runs, gen_runs = [], []
    for dt in (np.float32, np.float64):
        g, d = copy.deepcopy(gen).astype(dt), copy.deepcopy(critic).astype(dt)
        fake = x_fake.astype(dt)
        d_loss = (d(fake, y).mean() - d(x_real, y).mean()
                  + gan.gradient_penalty(d, x_real, fake, y, cfg.lambda_gp,
                                         np.random.default_rng(1)))
        g_loss = -d(g(z, y), y).mean()
        for runs, loss, params in ((critic_runs, d_loss, d.named_parameters()),
                                   (gen_runs, g_loss, g.named_parameters())):
            grads = grad(loss, list(params.values()))
            runs.append((loss.item(), {k: v.data for k, v in zip(params, grads)}))
    _assert_gradients_agree(critic_runs)
    _assert_gradients_agree(gen_runs)


def test_gan_short_run_agrees_with_float64_training(monkeypatch):
    """12 steps (240 windows, B=16, 4 epochs, half widths) on the float32 twins
    follow a run whose twins are float64, which is plain float64 training: the
    loss curves and the final master weights agree within stated tolerances."""
    rng = np.random.default_rng(5)
    data, labels = rng.uniform(-1, 1, (240, 8, 100)), rng.integers(0, 5, 240)
    cfg = gan.GanTrainConfig(channels=(64, 64, 32, 16), batch_size=16, epochs=4, seed=7)
    got = gan.train_wgan(data, labels, 5, cfg)
    monkeypatch.setattr(training, "TRAIN_DTYPE", np.float64)
    want = gan.train_wgan(data, labels, 5, cfg)
    assert len(got.history) == len(want.history) == 12
    for col in ("d_loss", "g_loss", "gp"):
        a, b = (np.array([row[col] for row in r.history]) for r in (got, want))
        assert np.max(np.abs(a - b) / np.abs(b)) <= GAN_CURVE_RTOL, col
        assert not np.array_equal(a, b), col          # the first run was float32
    for net in ("generator", "critic"):
        state = [{k: p.data for k, p in getattr(r, net).named_parameters().items()}
                 for r in (got, want)]
        assert _rel_all(*state) <= GAN_WEIGHTS_RTOL, net


def test_gan_zero_epochs_builds_no_twin(monkeypatch):
    def no_twin(*args):
        raise AssertionError("a run without steps built a twin")

    for net in (gan.GeneratorNet, gan.ProjectionCritic):
        monkeypatch.setattr(net, "astype", no_twin)
    rng = np.random.default_rng(5)
    cfg = gan.GanTrainConfig(channels=(8, 8, 8, 8), latent_dim=8, batch_size=4, n_critic=2,
                             epochs=0)
    result = gan.train_wgan(rng.uniform(-1, 1, (8, 4, 50)), rng.integers(0, 3, 8), 3, cfg)
    assert result.history == []
