"""Checkpoint container: round trip from a path and from the file's bytes, the
refusal of other versions, atomic writes of checkpoints and of the training
loss log, how often `fit` writes them, the epoch `fit` keeps as best and its
early stop, and loaders that build their nets uninitialised and take every
array from the checkpoint."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import artifactgen.nn.checkpoint as checkpoint_mod
from artifactgen import diffusion, gan, training
from artifactgen.nn import Adam, EmaShadow, Linear, Tensor, load_checkpoint, save_checkpoint
from artifactgen.training import fit

RNG = np.random.default_rng(0)


def params():
    return {"a": RNG.standard_normal((3, 4)), "b": RNG.standard_normal(5)}


def test_round_trip_from_path_and_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    saved = {**params(), "ema/a": np.float64(2.5), "m/b/c": np.zeros((0, 3))}
    save_checkpoint(path, saved, step=7, meta={"model": "x", "optimizers": {"b": {"t": 3}}})
    for source in (path, path.read_bytes()):
        ck = load_checkpoint(source)
        assert ck.step == 7 and ck.meta == {"model": "x", "optimizers": {"b": {"t": 3}}}
        assert ck.arrays.keys() == saved.keys()
        for k, v in saved.items():
            assert ck.arrays[k].dtype == np.float64 and ck.arrays[k].shape == np.shape(v)
            assert np.array_equal(ck.arrays[k], v), k


def test_version_1_refused(tmp_path):
    """A file of the version-1 layout is refused by name, not misread."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params())
    raw = bytearray(path.read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(bytes(raw))


def test_truncated_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params())
    with pytest.raises(ValueError, match="truncated payload"):
        load_checkpoint(path.read_bytes()[:-8])


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params(), step=1)
    before = path.read_bytes()
    calls = []
    real = np.ascontiguousarray

    def fail_on_second_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(checkpoint_mod.np, "ascontiguousarray", fail_on_second_array)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, params(), step=2)
    monkeypatch.undo()
    assert len(calls) == 2                     # it failed mid-payload
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class Unprintable(float):
    def __repr__(self):
        raise OSError("disk full")


def test_failed_loss_log_keeps_previous_log(tmp_path):
    """`fit` writes the loss CSV atomically: a write that fails after the header
    leaves the previous run's log in place and no temporary file."""
    cfg = SimpleNamespace(epochs=1, batch_size=2, early_stop_patience=None, lr=1e-3)

    def run(loss):
        result = SimpleNamespace(history=[], best_step=0, stopped_early=False)
        fit("toy", result, 4, cfg, np.random.default_rng(0), lambda batches: {"loss": loss},
            columns=("loss",), monitor="loss", nets={}, optimizers={}, meta={},
            out_dir=tmp_path)

    run(0.5)
    log = tmp_path / "toy_losses.csv"
    before = log.read_bytes()
    assert before == b"step,loss\r\n1,0.5\r\n2,0.5\r\n"
    with pytest.raises(OSError, match="disk full"):
        run(Unprintable(0.25))
    assert log.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "toy_best.ckpt", "toy_last.ckpt", "toy_losses.csv"]


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_each_epoch_end_writes_each_file_once(tmp_path, monkeypatch, epochs):
    """Each benchmark unit is an ``epochs=1`` run: it writes the loss log and
    both checkpoints once, as an ``epochs=0`` run does. A longer run writes
    them at every epoch end, and ``last`` holds the net, its EMA and its Adam."""
    written = []

    def counting(write):
        def wrapper(path, *args, **kwargs):
            written.append(Path(path).name)
            return write(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "save_checkpoint", counting(training.save_checkpoint))
    monkeypatch.setattr(training, "atomic_open", counting(training.atomic_open))
    net = Linear(2, 3, np.random.default_rng(0))
    params = net.named_parameters()
    opt, ema = Adam(params, lr=0.1), EmaShadow(params, 0.5)
    losses = iter(np.linspace(1.0, 0.1, 2 * max(epochs, 1)))

    def step(batches):
        opt.step()
        ema.update(params)
        return {"loss": float(next(losses))}

    cfg = SimpleNamespace(epochs=epochs, batch_size=2, early_stop_patience=None, lr=0.1)
    result = SimpleNamespace(history=[], best_step=0, stopped_early=False)
    fit("toy", result, 4, cfg, np.random.default_rng(0), step, columns=("loss",),
        monitor="loss", nets={"net": net}, optimizers={"net": opt}, ema={"net": ema},
        meta={"model": "toy"}, out_dir=tmp_path)
    assert written == ["toy_losses.csv", "toy_last.ckpt", "toy_best.ckpt"] * max(epochs, 1)
    last = load_checkpoint(tmp_path / "toy_last.ckpt")
    assert last.step == 2 * epochs
    assert last.meta == {"model": "toy", "optimizers": {"net": {
        "t": 2 * epochs, "hyper": opt.state_dict()["hyper"]}}, "ema_updates": {"net": 2 * epochs}}
    assert sorted(last.arrays) == [f"{s}/net/{k}" for s in ("ema", "m", "params", "v")
                                   for k in ("bias", "weight")]
    assert np.array_equal(last.arrays["params/net/weight"], net.weight.data)
    assert np.array_equal(last.arrays["ema/net/weight"], ema.shadow["weight"])
    assert np.array_equal(last.arrays["v/net/bias"], opt.v["bias"])
    best = load_checkpoint(tmp_path / "toy_best.ckpt")
    assert best.step == result.best_step == 2 * epochs
    assert sorted(best.arrays) == [f"{s}/net/{k}" for s in ("ema", "params")
                                   for k in ("bias", "weight")]
    assert all(np.array_equal(v, last.arrays[k]) for k, v in best.arrays.items())


def test_best_is_the_epoch_of_lowest_mean_absolute_loss_and_patience_stops_the_run(
        tmp_path, monkeypatch):
    """Epoch scores 3, 1, 2, 2 (two steps each) with patience 2: the run stops
    after epoch 4, ``best`` holds the live weights at the end of epoch 2 and is
    written at the ends of epochs 1 and 2 only."""
    written = []

    def counting(path, *args, **kwargs):
        written.append(Path(path).name)
        return save_checkpoint(path, *args, **kwargs)

    monkeypatch.setattr(training, "save_checkpoint", counting)
    net = Linear(2, 3, np.random.default_rng(0))
    params = net.named_parameters()
    opt, ema = Adam(params, lr=0.1), EmaShadow(params, 0.5)
    losses = iter([-4.0, 2.0, 1.5, -0.5, 2.0, 2.0, -1.0, 3.0, 0.0, 0.0])
    at_step = {}

    def step(batches):
        for p in params.values():
            p.grad = Tensor(np.ones_like(p.data))
        opt.step()
        ema.update(params)
        at_step[len(at_step) + 1] = {
            **{f"params/net/{k}": p.data.copy() for k, p in params.items()},
            **{f"ema/net/{k}": v.copy() for k, v in ema.shadow.items()}}
        return {"loss": next(losses)}

    cfg = SimpleNamespace(epochs=5, batch_size=2, early_stop_patience=2, lr=0.1)
    result = SimpleNamespace(history=[], best_step=0, stopped_early=False)
    fit("toy", result, 4, cfg, np.random.default_rng(0), step, columns=("loss",),
        monitor="loss", nets={"net": net}, optimizers={"net": opt}, ema={"net": ema},
        meta={"model": "toy"}, out_dir=tmp_path)
    assert result.stopped_early and len(result.history) == 8
    assert written == ["toy_last.ckpt", "toy_best.ckpt"] * 2 + ["toy_last.ckpt"] * 2
    best = load_checkpoint(tmp_path / "toy_best.ckpt")
    assert best.step == result.best_step == 4
    assert best.arrays.keys() == at_step[4].keys()
    assert all(np.array_equal(v, at_step[4][k]) for k, v in best.arrays.items())
    last = load_checkpoint(tmp_path / "toy_last.ckpt")
    assert last.step == 8
    assert np.array_equal(last.arrays["params/net/weight"], at_step[8]["params/net/weight"])
    assert not np.array_equal(last.arrays["params/net/weight"], best.arrays["params/net/weight"])


@pytest.mark.parametrize("model", ["wgan", "ddpm"])
def test_loaded_net_is_built_uninitialised_and_holds_the_checkpoint(tmp_path, model):
    """`read_checkpoint` builds its net with ``rng=None`` and loads every
    parameter, so the loaded net's arrays are the checkpoint's."""
    rng = np.random.default_rng(3)
    data, labels = rng.uniform(-1, 1, (4, 2, 40)), np.array([0, 1, 0, 1])
    if model == "wgan":
        cfg = gan.GanTrainConfig(channels=(8, 8, 8, 8), latent_dim=4, batch_size=1,
                                 n_critic=2, epochs=0, seed=5)
        gan.train_wgan(data, labels, 2, cfg, tmp_path)
        net_cls, config_cls, name = gan.GeneratorNet, gan.GanTrainConfig, "generator"
        ck, prefix = load_checkpoint(tmp_path / "gan_best.ckpt"), "params/generator/"
    else:
        cfg = diffusion.DiffusionTrainConfig(widths=(8, 8, 8), cond_dim=8, time_dim=8,
                                             epochs=0, seed=5)
        diffusion.train_ddpm(data, labels, 2, cfg, tmp_path)
        net_cls, config_cls, name = diffusion.UNet1D, diffusion.DiffusionTrainConfig, "net"
        ck, prefix = load_checkpoint(tmp_path / "ddpm_best.ckpt"), "ema/net/"
    rngs = []

    def build(*args):
        rngs.append(args[-1])
        return net_cls(*args)

    net, _, _ = training.read_checkpoint(ck, model, build, config_cls, name)
    assert rngs == [None]
    params = net.named_parameters()
    assert sorted(params) == sorted(k[len(prefix):] for k in ck.arrays if k.startswith(prefix))
    for k, p in params.items():
        assert np.array_equal(p.data, ck.arrays[prefix + k]), k
