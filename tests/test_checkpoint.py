"""Checkpoint container: round trip from a path and from the file's bytes, and
atomic writes of checkpoints and of the training loss log."""

from types import SimpleNamespace

import numpy as np
import pytest

import artifactgen.nn.checkpoint as checkpoint_mod
from artifactgen.nn import load_checkpoint, save_checkpoint
from artifactgen.training import fit

RNG = np.random.default_rng(0)


def params():
    return {"a": RNG.standard_normal((3, 4)), "b": RNG.standard_normal(5)}


def test_round_trip_from_path_and_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    saved = params()
    save_checkpoint(path, saved, step=7, ema={"a": saved["a"] * 2}, meta={"model": "x"})
    for source in (path, path.read_bytes()):
        ck = load_checkpoint(source)
        assert ck.step == 7 and ck.meta == {"model": "x"}
        assert all(np.array_equal(ck.params[k], v) for k, v in saved.items())
        assert np.array_equal(ck.ema["a"], saved["a"] * 2)


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
    cfg = SimpleNamespace(epochs=1, batch_size=2, smooth_window=1, early_stop_patience=None,
                          lr=1e-3)

    def run(loss):
        result = SimpleNamespace(history=[], best_step=0, stopped_early=False)
        fit("toy", result, 4, cfg, np.random.default_rng(0), lambda batches: {"loss": loss},
            columns=("loss",), monitor="loss", optimizers={}, keep=lambda: None,
            checkpoint=lambda last: {"params": {"w": np.zeros(2)}}, meta={}, out_dir=tmp_path)

    run(0.5)
    log = tmp_path / "toy_losses.csv"
    before = log.read_bytes()
    assert before == b"step,loss\r\n1,0.5\r\n2,0.5\r\n"
    with pytest.raises(OSError, match="disk full"):
        run(Unprintable(0.25))
    assert log.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "toy_best.ckpt", "toy_last.ckpt", "toy_losses.csv"]
