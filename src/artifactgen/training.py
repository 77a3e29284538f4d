"""What both models share: `fit`, the training loop (a seeded permutation per
epoch, the divergence check, best tracking on the smoothed monitored loss,
early stopping, and what the loss CSV and the last and best checkpoints
hold); `Twin`, the `TRAIN_DTYPE` copy each net computes on while its float64
master weights take the optimizer steps; and `read_checkpoint`, which both
loaders call."""

from __future__ import annotations

import copy
import csv
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

from .nn import Adam, EmaShadow, Module, Tensor, save_checkpoint
from .nn.checkpoint import Checkpoint, atomic_open, load_checkpoint

__all__ = ["TRAIN_DTYPE", "TrainingDiverged", "Twin", "fit", "read_checkpoint"]

# The dtype both trainers run their nets' forward and backward in, as
# `cli.SAMPLE_DTYPE` is the one `sample` runs the nets in. The optimizers, the
# EMA and the checkpoints keep float64 master weights.
TRAIN_DTYPE = np.float32


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite; carries a diagnostic snapshot."""

    def __init__(self, snapshot: dict):
        super().__init__(f"non-finite loss at step {snapshot.get('step')}: {snapshot}")
        self.snapshot = snapshot


class Twin:
    """A `TRAIN_DTYPE` copy of a float64 master module, after Micikevicius et
    al. 2018: the forward and backward passes run on the twin, and the
    optimizer steps on the master.

    `module` builds the copy at its first use, so a run without steps builds
    none. `update` hands the twin's gradients, upcast, to the masters, runs the
    given updates on them and writes the results back into the twin's arrays
    in place (the bits of ``astype(TRAIN_DTYPE)``).
    """

    def __init__(self, master: Module):
        self.master = master
        self._module: Module | None = None

    @property
    def module(self) -> Module:
        if self._module is None:
            self._module = copy.deepcopy(self.master).astype(TRAIN_DTYPE)
            twin = self._module.named_parameters()
            self._pairs = [(p, twin[k]) for k, p in self.master.named_parameters().items()]
        return self._module

    def update(self, *updates: Callable[[], None]) -> None:
        for p, q in self._pairs:
            p.grad = None if q.grad is None else Tensor(q.grad.data.astype(np.float64))
        for run in updates:
            run()
        for p, q in self._pairs:
            np.copyto(q.data, p.data, casting="same_kind")


def fit(model: str, result, n: int, cfg, rng: np.random.Generator,
        step: Callable[[list[np.ndarray]], dict[str, float]], *, columns: tuple[str, ...],
        monitor: str, nets: dict[str, Module], optimizers: dict[str, Adam],
        ema: dict[str, EmaShadow] | None = None, meta: dict, out_dir: str | Path | None,
        batches_per_step: int = 1) -> None:
    """Train for ``cfg.epochs`` epochs, filling ``result.history``,
    ``result.best_step``, ``result.best_state`` and ``result.stopped_early``.

    Each epoch cuts a permutation of ``n`` from ``rng`` into batches of
    ``min(cfg.batch_size, n // batches_per_step)``, so that ``n`` holds at least one
    step, and hands ``step`` ``batches_per_step`` of them at a time; short tails
    are dropped. ``step`` returns the loss terms named in ``columns``.

    ``nets``, the ``optimizers`` and the ``ema`` shadows are the run's state,
    each under a name (an optimizer or a shadow under its net's). Whenever the
    mean absolute ``monitor`` over the last ``cfg.smooth_window`` steps reaches
    a new low, ``result.best_state`` takes a copy of every net and shadow.
    With ``out_dir`` the run writes, at the end of every epoch (and once when
    ``cfg.epochs`` is 0), ``<model>_losses.csv``, ``<model>_last.ckpt`` and
    ``<model>_best.ckpt``, so a crash in an epoch leaves the files of the one
    before. Checkpoint arrays are named ``params/<net>/<parameter>`` and
    ``ema/<net>/<parameter>``; ``last`` also holds ``m/<net>/<parameter>`` and
    ``v/<net>/<parameter>``, the moments of each optimizer, whose ``t`` and
    hyperparameters go into its meta under ``"optimizers"``, as each shadow's
    update count goes under ``"ema_updates"``. ``best`` holds the best state,
    or the state before any step.
    """
    ema = ema or {}
    best = np.inf
    epochs_since_best = 0
    bsz = min(cfg.batch_size, n // batches_per_step)

    def write() -> None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        with atomic_open(path / f"{model}_losses.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", *columns])
            for row in result.history:
                w.writerow([row["step"], *(repr(row[c]) for c in columns)])
        last, scalars = _weights(nets, ema), {}
        for name, opt in optimizers.items():
            scalars[name] = opt.state_dict()
            for moment in ("m", "v"):
                last.update({f"{moment}/{name}/{k}": v
                             for k, v in scalars[name].pop(moment).items()})
        save_checkpoint(path / f"{model}_last.ckpt", last, step=len(result.history),
                        meta={**meta, "optimizers": scalars,
                              "ema_updates": {k: s.updates for k, s in ema.items()}})
        save_checkpoint(path / f"{model}_best.ckpt", result.best_state or _weights(nets, ema),
                        step=result.best_step, meta=meta)

    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        batches = [perm[i: i + bsz] for i in range(0, n - bsz + 1, bsz)]
        improved_this_epoch = False
        for first in range(0, len(batches) - batches_per_step + 1, batches_per_step):
            terms = step(batches[first: first + batches_per_step])
            row = {"step": len(result.history) + 1, **terms}
            if not all(np.isfinite(v) for v in terms.values()):
                raise TrainingDiverged({
                    **row, "lr": cfg.lr,
                    "grad_norms": {k: opt.grad_norms() for k, opt in optimizers.items()},
                    "history": result.history[-cfg.smooth_window:],
                })
            result.history.append(row)

            tail = [r[monitor] for r in result.history[-cfg.smooth_window:]]
            smoothed = float(np.mean(np.abs(tail)))
            if smoothed < best:
                best = smoothed
                result.best_step = row["step"]
                result.best_state = {k: v.copy() for k, v in _weights(nets, ema).items()}
                improved_this_epoch = True

        if out_dir is not None:
            write()
        if improved_this_epoch:
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if cfg.early_stop_patience is not None and epochs_since_best >= cfg.early_stop_patience:
                result.stopped_early = True
                break

    if out_dir is not None and cfg.epochs < 1:
        write()


def _weights(nets: dict[str, Module], ema: dict[str, EmaShadow]) -> dict[str, np.ndarray]:
    """The live arrays of every net's parameters and every EMA shadow, named
    as in the checkpoints."""
    out = {f"params/{name}/{k}": p.data
           for name, net in nets.items() for k, p in net.named_parameters().items()}
    out.update({f"ema/{name}/{k}": v
                for name, shadow in ema.items() for k, v in shadow.shadow.items()})
    return out


def read_checkpoint(path: str | Path | Checkpoint, model: str, net_cls, config_cls,
                    net: str = "net") -> tuple[Module, object, dict]:
    """The net named ``net`` in the checkpoint at ``path`` (or ``path`` itself,
    already loaded), rebuilt as a float64 ``net_cls`` with its EMA weights if
    the checkpoint holds them, else its parameters; with the ``config_cls`` it
    was trained with and the checkpoint's meta. ValueError unless ``model``
    wrote it with a config whose every key ``config_cls`` has."""
    ck = path if isinstance(path, Checkpoint) else load_checkpoint(path)
    meta, name = ck.meta, "checkpoint" if ck is path else path
    if meta.get("model") != model:
        raise ValueError(f"{name}: not a {model.upper()} checkpoint")
    unknown = sorted(meta["config"].keys() - {f.name for f in fields(config_cls)})
    if unknown:
        raise ValueError(f"{name}: its config has keys this version does not know "
                         f"({', '.join(unknown)}); train the model again")
    cfg = config_cls(**meta["config"])
    # uninitialised: load_state overwrites every parameter or raises
    built = net_cls(meta["n_channels"], meta["length"], meta["n_classes"], cfg, None)

    def section(prefix: str) -> dict[str, np.ndarray]:
        return {k[len(prefix):]: v for k, v in ck.arrays.items() if k.startswith(prefix)}

    built.load_state(section(f"ema/{net}/") or section(f"params/{net}/"))
    return built, cfg, meta
