"""Adam with bias correction and optional decoupled weight decay, plus an
EMA shadow of model weights.

A nonzero ``weight_decay`` makes it AdamW (Loshchilov & Hutter): it adds
lr * wd * theta, computed from the pre-update parameter, to the Adam update.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "EmaShadow"]


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.params = dict(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad.data if p.grad is not None else np.zeros_like(p.data)
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            update = self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.lr * self.weight_decay * p.data
            p.data = p.data - update

    def grad_norms(self) -> dict[str, float]:
        return {k: float(np.linalg.norm(p.grad.data)) if p.grad is not None else 0.0
                for k, p in self.params.items()}

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "hyper": {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
                      "eps": self.eps, "weight_decay": self.weight_decay},
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        hyper = state["hyper"]
        self.lr = float(hyper["lr"])
        self.beta1, self.beta2 = float(hyper["beta1"]), float(hyper["beta2"])
        self.eps = float(hyper["eps"])
        self.weight_decay = float(hyper["weight_decay"])
        for k in self.params:
            self.m[k] = np.asarray(state["m"][k], dtype=np.float64).copy()
            self.v[k] = np.asarray(state["v"][k], dtype=np.float64).copy()


class EmaShadow:
    """Exponential moving average of parameters: shadow <- d*shadow + (1-d)*live,
    where the update after n = ``updates`` earlier ones uses d = min(decay,
    (1 + n) / (10 + n)), the ``num_updates`` warm-up of TensorFlow's
    ExponentialMovingAverage, so a short run's shadow is not its initialisation."""

    def __init__(self, params: dict[str, Tensor], decay: float):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self.updates = 0
        self.shadow = {k: p.data.copy() for k, p in params.items()}

    def update(self, params: dict[str, Tensor]) -> None:
        d = min(self.decay, (1.0 + self.updates) / (10.0 + self.updates))
        self.updates += 1
        for k, p in params.items():
            self.shadow[k] = d * self.shadow[k] + (1.0 - d) * p.data

    def load(self, state: dict[str, np.ndarray], updates: int) -> None:
        """Restore a shadow and its count, which ``last`` records in ``ema_updates``."""
        self.updates = int(updates)
        for k in self.shadow:
            self.shadow[k] = np.asarray(state[k], dtype=np.float64).copy()
