"""Conditional denoising diffusion: linear beta schedule, closed-form forward
noising, 1D U-Net with FiLM conditioning and sinusoidal timestep embedding,
noise-prediction MSE training with label dropout and EMA, and a deterministic
few-step guided sampler.

The U-Net has three resolution levels (two stride-2 downsamples); inputs whose
length is not divisible by 4 are right-padded with zeros internally and the
output is cropped back, so output shape always equals input shape. The null
conditioning token is class index K (one past the real classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .nn import (
    Adam,
    Conv1d,
    ConvTranspose1d,
    EmaShadow,
    Embedding,
    GroupNorm,
    Linear,
    Module,
    Tensor,
    backward,
    concat,
    film,
    no_grad,
    silu,
)
from .nn.checkpoint import Checkpoint
from .training import TRAIN_DTYPE, Twin, fit, read_checkpoint

__all__ = [
    "BetaSchedule",
    "SamplerConfig",
    "DiffusionTrainConfig",
    "UNet1D",
    "sinusoidal_embedding",
    "q_sample",
    "denoise_loss",
    "cfg_epsilon",
    "ddim_timesteps",
    "sample",
    "train_ddpm",
    "DiffusionTrainResult",
    "load_unet",
]

@dataclass(frozen=True)
class BetaSchedule:
    """Linear noise schedule; alpha_bar is indexed 0..T with alpha_bar[0] = 1."""

    betas: np.ndarray
    alpha_bar: np.ndarray

    @classmethod
    def linear(cls, num_steps: int = 1000, beta_start: float = 1e-4,
               beta_end: float = 0.02) -> "BetaSchedule":
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if not 0.0 < beta_start <= beta_end < 1.0:
            raise ValueError("need 0 < beta_start <= beta_end < 1")
        betas = np.linspace(beta_start, beta_end, num_steps)
        alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        if not np.all(np.diff(alpha_bar) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        return cls(betas=betas, alpha_bar=alpha_bar)

    @property
    def num_steps(self) -> int:
        return len(self.betas)


@dataclass
class SamplerConfig:
    num_steps: int = 80
    guidance_scale: float = 1.5

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")


@dataclass
class DiffusionTrainConfig:
    widths: tuple = (64, 128, 256)
    cond_dim: int = 128
    time_dim: int = 128
    groups: int = 8
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-4
    label_dropout_prob: float = 0.1
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    ema_decay: float = 0.999
    early_stop_patience: int | None = None
    schedule_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.label_dropout_prob < 1.0:
            raise ValueError("label_dropout_prob must be in [0, 1)")
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) != 3:
            raise ValueError("U-Net takes exactly 3 channel widths")


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Standard sin/cos timestep embedding, shape (B, dim); dim must be even."""
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even")
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class ResBlock(Module):
    """GroupNorm+SiLU -> conv -> FiLM -> GroupNorm+SiLU -> conv, residual.

    The FiLM projection is zero-initialized, so at init gamma = 1, beta = 0 and
    the block matches its unconditioned counterpart exactly.
    """

    def __init__(self, width: int, cond_dim: int, groups: int,
                 rng: np.random.Generator | None):
        self.width = width
        self.norm1 = GroupNorm(groups, width)
        self.conv1 = Conv1d(width, width, 3, 1, 1, rng)
        self.film_proj = Linear(cond_dim, 2 * width, rng, zero_init=True)
        self.norm2 = GroupNorm(groups, width)
        self.conv2 = Conv1d(width, width, 3, 1, 1, rng)

    def forward(self, x: Tensor, cond: Tensor) -> Tensor:
        h = self.conv1(self.norm1(x))
        gb = self.film_proj(cond)
        gamma = gb.narrow(1, 0, self.width) + 1.0
        beta = gb.narrow(1, self.width, self.width)
        h = film(h, gamma, beta)
        h = self.conv2(self.norm2(h))
        return x + h


class UNet1D(Module):
    """Three-level 1D U-Net with skip connections and FiLM conditioning."""

    def __init__(self, n_channels: int, length: int, n_classes: int,
                 cfg: DiffusionTrainConfig, rng: np.random.Generator | None):
        w0, w1, w2 = cfg.widths
        cond_dim, groups = cfg.cond_dim, cfg.groups
        for w in cfg.widths:
            if w % groups != 0:
                raise ValueError(f"width {w} not divisible by groups {groups}")
        self.n_channels, self.n_classes = n_channels, n_classes
        self.sample_length = length     # the window length `sample` draws
        self.time_dim = cfg.time_dim
        self.null_token = n_classes

        self.time_fc1 = Linear(cfg.time_dim, cond_dim, rng)
        self.time_fc2 = Linear(cond_dim, cond_dim, rng)
        self.class_emb = Embedding(n_classes + 1, cond_dim, rng)

        self.stem = Conv1d(n_channels, w0, 3, 1, 1, rng)
        self.enc0 = ResBlock(w0, cond_dim, groups, rng)
        self.down0 = Conv1d(w0, w1, 4, 2, 1, rng)
        self.enc1 = ResBlock(w1, cond_dim, groups, rng)
        self.down1 = Conv1d(w1, w2, 4, 2, 1, rng)
        self.enc2 = ResBlock(w2, cond_dim, groups, rng)
        self.mid = ResBlock(w2, cond_dim, groups, rng)
        self.up1 = ConvTranspose1d(w2, w1, 4, 2, 1, rng)
        self.fuse1 = Conv1d(2 * w1, w1, 3, 1, 1, rng)
        self.dec1 = ResBlock(w1, cond_dim, groups, rng)
        self.up0 = ConvTranspose1d(w1, w0, 4, 2, 1, rng)
        self.fuse0 = Conv1d(2 * w0, w0, 3, 1, 1, rng)
        self.dec0 = ResBlock(w0, cond_dim, groups, rng)
        self.head_norm = GroupNorm(groups, w0)
        self.head = Conv1d(w0, n_channels, 3, 1, 1, rng)

    def condition(self, t: np.ndarray, y: np.ndarray) -> Tensor:
        """Sinusoidal timestep embedding projected and summed with the class embedding."""
        # float64 first: sin of timesteps up to T loses digits in float32
        temb = Tensor(sinusoidal_embedding(t, self.time_dim).astype(self.stem.weight.data.dtype))
        return self.time_fc2(silu(self.time_fc1(temb))) + self.class_emb(y)

    def forward(self, x: Tensor | np.ndarray, t: np.ndarray, y: np.ndarray) -> Tensor:
        """Predicted noise for ``x`` at timesteps ``t`` and labels ``y``, computed
        in the dtype of the parameters (an array ``x`` is cast to it)."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, self.stem.weight.data.dtype))
        if x.ndim != 3 or x.shape[1] != self.n_channels:
            raise ValueError(f"expected (B, {self.n_channels}, L), got {x.shape}")
        length = x.shape[2]
        pad = (-length) % 4
        if pad:
            x = x.pad_axis(2, 0, pad)
        cond = self.condition(np.broadcast_to(np.asarray(t), (x.shape[0],)), y)

        h0 = self.enc0(self.stem(x), cond)
        h1 = self.enc1(self.down0(h0), cond)
        h2 = self.enc2(self.down1(h1), cond)
        m = self.mid(h2, cond)
        u1 = self.dec1(self.fuse1(concat([self.up1(m), h1], axis=1)), cond)
        u0 = self.dec0(self.fuse0(concat([self.up0(u1), h0], axis=1)), cond)
        out = self.head(self.head_norm(u0))
        if pad:
            out = out.narrow(2, 0, length)
        return out


def _gather_ab(sched: BetaSchedule, t: np.ndarray | int) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if t_arr.min() < 1 or t_arr.max() > sched.num_steps:
        raise ValueError(f"t must be in [1, {sched.num_steps}], got range "
                         f"[{t_arr.min()}, {t_arr.max()}]")
    return sched.alpha_bar[t_arr]


def q_sample(x0: np.ndarray, t: np.ndarray | int, eps: np.ndarray,
             sched: BetaSchedule) -> np.ndarray:
    """Closed-form forward noising: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 and eps shapes differ: {x0.shape} vs {eps.shape}")
    ab = _gather_ab(sched, t)
    ab = ab.reshape((-1,) + (1,) * (x0.ndim - 1)) if x0.ndim > 1 else float(ab[0])
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def denoise_loss(net, x0: np.ndarray, y: np.ndarray, sched: BetaSchedule,
                 label_dropout_prob: float, rng: np.random.Generator) -> Tensor:
    """Noise-prediction MSE: per-sample squared error summed over (C, L),
    averaged over the batch. Labels drop to the null token with the given
    probability (classifier-free guidance training)."""
    x0 = np.asarray(x0, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    batch = x0.shape[0]
    t = rng.integers(1, sched.num_steps + 1, size=batch)
    eps = rng.standard_normal(x0.shape)
    if label_dropout_prob > 0:
        drop = rng.random(batch) < label_dropout_prob
        y = np.where(drop, net.null_token, y)
    x_t = q_sample(x0, t, eps, sched)
    pred = net(x_t, t, y)
    diff = pred - Tensor(eps.astype(pred.data.dtype, copy=False))
    return (diff * diff).sum(axis=(1, 2)).mean()


def cfg_epsilon(eps_cond: np.ndarray, eps_null: np.ndarray, w: float) -> np.ndarray:
    """Guided noise estimate eps_null + w * (eps_cond - eps_null); `sample`
    skips the null branch at w = 1 itself."""
    if eps_cond.shape != eps_null.shape:
        raise ValueError("guidance branches must have the same shape")
    return eps_null + w * (eps_cond - eps_null)


def ddim_timesteps(total_steps: int, num_steps: int) -> np.ndarray:
    """Strictly decreasing subsequence from T to 1, uniformly spaced."""
    if not 1 <= num_steps <= total_steps:
        raise ValueError(f"num_steps must be in [1, {total_steps}]")
    taus = np.unique(np.round(np.linspace(total_steps, 1, num_steps)).astype(np.int64))[::-1]
    assert taus[0] == total_steps and np.all(np.diff(taus) < 0)
    return taus


def sample(net, y: np.ndarray, sched: BetaSchedule, cfg: SamplerConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Deterministic (eta = 0) DDIM sampling with classifier-free guidance of
    windows of the net's ``sample_length``.

    Two net evaluations per step (conditional and null) unless w = 1, in which
    case the null branch is skipped entirely. Output lives in the training
    (z-score) space. Same rng state implies identical output.
    """
    y = np.asarray(y, dtype=np.int64)
    batch = y.shape[0]
    if y.min() < 0 or y.max() >= net.n_classes:
        raise ValueError(f"class index out of range [0, {net.n_classes})")
    taus = ddim_timesteps(sched.num_steps, cfg.num_steps)
    x = rng.standard_normal((batch, net.n_channels, net.sample_length))
    null = np.full(batch, net.null_token, dtype=np.int64)
    with no_grad():
        for i, t in enumerate(taus):
            t_arr = np.full(batch, t, dtype=np.int64)
            eps_c = net(x, t_arr, y).data
            if cfg.guidance_scale == 1.0:
                eps = eps_c
            else:
                eps_n = net(x, t_arr, null).data
                eps = cfg_epsilon(eps_c, eps_n, cfg.guidance_scale)
            ab_t = sched.alpha_bar[t]
            x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
            t_next = int(taus[i + 1]) if i + 1 < len(taus) else 0
            ab_next = sched.alpha_bar[t_next]
            x = np.sqrt(ab_next) * x0_hat + np.sqrt(1.0 - ab_next) * eps
    return x


@dataclass
class DiffusionTrainResult:
    net: UNet1D
    ema: EmaShadow
    history: list[dict] = field(default_factory=list)
    best_step: int = 0
    stopped_early: bool = False


def train_ddpm(
    data: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    cfg: DiffusionTrainConfig,
    out_dir: str | Path | None = None,
) -> DiffusionTrainResult:
    """AdamW (`Adam` with ``cfg.weight_decay``) on the denoising loss, with a
    per-step EMA of the weights.

    The U-Net's forward and backward run in `training.TRAIN_DTYPE` on a
    `training.Twin` of the float64 net; the optimizer and the EMA run on the
    float64 masters. ``result.net``, the optimizer moments, the EMA and both
    checkpoints stay float64.

    Early stopping and the best checkpoint follow each epoch's mean training
    denoise loss; sampling for evaluation should use the EMA weights.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, n_ch, length = data.shape

    rng = np.random.default_rng(cfg.seed)
    sched = BetaSchedule.linear(cfg.schedule_steps, cfg.beta_start, cfg.beta_end)
    net = UNet1D(n_ch, length, n_classes, cfg, rng)
    params = net.named_parameters()
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, weight_decay=cfg.weight_decay)
    ema = EmaShadow(params, cfg.ema_decay)

    result = DiffusionTrainResult(net=net, ema=ema)
    twin = Twin(net)

    def step(batches: list[np.ndarray]) -> dict[str, float]:
        (idx,) = batches
        net32 = twin.module
        net32.zero_grad()
        loss = denoise_loss(net32, data[idx], labels[idx], sched,
                            cfg.label_dropout_prob, rng)
        backward(loss)
        twin.update(opt.step, lambda: ema.update(params))
        return {"loss": loss.item()}

    meta = {"model": "ddpm", "n_channels": n_ch, "length": length, "n_classes": n_classes,
            "train_dtype": np.dtype(TRAIN_DTYPE).name, "config": asdict(cfg)}
    fit("ddpm", result, n, cfg, rng, step, columns=("loss",), monitor="loss",
        nets={"net": net}, optimizers={"net": opt}, ema={"net": ema}, meta=meta,
        out_dir=out_dir)
    return result


def load_unet(path: str | Path | Checkpoint) -> tuple[UNet1D, BetaSchedule, dict]:
    """Rebuild the U-Net with its EMA weights (its raw ones if it has none)
    and its schedule from a checkpoint, given its path or its loaded contents."""
    net, cfg, meta = read_checkpoint(path, "ddpm", UNet1D, DiffusionTrainConfig)
    sched = BetaSchedule.linear(cfg.schedule_steps, cfg.beta_start, cfg.beta_end)
    return net, sched, meta
