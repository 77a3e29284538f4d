"""Conditional WGAN-GP: transposed-convolution generator, projection critic,
interpolated gradient penalty, training loop.

Architecture (canonical L = 250, scaled widths allowed):

    generator   latent 128 (+ one-hot label) -> linear -> (128, L/10)
                -> convT k9 s5 p2 -> (128, L/2) -> convT k8 s2 p3 -> (64, L)
                -> conv k9 s1 p4 -> (32, L) -> conv k9 s1 p4 -> (C, L) -> tanh
    critic      mirrored strides: conv k8 s2 p3 -> conv k9 s5 p2 -> conv k9 s5 p2,
                leaky_relu(0.2), mean over time -> features phi (dim h),
                score = w^T phi + <phi, e_y> with a learned class embedding e_y.

The stride-2 layers use an even kernel (8) so the transposed-conv length
formula (L_in - 1) * stride + kernel - 2 * pad lands on integers.

Both nets take an array input in the dtype of their parameters. Training runs
them on float32 twins of float64 master nets (`training.Twin`), the gradient
penalty's double backward included; sampling runs the generator in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .nn import (
    Adam,
    Conv1d,
    ConvTranspose1d,
    Embedding,
    Linear,
    Module,
    Tensor,
    backward,
    concat,
    grad,
    leaky_relu,
    no_grad,
)
from .nn.checkpoint import Checkpoint
from .training import TRAIN_DTYPE, Twin, fit, read_checkpoint

__all__ = [
    "GanTrainConfig",
    "GeneratorNet",
    "ProjectionCritic",
    "gradient_penalty",
    "train_wgan",
    "GanTrainResult",
    "load_generator",
]

@dataclass
class GanTrainConfig:
    latent_dim: int = 128
    channels: tuple = (128, 128, 64, 32)   # generator progression before the C head
    leaky_slope: float = 0.2
    lambda_gp: float = 10.0
    n_critic: int = 5
    batch_size: int = 64                    # desk-scale default; 256 is the full-scale setting
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    epochs: int = 10
    seed: int = 0
    early_stop_patience: int | None = None  # epochs without a new best epoch score

    def __post_init__(self):
        if self.lambda_gp <= 0:
            raise ValueError(f"lambda_gp must be > 0, got {self.lambda_gp}")
        if self.n_critic < 1:
            raise ValueError("n_critic must be >= 1")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")
        self.channels = tuple(int(c) for c in self.channels)
        if len(self.channels) != 4:
            raise ValueError("generator channel progression needs 4 entries (then C)")


class GeneratorNet(Module):
    """z (+ one-hot y) -> linear seed -> two transposed convs -> refine -> tanh head."""

    def __init__(self, n_channels: int, length: int, n_classes: int,
                 cfg: GanTrainConfig, rng: np.random.Generator | None):
        if length % 10 != 0:
            raise ValueError(f"generator needs length divisible by 10, got {length}")
        ch = cfg.channels
        self.n_channels, self.length, self.n_classes = n_channels, length, n_classes
        self.latent_dim = cfg.latent_dim
        self.slope = cfg.leaky_slope
        self.seed_len = length // 10
        self.fc = Linear(cfg.latent_dim + n_classes, ch[0] * self.seed_len, rng)
        self.up1 = ConvTranspose1d(ch[0], ch[1], kernel=9, stride=5, padding=2, rng=rng)
        self.up2 = ConvTranspose1d(ch[1], ch[2], kernel=8, stride=2, padding=3, rng=rng)
        self.refine = Conv1d(ch[2], ch[3], kernel=9, stride=1, padding=4, rng=rng)
        self.head = Conv1d(ch[3], n_channels, kernel=9, stride=1, padding=4, rng=rng)

    def forward(self, z: Tensor | np.ndarray, y: np.ndarray) -> Tensor:
        """Windows for latents ``z`` and labels ``y``, computed in the dtype of
        the parameters (an array ``z`` is cast to it)."""
        dtype = self.fc.weight.data.dtype
        z = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype))
        y = np.asarray(y)
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError(f"label out of range [0, {self.n_classes})")
        onehot = np.zeros((y.shape[0], self.n_classes), dtype)
        onehot[np.arange(y.shape[0]), y] = 1.0
        h = self.fc(concat([z, Tensor(onehot)], axis=1))
        h = leaky_relu(h, self.slope)
        h = h.reshape((z.shape[0], -1, self.seed_len))
        h = leaky_relu(self.up1(h), self.slope)
        h = leaky_relu(self.up2(h), self.slope)
        h = leaky_relu(self.refine(h), self.slope)
        return self.head(h).tanh()


class ProjectionCritic(Module):
    """Strided conv encoder phi, scalar head and class projection: w^T phi + <phi, e_y>."""

    def __init__(self, n_channels: int, length: int, n_classes: int,
                 cfg: GanTrainConfig, rng: np.random.Generator):
        if length % 10 != 0:
            raise ValueError(f"critic needs length divisible by 10, got {length}")
        ch = cfg.channels
        self.n_classes = n_classes
        self.slope = cfg.leaky_slope
        self.conv1 = Conv1d(n_channels, ch[3], kernel=8, stride=2, padding=3, rng=rng)
        self.conv2 = Conv1d(ch[3], ch[2], kernel=9, stride=5, padding=2, rng=rng)
        self.conv3 = Conv1d(ch[2], ch[1], kernel=9, stride=5, padding=2, rng=rng)
        self.feature_dim = ch[1]
        self.head = Linear(self.feature_dim, 1, rng, bias=False)
        self.embed = Embedding(n_classes, self.feature_dim, rng)

    def features(self, x: Tensor) -> Tensor:
        h = leaky_relu(self.conv1(x), self.slope)
        h = leaky_relu(self.conv2(h), self.slope)
        h = leaky_relu(self.conv3(h), self.slope)
        return h.mean(axis=2)

    def forward(self, x: Tensor | np.ndarray, y: np.ndarray) -> Tensor:
        """Scores of windows ``x`` with labels ``y``, computed in the dtype of
        the parameters (an array ``x`` is cast to it)."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, self.conv1.weight.data.dtype))
        phi = self.features(x)
        base = self.head(phi).reshape((-1,))
        proj = (phi * self.embed(np.asarray(y))).sum(axis=1)
        return base + proj


def gradient_penalty(critic, x_real: np.ndarray, x_fake: np.ndarray,
                     y: np.ndarray, lam: float, rng: np.random.Generator) -> Tensor:
    """lambda * E_xhat (||grad_xhat D(xhat, y)||_2 - 1)^2 on random interpolates.

    One interpolation coefficient per sample; the gradient norm runs over all
    input coordinates of that sample. Differentiable w.r.t. critic parameters
    (double backprop through the critic). The interpolates are drawn in
    float64 and cast to the dtype of ``x_fake`` (float32 or float64), which
    the critic computes in.
    """
    dtype = np.result_type(x_fake, np.float32)
    x_real = np.asarray(x_real, dtype=np.float64)
    x_fake = np.asarray(x_fake, dtype=np.float64)
    if x_real.shape != x_fake.shape:
        raise ValueError(f"shape mismatch {x_real.shape} vs {x_fake.shape}")
    alpha = rng.uniform(size=(x_real.shape[0],) + (1,) * (x_real.ndim - 1))
    xhat = Tensor((alpha * x_real + (1.0 - alpha) * x_fake).astype(dtype, copy=False),
                  requires_grad=True)
    total = critic(xhat, y).sum()
    (gx,) = grad(total, [xhat], create_graph=True)
    axes = tuple(range(1, x_real.ndim))
    norms = (gx * gx).sum(axis=axes).sqrt()
    return ((norms - 1.0) ** 2).mean() * lam


@dataclass
class GanTrainResult:
    generator: GeneratorNet
    critic: ProjectionCritic
    history: list[dict] = field(default_factory=list)
    best_step: int = 0
    stopped_early: bool = False


def train_wgan(
    data: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    cfg: GanTrainConfig,
    out_dir: str | Path | None = None,
) -> GanTrainResult:
    """Alternating WGAN-GP training on min-max-normalized windows in [-1, 1].

    Per generator step the critic takes ``n_critic`` updates with loss
    E[D(fake)] - E[D(real)] + GP; the generator then minimizes -E[D(fake)].
    Losses are logged per step; the best checkpoint holds both nets at the end
    of the epoch with the lowest mean absolute generator loss. The batch is
    ``min(batch_size, n // n_critic)``, so any ``n >= n_critic`` fills a step.

    Every forward and backward pass runs in `training.TRAIN_DTYPE` on a
    `training.Twin` of each net; each Adam step runs on the float64 masters.
    ``result.generator``, ``result.critic``, both optimizer states and both
    checkpoints stay float64.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, n_ch, length = data.shape
    if data.min() < -1.0 - 1e-9 or data.max() > 1.0 + 1e-9:
        raise ValueError("training windows must be min-max normalized to [-1, 1]")

    rng = np.random.default_rng(cfg.seed)
    gen = GeneratorNet(n_ch, length, n_classes, cfg, rng)
    critic = ProjectionCritic(n_ch, length, n_classes, cfg, rng)
    opt_g = Adam(gen.named_parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    opt_d = Adam(critic.named_parameters(), cfg.lr, cfg.beta1, cfg.beta2)

    result = GanTrainResult(generator=gen, critic=critic)
    if n < cfg.n_critic:
        raise ValueError(f"{n} windows cannot fill the n_critic={cfg.n_critic} batches "
                         f"of a generator step")
    gen_twin, critic_twin = Twin(gen), Twin(critic)

    def step(batches: list[np.ndarray]) -> dict[str, float]:
        gen32, critic32 = gen_twin.module, critic_twin.module
        d_losses, gps = [], []
        for idx in batches:
            x_real, y = data[idx], labels[idx]
            z = rng.standard_normal((len(idx), cfg.latent_dim))
            with no_grad():
                x_fake = gen32(z, y).data
            critic32.zero_grad()
            d_loss = critic32(x_fake, y).mean() - critic32(x_real, y).mean()
            gp = gradient_penalty(critic32, x_real, x_fake, y, cfg.lambda_gp, rng)
            d_total = d_loss + gp
            gps.append(gp.item())
            backward(d_total)
            critic_twin.update(opt_d.step)
            d_losses.append(d_total.item())

        # generator update on a fresh latent batch, with the last real batch's labels
        z = rng.standard_normal((len(idx), cfg.latent_dim))
        gen32.zero_grad()
        g_loss = -critic32(gen32(z, y), y).mean()
        backward(g_loss)
        gen_twin.update(opt_g.step)
        return {"d_loss": float(np.mean(d_losses)), "g_loss": g_loss.item(),
                "gp": float(np.mean(gps))}

    meta = {"model": "wgan", "n_channels": n_ch, "length": length, "n_classes": n_classes,
            "train_dtype": np.dtype(TRAIN_DTYPE).name, "config": asdict(cfg)}
    fit("gan", result, n, cfg, rng, step, columns=("d_loss", "g_loss", "gp"),
        monitor="g_loss", nets={"generator": gen, "critic": critic},
        optimizers={"generator": opt_g, "critic": opt_d}, meta=meta, out_dir=out_dir,
        batches_per_step=cfg.n_critic)
    return result


def load_generator(path: str | Path | Checkpoint) -> tuple[GeneratorNet, dict]:
    """Rebuild the generator (best weights) from a checkpoint written by
    train_wgan, given its path or its loaded contents."""
    gen, _, meta = read_checkpoint(path, "wgan", GeneratorNet, GanTrainConfig, "generator")
    return gen, meta
