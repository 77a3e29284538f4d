"""Neural-network layers on top of the autodiff tensor: 1D convolutions,
linear/embedding layers, group normalization, FiLM and pooling.

Convolutions use explicit symmetric zero padding; transposed convolutions
follow L_out = (L_in - 1) * stride + kernel - 2 * padding. Weights initialize
uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)] from the supplied generator, so
construction order plus seed fully determines the parameters.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, fold1d, gather_rows, matmul, unfold1d

__all__ = [
    "Module",
    "Linear",
    "Conv1d",
    "ConvTranspose1d",
    "Embedding",
    "GroupNorm",
    "film",
    "global_avg_pool1d",
]


class Module:
    """Minimal parameter container with deterministic naming."""

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[key] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def get_state(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for k, p in params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"{k}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 bias: bool = True, zero_init: bool = False):
        if zero_init:
            self.weight = Tensor(np.zeros((n_in, n_out)), requires_grad=True)
        else:
            self.weight = _uniform_init(rng, (n_in, n_out), n_in)
        self.bias = None
        if bias:
            init = np.zeros(n_out) if zero_init else None
            self.bias = (Tensor(init, requires_grad=True) if init is not None
                         else _uniform_init(rng, (n_out,), n_in))

    def forward(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv1d(Module):
    """Strided 1D convolution with explicit symmetric zero padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1,
                 padding: int = 0, rng: np.random.Generator | None = None, bias: bool = True):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = c_in * kernel
        self.weight = _uniform_init(rng, (c_out, c_in, kernel), fan_in)
        self.bias = _uniform_init(rng, (c_out, 1), fan_in) if bias else None

    def out_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel) // self.stride + 1

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(f"Conv1d({self.c_in}->{self.c_out}): bad input shape {x.shape}")
        if self.padding:
            x = x.pad_axis(2, self.padding, self.padding)
        cols = unfold1d(x, self.kernel, self.stride)
        w2 = self.weight.reshape((self.c_out, self.c_in * self.kernel))
        out = matmul(w2, cols)
        if self.bias is not None:
            out = out + self.bias
        return out


class ConvTranspose1d(Module):
    """Transposed 1D convolution: L_out = (L_in - 1) * stride + kernel - 2 * padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 padding: int = 0, rng: np.random.Generator | None = None, bias: bool = True):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = c_in * kernel
        self.weight = _uniform_init(rng, (c_in, c_out, kernel), fan_in)
        self.bias = _uniform_init(rng, (c_out, 1), fan_in) if bias else None

    def out_length(self, length: int) -> int:
        return (length - 1) * self.stride + self.kernel - 2 * self.padding

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(
                f"ConvTranspose1d({self.c_in}->{self.c_out}): bad input shape {x.shape}")
        length = x.shape[2]
        w2 = self.weight.reshape((self.c_in, self.c_out * self.kernel)).swapaxes(0, 1)
        cols = matmul(w2, x)                                   # (B, c_out*kernel, L)
        full = fold1d(cols, (length - 1) * self.stride + self.kernel,
                      self.kernel, self.stride)
        out_len = self.out_length(length)
        if out_len < 1:
            raise ValueError("transposed conv output length < 1")
        out = full.narrow(2, self.padding, out_len)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.num_embeddings = num_embeddings
        self.weight = Tensor(rng.standard_normal((num_embeddings, dim)), requires_grad=True)

    def forward(self, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise ValueError(f"embedding index out of range [0, {self.num_embeddings})")
        return gather_rows(self.weight, idx)


class GroupNorm(Module):
    def __init__(self, groups: int, channels: int, eps: float = 1e-5):
        if channels % groups != 0:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.groups, self.channels, self.eps = groups, channels, eps
        self.gamma = Tensor(np.ones((1, channels, 1)), requires_grad=True)
        self.beta = Tensor(np.zeros((1, channels, 1)), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        b, c, length = x.shape
        if c != self.channels:
            raise ValueError(f"GroupNorm({self.channels}): got {c} channels")
        xg = x.reshape((b, self.groups, c // self.groups, length))
        mu = xg.mean(axis=(2, 3), keepdims=True)
        var = ((xg - mu) ** 2).mean(axis=(2, 3), keepdims=True)
        norm = (xg - mu) / ((var + self.eps).sqrt())
        return norm.reshape((b, c, length)) * self.gamma + self.beta


def film(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine modulation gamma * h + beta, broadcast over time."""
    b, c = gamma.shape[0], gamma.shape[1]
    return h * gamma.reshape((b, c, 1)) + beta.reshape((b, c, 1))


def global_avg_pool1d(x: Tensor) -> Tensor:
    """(B, C, L) -> (B, C), mean over time."""
    return x.mean(axis=2)
