"""Neural-network layers on top of the autodiff tensor: 1D convolutions,
linear/embedding layers, group normalization fused with SiLU, and FiLM.

Convolutions use explicit symmetric zero padding; transposed convolutions
follow L_out = (L_in - 1) * stride + kernel - 2 * padding. Weights initialize
uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)] from the supplied generator, so
construction order plus seed fully determines the parameters; without a
generator (``rng=None``) they are left uninitialised, for a net whose every
parameter `Module.load_state` will overwrite. A layer's
parameters are parameters whatever the grad mode it is built in. They are
float64; `Module.astype` converts them to float32, and every layer then
computes in float32 (the dtype rule of `nn.tensor`). Sampling runs float32
nets, and training float32 twins of the float64 master nets.

Conv1d and ConvTranspose1d each record one tape node, whose vjp holds only
the layer's input and parameters; no node holds a layer's output. GroupNorm
records none: `Conv1d.forward(x, norm)` runs the norm before it, and its
node holds the norm's input and per-group statistics too and recomputes the
activation in its vjp. The convolutions' vjps rebuild their im2col frames
with tape primitives, so a backward pass with ``create_graph=True`` still
differentiates through them. Each weight gradient is one flat GEMM over the
batch, on batch-flat frames (C*k, B*L) of the input (Conv1d) or of the
output gradient (ConvTranspose1d), a gather that copies whole time rows.
GroupNorm includes the SiLU after it and is off the critic's path: its
backward computes in numpy, is first-order only, and raises under
``create_graph=True``.
"""

from __future__ import annotations

import numpy as np

from .tensor import (Tensor, _first_order_only, _fold, _sigmoid, _unbroadcast, _unfold,
                     gather_rows, matmul, no_grad)

__all__ = [
    "Module",
    "Linear",
    "Conv1d",
    "ConvTranspose1d",
    "Embedding",
    "GroupNorm",
    "film",
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
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype) -> "Module":
        """Convert every parameter to ``dtype`` (float32 or float64) in place, so
        that `forward` computes in it; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

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


def _param(data: np.ndarray) -> Tensor:
    """A layer parameter: it requires grad whatever the grad mode it is built
    in, so a module built under `no_grad` still has its parameters."""
    p = Tensor(data)
    p.requires_grad = True
    return p


def _uniform_init(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    if rng is None:
        return _param(np.empty(shape))
    bound = 1.0 / np.sqrt(fan_in)
    return _param(rng.uniform(-bound, bound, size=shape))


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None,
                 bias: bool = True, zero_init: bool = False):
        if zero_init:
            self.weight = _param(np.zeros((n_in, n_out)))
        else:
            self.weight = _uniform_init(rng, (n_in, n_out), n_in)
        self.bias = None
        if bias:
            self.bias = (_param(np.zeros(n_out)) if zero_init
                         else _uniform_init(rng, (n_out,), n_in))

    def forward(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv1d(Module):
    """Strided 1D convolution with explicit symmetric zero padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1,
                 padding: int = 0, rng: np.random.Generator | None = None):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = c_in * kernel
        self.weight = _uniform_init(rng, (c_out, c_in, kernel), fan_in)
        self.bias = _uniform_init(rng, (c_out, 1), fan_in)

    def out_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel) // self.stride + 1

    def forward(self, x: Tensor, norm: GroupNorm | None = None) -> Tensor:
        """The convolution of ``x`` or, given ``norm``, of norm(x): then one node
        that holds x and the norm's statistics, and recomputes norm(x) in its vjp."""
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(f"Conv1d({self.c_in}->{self.c_out}): bad input shape {x.shape}")
        weight, bias = self.weight, self.bias
        k, s, p = self.kernel, self.stride, self.padding
        w2_shape = (self.c_out, self.c_in * k)
        with no_grad():
            a, stats = (x, None) if norm is None else norm(x)
            cols = _unfold(a, k, s, p)
        data = weight.data.reshape(w2_shape) @ cols.data
        data += bias.data

        def vjp(g):
            gx = gw = None
            rec = None if norm is None else norm._recompute(x, stats)
            a = x if rec is None else Tensor(rec[3].reshape(x.shape))
            w2 = weight.reshape(w2_shape)
            if weight.requires_grad:
                # one GEMM over the whole batch; run before gx, as that lowers peak RSS
                g_t = g.swapaxes(1, 2).reshape((-1, w2_shape[0]))
                gw = matmul(_unfold(a, k, s, p, batch_flat=True), g_t)
                gw = gw.swapaxes(0, 1).reshape(weight.shape)
            if x.requires_grad or rec is not None:
                gx = _fold(matmul(w2.swapaxes(-1, -2), g), x.shape[2], k, s, p)
            gx_and_norm = (gx,) if rec is None else norm._backward(x, stats, rec, gx)
            return *gx_and_norm, gw, _unbroadcast(g, bias.shape)

        parents = (x,) + (() if norm is None else (norm.gamma, norm.beta)) + (weight, bias)
        return Tensor._result(data, parents, vjp, "conv1d")


class ConvTranspose1d(Module):
    """Transposed 1D convolution: L_out = (L_in - 1) * stride + kernel - 2 * padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 padding: int = 0, rng: np.random.Generator | None = None):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = c_in * kernel
        self.weight = _uniform_init(rng, (c_in, c_out, kernel), fan_in)
        self.bias = _uniform_init(rng, (c_out, 1), fan_in)

    def out_length(self, length: int) -> int:
        return (length - 1) * self.stride + self.kernel - 2 * self.padding

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(
                f"ConvTranspose1d({self.c_in}->{self.c_out}): bad input shape {x.shape}")
        out_len = self.out_length(x.shape[2])
        if out_len < 1:
            raise ValueError("transposed conv output length < 1")
        weight, bias = self.weight, self.bias
        k, s, p = self.kernel, self.stride, self.padding
        w2_shape = (self.c_in, self.c_out * k)
        with no_grad():
            w2t = weight.reshape(w2_shape).swapaxes(0, 1)
            out = _fold(Tensor(w2t.data @ x.data), out_len, k, s, p)   # (B, c_out, out_len)
        data = out.data
        data += bias.data

        def vjp(g):
            gx = gw = None
            if x.requires_grad:
                gx = matmul(weight.reshape(w2_shape), _unfold(g, k, s, p))
            if weight.requires_grad:
                frames = _unfold(g, k, s, p, batch_flat=True)          # (c_out*k, B*L)
                x_t = x.swapaxes(1, 2).reshape((-1, w2_shape[0]))
                gw = matmul(frames, x_t).swapaxes(0, 1).reshape(weight.shape)
            return gx, gw, _unbroadcast(g, bias.shape)

        return Tensor._result(data, (x, weight, bias), vjp, "conv_transpose1d")


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator | None):
        self.num_embeddings = num_embeddings
        shape = (num_embeddings, dim)
        self.weight = _param(np.empty(shape) if rng is None else rng.standard_normal(shape))

    def forward(self, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise ValueError(f"embedding index out of range [0, {self.num_embeddings})")
        return gather_rows(self.weight, idx)


# added to each group's variance before the square root
GROUP_NORM_EPS = 1e-5


class GroupNorm(Module):
    """Group normalization followed by SiLU: ``silu(gamma * xhat + beta)``.

    No tape node of its own: the node of `Conv1d.forward(x, norm)` holds its
    input and statistics and rebuilds the activation with `_recompute`.
    """

    def __init__(self, groups: int, channels: int):
        if channels % groups != 0:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.groups, self.channels = groups, channels
        self.gamma = _param(np.ones((1, channels, 1)))
        self.beta = _param(np.zeros((1, channels, 1)))

    def forward(self, x: Tensor) -> tuple[Tensor, tuple]:
        """The activation, off the tape, and its per-group (mean, rstd)."""
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ValueError(f"GroupNorm({self.channels}): bad input shape {x.shape}")
        xg = self._grouped(x.data)
        mean = xg.mean(axis=(2, 3), keepdims=True)                       # (B, G, 1, 1)
        # x - mean, centred a second time by its own mean, which removes the
        # rounding error of the mean (about eps * |mean|); folded into one
        # shift, that error would cost digits in proportion to |mean| / std
        y = xg - mean
        y -= y.mean(axis=(2, 3), keepdims=True)
        var = np.einsum("bgct,bgct->bg", y, y)[:, :, None, None] * (1.0 / xg[0, 0].size)
        stats = (mean, 1.0 / np.sqrt(var + GROUP_NORM_EPS))
        # gamma * xhat + beta as one per-(b, c) scale and a shift, then the SiLU
        y *= self._grouped(self.gamma.data)[0] * stats[1]
        y += self._grouped(self.beta.data)[0]
        y *= _sigmoid(y)
        return Tensor(y.reshape(x.shape)), stats

    def _grouped(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[0], self.groups, -1, a.shape[2])

    def _recompute(self, x: Tensor, stats: tuple) -> tuple[np.ndarray, ...]:
        """The forward's (B, G, C/G, L) arrays by its ops: xc, z, sigmoid(z), z * sigmoid(z)."""
        _first_order_only("group_norm")
        xc = self._grouped(x.data) - stats[0]
        xc -= xc.mean(axis=(2, 3), keepdims=True)
        z = xc * (self._grouped(self.gamma.data)[0] * stats[1])
        z += self._grouped(self.beta.data)[0]
        s = _sigmoid(z)
        return xc, z, s, z * s

    def _backward(self, x: Tensor, stats: tuple, rec: tuple, g: Tensor) -> tuple:
        """Gradients of x, gamma and beta from g and `_recompute`'s arrays, which it reuses."""
        # Wu & He 2018 for the normalization, behind the SiLU's
        # dy = g * s * (1 + z * (1 - s)). Per group, with dxhat = dy * gamma,
        # dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)); both
        # means, dgamma and dbeta come from the per-(b, c) sums over time
        # of dy and dy * xc. The vjp works from the forward's twice-centred
        # xc; uncentred, those terms cancel and lose digits in proportion
        # to |mean| / std.
        (_, rstd), (xc, dy, s, ys) = stats, rec
        gamma_g = self._grouped(self.gamma.data)[0]                      # (G, C/G, 1)
        dy -= ys
        dy += 1.0
        dy *= s
        dy *= self._grouped(g.data)
        dy_sum = dy.sum(axis=3, keepdims=True)                          # (B, G, C/G, 1)
        dy_xhat_sum = np.einsum("bgct,bgct->bgc", dy, xc)[..., None] * rstd
        dgamma = dy_xhat_sum.sum(axis=0).reshape(self.gamma.shape)
        dbeta = dy_sum.sum(axis=0).reshape(self.beta.shape)
        dx = None
        if x.requires_grad:
            m1 = (dy_sum * gamma_g).sum(axis=2, keepdims=True) * (1.0 / xc[0, 0].size)
            m2 = (dy_xhat_sum * gamma_g).sum(axis=2, keepdims=True) * (1.0 / xc[0, 0].size)
            # dx = scale * dy - rstd^2 * m2 * (x - mean) - rstd * m1
            np.multiply(xc, -(rstd * rstd * m2), out=ys)
            ys -= rstd * m1
            dy *= gamma_g * rstd
            dy += ys
            dx = Tensor(dy.reshape(x.shape))
        return dx, Tensor(dgamma), Tensor(dbeta)


def film(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine modulation gamma * h + beta, broadcast over time."""
    b, c = gamma.shape[0], gamma.shape[1]
    return h * gamma.reshape((b, c, 1)) + beta.reshape((b, c, 1))
