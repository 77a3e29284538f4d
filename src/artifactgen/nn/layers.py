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

Conv1d, ConvTranspose1d and GroupNorm each record one tape node, whose vjp
holds only the layer's input and parameters (GroupNorm's also its per-group
statistics); no node holds a layer's output. The convolutions' vjps rebuild
their im2col frames with tape primitives, so a backward pass with
``create_graph=True`` still differentiates through them.
Each weight gradient is one flat GEMM over the whole batch, on batch-flat
frames (C*k, B*L) of the input (Conv1d) or of the output gradient
(ConvTranspose1d), a gather that copies whole time rows. GroupNorm includes
the SiLU that follows it everywhere it is used, and is off the critic's path:
its vjp recomputes the activation in numpy, is first-order only, and raises
under ``create_graph=True``.
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

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(f"Conv1d({self.c_in}->{self.c_out}): bad input shape {x.shape}")
        weight, bias = self.weight, self.bias
        k, s, p = self.kernel, self.stride, self.padding
        w2_shape = (self.c_out, self.c_in * k)
        with no_grad():
            cols = _unfold(x, k, s, p)
        data = weight.data.reshape(w2_shape) @ cols.data
        data += bias.data

        def vjp(g):
            gx = gw = None
            w2 = weight.reshape(w2_shape)
            if weight.requires_grad:
                # one GEMM over the whole batch; run before gx, as that lowers peak RSS
                g_t = g.swapaxes(1, 2).reshape((-1, w2_shape[0]))
                gw = matmul(_unfold(x, k, s, p, batch_flat=True), g_t)
                gw = gw.swapaxes(0, 1).reshape(weight.shape)
            if x.requires_grad:
                gx = _fold(matmul(w2.swapaxes(-1, -2), g), x.shape[2], k, s, p)
            return gx, gw, _unbroadcast(g, bias.shape)

        return Tensor._result(data, (x, weight, bias), vjp, "conv1d")


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

    One tape node whose vjp holds only its input and the per-group
    statistics; the SiLU is part of the layer. Its vjp computes in numpy and
    is first-order only: a backward pass through it with
    ``create_graph=True`` raises.
    """

    def __init__(self, groups: int, channels: int):
        if channels % groups != 0:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.groups, self.channels = groups, channels
        self.gamma = _param(np.ones((1, channels, 1)))
        self.beta = _param(np.zeros((1, channels, 1)))

    def forward(self, x: Tensor) -> Tensor:
        b, c, length = x.shape
        if c != self.channels:
            raise ValueError(f"GroupNorm({self.channels}): got {c} channels")
        gamma, beta = self.gamma, self.beta
        grouped = (b, self.groups, c // self.groups, length)
        count = grouped[2] * length
        gamma_g = gamma.data.reshape(grouped[1:3] + (1,))                 # (G, C/G, 1)
        beta_g = beta.data.reshape(grouped[1:3] + (1,))
        xg = x.data.reshape(grouped)
        mean = xg.mean(axis=(2, 3), keepdims=True)                       # (B, G, 1, 1)
        # x - mean, centred a second time by its own mean, which removes the
        # rounding error of the mean (about eps * |mean|); folded into one
        # shift, that error would cost digits in proportion to |mean| / std
        y = xg - mean
        y -= y.mean(axis=(2, 3), keepdims=True)
        var = np.einsum("bgct,bgct->bg", y, y)[:, :, None, None] * (1.0 / count)
        rstd = 1.0 / np.sqrt(var + GROUP_NORM_EPS)

        # gamma * xhat + beta as one per-(b, c) scale and a shift, then the SiLU
        scale = gamma_g * rstd                                           # (B, G, C/G, 1)
        y *= scale
        y += beta_g
        y *= _sigmoid(y)

        def vjp(g):
            # Wu & He 2018 for the normalization, behind the SiLU's
            # dy = g * s * (1 + y * (1 - s)). Per group, with dxhat = dy * gamma,
            # dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)); both
            # means, dgamma and dbeta come from the per-(b, c) sums over time
            # of dy and dy * xc. The vjp works from the forward's twice-centred
            # xc; uncentred, those terms cancel and lose digits in proportion
            # to |mean| / std.
            _first_order_only("group_norm")
            xc = xg - mean
            xc -= xc.mean(axis=(2, 3), keepdims=True)
            dy = xc * scale
            dy += beta_g
            s = _sigmoid(dy)
            ys = dy * s
            dy -= ys
            dy += 1.0
            dy *= s
            dy *= g.data.reshape(grouped)
            dy_sum = dy.sum(axis=3, keepdims=True)                          # (B, G, C/G, 1)
            dy_xhat_sum = np.einsum("bgct,bgct->bgc", dy, xc)[..., None] * rstd
            dgamma = dy_xhat_sum.sum(axis=0).reshape(gamma.shape)
            dbeta = dy_sum.sum(axis=0).reshape(beta.shape)
            dx = None
            if x.requires_grad:
                m1 = (dy_sum * gamma_g).sum(axis=2, keepdims=True) * (1.0 / count)
                m2 = (dy_xhat_sum * gamma_g).sum(axis=2, keepdims=True) * (1.0 / count)
                # dx = scale * dy - rstd^2 * m2 * (x - mean) - rstd * m1
                np.multiply(xc, -(rstd * rstd * m2), out=ys)
                ys -= rstd * m1
                dy *= scale
                dy += ys
                dx = Tensor(dy.reshape(b, c, length))
            return dx, Tensor(dgamma), Tensor(dbeta)

        return Tensor._result(y.reshape(b, c, length), (x, gamma, beta), vjp, "group_norm")


def film(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine modulation gamma * h + beta, broadcast over time."""
    b, c = gamma.shape[0], gamma.shape[1]
    return h * gamma.reshape((b, c, 1)) + beta.reshape((b, c, 1))
