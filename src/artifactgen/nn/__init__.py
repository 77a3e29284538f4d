"""Reverse-mode autodiff engine, layers, optimizers and checkpointing."""

from .tensor import (
    Tensor,
    backward,
    concat,
    gather_rows,
    grad,
    leaky_relu,
    matmul,
    no_grad,
    silu,
)
from .layers import (
    Conv1d,
    ConvTranspose1d,
    Embedding,
    GroupNorm,
    Linear,
    Module,
    film,
)
from .optim import Adam, EmaShadow
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "backward", "grad", "no_grad",
    "concat", "matmul", "leaky_relu", "silu", "gather_rows",
    "Module", "Linear", "Conv1d", "ConvTranspose1d", "Embedding", "GroupNorm",
    "film",
    "Adam", "EmaShadow",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
]
