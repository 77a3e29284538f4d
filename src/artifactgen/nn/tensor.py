"""Reverse-mode automatic differentiation over numpy arrays.

Every operation records a node on the implicit tape: its parents' nodes, a
vjp closure and its op name. Crucially, the vjp closures are themselves
written in terms of these primitive operations, so a backward pass executed
with ``create_graph=True`` builds a new differentiable graph - this is what
lets the gradient-penalty loss backpropagate through an input gradient.
The exception is a vjp that computes in plain numpy, for a layer off the
critic's path (`nn.layers.GroupNorm`): it raises under ``create_graph=True``
rather than return a gradient that the new graph would treat as a constant.

A node holds no array, and a leaf tensor is its own node. A vjp closure holds
the input tensors whose values its rule reads (a rule that needs the output -
tanh, sigmoid, sqrt, div - recomputes it from them) and only the shapes of
the rest, so an array lives only while user code or a vjp that reads it holds
it. A graph can be backpropagated once unless ``create_graph=True``: a plain
backward pass releases each node's vjp and parents as soon as it has run,
so the tape is freed while the walk goes on, and a second pass through the
released graph raises. A tape that is dropped without a backward pass is
freed by reference counting alone, and under `no_grad` no node is stored.

Values are float64 or float32. A tensor keeps a float32 array as float32 and
stores anything else as float64, and every op computes in the dtype of its
inputs: a Python scalar operand takes the dtype of the tensor it meets. So a
module whose parameters are float32 runs its forward and backward in float32
(sampling, and the training twins), while optimizer state and checkpoints
stay float64. The piecewise-linear leaky_relu uses its almost-everywhere
derivative in second-order passes.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "grad",
    "concat",
    "matmul",
    "leaky_relu",
    "silu",
    "gather_rows",
]

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """A non-leaf result's tape record: parents' nodes, vjp and op; no array."""

    __slots__ = ("_parents", "_vjp", "op")
    requires_grad = True

    def __init__(self, parents: tuple, vjp, op: str):
        self._parents, self._vjp, self.op = parents, vjp, op


class Tensor:
    """A float64 or float32 array with optional derivative tracking; see the
    module docstring for the dtype rule."""

    __slots__ = ("data", "requires_grad", "grad", "_node")
    _parents, _vjp, op = (), None, "leaf"   # a leaf tensor is its own tape node

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        self.data = arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Tensor | None = None
        self._node: _Node | None = None

    # ---- construction -----------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], vjp, op: str) -> "Tensor":
        """``data`` with a tape node over ``parents`` when grad is on and one of
        them requires it; ``vjp`` returns one gradient (or None) per parent."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        out._node = (_Node(tuple(p._node or p for p in parents), vjp, op)
                     if out.requires_grad else None)
        return out

    # ---- basic introspection ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={(self._node or self).op}{grad_tag})"

    # ---- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other, self)
        sa, sb = a.data.shape, b.data.shape
        return Tensor._result(a.data + b.data, (a, b), lambda g: (
            _unbroadcast(g, sa), _unbroadcast(g, sb)), "add")

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _as_tensor(other, self)
        sa, sb = a.data.shape, b.data.shape
        return Tensor._result(a.data - b.data, (a, b), lambda g: (
            _unbroadcast(g, sa), _unbroadcast(-g, sb)), "sub")

    def __rsub__(self, other):
        return _as_tensor(other, self) - self

    def __mul__(self, other):
        a, b = self, _as_tensor(other, self)
        data = a.data * b.data
        return Tensor._result(data, (a, b), lambda g: (
            _unbroadcast(g * b, a.data.shape), _unbroadcast(g * a, b.data.shape)), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _as_tensor(other, self)
        return Tensor._result(a.data / b.data, (a, b), lambda g: (
            _unbroadcast(g / b, a.data.shape),
            _unbroadcast(-(g * (a / b)) / b, b.data.shape)), "div")

    def __rtruediv__(self, other):
        return _as_tensor(other, self) / self

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: (-g,), "neg")

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant exponents are supported")
        a = self
        data = a.data ** p
        return Tensor._result(
            data, (a,), lambda g: (g * (p * a ** (p - 1.0)),), "pow")

    # ---- elementwise functions ----------------------------------------------

    def sqrt(self):
        return Tensor._result(np.sqrt(self.data), (self,),
                              lambda g: (g / (self.sqrt() * 2.0),), "sqrt")

    def tanh(self):
        def vjp(g):
            out = self.tanh()
            return (g * (1.0 - out * out),)

        return Tensor._result(np.tanh(self.data), (self,), vjp, "tanh")

    def sigmoid(self):
        def vjp(g):
            out = self.sigmoid()
            return (g * (out * (1.0 - out)),)

        return Tensor._result(_sigmoid(self.data), (self,), vjp, "sigmoid")

    # ---- reductions / shape ---------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = np.sum(self.data, axis=axis, keepdims=True)
        kept, shape = data.shape, self.data.shape
        return Tensor._result(data if keepdims else data.squeeze(axis), (self,),
                              lambda g: (g.reshape(kept).broadcast_to(shape),), "sum")

    def mean(self, axis=None, keepdims: bool = False):
        total = self.sum(axis=axis, keepdims=keepdims)
        return total * (1.0 / float(self.data.size // total.data.size))

    def reshape(self, shape):
        old = self.data.shape
        return Tensor._result(self.data.reshape(shape), (self,),
                              lambda g: (g.reshape(old),), "reshape")

    def swapaxes(self, a1: int, a2: int):
        a = self
        return Tensor._result(np.ascontiguousarray(a.data.swapaxes(a1, a2)), (a,),
                              lambda g: (g.swapaxes(a1, a2),), "swapaxes")

    def broadcast_to(self, shape):
        old = self.data.shape
        if old == tuple(shape):
            return self
        data = np.ascontiguousarray(np.broadcast_to(self.data, shape))
        return Tensor._result(data, (self,), lambda g: (_unbroadcast(g, old),), "broadcast")

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice [start, start+length) along one axis."""
        a = self
        axis = axis % a.data.ndim
        total = a.data.shape[axis]
        if not (0 <= start and start + length <= total):
            raise ValueError(f"narrow [{start}, {start + length}) outside axis of size {total}")
        idx = tuple(slice(None) if i != axis else slice(start, start + length)
                    for i in range(a.data.ndim))
        data = np.ascontiguousarray(a.data[idx])
        return Tensor._result(
            data, (a,),
            lambda g: (g.pad_axis(axis, start, total - start - length),), "narrow")

    def pad_axis(self, axis: int, before: int, after: int):
        """Zero-pad along one axis."""
        a = self
        axis = axis % a.data.ndim
        width = [(0, 0)] * a.data.ndim
        width[axis] = (before, after)
        data = np.pad(a.data, width)
        length = a.data.shape[axis]
        return Tensor._result(
            data, (a,), lambda g: (g.narrow(axis, before, length),), "pad")


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a Tensor; a Python scalar meeting ``like`` takes its dtype, as a
    weak scalar does in numpy, so a float32 operand is not promoted."""
    if isinstance(x, Tensor):
        return x
    if like is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    if g.data.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.data.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---- n-ary / structural primitives -------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """numpy ``@`` semantics for stacks of matrices (ndim >= 2 on both sides)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires ndim >= 2 on both operands")
    data = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(matmul(g, b.swapaxes(-1, -2)), a.data.shape)
        gb = _unbroadcast(matmul(a.swapaxes(-1, -2), g), b.data.shape)
        return ga, gb

    return Tensor._result(data, (a, b), vjp, "matmul")


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % tensors[0].data.ndim
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g):
        return tuple(g.narrow(ax, int(offsets[i]), sizes[i]) for i in range(len(sizes)))

    return Tensor._result(data, tuple(tensors), vjp, "concat")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """max(x, slope * x), which is leaky ReLU for 0 <= slope <= 1 only. The vjp
    rebuilds the slope mask from the saved input, so no mask is kept."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
    x = _as_tensor(x)

    def vjp(g):
        mask = np.where(x.data >= 0.0, 1.0, slope).astype(x.data.dtype, copy=False)
        return (g * Tensor(mask),)

    return Tensor._result(np.maximum(x.data, slope * x.data), (x,), vjp, "leaky_relu")


def _sigmoid(y: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-y)) in a single new array of y's dtype. exp(-y) overflows
    to inf for y below about -88.7 in float32 (-709 in float64), which gives
    the right limit 0, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        s = np.exp(-y)
    s += 1.0
    return np.reciprocal(s, out=s)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) as one node; its vjp recomputes the sigmoid from x."""
    x = _as_tensor(x)
    data = x.data * _sigmoid(x.data)

    def vjp(g):
        s = x.sigmoid()
        return (g * (s * (1.0 + x * (1.0 - s))),)

    return Tensor._result(data, (x,), vjp, "silu")


def _unfold(x: Tensor, size: int, stride: int, pad: int, batch_flat: bool = False) -> Tensor:
    """Sliding frames of ``x`` (B, C, L) zero-padded by ``pad`` at both ends, in
    one gather: (B, C*size, F), row c*size + k of frame f holding the padded
    x[b, c, f*stride + k]; with ``batch_flat``, (C*size, B*F), column b*F + f."""
    b, c, length = x.data.shape
    if size > length + 2 * pad:
        raise ValueError(f"frame size {size} exceeds length {length + 2 * pad}")
    frames = (length + 2 * pad - size) // stride + 1
    padded = np.zeros((b, c, length + 2 * pad), dtype=x.data.dtype)
    padded[:, :, pad: pad + length] = x.data
    sb, sc, st = padded.strides
    if batch_flat:
        view = as_strided(padded, (c, size, b, frames), (sc, st, sb, stride * st))
        data = np.ascontiguousarray(view).reshape(c * size, b * frames)
    else:
        view = as_strided(padded, (b, c, size, frames), (sb, sc, st, stride * st))
        data = np.ascontiguousarray(view).reshape(b, c * size, frames)

    def vjp(g):
        g = g.reshape((c * size, b, frames)).swapaxes(0, 1) if batch_flat else g
        return (_fold(g, length, size, stride, pad),)

    return Tensor._result(data, (x,), vjp, "unfold")


def _fold(cols: Tensor, out_len: int, size: int, stride: int, pad: int) -> Tensor:
    """Adjoint of :func:`_unfold`: scatter-add the frames of ``cols``
    (B, C*size, F) onto ``out_len + 2*pad`` samples, cropped to the middle
    ``out_len``. Each tap adds only the frames that land inside the crop,
    straight into the ``out_len`` samples."""
    b, rows, frames = cols.data.shape
    taps = cols.data.reshape(b, rows // size, size, frames)
    out = np.zeros((b, rows // size, out_len), dtype=cols.data.dtype)
    for k in range(size):
        # frame f lands on sample k + stride*f - pad
        first = max(0, -((k - pad) // stride))
        last = min(frames - 1, (out_len - 1 + pad - k) // stride)
        if first <= last:
            start = k + stride * first - pad
            out[:, :, start: start + stride * (last - first) + 1: stride] += \
                taps[:, :, k, first: last + 1]
    return Tensor._result(out, (cols,),
                          lambda g: (_unfold(g, size, stride, pad),), "fold")


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup table[idx] for an integer index array (embedding forward)."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise TypeError("gather_rows needs integer indices")
    rows = table.data.shape[0]
    return Tensor._result(table.data[idx], (table,),
                          lambda g: (_scatter_rows(g, idx, rows),), "gather")


def _scatter_rows(g: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    out = np.zeros((num_rows,) + g.data.shape[len(idx.shape):], dtype=g.data.dtype)
    np.add.at(out, idx, g.data)
    return Tensor._result(out, (g,), lambda g2: (gather_rows(g2, idx),), "scatter")


# ---- backward machinery -------------------------------------------------------


def _topo_order(root: _Node | Tensor) -> list[_Node | Tensor]:
    order: list[_Node | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order  # parents precede consumers


def _first_order_only(op: str) -> None:
    """Raise inside a numpy-level vjp when the backward pass records a graph
    (``create_graph=True``): such a vjp's result is not differentiable."""
    if _grad_enabled:
        raise RuntimeError(f"{op} is differentiable once only: its vjp computes in "
                           f"numpy, so it cannot be backpropagated with create_graph=True")


def _released(g):
    raise RuntimeError("this graph was already backpropagated and released; "
                       "backpropagate with create_graph=True to walk it again")


def _backprop(root: Tensor, create_graph: bool,
              inputs: list[Tensor] | None = None) -> tuple[list[Tensor], list[Tensor | None]]:
    """Walk the tape back from a scalar root; return ``inputs`` (by default the
    leaves the root depends on) with their gradients, None where untouched.

    A node's gradient is dropped once its vjp has run, unless it is the node
    of one of ``inputs``. Without ``create_graph`` the node's vjp and parents
    are released too, so what its vjp saved is freed as the walk goes on.
    """
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return list(inputs or ()), [None] * len(inputs or ())
    order = _topo_order(root._node or root)
    if inputs is None:
        inputs = [node for node in order if node._vjp is None]
    keep = {id(t._node or t) for t in inputs}
    grads: dict[int, Tensor] = {id(root._node or root): Tensor(np.ones_like(root.data))}

    with nullcontext() if create_graph else no_grad():
        while order:
            node = order.pop()
            vjp, parents = node._vjp, node._parents
            if vjp is None:
                continue
            if not create_graph:
                node._vjp, node._parents = _released, ()
            g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else held + pg
    return inputs, [grads.get(id(t._node or t)) for t in inputs]


def backward(loss: Tensor, create_graph: bool = False) -> None:
    """Backpropagate from a scalar loss, accumulating ``.grad`` on leaf tensors."""
    for leaf, g in zip(*_backprop(loss, create_graph)):
        if g is not None:
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def grad(output: Tensor, inputs: list[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar output w.r.t. ``inputs`` (zeros for untouched ones)."""
    inputs, grads = _backprop(output, create_graph, inputs)
    return [g if g is not None else Tensor(np.zeros_like(t.data))
            for t, g in zip(inputs, grads)]

