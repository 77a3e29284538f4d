"""Autodiff engine: every primitive against central finite differences,
double backprop through input gradients, and graph bookkeeping: a backward
pass releases the tape it walks, a dropped tape is never cyclic garbage, and
the tape keeps an array alive only while a vjp reads it."""

import gc
import weakref

import numpy as np
import pytest

from artifactgen.diffusion import ResBlock
from artifactgen.nn import (
    Conv1d,
    ConvTranspose1d,
    GroupNorm,
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
from artifactgen.nn.tensor import _fold, _unfold


def numeric_grad(f, arrays, h=1e-5):
    """Central finite differences of scalar f(arrays) w.r.t. every entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(build, arrays, rtol=1e-4, atol=1e-7):
    """Compare autodiff gradients of scalar build(tensors) against FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    analytic = [g.data for g in grad(out, tensors)]

    def f(arrs):
        with no_grad():
            return build([Tensor(a) for a in arrs]).item()

    numeric = numeric_grad(f, [a.copy() for a in arrays])
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, rtol=rtol, atol=atol), f"analytic {a}\nnumeric {n}"


RNG = np.random.default_rng(42)


class TestBasics:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        backward(x * x)
        assert x.grad.data == 6.0

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_disconnected_parameter_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        w = Tensor(5.0, requires_grad=True)
        (gx, gw) = grad(x * x, [x, w])
        assert gx.data == 4.0 and gw.data == 0.0

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        backward(x * x)
        backward(x * x * x)
        assert x.grad.data == 4.0 + 12.0

    def test_no_grad_blocks_recording(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad


class TestPrimitiveGradients:
    def test_elementwise_binary(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((3, 4)) + 3.0
        check_grads(lambda t: (t[0] + t[1] * t[0] - t[1] / t[0]).sum(),
                    [a + 5.0, b])

    def test_broadcasting(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((3, 1))
        check_grads(lambda t: (t[0] * t[1] + t[1]).sum(), [a, b])

    def test_unary_chain(self):
        a = RNG.uniform(0.5, 2.0, size=(5,))
        check_grads(lambda t: (t[0].sqrt() * t[0].tanh() + t[0].sigmoid()).sum(), [a])

    def test_pow_and_neg(self):
        a = RNG.uniform(0.5, 2.0, size=(4,))
        check_grads(lambda t: ((-t[0]) ** 3 + t[0] ** 0.5).sum(), [a])

    def test_leaky_relu_away_from_kink(self):
        a = np.array([-2.0, -0.5, 0.3, 1.7])
        check_grads(lambda t: (leaky_relu(t[0], 0.2) ** 2).sum(), [a])

    def test_leaky_relu_matches_mask_form_bit_for_bit(self):
        x = RNG.standard_normal((64, 40)) * np.where(RNG.random((64, 40)) < 0.05, 0.0, 1.0)
        for slope in (0.0, 0.2, 1.0):
            want = x * np.where(x >= 0.0, 1.0, slope)
            assert np.array_equal(leaky_relu(Tensor(x), slope).data, want)

    @pytest.mark.parametrize("slope", [-0.1, 1.5])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope must be in"):
            leaky_relu(Tensor(np.ones(3)), slope)

    def test_silu(self):
        a = RNG.standard_normal((5,))
        check_grads(lambda t: silu(t[0]).sum(), [a])

    def test_silu_is_one_node(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        out = silu(x)
        assert out._node.op == "silu" and out._node._parents == (x,)
        assert np.array_equal(out.data, (x * x.sigmoid()).data)

    def test_silu_second_order(self):
        """FD of a squared input-gradient norm through silu (the critic's
        gradient-penalty pattern), w.r.t. the input and a weight."""
        a = RNG.standard_normal((4,)) * 2.0
        w = RNG.standard_normal((4,))

        def penalty(arrs):
            x, wt = (Tensor(v, requires_grad=True) for v in arrs)
            (gx,) = grad((silu(x * wt) ** 2).sum(), [x], create_graph=True)
            return (gx * gx).sum(), [x, wt]

        out, tensors = penalty([a, w])
        analytic = [g.data for g in grad(out, tensors)]
        numeric = numeric_grad(lambda arrs: penalty(arrs)[0].item(), [a.copy(), w.copy()])
        for an, n in zip(analytic, numeric):
            assert np.allclose(an, n, rtol=1e-5, atol=1e-8), f"analytic {an}\nnumeric {n}"

    def test_reductions(self):
        """Over every axis form, with keepdims on and off: values equal numpy's
        sum, and the sum times 1/count, bit for bit; gradients pass first- and
        second-order finite differences."""
        a = RNG.standard_normal((3, 4, 2))
        w = RNG.standard_normal((3, 4, 2))
        check_grads(lambda t: t[0].sum(axis=2, keepdims=True).mean(), [a])
        for axis, count in ((None, 24), (1, 4), (-1, 2), ((0, 2), 6), ((-1, 0), 6)):
            for keepdims in (False, True):
                want = np.sum(a, axis=axis, keepdims=keepdims)
                for reduce, scale in (("sum", None), ("mean", 1.0 / count)):
                    case = f"{reduce}(axis={axis}, keepdims={keepdims})"
                    got = getattr(Tensor(a), reduce)(axis, keepdims).data
                    assert got.shape == want.shape, case
                    assert np.array_equal(got, want if scale is None else want * scale), case
                    check_grads(lambda t: (getattr(t[0], reduce)(axis, keepdims) ** 2).sum(),
                                [a])

                    def penalty(arrs):
                        x, wt = (Tensor(v, requires_grad=True) for v in arrs)
                        inner = (getattr((x * wt).tanh(), reduce)(axis, keepdims) ** 2).sum()
                        (gx,) = grad(inner, [x], create_graph=True)
                        return (gx * gx).sum(), [x, wt]

                    out, tensors = penalty([a, w])
                    analytic = [g.data for g in grad(out, tensors)]
                    numeric = numeric_grad(lambda arrs: penalty(arrs)[0].item(),
                                           [a.copy(), w.copy()])
                    for an, n in zip(analytic, numeric):
                        assert np.allclose(an, n, rtol=1e-5, atol=1e-8), case

    def test_shape_ops(self):
        a = RNG.standard_normal((2, 6))
        check_grads(lambda t: (t[0].reshape((3, 4)).swapaxes(0, 1) ** 2).sum(), [a])
        check_grads(lambda t: (t[0].broadcast_to((5, 2, 6)) ** 2).sum(), [a])

    def test_narrow_and_pad(self):
        a = RNG.standard_normal((2, 3, 8))
        check_grads(lambda t: (t[0].narrow(2, 2, 4) ** 2).sum(), [a])
        check_grads(lambda t: (t[0].pad_axis(2, 1, 3) ** 2).sum(), [a])

    def test_concat(self):
        a = RNG.standard_normal((2, 3))
        b = RNG.standard_normal((2, 5))
        check_grads(lambda t: (concat([t[0], t[1]], axis=1) ** 2).sum(), [a, b])

    def test_matmul_2d(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 2))
        check_grads(lambda t: (matmul(t[0], t[1]) ** 2).sum(), [a, b])

    def test_matmul_broadcast_batch(self):
        w = RNG.standard_normal((5, 12))
        x = RNG.standard_normal((2, 12, 3))
        check_grads(lambda t: (matmul(t[0], t[1]) ** 2).sum(), [w, x])

    def test_unfold_fold_adjoint_pair(self):
        x = RNG.standard_normal((2, 3, 10))
        for pad in (0, 3):
            frames = (10 + 2 * pad - 4) // 2 + 1
            check_grads(lambda t: (_unfold(t[0], 4, 2, pad) ** 2).sum(), [x])
            check_grads(lambda t: (_unfold(t[0], 4, 2, pad, batch_flat=True) ** 2).sum(), [x])
            cols = RNG.standard_normal((2, 3 * 4, frames))
            check_grads(lambda t: (_fold(t[0], 10, 4, 2, pad) ** 2).sum(), [cols])
            # exact adjointness: <unfold(x), y> == <x, fold(y)>
            y = RNG.standard_normal((2, 12, frames))
            lhs = float((_unfold(Tensor(x), 4, 2, pad).data * y).sum())
            rhs = float((x * _fold(Tensor(y), 10, 4, 2, pad).data).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)
            # the same for the batch-flat frames and their vjp, a fold
            y = RNG.standard_normal((12, 2 * frames))
            xt = Tensor(x, requires_grad=True)
            flat = _unfold(xt, 4, 2, pad, batch_flat=True)
            (gx,) = grad((flat * Tensor(y)).sum(), [xt])
            assert float((flat.data * y).sum()) == pytest.approx(float((x * gx.data).sum()),
                                                                 rel=1e-12)
            # batch-flat (C*k, B*F) and channel-major (B, C*k, F) hold the same frames
            assert np.array_equal(flat.data.reshape(3, 4, 2, frames),
                                  _unfold(Tensor(x), 4, 2, pad).data.reshape(2, 3, 4, frames)
                                  .transpose(1, 2, 0, 3))

    def test_batch_flat_frames_second_order(self):
        """FD of a squared input-gradient norm through the batch-flat frames
        and a weight (the gradient penalty's pattern), w.r.t. both."""
        x0 = RNG.standard_normal((2, 3, 10))
        w0 = RNG.standard_normal((2, 12))
        for pad in (0, 3):
            def penalty(arrs):
                x, w = (Tensor(v, requires_grad=True) for v in arrs)
                out = matmul(w, _unfold(x, 4, 2, pad, batch_flat=True)).tanh()
                (gx,) = grad((out * out).sum(), [x], create_graph=True)
                return (gx * gx).sum(), [x, w]

            out, tensors = penalty([x0, w0])
            analytic = [g.data for g in grad(out, tensors)]
            numeric = numeric_grad(lambda arrs: penalty(arrs)[0].item(), [x0.copy(), w0.copy()])
            for an, n in zip(analytic, numeric):
                assert np.allclose(an, n, rtol=1e-5, atol=1e-8), f"analytic {an}\nnumeric {n}"

    def test_gather_rows(self):
        table = RNG.standard_normal((6, 4))
        idx = np.array([0, 3, 3, 5])
        check_grads(lambda t: (gather_rows(t[0], idx) ** 2).sum(), [table])


def input_gradient(f, x: Tensor) -> Tensor:
    """Gradient of scalar ``f`` at ``x``, kept differentiable (as the penalty takes it)."""
    x = Tensor(x.data, requires_grad=True)
    (gx,) = grad(f(x), [x], create_graph=True)
    return gx


class TestInputGradient:
    def test_linear_critic_input_gradient_is_weight(self):
        w = Tensor(RNG.standard_normal(7), requires_grad=True)
        gx = input_gradient(lambda x: (w * x).sum(), Tensor(RNG.standard_normal(7)))
        assert np.allclose(gx.data, w.data, rtol=1e-12)

    def test_half_norm_squared_gradient_is_input(self):
        x = Tensor(RNG.standard_normal(5))
        gx = input_gradient(lambda t: (t * t).sum() * 0.5, x)
        assert np.allclose(gx.data, x.data, rtol=1e-12)

    def test_linear_penalty_closed_form(self):
        # f(x) = w.x, penalty (|w|-1)^2 -> dpenalty/dw = 2(|w|-1) w / |w|
        w_val = np.array([1.2, -0.8, 2.0])
        w = Tensor(w_val, requires_grad=True)
        gx = input_gradient(lambda x: (w * x).sum(), Tensor(np.ones(3)))
        penalty = ((gx * gx).sum().sqrt() - 1.0) ** 2
        backward(penalty)
        norm = np.linalg.norm(w_val)
        expected = 2.0 * (norm - 1.0) * w_val / norm
        assert np.allclose(w.grad.data, expected, rtol=1e-10)

    def test_double_backprop_matches_fd_on_two_layer_critic(self):
        # FD of the penalty scalar w.r.t. critic parameters at 1e-3 relative
        w1 = RNG.standard_normal((4, 6)) * 0.7
        b1 = RNG.standard_normal(6) * 0.1
        w2 = RNG.standard_normal((6, 1)) * 0.7
        x_in = RNG.standard_normal((3, 4))

        def build_penalty(tensors):
            tw1, tb1, tw2 = tensors
            xt = Tensor(x_in, requires_grad=True)
            score = matmul((matmul(xt, tw1) + tb1).tanh(), tw2).sum()
            (gx,) = grad(score, [xt], create_graph=True)
            norms = (gx * gx).sum(axis=1).sqrt()
            return ((norms - 1.0) ** 2).mean()

        tensors = [Tensor(w1, requires_grad=True), Tensor(b1, requires_grad=True),
                   Tensor(w2, requires_grad=True)]
        out = build_penalty(tensors)
        analytic = [g.data for g in grad(out, tensors)]

        def f(arrs):
            return build_penalty([Tensor(a, requires_grad=True) for a in arrs]).item()

        numeric = numeric_grad(f, [w1.copy(), b1.copy(), w2.copy()], h=1e-5)
        for a, n in zip(analytic, numeric):
            assert np.allclose(a, n, rtol=1e-3, atol=1e-6)


class TestDeterminism:
    def test_bit_identical_gradients(self):
        def run():
            rng = np.random.default_rng(123)
            w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
            x = Tensor(rng.standard_normal((4, 8)))
            loss = (matmul(x, w).tanh() ** 2).sum()
            backward(loss)
            return w.grad.data.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestTapeRelease:
    def test_grad_of_non_leaf_intermediate(self):
        x = Tensor(RNG.standard_normal(4), requires_grad=True)
        h = x * 3.0
        gh, gx = grad((h * h).sum(), [h, x])
        assert np.array_equal(gh.data, 2.0 * h.data)
        assert np.allclose(gx.data, 18.0 * x.data, rtol=1e-12)

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor(RNG.standard_normal(3), requires_grad=True)
        loss = (x.tanh() * x).sum()
        backward(loss)
        with pytest.raises(RuntimeError, match="released"):
            backward(loss)
        with pytest.raises(RuntimeError, match="released"):
            grad(loss, [x])

    def test_create_graph_keeps_the_graph(self):
        x = Tensor(RNG.standard_normal(3), requires_grad=True)
        loss = (x * x).sum()
        (g1,) = grad(loss, [x], create_graph=True)
        (g2,) = grad(loss, [x])
        assert np.array_equal(g1.data, g2.data)

    def test_backward_frees_the_tape(self):
        x = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        h = (x * 2.0).tanh()
        loss = (h * h).sum()
        backward(loss)
        assert loss._node._parents == () and h._node._parents == ()
        assert x.grad is not None


@pytest.fixture
def collector_off():
    """The collector off, and every object that survives a first collection
    held until the test ends: an object can then neither turn into garbage
    during the test (an earlier failure's traceback let go, say) nor lend its
    id to a new one, so `gc.collect()` counts only the cycles the test made."""
    gc.collect()
    gc.disable()
    survivors = gc.get_objects()
    yield
    del survivors
    gc.enable()


def _norm_conv(c):
    """A GroupNorm+SiLU -> Conv1d pair as one node, on c channels."""
    conv = Conv1d(c, 2, 3, 1, 1, rng=np.random.default_rng(0))
    return lambda t: conv(t, norm=GroupNorm(1, c))


# op name -> a graph through it, from a tensor of positive entries
CYCLE_OPS = {
    "div": lambda t: t / (t + 1.0),
    "sqrt": lambda t: t.sqrt(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "silu": silu,
    "Conv1d": lambda t: Conv1d(2, 3, 3, 1, 1, rng=np.random.default_rng(0))(t),
    "ConvTranspose1d": lambda t: ConvTranspose1d(2, 3, 4, 2, 1, rng=np.random.default_rng(0))(t),
    "GroupNorm": _norm_conv(2),
}


@pytest.mark.usefixtures("collector_off")
class TestNoCyclicGarbage:
    """With the collector off, a dropped tape must be freed by reference
    counting alone: `gc.collect()` then finds nothing."""

    @pytest.mark.parametrize("op", CYCLE_OPS)
    def test_dropped_graph(self, op):
        x = Tensor(RNG.uniform(0.5, 2.0, (2, 2, 6)), requires_grad=True)
        loss = CYCLE_OPS[op](x).sum()
        del loss
        assert gc.collect() == 0

    @pytest.mark.parametrize("op", CYCLE_OPS)
    def test_no_closure_under_no_grad(self, op):
        x = Tensor(RNG.uniform(0.5, 2.0, (2, 2, 6)), requires_grad=True)
        with no_grad():
            out = CYCLE_OPS[op](x)
        assert out._node is None
        del out
        assert gc.collect() == 0

    def test_a_cycle_made_here_is_counted(self):
        """The control: garbage the test itself makes still fails the check."""
        def drop_a_cyclic_closure():
            def closure():      # holds the cell that holds it
                return closure

        drop_a_cyclic_closure()
        assert gc.collect() > 0

    @pytest.mark.parametrize("op", CYCLE_OPS)
    def test_backpropagated_graphs(self, op):
        x = Tensor(RNG.uniform(0.5, 2.0, (2, 2, 6)), requires_grad=True)
        backward(CYCLE_OPS[op](x).sum())
        if op != "GroupNorm":       # first-order only: it refuses create_graph
            (gx,) = grad((CYCLE_OPS[op](x) ** 2).sum(), [x], create_graph=True)
            backward((gx * gx).sum())
            del gx
        assert gc.collect() == 0


def _param(shape):
    return Tensor(np.random.default_rng(0).uniform(0.5, 1.5, shape), requires_grad=True)


# op name -> its result on a (2, 3, 4) tensor, by a vjp that reads no input value
SHAPE_ONLY_OPS = {
    "add": lambda h: h + 1.0,
    "sub": lambda h: 1.0 - h,
    "sum": lambda h: h.sum(axis=1),
    "reshape": lambda h: h.reshape((4, 6)),
    "broadcast_to": lambda h: h.broadcast_to((2, 2, 3, 4)),
    "narrow": lambda h: h.narrow(2, 1, 2),
    "pad_axis": lambda h: h.pad_axis(2, 1, 2),
    "concat": lambda h: concat([h, h], axis=1),
    "swapaxes": lambda h: h.swapaxes(1, 2),
}

# ... and by a vjp that reads its input's value
VALUE_OPS = {
    "mul": lambda h: h * _param((3, 4)),
    "matmul": lambda h: matmul(h, _param((4, 5))),
    "Conv1d": lambda h: Conv1d(3, 2, 3, 1, 1, rng=np.random.default_rng(0))(h),
    "ConvTranspose1d": lambda h: ConvTranspose1d(3, 2, 4, 2, 1, rng=np.random.default_rng(0))(h),
    "GroupNorm": _norm_conv(3),
    "leaky_relu": leaky_relu,
    "tanh": lambda h: h.tanh(),
}


@pytest.mark.usefixtures("collector_off")
class TestRetention:
    """A graph node holds no array: an op's input lives on only while user
    code or a vjp that reads it holds it. The collector is off, so what is
    freed is freed by reference counting."""

    @staticmethod
    def non_leaf():
        """A leaf that requires grad, and a non-leaf computed from it."""
        x = Tensor(RNG.uniform(0.5, 2.0, (2, 3, 4)), requires_grad=True)
        return x, x * 2.0

    @pytest.mark.parametrize("op", SHAPE_ONLY_OPS)
    def test_input_freed_while_the_graph_lives(self, op):
        x, h = self.non_leaf()
        held = weakref.ref(h.data)
        loss = SHAPE_ONLY_OPS[op](h).sum()
        del h
        assert held() is None
        backward(loss)
        x_kept = Tensor(x.data, requires_grad=True)
        h_kept = x_kept * 2.0
        backward(SHAPE_ONLY_OPS[op](h_kept).sum())
        assert np.array_equal(x.grad.data, x_kept.grad.data)

    @pytest.mark.parametrize("op", VALUE_OPS)
    def test_input_kept_until_backward(self, op):
        x, h = self.non_leaf()
        held = weakref.ref(h.data)
        loss = VALUE_OPS[op](h).sum()
        del h
        assert held() is not None
        backward(loss)
        assert held() is None and x.grad is not None

    def test_resblock_keeps_neither_film_product_nor_conv2_output(self, monkeypatch):
        """Only `+ beta` consumes FiLM's product and only the residual add the
        second conv's output, so neither outlives the forward; the first
        conv's output, which FiLM's product rule reads, lives on."""
        block = ResBlock(4, 6, 2, np.random.default_rng(0))
        held: dict[str, list] = {"mul": [], "conv1": [], "conv2": []}

        def recording(name, fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                held[name].append(weakref.ref(out.data))
                return out
            return call

        monkeypatch.setattr(Tensor, "__mul__", recording("mul", Tensor.__mul__))
        for name in ("conv1", "conv2"):
            conv = getattr(block, name)
            monkeypatch.setattr(conv, "forward", recording(name, conv.forward))
        x = Tensor(RNG.standard_normal((2, 4, 8)), requires_grad=True)
        cond = Tensor(RNG.standard_normal((2, 6)), requires_grad=True)
        out = block(x, cond)
        assert [len(refs) for refs in held.values()] == [1, 1, 1]
        (film_product,), (conv1_out,), (conv2_out,) = held.values()
        assert film_product() is None and conv2_out() is None
        assert conv1_out() is not None
        backward((out * out).sum())
        assert conv1_out() is None and x.grad is not None and cond.grad is not None

    def test_norm_conv_frees_the_activation_and_keeps_its_input(self, monkeypatch):
        """The fused GroupNorm+SiLU -> Conv1d node recomputes the activation in
        its vjp: the activation's array dies once the forward returns, while
        the pre-norm input lives until backward, which frees it."""
        activations = []
        norm_forward = GroupNorm.forward

        def recording(norm, *args, **kwargs):
            out = norm_forward(norm, *args, **kwargs)
            activations.append(weakref.ref(out[0].data))
            return out

        monkeypatch.setattr(GroupNorm, "forward", recording)
        x, h = self.non_leaf()
        held = weakref.ref(h.data)
        loss = _norm_conv(3)(h).sum()
        del h
        assert len(activations) == 1 and activations[0]() is None
        assert held() is not None
        backward(loss)
        assert held() is None and x.grad is not None
