"""Layer semantics (identity kernels, length arithmetic, FiLM identity,
normalization statistics), per-layer finite-difference gradient checks, and
the one-node Conv1d, ConvTranspose1d and GroupNorm+SiLU against finite
differences (first and second order; GroupNorm first order only, and it must
refuse ``create_graph``) and against their composite formulation."""

import numpy as np
import pytest

from artifactgen.nn import (
    Conv1d,
    ConvTranspose1d,
    Embedding,
    GroupNorm,
    Linear,
    Tensor,
    film,
    global_avg_pool1d,
    grad,
    matmul,
    no_grad,
)
from artifactgen.nn.layers import GROUP_NORM_EPS
from artifactgen.nn.tensor import _fold, _unfold
from test_tensor import check_grads, numeric_grad

RNG = np.random.default_rng(0)


def check_module_grads(module, build, rtol=1e-4, atol=1e-7):
    """FD-check gradients w.r.t. every parameter of a module."""
    params = module.named_parameters()
    names = sorted(params)
    arrays = [params[n].data.copy() for n in names]
    out = build()
    analytic = {n: g.data for n, g in zip(names, grad(out, [params[n] for n in names]))}

    def f(arrs):
        for n, a in zip(names, arrs):
            params[n].data = a
        with no_grad():
            val = build().item()
        return val

    numeric = numeric_grad(f, [a.copy() for a in arrays])
    for n, arr in zip(names, arrays):
        params[n].data = arr
    for n, num in zip(names, numeric):
        assert np.allclose(analytic[n], num, rtol=rtol, atol=atol), n


class TestConv1d:
    def test_identity_kernel(self):
        conv = Conv1d(3, 3, kernel=1, rng=RNG)
        conv.weight.data = np.eye(3).reshape(3, 3, 1)
        conv.bias.data = np.zeros((3, 1))
        x = RNG.standard_normal((2, 3, 20))
        assert np.allclose(conv(Tensor(x)).data, x, rtol=1e-12)

    def test_output_length_formula(self):
        conv = Conv1d(2, 4, kernel=8, stride=2, padding=3, rng=RNG)
        x = Tensor(RNG.standard_normal((1, 2, 250)))
        assert conv(x).shape == (1, 4, 125)
        assert conv.out_length(250) == 125

    def test_shape_mismatch_names_layer(self):
        conv = Conv1d(4, 2, kernel=3, rng=RNG)
        with pytest.raises(ValueError, match="Conv1d.*shape"):
            conv(Tensor(np.zeros((1, 3, 10))))

    def test_matches_direct_convolution(self):
        conv = Conv1d(2, 3, kernel=3, stride=2, padding=1, rng=RNG)
        x = RNG.standard_normal((1, 2, 9))
        out = conv(Tensor(x)).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        for o in range(3):
            for f in range(out.shape[2]):
                patch = xp[0, :, 2 * f: 2 * f + 3]
                expected = np.sum(conv.weight.data[o] * patch) + conv.bias.data[o, 0]
                assert out[0, o, f] == pytest.approx(expected, rel=1e-12)

    def test_gradients(self):
        conv = Conv1d(2, 3, kernel=3, stride=2, padding=1, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 2, 8)))
        check_module_grads(conv, lambda: (conv(x) ** 2).sum())


class TestConvTranspose1d:
    def test_length_formula_doubles_125(self):
        up = ConvTranspose1d(2, 2, kernel=8, stride=2, padding=3, rng=RNG)
        x = Tensor(RNG.standard_normal((1, 2, 125)))
        assert up(x).shape == (1, 2, 250)
        assert up.out_length(125) == (125 - 1) * 2 + 8 - 2 * 3

    def test_length_formula_times_five(self):
        up = ConvTranspose1d(3, 2, kernel=9, stride=5, padding=2, rng=RNG)
        assert up(Tensor(np.zeros((1, 3, 25)))).shape == (1, 2, 125)
        assert up.out_length(25) == (25 - 1) * 5 + 9 - 4

    def test_adjoint_of_conv(self):
        # <conv(x), y> == <x, convT(y)> when weights are shared, no biases, and
        # the conv is exact-fit ((L + 2p - k) % s == 0)
        c_in, c_out, k, s, p, length = 3, 4, 5, 2, 2, 15
        conv = Conv1d(c_in, c_out, k, s, p, rng=RNG)
        up = ConvTranspose1d(c_out, c_in, k, s, p, rng=RNG)
        up.weight.data = conv.weight.data.copy()  # (c_out, c_in, k) both notations
        conv.bias.data = np.zeros((c_out, 1))
        up.bias.data = np.zeros((c_in, 1))
        x = RNG.standard_normal((2, c_in, length))
        y = RNG.standard_normal((2, c_out, conv.out_length(length)))
        lhs = float((conv(Tensor(x)).data * y).sum())
        rhs = float((x * up(Tensor(y)).data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_gradients(self):
        up = ConvTranspose1d(3, 2, kernel=4, stride=2, padding=1, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 3, 6)))
        check_module_grads(up, lambda: (up(x) ** 2).sum())


class TestLinearEmbedding:
    def test_linear_gradients(self):
        lin = Linear(5, 3, RNG)
        x = Tensor(RNG.standard_normal((4, 5)))
        check_module_grads(lin, lambda: (lin(x) ** 2).sum())

    def test_embedding_lookup_and_gradients(self):
        emb = Embedding(7, 4, RNG)
        idx = np.array([1, 1, 6, 0])
        assert np.array_equal(emb(idx).data, emb.weight.data[idx])
        check_module_grads(emb, lambda: (emb(idx) ** 2).sum())

    def test_embedding_range_check(self):
        emb = Embedding(3, 2, RNG)
        with pytest.raises(ValueError, match="out of range"):
            emb(np.array([3]))


class TestGroupNorm:
    def test_normalizes_per_group(self):
        """The SiLU of each group normalized to zero mean and unit variance."""
        gn = GroupNorm(2, 4)
        x = RNG.standard_normal((3, 4, 50)) * 7 + 2
        out = gn(Tensor(x)).data
        grouped = x.reshape(3, 2, 2 * 50)
        xhat = (grouped - grouped.mean(axis=2, keepdims=True)) / np.sqrt(
            grouped.var(axis=2, keepdims=True) + GROUP_NORM_EPS)
        xhat = xhat.reshape(x.shape)
        assert np.allclose(out, xhat / (1.0 + np.exp(-xhat)), rtol=1e-12, atol=1e-14)

    def test_gradients(self):
        gn = GroupNorm(2, 4)
        x = Tensor(RNG.standard_normal((2, 4, 6)))
        check_module_grads(gn, lambda: (gn(x) ** 2).sum())
        # input gradients too
        xs = Tensor(RNG.standard_normal((2, 4, 6)), requires_grad=True)
        out = (gn(xs) ** 2).sum()
        (analytic,) = grad(out, [xs])

        def f(arrs):
            with no_grad():
                return (gn(Tensor(arrs[0])) ** 2).sum().item()

        (numeric,) = numeric_grad(f, [xs.data.copy()])
        assert np.allclose(analytic.data, numeric, rtol=1e-4, atol=1e-7)

    def test_divisibility_check(self):
        with pytest.raises(ValueError, match="divisible"):
            GroupNorm(3, 4)


class TestFilmAndPooling:
    def test_film_identity(self):
        h = Tensor(RNG.standard_normal((2, 3, 10)))
        out = film(h, Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))))
        assert np.array_equal(out.data, h.data)

    def test_film_broadcasts_over_time(self):
        h = np.ones((1, 2, 4))
        gamma = np.array([[2.0, -1.0]])
        beta = np.array([[0.5, 1.0]])
        out = film(Tensor(h), Tensor(gamma), Tensor(beta)).data
        assert np.allclose(out[0, 0], 2.5) and np.allclose(out[0, 1], 0.0)

    def test_film_gradients(self):
        h = Tensor(RNG.standard_normal((2, 3, 5)), requires_grad=True)
        gamma = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        beta = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        out = (film(h, gamma, beta) ** 2).sum()
        analytic = [g.data for g in grad(out, [h, gamma, beta])]

        def f(arrs):
            with no_grad():
                return (film(Tensor(arrs[0]), Tensor(arrs[1]), Tensor(arrs[2])) ** 2).sum().item()

        numeric = numeric_grad(f, [h.data.copy(), gamma.data.copy(), beta.data.copy()])
        for a, n in zip(analytic, numeric):
            assert np.allclose(a, n, rtol=1e-4, atol=1e-7)

    def test_global_avg_pool(self):
        x = RNG.standard_normal((2, 3, 11))
        assert np.allclose(global_avg_pool1d(Tensor(x)).data, x.mean(axis=2))


def copy_state(module):
    return {k: p.data.copy() for k, p in module.named_parameters().items()}


class TestModuleStateRoundTrip:
    def test_get_load_state(self):
        lin = Linear(4, 3, RNG)
        state = copy_state(lin)
        lin2 = Linear(4, 3, np.random.default_rng(99))
        lin2.load_state(state)
        x = Tensor(RNG.standard_normal((2, 4)))
        assert np.array_equal(lin(x).data, lin2(x).data)

    def test_module_built_under_no_grad_has_its_parameters(self):
        """Parameterhood is decided at construction, whatever the grad mode:
        a Conv1d built inside `no_grad` has its weight and bias, and `astype`
        converts them."""
        with no_grad():
            conv = Conv1d(4, 6, 3, 1, 1, np.random.default_rng(0))
        assert sorted(conv.named_parameters()) == ["bias", "weight"]
        conv.astype(np.float32)
        assert conv.weight.data.dtype == conv.bias.data.dtype == np.float32
        assert conv(Tensor(RNG.standard_normal((2, 4, 10)).astype(np.float32))).data.dtype \
            == np.float32

    @pytest.mark.parametrize("make", [
        lambda rng: Linear(4, 3, rng),
        lambda rng: Conv1d(4, 6, 3, 1, 1, rng),
        lambda rng: ConvTranspose1d(4, 6, 4, 2, 1, rng),
        lambda rng: Embedding(5, 3, rng),
    ], ids=["linear", "conv1d", "conv_transpose1d", "embedding"])
    def test_built_without_generator_then_loaded(self, make):
        """``rng=None`` builds every parameter, of its shape, without drawing
        it; `load_state` then sets each one."""
        state = copy_state(make(np.random.default_rng(1)))
        built = make(None)
        assert {k: p.data.shape for k, p in built.named_parameters().items()} == \
            {k: v.shape for k, v in state.items()}
        built.load_state(state)
        for k, p in built.named_parameters().items():
            assert np.array_equal(p.data, state[k]), k

    def test_load_state_shape_mismatch(self):
        lin = Linear(4, 3, RNG)
        state = copy_state(lin)
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            lin.load_state(state)


# ---- the one-node layers against finite differences and their composites ----


def composite_conv1d(conv, x):
    """Conv1d as a chain of tape primitives: pad -> unfold -> matmul -> bias."""
    if conv.padding:
        x = x.pad_axis(2, conv.padding, conv.padding)
    cols = _unfold(x, conv.kernel, conv.stride, 0)
    out = matmul(conv.weight.reshape((conv.c_out, conv.c_in * conv.kernel)), cols)
    return out + conv.bias


def composite_conv_transpose1d(up, x):
    """ConvTranspose1d as a chain: matmul -> fold -> crop -> bias."""
    length = x.shape[2]
    w2 = up.weight.reshape((up.c_in, up.c_out * up.kernel)).swapaxes(0, 1)
    full = _fold(matmul(w2, x), (length - 1) * up.stride + up.kernel, up.kernel, up.stride, 0)
    return full.narrow(2, up.padding, up.out_length(length)) + up.bias


def composite_group_norm(gn, x):
    """GroupNorm then SiLU, as elementwise tape ops."""
    b, c, length = x.shape
    xg = x.reshape((b, gn.groups, c // gn.groups, length))
    mu = xg.mean(axis=(2, 3), keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=(2, 3), keepdims=True)
    norm = (xg - mu) / ((var + GROUP_NORM_EPS).sqrt())
    y = norm.reshape((b, c, length)) * gn.gamma + gn.beta
    return y * y.sigmoid()


# (c_in, c_out, kernel, stride, padding, length): every shape the GAN and the U-Net use
CONV_SHAPES = [(2, 3, 8, 2, 3, 12), (3, 2, 9, 5, 2, 20), (3, 2, 9, 1, 4, 10),
               (3, 4, 3, 1, 1, 7), (2, 3, 4, 2, 1, 9)]
CONV_T_SHAPES = [(3, 2, 9, 5, 2, 4), (2, 3, 8, 2, 3, 5), (3, 2, 4, 2, 1, 5)]
CONVS = (
    [pytest.param(Conv1d, composite_conv1d, s, id=f"conv-k{s[2]}s{s[3]}p{s[4]}")
     for s in CONV_SHAPES]
    + [pytest.param(ConvTranspose1d, composite_conv_transpose1d, s,
                    id=f"convT-k{s[2]}s{s[3]}p{s[4]}") for s in CONV_T_SHAPES])
FUSED = CONVS + [pytest.param(GroupNorm, composite_group_norm, (2, 4, 6), id="groupnorm")]


def make_layer(cls, shape, seed=0):
    """A layer with random parameters (GroupNorm's too) and an input for it."""
    rng = np.random.default_rng(seed)
    if cls is GroupNorm:
        groups, channels, length = shape
        layer = GroupNorm(groups, channels)
        layer.gamma.data = rng.uniform(0.5, 1.5, layer.gamma.shape)
        layer.beta.data = rng.standard_normal(layer.beta.shape)
        return layer, rng.standard_normal((2, channels, length)) * 2.0 + 0.5
    c_in, c_out, k, s, p, length = shape
    return cls(c_in, c_out, k, s, p, rng=rng), rng.standard_normal((2, c_in, length))


def param_names(layer):
    return sorted(layer.named_parameters())


def set_params(layer, names, tensors):
    for name, t in zip(names, tensors):
        setattr(layer, name, t)


def input_grad_penalty(layer, names, params, x_arr, forward=None):
    """||d/dx sum(layer(x)^2)||^2, differentiable w.r.t. the parameters."""
    set_params(layer, names, params)
    x = Tensor(x_arr, requires_grad=True)
    out = forward(layer, x) if forward else layer(x)
    (gx,) = grad((out * out).sum(), [x], create_graph=True)
    return (gx * gx).sum()


def param_grad_penalty(layer, names, params, x, forward=None):
    """sum over parameters of ||d/dp sum(layer(x)^2)||^2, differentiable w.r.t. x."""
    set_params(layer, names, params)
    out = forward(layer, x) if forward else layer(x)
    gps = grad((out * out).sum(), params, create_graph=True)
    return sum((gp * gp).sum() for gp in gps)


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestFusedNodes:
    @pytest.mark.parametrize("cls, composite, shape", FUSED)
    def test_one_tape_node(self, cls, composite, shape):
        layer, x = make_layer(cls, shape)
        xt = Tensor(x, requires_grad=True)
        out = layer(xt)
        assert out._parents[0] is xt
        assert sorted(map(id, out._parents[1:])) == sorted(map(id, layer.parameters()))

    @pytest.mark.parametrize("cls, composite, shape", FUSED)
    def test_first_order_matches_fd(self, cls, composite, shape):
        layer, x = make_layer(cls, shape)
        names = param_names(layer)
        arrays = [x] + [getattr(layer, n).data.copy() for n in names]

        def build(tensors):
            set_params(layer, names, tensors[1:])
            return (layer(tensors[0]) ** 2).sum()

        check_grads(build, arrays)

    @pytest.mark.parametrize("cls, composite, shape", FUSED)
    def test_second_order_matches_fd(self, cls, composite, shape):
        """Gradient w.r.t. the parameters of a squared input-gradient norm (the
        shape of the critic's gradient penalty), and w.r.t. the input of the
        squared parameter-gradient norms. GroupNorm is off the critic's path
        and first-order only: it must refuse both instead."""
        layer, x = make_layer(cls, shape)
        names = param_names(layer)
        arrays = [getattr(layer, n).data.copy() for n in names]
        params = [Tensor(a, requires_grad=True) for a in arrays]
        if cls is GroupNorm:
            with pytest.raises(RuntimeError, match="create_graph"):
                input_grad_penalty(layer, names, params, x)
            with pytest.raises(RuntimeError, match="create_graph"):
                param_grad_penalty(layer, names, params, Tensor(x, requires_grad=True))
            return
        analytic = grad(input_grad_penalty(layer, names, params, x), params)
        numeric = numeric_grad(
            lambda arrs: input_grad_penalty(layer, names, [Tensor(a) for a in arrs], x).item(),
            [a.copy() for a in arrays])
        for name, a, n in zip(names, analytic, numeric):
            assert np.allclose(a.data, n, rtol=1e-4, atol=1e-6), name

        params = [Tensor(a, requires_grad=True) for a in arrays]
        xt = Tensor(x, requires_grad=True)
        (analytic,) = grad(param_grad_penalty(layer, names, params, xt), [xt])
        (numeric,) = numeric_grad(
            lambda arrs: param_grad_penalty(layer, names, params, Tensor(arrs[0])).item(),
            [x.copy()])
        assert np.allclose(analytic.data, numeric, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("cls, composite, shape", FUSED)
    def test_agrees_with_composite(self, cls, composite, shape):
        """The convolutions' forward is bit-identical and their gradients of
        both orders agree to 1e-10. GroupNorm folds its statistics into a
        per-channel scale and shift, so its forward agrees to 1e-12 and its
        first-order gradients to 1e-10."""
        layer, x = make_layer(cls, shape)
        names = param_names(layer)
        params = [Tensor(getattr(layer, n).data.copy(), requires_grad=True) for n in names]
        results = []
        for forward in (None, composite):
            set_params(layer, names, params)
            xt = Tensor(x, requires_grad=True)
            out = forward(layer, xt) if forward else layer(xt)
            grads = grad((out * out).sum(), [xt] + params)
            if cls is not GroupNorm:
                grads += grad(input_grad_penalty(layer, names, params, x, forward), params)
                grads += grad(param_grad_penalty(layer, names, params, xt, forward), [xt])
            results.append((out.data, [g.data for g in grads]))
        (fused_out, fused_grads), (ref_out, ref_grads) = results
        if cls is GroupNorm:
            assert rel(fused_out, ref_out) <= 1e-12
        else:
            assert np.array_equal(fused_out, ref_out)
        for a, b in zip(fused_grads, ref_grads):
            assert rel(a, b) <= 1e-10

    @pytest.mark.parametrize("cls, composite, shape", CONVS)
    def test_conv_gradients_match_batched_composite(self, cls, composite, shape):
        """The convolutions' vjps run the composite's numpy ops in the same
        order for the input and bias gradients, which do not change by a bit.
        The weight gradient is one flat GEMM over the batch where the
        composite sums a stack of per-window products, so it agrees to 1e-13."""
        layer, x = make_layer(cls, shape)
        grads = []
        for forward in (None, composite):
            xt = Tensor(x, requires_grad=True)
            out = forward(layer, xt) if forward else layer(xt)
            grads.append([g.data for g in grad((out * out).sum(),
                                               [xt, layer.bias, layer.weight])])
        (gx, gb, gw), (ref_gx, ref_gb, ref_gw) = grads
        assert np.array_equal(gx, ref_gx) and np.array_equal(gb, ref_gb)
        assert rel(gw, ref_gw) <= 1e-13
