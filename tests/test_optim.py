"""Adam update semantics with and without decoupled weight decay, convergence
on a quadratic bowl, EMA decay and warm-up."""

import numpy as np
import pytest

from artifactgen.nn import Adam, EmaShadow, Tensor, backward


def quadratic_param(value=1.0):
    return {"theta": Tensor(np.array([value]), requires_grad=True)}


class TestAdam:
    def test_descends_toward_zero(self):
        params = quadratic_param(1.0)
        opt = Adam(params, lr=0.1, beta1=0.5, beta2=0.9)
        theta = params["theta"]
        backward((theta * theta).sum())
        opt.step()
        assert 0.0 < theta.data[0] < 1.0

    def test_quadratic_bowl_converges(self):
        params = quadratic_param(1.0)
        opt = Adam(params, lr=0.01)
        theta = params["theta"]
        for _ in range(500):
            theta.grad = None
            backward((theta * theta).sum())
            opt.step()
        assert abs(theta.data[0]) < 1e-3

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam(quadratic_param(), lr=0.0)

    def test_none_grad_treated_as_zero(self):
        params = quadratic_param(1.0)
        opt = Adam(params, lr=0.1)
        opt.step()  # no backward ran; parameter must not move
        assert params["theta"].data[0] == 1.0

    def test_state_round_trip(self):
        params = quadratic_param(1.0)
        opt = Adam(params, lr=0.05)
        theta = params["theta"]
        backward((theta * theta).sum())
        opt.step()
        state = opt.state_dict()
        opt2 = Adam(params, lr=0.05)
        opt2.load_state_dict(state)
        assert opt2.t == opt.t
        assert np.array_equal(opt2.m["theta"], opt.m["theta"])


class TestAdamW:
    """AdamW is `Adam` with a nonzero ``weight_decay``."""

    def test_zero_decay_equals_adam_exactly(self):
        params = quadratic_param(0.7)
        opt = Adam(params, lr=0.02, beta1=0.9, beta2=0.999, weight_decay=0.0)
        theta = params["theta"]
        want, m, v = 0.7, 0.0, 0.0
        for t in range(1, 26):
            theta.grad = None
            backward((theta * theta * Tensor(theta.data)).sum())   # gradient 2 theta^2
            opt.step()
            g = 2.0 * want * want
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            want -= 0.02 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert theta.data[0] == want

    def test_decay_validation(self):
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            Adam(quadratic_param(), lr=0.1, weight_decay=-1e-4)

    def test_decoupled_decay_shrinks_parameter(self):
        params = quadratic_param(1.0)
        opt = Adam(params, lr=0.1, weight_decay=0.5)
        theta = params["theta"]
        theta.grad = Tensor(np.zeros(1))
        before = theta.data.copy()
        opt.step()
        # pure decay path: theta <- theta - lr * wd * theta
        assert theta.data[0] == pytest.approx(before[0] * (1 - 0.1 * 0.5), rel=1e-12)


class TestEma:
    def test_decay_zero_copies_live(self):
        params = quadratic_param(0.3)
        ema = EmaShadow(params, decay=0.0)
        params["theta"].data = np.array([9.0])
        ema.update(params)
        assert ema.shadow["theta"][0] == 9.0

    def test_geometric_convergence_closed_form(self):
        params = quadratic_param(0.0)
        ema = EmaShadow(params, decay=0.9)
        ema.shadow["theta"] = np.array([1.0])  # gap of 1 vs constant live params
        for _ in range(20):
            ema.update(params)
        # warm-up: the update after n earlier ones decays by min(0.9, (1+n)/(10+n))
        want = np.prod([min(0.9, (1 + n) / (10 + n)) for n in range(20)])
        assert ema.shadow["theta"][0] == pytest.approx(want, rel=1e-12)

    def test_thousand_steps_at_0999(self):
        params = quadratic_param(0.0)
        ema = EmaShadow(params, decay=0.999)
        ema.updates = 10_000   # past the warm-up: every update decays by the ceiling
        ema.shadow["theta"] = np.array([1.0])
        for _ in range(1000):
            ema.update(params)
        gap = ema.shadow["theta"][0]
        assert gap == pytest.approx(0.999 ** 1000, rel=1e-9)
        assert abs(gap - 0.368) / 0.368 < 0.01

    def test_warm_up_follows_the_live_weights_early(self):
        """After 20 updates at decay 0.999 the shadow lies nearer the live
        weights than the initial ones (without a warm-up it would keep 98% of
        the initial weights), and it counts its updates."""
        params = quadratic_param(0.0)
        ema = EmaShadow(params, decay=0.999)
        params["theta"].data = np.array([1.0])
        for _ in range(20):
            ema.update(params)
        assert abs(ema.shadow["theta"][0] - 1.0) < abs(ema.shadow["theta"][0] - 0.0)
        assert ema.updates == 20

    def test_load_restores_the_update_count(self):
        """A shadow loaded with its count takes the next update exactly as the
        one it was saved from; loaded at count 0 it would decay by 0.1."""
        params = quadratic_param(0.0)
        ema = EmaShadow(params, decay=0.999)
        for step in range(5):
            params["theta"].data = np.array([float(step + 1)])
            ema.update(params)
        loaded = EmaShadow(quadratic_param(0.0), decay=0.999)
        loaded.load(ema.shadow, ema.updates)
        params["theta"].data = np.array([-3.0])
        ema.update(params)
        loaded.update(params)
        assert loaded.updates == ema.updates == 6
        assert np.array_equal(loaded.shadow["theta"], ema.shadow["theta"])

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            EmaShadow(quadratic_param(), decay=1.0)

    def test_shadow_never_touches_live_gradients(self):
        params = quadratic_param(2.0)
        ema = EmaShadow(params, decay=0.5)
        theta = params["theta"]
        backward((theta * theta).sum())
        grad_before = theta.grad.data.copy()
        ema.update(params)
        assert np.array_equal(theta.grad.data, grad_before)
        assert theta.data[0] == 2.0
