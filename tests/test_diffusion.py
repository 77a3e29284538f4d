"""Diffusion: schedule invariants, forward-process statistics, guidance
identities, the closed-loop DDIM oracle, U-Net shape contract and training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import artifactgen.diffusion as diffusion_mod
from artifactgen.diffusion import (
    BetaSchedule,
    DiffusionTrainConfig,
    SamplerConfig,
    UNet1D,
    cfg_epsilon,
    ddim_timesteps,
    denoise_loss,
    q_sample,
    sample,
    sinusoidal_embedding,
    train_ddpm,
)
from artifactgen.nn import Adam, EmaShadow, Tensor, backward, grad, load_checkpoint, no_grad
from artifactgen.training import TrainingDiverged
from artifactgen.nn import Conv1d
from test_layers import composite_group_norm
from test_tensor import numeric_grad

SCHED = BetaSchedule.linear(100)


def tiny_unet(n_channels=2, n_classes=2, seed=0):
    cfg = DiffusionTrainConfig(widths=(4, 8, 8), cond_dim=8, time_dim=8, groups=2)
    return UNet1D(n_channels, 8, n_classes, cfg, np.random.default_rng(seed))


class OracleEpsNet:
    """Returns the exact noise consistent with x_t and a fixed clean signal."""

    def __init__(self, x0, sched, n_classes=2):
        self.x0 = x0
        self.sched = sched
        self.n_channels = x0.shape[0]
        self.n_classes = n_classes
        self.null_token = n_classes
        self.sample_length = x0.shape[1]
        self.seen_labels = []

    def __call__(self, x, t, y):
        self.seen_labels.append(np.array(y, copy=True))
        x = x.data if isinstance(x, Tensor) else np.asarray(x)
        ab = self.sched.alpha_bar[np.asarray(t, dtype=int)].reshape(-1, 1, 1)
        eps = (x - np.sqrt(ab) * self.x0[None]) / np.sqrt(1.0 - ab)
        return Tensor(eps)


class TestSchedule:
    def test_linear_defaults(self):
        s = BetaSchedule.linear()
        assert s.num_steps == 1000
        assert s.betas[0] == pytest.approx(1e-4) and s.betas[-1] == pytest.approx(0.02)

    def test_alpha_bar_strictly_decreasing_in_unit_interval(self):
        s = BetaSchedule.linear(500)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(s.alpha_bar[1:] > 0) and np.all(s.alpha_bar[1:] < 1)

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            BetaSchedule.linear(10, beta_start=0.5, beta_end=0.1)


class TestQSample:
    def test_exact_formula(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((4, 2, 8))
        eps = rng.standard_normal((4, 2, 8))
        t = np.array([1, 5, 50, 100])
        ab = SCHED.alpha_bar[t].reshape(-1, 1, 1)
        expected = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        assert np.array_equal(q_sample(x0, t, eps, SCHED), expected)

    def test_small_t_stays_close_to_x0(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((1, 2, 16))
        eps = rng.standard_normal((1, 2, 16))
        x1 = q_sample(x0, 1, eps, SCHED)
        bound = np.sqrt(1 - SCHED.alpha_bar[1]) * np.abs(eps) + 1e-12
        assert np.all(np.abs(x1 - np.sqrt(SCHED.alpha_bar[1]) * x0) <= bound)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 100))
    def test_linear_superposition(self, seed, t):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        ea, eb = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        lhs = q_sample(a + b, t, ea + eb, SCHED)
        rhs = q_sample(a, t, ea, SCHED) + q_sample(b, t, eb, SCHED)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((1, 4))
        for t in (1, 25, 50, 75, 100):
            draws = np.stack([q_sample(x0, t, rng.standard_normal(x0.shape), SCHED)
                              for _ in range(4000)])
            mean_err = np.abs(draws.mean(axis=0) - np.sqrt(SCHED.alpha_bar[t]) * x0)
            assert np.all(mean_err < 4 * np.sqrt(1 - SCHED.alpha_bar[t]) / np.sqrt(4000) + 1e-3)
            var = draws.var(axis=0).mean()
            assert var == pytest.approx(1 - SCHED.alpha_bar[t], rel=0.1)

    def test_t_out_of_range(self):
        x = np.zeros((1, 2, 4))
        with pytest.raises(ValueError, match="t must be"):
            q_sample(x, 0, x, SCHED)
        with pytest.raises(ValueError, match="t must be"):
            q_sample(x, 101, x, SCHED)


class TestCfgEpsilon:
    def test_identities(self):
        """The formula alone: w = 1 gives the conditional branch and w = 0 the
        null branch (`sample` skips the null branch at w = 1 itself)."""
        rng = np.random.default_rng(0)
        c, n = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        assert np.allclose(cfg_epsilon(c, n, 1.0), c, rtol=0, atol=1e-12)
        assert np.allclose(cfg_epsilon(c, n, 0.0), n, rtol=0, atol=1e-12)
        assert np.allclose(cfg_epsilon(c, c, 7.3), c, atol=1e-12)

    def test_interpolation(self):
        c, n = np.ones((1, 2)), np.zeros((1, 2))
        assert np.allclose(cfg_epsilon(c, n, 1.5), 1.5)
        assert np.allclose(cfg_epsilon(c, n, 0.5), 0.5)


class TestTimesteps:
    def test_full_sequence(self):
        taus = ddim_timesteps(100, 100)
        assert np.array_equal(taus, np.arange(100, 0, -1))

    def test_subsequence_properties(self):
        taus = ddim_timesteps(1000, 80)
        assert taus[0] == 1000 and taus[-1] == 1
        assert np.all(np.diff(taus) < 0)
        assert len(taus) == 80

    def test_single_step(self):
        assert list(ddim_timesteps(50, 1)) == [50]

    def test_bounds(self):
        with pytest.raises(ValueError):
            ddim_timesteps(50, 51)


class TestSampler:
    def test_oracle_net_reconstructs_x0(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((2, 16))
        net = OracleEpsNet(x0, SCHED)
        out = sample(net, np.zeros(1, dtype=int), SCHED,
                     SamplerConfig(num_steps=SCHED.num_steps, guidance_scale=1.0),
                     np.random.default_rng(0))
        assert np.max(np.abs(out[0] - x0)) < 1e-3

    def test_guidance_one_never_evaluates_null(self):
        rng = np.random.default_rng(4)
        net = OracleEpsNet(rng.standard_normal((2, 8)), SCHED)
        sample(net, np.zeros(3, dtype=int), SCHED,
               SamplerConfig(num_steps=10, guidance_scale=1.0), np.random.default_rng(0))
        seen = np.concatenate(net.seen_labels)
        assert not np.any(seen == net.null_token)

    def test_guidance_one_matches_manual_conditional_only(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 8))
        net = OracleEpsNet(x0, SCHED)
        out = sample(net, np.zeros(1, dtype=int), SCHED,
                     SamplerConfig(num_steps=7, guidance_scale=1.0),
                     np.random.default_rng(9))
        # manual sampler that only ever uses the conditional branch
        taus = ddim_timesteps(SCHED.num_steps, 7)
        x = np.random.default_rng(9).standard_normal((1, 2, 8))
        for i, t in enumerate(taus):
            eps = net(x, np.array([t]), np.zeros(1, dtype=int)).data
            ab = SCHED.alpha_bar[t]
            x0_hat = (x - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
            ab_next = SCHED.alpha_bar[int(taus[i + 1]) if i + 1 < len(taus) else 0]
            x = np.sqrt(ab_next) * x0_hat + np.sqrt(1 - ab_next) * eps
        assert np.array_equal(out, x)

    def test_two_net_evaluations_per_step_with_guidance(self):
        rng = np.random.default_rng(6)
        net = OracleEpsNet(rng.standard_normal((2, 8)), SCHED)
        sample(net, np.zeros(2, dtype=int), SCHED,
               SamplerConfig(num_steps=5, guidance_scale=1.5), np.random.default_rng(0))
        assert len(net.seen_labels) == 10  # conditional + null per step

    def test_seed_determinism_and_variation(self):
        net = tiny_unet()
        cfg = SamplerConfig(num_steps=4, guidance_scale=1.5)
        a = sample(net, np.array([0, 1]), SCHED, cfg, np.random.default_rng(11))
        b = sample(net, np.array([0, 1]), SCHED, cfg, np.random.default_rng(11))
        c = sample(net, np.array([0, 1]), SCHED, cfg, np.random.default_rng(12))
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) > 0

    def test_class_range_validated(self):
        net = tiny_unet()
        with pytest.raises(ValueError, match="class index"):
            sample(net, np.array([2]), SCHED, SamplerConfig(num_steps=2),
                   np.random.default_rng(0))


class TestUNet:
    def test_shape_contract(self):
        net = tiny_unet()
        for length in (8, 12, 20):
            out = net(np.zeros((2, 2, length)), np.array([1, 5]), np.array([0, 1]))
            assert out.shape == (2, 2, length)

    def test_shape_contract_non_divisible_length(self):
        net = tiny_unet()
        for length in (9, 10, 11, 250):
            out = net(np.zeros((1, 2, length)), np.array([3]), np.array([0]))
            assert out.shape == (1, 2, length)

    def test_null_token_accepted_real_labels_plus_one_rejected(self):
        """The class embedding has K + 1 rows, so it takes the null token K
        and refuses -1 and K + 1."""
        net = tiny_unet()
        x = np.zeros((1, 2, 8))
        net(x, np.array([1]), np.array([net.null_token]))
        rows = net.null_token + 1
        for y in (-1, rows):
            with pytest.raises(ValueError, match=rf"index out of range \[0, {rows}\)"):
                net(x, np.array([1]), np.array([y]))

    def test_film_zero_init_matches_unconditioned_block(self):
        net = tiny_unet()
        block = net.mid
        x = Tensor(np.random.default_rng(0).standard_normal((2, 8, 4)))
        cond = Tensor(np.random.default_rng(1).standard_normal((2, 8)))
        with no_grad():
            conditioned = block(x, cond).data
            h = block.conv1(x, norm=block.norm1)
            plain = (x + block.conv2(h, norm=block.norm2)).data
        assert np.max(np.abs(conditioned - plain)) < 1e-12

    def test_conditioning_changes_output_after_film_training(self):
        net = tiny_unet()
        # nudge the FiLM projections away from zero init
        for name, p in net.named_parameters().items():
            if "film_proj" in name:
                p.data += 0.1
        x = np.random.default_rng(2).standard_normal((1, 2, 8))
        a = net(x, np.array([4]), np.array([0])).data
        b = net(x, np.array([4]), np.array([1])).data
        assert np.linalg.norm(a - b) > 0

    def test_timestep_embedding(self):
        emb = sinusoidal_embedding(np.array([0, 7, 99]), 16)
        assert emb.shape == (3, 16)
        assert np.all(np.abs(emb) <= 1.0)
        assert not np.allclose(emb[1], emb[2])


class TestDenoiseLoss:
    def test_zero_net_loss_near_signal_size(self):
        class ZeroNet:
            null_token = 2

            def __call__(self, x, t, y):
                return Tensor(np.zeros_like(x if isinstance(x, np.ndarray) else x.data))

        x0 = np.zeros((64, 2, 8))
        loss = denoise_loss(ZeroNet(), x0, np.zeros(64, int), SCHED, 0.0,
                            np.random.default_rng(0))
        assert loss.item() == pytest.approx(2 * 8, rel=0.15)

    def test_perfect_oracle_zero_loss(self):
        sched = SCHED

        class EchoNet:
            """Cheats by replaying the exact eps the loss will draw."""
            null_token = 2

            def __call__(self, x, t, y):
                rng = np.random.default_rng(123)
                rng.integers(1, sched.num_steps + 1, size=x.shape[0] if hasattr(x, "shape") else 1)
                eps = rng.standard_normal(x.shape if isinstance(x, np.ndarray) else x.data.shape)
                return Tensor(eps)

        x0 = np.random.default_rng(1).standard_normal((4, 2, 8))
        loss = denoise_loss(EchoNet(), x0, np.zeros(4, int), sched, 0.0,
                            np.random.default_rng(123))
        assert loss.item() == pytest.approx(0.0, abs=1e-24)

    def test_label_dropout_one_always_null(self):
        seen = []

        class SpyNet:
            null_token = 2

            def __call__(self, x, t, y):
                seen.append(np.array(y, copy=True))
                data = x if isinstance(x, np.ndarray) else x.data
                return Tensor(np.zeros_like(data))

        x0 = np.zeros((16, 2, 8))
        denoise_loss(SpyNet(), x0, np.zeros(16, int), SCHED, 1.0 - 1e-12,
                     np.random.default_rng(0))
        assert np.all(np.concatenate(seen) == 2)

    def test_gradient_matches_fd_on_tiny_unet(self):
        net = tiny_unet()
        x0 = np.random.default_rng(3).standard_normal((2, 2, 8))
        y = np.array([0, 1])
        params = net.named_parameters()
        # check a representative subset of parameters (full sweep in acceptance)
        names = ["stem.weight", "mid.conv1.weight", "mid.film_proj.weight",
                 "class_emb.weight", "head.weight", "head_norm.gamma"]

        def build():
            return denoise_loss(net, x0, y, SCHED, 0.0, np.random.default_rng(77))

        out = build()
        analytic = {n: g.data for n, g in zip(names, grad(out, [params[n] for n in names]))}
        for name in names:
            arr = params[name].data.copy()

            def f(arrs, _name=name):
                params[_name].data = arrs[0]
                with no_grad():
                    val = build().item()
                return val

            (num,) = numeric_grad(f, [arr.copy()])
            params[name].data = arr
            assert np.allclose(analytic[name], num, rtol=1e-3, atol=1e-6), name

    def test_gradients_agree_with_composite_group_norm(self, monkeypatch):
        """GroupNorm+SiLU's folded forward and numpy vjp, inside the node each
        conv makes of it, move the DDPM loss and gradients only in the last
        bits: against the elementwise composite (GroupNorm, then
        x * sigmoid(x), then the conv) the loss agrees to 1e-12 relative and
        every parameter gradient to 1e-10."""
        net = tiny_unet()
        x0 = np.random.default_rng(3).standard_normal((2, 2, 8))
        y = np.array([0, 1])
        params = net.named_parameters()
        for p in params.values():       # leave the zero-initialised FiLM path
            p.data = p.data + 0.1 * np.random.default_rng(4).standard_normal(p.data.shape)

        def run():
            loss = denoise_loss(net, x0, y, SCHED, 0.0, np.random.default_rng(77))
            return loss.data, grad(loss, list(params.values()))

        fused_loss, fused = run()
        conv_forward = Conv1d.forward
        monkeypatch.setattr(Conv1d, "forward", lambda conv, x, norm=None: conv_forward(
            conv, x if norm is None else composite_group_norm(norm, x)))
        ref_loss, ref = run()
        assert abs(fused_loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, a, b in zip(params, fused, ref):
            assert np.linalg.norm(a.data - b.data) <= 1e-10 * np.linalg.norm(b.data), name


class TestTrainDdpm:
    def toy_data(self, n=32):
        rng = np.random.default_rng(0)
        t = np.arange(8) / 8.0
        data = np.stack([
            np.tile(np.sin(2 * np.pi * (1 + (i % 2)) * t + rng.uniform(0, 6)), (2, 1))
            for i in range(n)
        ])
        return data, np.arange(n) % 2

    def small_cfg(self, **kw):
        base = dict(widths=(4, 8, 8), cond_dim=8, time_dim=8, groups=2, lr=3e-3,
                    batch_size=8, epochs=4, seed=5, schedule_steps=50,
                    label_dropout_prob=0.1)
        base.update(kw)
        return DiffusionTrainConfig(**base)

    def test_loss_decreases(self):
        data, labels = self.toy_data()
        result = train_ddpm(data, labels, 2, self.small_cfg())
        first = np.mean([r["loss"] for r in result.history[:4]])
        last = np.mean([r["loss"] for r in result.history[-4:]])
        assert last < first

    def test_determinism(self):
        data, labels = self.toy_data()
        r1 = train_ddpm(data, labels, 2, self.small_cfg())
        r2 = train_ddpm(data, labels, 2, self.small_cfg())
        assert r1.history == r2.history

    def test_ema_differs_from_live_and_is_tracked(self):
        data, labels = self.toy_data()
        result = train_ddpm(data, labels, 2, self.small_cfg(epochs=2))
        live = {k: p.data for k, p in result.net.named_parameters().items()}
        shadow = result.ema.shadow
        diffs = [np.max(np.abs(live[k] - shadow[k])) for k in live]
        assert max(diffs) > 0

    def test_checkpoints_and_reload(self, tmp_path):
        from artifactgen.diffusion import load_unet
        data, labels = self.toy_data()
        cfg = self.small_cfg(epochs=1)          # one epoch, the best
        result = train_ddpm(data, labels, 2, cfg, out_dir=tmp_path)
        assert (tmp_path / "ddpm_losses.csv").exists()
        net, sched, meta = load_unet(tmp_path / "ddpm_best.ckpt")
        assert sched.num_steps == cfg.schedule_steps
        assert net.sample_length == 8
        for k, p in net.named_parameters().items():
            assert np.array_equal(p.data, result.ema.shadow[k])

    def test_nan_aborts_with_snapshot(self, monkeypatch):
        # the third loss goes NaN in value only, so its gradients stay finite
        data, labels = self.toy_data()
        real_loss = diffusion_mod.denoise_loss
        calls = []

        def nan_third_loss(*args, **kwargs):
            calls.append(None)
            loss = real_loss(*args, **kwargs)
            return loss + Tensor(np.nan) if len(calls) == 3 else loss

        monkeypatch.setattr(diffusion_mod, "denoise_loss", nan_third_loss)
        with pytest.raises(TrainingDiverged) as err:
            train_ddpm(data, labels, 2, self.small_cfg())
        snap = err.value.snapshot
        assert snap["step"] == 3 and np.isnan(snap["loss"])
        assert snap["lr"] == self.small_cfg().lr
        assert [row["step"] for row in snap["history"]] == [1, 2]
        norms = list(snap["grad_norms"]["net"].values())
        assert all(np.isfinite(norms)) and any(v != 0.0 for v in norms)

    def test_divergence_in_epoch_2_leaves_the_files_of_epoch_1(self, tmp_path, monkeypatch):
        data, labels = self.toy_data()            # 4 steps per epoch
        train_ddpm(data, labels, 2, self.small_cfg(epochs=1), out_dir=tmp_path / "one")
        real_loss = diffusion_mod.denoise_loss
        calls = []

        def nan_sixth_loss(*args, **kwargs):
            calls.append(None)
            loss = real_loss(*args, **kwargs)
            return loss + Tensor(np.nan) if len(calls) == 6 else loss

        monkeypatch.setattr(diffusion_mod, "denoise_loss", nan_sixth_loss)
        with pytest.raises(TrainingDiverged) as err:
            train_ddpm(data, labels, 2, self.small_cfg(epochs=2), out_dir=tmp_path / "two")
        # the snapshot holds the rows since the best epoch's end
        assert [row["step"] for row in err.value.snapshot["history"]] == [5]
        one, two = tmp_path / "one", tmp_path / "two"
        assert sorted(p.name for p in two.iterdir()) == [
            "ddpm_best.ckpt", "ddpm_last.ckpt", "ddpm_losses.csv"]
        rows = (two / "ddpm_losses.csv").read_text().splitlines()
        assert len(rows) == 5 and rows == (one / "ddpm_losses.csv").read_text().splitlines()
        for name in ("ddpm_last.ckpt", "ddpm_best.ckpt"):
            want, got = load_checkpoint(one / name), load_checkpoint(two / name)
            assert got.step == want.step and got.arrays.keys() == want.arrays.keys()
            assert all(np.array_equal(v, want.arrays[k]) for k, v in got.arrays.items()), name

    def test_ema_evaluated_loss_is_smoother(self):
        # fixed validation draw, noisy-plateau regime (high lr, small batch):
        # step-to-step variation then comes only from the weights, which the
        # EMA explicitly smooths
        data, labels = self.toy_data()
        cfg = self.small_cfg(lr=2e-2, batch_size=4)
        rng = np.random.default_rng(cfg.seed)
        sched = BetaSchedule.linear(cfg.schedule_steps)
        net = UNet1D(2, 8, 2, cfg, rng)
        params = net.named_parameters()
        opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, weight_decay=cfg.weight_decay)
        ema = EmaShadow(params, decay=0.9)
        ema_net = UNet1D(2, 8, 2, cfg, np.random.default_rng(0))

        live_curve, ema_curve = [], []
        for step in range(300):
            idx = rng.integers(0, len(data), size=4)
            net.zero_grad()
            loss = denoise_loss(net, data[idx], labels[idx], sched, 0.0, rng)
            backward(loss)
            opt.step()
            ema.update(params)
            if step < 150:  # measure once the descent has flattened
                continue
            with no_grad():
                fixed = np.random.default_rng(999)
                live_curve.append(denoise_loss(net, data[:8], labels[:8], sched,
                                               0.0, fixed).item())
                ema_net.load_state(ema.shadow)
                fixed = np.random.default_rng(999)
                ema_curve.append(denoise_loss(ema_net, data[:8], labels[:8], sched,
                                              0.0, fixed).item())
        assert np.var(ema_curve) < np.var(live_curve)
