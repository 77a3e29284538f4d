"""WGAN-GP components: projection identity, gradient-penalty closed forms,
and the training loop's plumbing and determinism."""

import numpy as np
import pytest

import artifactgen.gan as gan_mod
from artifactgen.gan import (
    GanTrainConfig,
    GeneratorNet,
    ProjectionCritic,
    gradient_penalty,
    train_wgan,
)
from artifactgen.nn import Adam, Tensor, load_checkpoint, no_grad
from artifactgen.training import TrainingDiverged

C, L, K = 3, 50, 2


def section(arrays, prefix):
    """The arrays under ``prefix`` of a checkpoint's names, without it."""
    return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}


def small_cfg(**kw):
    base = dict(latent_dim=8, channels=(16, 16, 8, 8), batch_size=8, n_critic=2,
                lr=1e-3, epochs=1, seed=1)
    base.update(kw)
    return GanTrainConfig(**base)


def toy_windows(n=32, seed=0):
    """Two spectrally separated classes of sine windows in [-1, 1]."""
    rng = np.random.default_rng(seed)
    t = np.arange(L) / 250.0
    data, labels = [], []
    for i in range(n):
        label = i % K
        freq = 5.0 if label == 0 else 40.0
        phase = rng.uniform(0, 2 * np.pi)
        wave = 0.8 * np.sin(2 * np.pi * freq * t + phase)
        data.append(np.tile(wave, (C, 1)))
        labels.append(label)
    return np.asarray(data), np.asarray(labels)


class TestGenerator:
    def test_deterministic_given_inputs(self):
        cfg = small_cfg()
        rngs = [np.random.default_rng(3), np.random.default_rng(3)]
        gens = [GeneratorNet(C, L, K, cfg, r) for r in rngs]
        z = np.random.default_rng(0).standard_normal((4, cfg.latent_dim))
        y = np.array([0, 1, 0, 1])
        with no_grad():
            out1, out2 = gens[0](z, y).data, gens[1](z, y).data
        assert np.array_equal(out1, out2)

    def test_output_shape_and_tanh_range(self):
        cfg = small_cfg()
        gen = GeneratorNet(C, L, K, cfg, np.random.default_rng(0))
        z = np.random.default_rng(1).standard_normal((64, cfg.latent_dim))
        y = np.random.default_rng(2).integers(0, K, 64)
        with no_grad():
            out = gen(z, y).data
        assert out.shape == (64, C, L)
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_label_changes_output(self):
        cfg = small_cfg()
        gen = GeneratorNet(C, L, K, cfg, np.random.default_rng(0))
        z = np.random.default_rng(1).standard_normal((1, cfg.latent_dim))
        with no_grad():
            d = np.linalg.norm(gen(z, np.array([0])).data - gen(z, np.array([1])).data)
        assert d > 0.0

    def test_label_range_validated(self):
        cfg = small_cfg()
        gen = GeneratorNet(C, L, K, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="label"):
            gen(np.zeros((1, cfg.latent_dim)), np.array([K]))


class TestProjectionCritic:
    def make(self, seed=0):
        return ProjectionCritic(C, L, K, small_cfg(), np.random.default_rng(seed))

    def test_projection_identity(self):
        critic = self.make()
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(256, C, L))
        y = rng.integers(0, K, 256)
        with no_grad():
            scores = critic(Tensor(x), y).data
            phi = critic.features(Tensor(x)).data
        base = phi @ critic.head.weight.data[:, 0]
        proj = np.sum(phi * critic.embed.weight.data[y], axis=1)
        assert np.max(np.abs(scores - (base + proj))) < 1e-12

    def test_zero_embedding_score_independent_of_label(self):
        critic = self.make()
        critic.embed.weight.data[:] = 0.0
        x = np.random.default_rng(1).uniform(-1, 1, (8, C, L))
        with no_grad():
            s0 = critic(Tensor(x), np.zeros(8, dtype=int)).data
            s1 = critic(Tensor(x), np.ones(8, dtype=int)).data
        assert np.array_equal(s0, s1)

    def test_score_difference_is_embedding_projection(self):
        critic = self.make()
        x = np.random.default_rng(2).uniform(-1, 1, (16, C, L))
        with no_grad():
            s0 = critic(Tensor(x), np.zeros(16, dtype=int)).data
            s1 = critic(Tensor(x), np.ones(16, dtype=int)).data
            phi = critic.features(Tensor(x)).data
        expected = phi @ (critic.embed.weight.data[0] - critic.embed.weight.data[1])
        assert np.allclose(s0 - s1, expected, atol=1e-12)

    def test_doubling_head_doubles_base_term_only(self):
        critic = self.make()
        x = np.random.default_rng(3).uniform(-1, 1, (8, C, L))
        y = np.zeros(8, dtype=int)
        with no_grad():
            before = critic(Tensor(x), y).data
            phi = critic.features(Tensor(x)).data
        base = phi @ critic.head.weight.data[:, 0]
        critic.head.weight.data *= 2.0
        with no_grad():
            after = critic(Tensor(x), y).data
        assert np.allclose(after - before, base, atol=1e-12)

    def test_head_scaling_preserves_ranking(self):
        # the score is linear in (w, e_y): scaling both scales scores by c > 0
        critic = self.make()
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (32, C, L))
        y = rng.integers(0, K, 32)
        with no_grad():
            s = critic(Tensor(x), y).data
        critic.head.weight.data *= 3.0
        critic.embed.weight.data *= 3.0
        with no_grad():
            s_scaled = critic(Tensor(x), y).data
        assert np.allclose(s_scaled, 3.0 * s, rtol=1e-12)
        assert np.array_equal(np.argsort(s_scaled), np.argsort(s))


class LinearCritic:
    """D(x) = <v, flatten(x)>: analytic gradient norm ||v|| for every input."""

    def __init__(self, v):
        self.v = Tensor(v, requires_grad=True)

    def __call__(self, x, y):
        return (x.reshape((x.shape[0], -1)) * self.v).sum(axis=1)


class TestGradientPenalty:
    def test_unit_gradient_zero_penalty(self):
        v = np.zeros(C * L)
        v[0] = 1.0
        rng = np.random.default_rng(0)
        pen = gradient_penalty(LinearCritic(v), rng.uniform(-1, 1, (8, C, L)),
                               rng.uniform(-1, 1, (8, C, L)), np.zeros(8, int), 10.0, rng)
        assert abs(pen.item()) < 1e-18

    def test_norm_two_closed_form(self):
        v = np.zeros(C * L)
        v[5] = 2.0
        rng = np.random.default_rng(1)
        pen = gradient_penalty(LinearCritic(v), rng.uniform(-1, 1, (16, C, L)),
                               rng.uniform(-1, 1, (16, C, L)), np.zeros(16, int), 10.0, rng)
        assert pen.item() == pytest.approx(10.0, abs=1e-9)

    def test_penalty_nonnegative(self):
        critic = ProjectionCritic(C, L, K, small_cfg(), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _ in range(5):
            pen = gradient_penalty(critic, rng.uniform(-1, 1, (4, C, L)),
                                   rng.uniform(-1, 1, (4, C, L)),
                                   rng.integers(0, K, 4), 10.0, rng)
            assert pen.item() >= 0.0

    def test_penalty_backprop_reaches_critic_params(self):
        critic = ProjectionCritic(C, L, K, small_cfg(), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        pen = gradient_penalty(critic, rng.uniform(-1, 1, (4, C, L)),
                               rng.uniform(-1, 1, (4, C, L)), rng.integers(0, K, 4),
                               10.0, rng)
        from artifactgen.nn import backward
        backward(pen)
        norms = [np.abs(p.grad.data).max() for p in critic.parameters() if p.grad is not None]
        assert max(norms) > 0.0


class TestTrainLoop:
    def test_single_step_updates_touched_params_only(self):
        data, labels = toy_windows(8)
        labels[:] = 0  # class 1 never sampled -> its embedding row must not move
        cfg = small_cfg(n_critic=1, lambda_gp=0.0, epochs=1, batch_size=8)
        result = train_wgan(data, labels, K, cfg)
        # same construction order as the trainer: generator first, then critic
        rng = np.random.default_rng(cfg.seed)
        gen_ref = GeneratorNet(C, L, K, cfg, rng)
        ref = ProjectionCritic(C, L, K, cfg, rng)
        emb_before = ref.embed.weight.data
        emb_after = result.critic.embed.weight.data
        assert np.array_equal(emb_before[1], emb_after[1])
        assert not np.array_equal(emb_before[0], emb_after[0])
        assert not np.array_equal(gen_ref.fc.weight.data, result.generator.fc.weight.data)

    def test_history_and_determinism(self):
        data, labels = toy_windows(32)
        cfg = small_cfg(epochs=2)
        r1 = train_wgan(data, labels, K, cfg)
        r2 = train_wgan(data, labels, K, cfg)
        assert len(r1.history) > 0
        assert r1.history == r2.history  # bit-identical loss log
        assert all(np.isfinite(row["gp"]) and row["gp"] < 10 * cfg.lambda_gp
                   for row in r1.history)

    def test_checkpoint_files(self, tmp_path):
        data, labels = toy_windows(16)
        cfg = small_cfg()
        train_wgan(data, labels, K, cfg, out_dir=tmp_path)
        assert (tmp_path / "gan_losses.csv").exists()
        assert (tmp_path / "gan_best.ckpt").exists()
        lines = (tmp_path / "gan_losses.csv").read_text().splitlines()
        assert lines[0] == "step,d_loss,g_loss,gp"
        assert len(lines) >= 2

    def test_load_generator_round_trip(self, tmp_path):
        from artifactgen.gan import load_generator
        data, labels = toy_windows(16)
        cfg = small_cfg()
        result = train_wgan(data, labels, K, cfg, out_dir=tmp_path)
        gen, meta = load_generator(tmp_path / "gan_best.ckpt")
        z = np.random.default_rng(0).standard_normal((2, cfg.latent_dim))
        y = np.array([0, 1])
        with no_grad():
            ours = gen(z, y).data
        best = GeneratorNet(C, L, K, cfg, np.random.default_rng(0))
        best.load_state(section(result.best_state, "params/generator/"))
        with no_grad():
            expected = best(z, y).data
        assert np.array_equal(ours, expected)

    def test_best_checkpoint_holds_both_nets_of_the_best_step(self, tmp_path):
        data, labels = toy_windows(32)
        result = train_wgan(data, labels, K, small_cfg(epochs=3), out_dir=tmp_path)
        assert result.best_step < len(result.history)
        ck = load_checkpoint(tmp_path / "gan_best.ckpt")
        assert ck.step == result.best_step
        assert ck.arrays.keys() == result.best_state.keys()
        assert all(np.array_equal(v, result.best_state[k]) for k, v in ck.arrays.items())
        critic = section(ck.arrays, "params/critic/")
        assert critic.keys() == result.critic.named_parameters().keys()
        assert not np.array_equal(critic["conv1.weight"], result.critic.conv1.weight.data)

    def test_last_checkpoint_restores_both_optimizers(self, tmp_path, monkeypatch):
        """`gan_last.ckpt` holds the generator's and the critic's Adam: each
        one rebuilt from it has the trained m, v, t and hyperparameters."""
        trained = {}

        class RecordingAdam(Adam):
            def __init__(self, params, *args, **kwargs):
                super().__init__(params, *args, **kwargs)
                trained[len(trained)] = self

        monkeypatch.setattr(gan_mod, "Adam", RecordingAdam)
        data, labels = toy_windows(16)
        cfg = small_cfg(epochs=2)
        result = train_wgan(data, labels, K, cfg, out_dir=tmp_path)
        ck = load_checkpoint(tmp_path / "gan_last.ckpt")
        assert ck.step == len(result.history)
        nets = {"generator": result.generator, "critic": result.critic}
        for (name, net), want in zip(nets.items(), trained.values()):
            restored = Adam(net.named_parameters(), lr=1.0)
            restored.load_state_dict({**ck.meta["optimizers"][name],
                                      "m": section(ck.arrays, f"m/{name}/"),
                                      "v": section(ck.arrays, f"v/{name}/")})
            assert restored.state_dict()["hyper"] == want.state_dict()["hyper"]
            assert restored.m.keys() == want.m.keys() == net.named_parameters().keys()
            for k in want.m:
                assert np.array_equal(restored.m[k], want.m[k]), (name, k)
                assert np.array_equal(restored.v[k], want.v[k]), (name, k)
        assert trained[1].t == cfg.n_critic * trained[0].t == cfg.n_critic * len(result.history)
        assert [ck.meta["optimizers"][k]["t"] for k in nets] == [trained[0].t, trained[1].t]

    def test_range_validation(self):
        data, labels = toy_windows(8)
        with pytest.raises(ValueError, match="min-max"):
            train_wgan(data * 3.0, labels, K, small_cfg())

    def test_nan_aborts_with_snapshot(self, monkeypatch):
        data, labels = toy_windows(32)

        def bad_penalty(*args, **kwargs):
            return Tensor(np.nan)

        monkeypatch.setattr(gan_mod, "gradient_penalty", bad_penalty)
        with pytest.raises(TrainingDiverged) as err:
            train_wgan(data, labels, K, small_cfg())
        snap = err.value.snapshot
        assert {"step", "lr", "grad_norms", "history"} <= set(snap)

    def test_too_few_windows_for_critic_round(self):
        data, labels = toy_windows(8)
        # 8 windows cannot make 2 batches of 8: the batch shrinks to 4
        result = train_wgan(data, labels, K, small_cfg(batch_size=8, n_critic=2))
        assert len(result.history) == 1
        with pytest.raises(ValueError, match="n_critic"):
            train_wgan(data[:1], labels[:1], K, small_cfg(batch_size=8, n_critic=2))
