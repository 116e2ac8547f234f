import types

import numpy as np
import pytest

import gyromoe.diffmath as dm
from gyromoe.diffmath import DiffContext, Param
from gyromoe.errors import ConfigError
from gyromoe.optim import TRAIN_CHUNK, Adam, fit


def quadratic_step(p):
    ctx = DiffContext()
    loss = dm.mean(ctx, dm.square(ctx, p))
    dm.backward(loss, ctx)
    return float(loss.data)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Param(np.array([3.0, -2.0, 0.5]))
        opt = Adam([p], lr=0.05, clip_norm=None)
        losses = []
        for _ in range(400):
            opt.zero_grad()
            losses.append(quadratic_step(p))
            opt.step()
        assert losses[-1] < 1e-4 < losses[0]

    def test_first_step_size_is_learning_rate(self):
        p = Param(np.array([1.0, -4.0]))
        opt = Adam([p], lr=0.01, clip_norm=None)
        quadratic_step(p)
        opt.step()
        # bias-corrected Adam moves each coordinate by ~lr on step one
        np.testing.assert_allclose(p.tensor.data, [1.0 - 0.01, -4.0 + 0.01], atol=1e-6)

    def test_step_returns_pre_clip_norm(self):
        p = Param(np.array([3.0, 4.0]))
        opt = Adam([p], lr=0.01, clip_norm=0.1)
        quadratic_step(p)  # grad = 2x/n = [3, 4], norm 5
        assert opt.step() == pytest.approx(5.0)

    def test_clipping_matches_manual_scale(self):
        data = np.array([3.0, 4.0])
        p1, p2 = Param(data.copy()), Param(data.copy())
        clipped = Adam([p1], lr=0.01, clip_norm=0.5)
        free = Adam([p2], lr=0.01, clip_norm=None)
        quadratic_step(p1)
        quadratic_step(p2)
        p2.grad.data[...] *= 0.5 / 5.0  # what the clip would do
        clipped.step()
        free.step()
        np.testing.assert_allclose(p1.tensor.data, p2.tensor.data, atol=1e-15)

    def test_shared_param_updated_once(self):
        shared = Param(np.array([1.0, 2.0]))
        lone = Param(np.array([1.0, 2.0]))
        twice = Adam([shared, shared], lr=0.01, clip_norm=None)
        once = Adam([lone], lr=0.01, clip_norm=None)
        quadratic_step(shared)
        quadratic_step(lone)
        twice.step()
        once.step()
        np.testing.assert_array_equal(shared.tensor.data, lone.tensor.data)

    def test_zero_grad_clears_buffers(self):
        p = Param(np.ones(3))
        opt = Adam([p])
        quadratic_step(p)
        assert np.abs(p.grad.data).sum() > 0
        opt.zero_grad()
        assert not p.grad.data.any()

    def test_validation(self):
        p = Param(np.ones(2))
        with pytest.raises(ConfigError):
            Adam([p], lr=0.0)
        with pytest.raises(ConfigError):
            Adam([p], beta1=1.0)
        with pytest.raises(ConfigError):
            Adam([p], clip_norm=0.0)
        with pytest.raises(ConfigError):
            Adam([])
        with pytest.raises(ConfigError):
            Adam([np.ones(2)])


class TestTrainChunks:
    def test_fit_cuts_each_minibatch_in_order(self):
        p = Param(np.ones(2))
        store = types.SimpleNamespace(all_params=lambda: [p], clamp_sigma=lambda: None, sigmas=lambda: {})
        config = types.SimpleNamespace(learn_rate=1e-3, grad_clip=1.0, batch_size=12)
        chunks = []

        def chunk_loss(ctx, chunk, rng):
            chunks.append([int(i) for i in chunk])
            return dm.mean(ctx, dm.square(ctx, p))

        n = 20
        fit(store, config, n, chunk_loss, 2, np.random.default_rng(0), "spy")
        rng = np.random.default_rng(0)
        want = []
        for _ in range(2):
            order = list(rng.permutation(n))
            for start in range(0, n, 12):
                batch = order[start : start + 12]
                want += [batch[s : s + TRAIN_CHUNK] for s in range(0, len(batch), TRAIN_CHUNK)]
        assert chunks == want
        assert max(len(c) for c in chunks) == TRAIN_CHUNK < config.batch_size

    def test_clip_scale_fires_only_above_the_limit(self):
        opt = Adam([Param(np.ones(2))], clip_norm=2.0)
        assert opt.clip_scale(2.0) == 1.0 and opt.clip_scale(4.0) == 0.5
        assert Adam([Param(np.ones(2))], clip_norm=None).clip_scale(1e9) == 1.0
