import numpy as np
import pytest

import gyromoe.diffmath as dm
from gyromoe.diffmath import DiffContext, Param
from gyromoe.errors import ConfigError
from gyromoe.optim import TRAIN_CHUNK, Adam, train_chunks


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
    def test_stable_sort_by_key_then_cut(self):
        keys = [3, 1, 3, 2, 1] * 6
        batch = np.random.default_rng(0).permutation(len(keys))
        chunks = train_chunks(batch, keys)
        flat = [i for c in chunks for i in c]
        assert sorted(flat) == sorted(batch)
        assert flat == sorted(batch, key=lambda i: keys[i])  # stable
        assert all(len({keys[i] for i in c}) == 1 and 1 <= len(c) <= TRAIN_CHUNK for c in chunks)
        # one run of a key is cut into as few chunks as the cap allows
        for k in set(keys):
            n = keys.count(k)
            assert sum(keys[c[0]] == k for c in chunks) == -(-n // TRAIN_CHUNK)

    def test_without_keys_batch_order_is_kept(self):
        batch = np.array([5, 2, 9, 0, 7, 1, 3, 8, 4, 6, 11, 10])
        chunks = train_chunks(batch)
        assert [i for c in chunks for i in c] == list(batch)
        n = len(batch)
        assert [len(c) for c in chunks] == [min(TRAIN_CHUNK, n - s) for s in range(0, n, TRAIN_CHUNK)]

    def test_clip_scale_fires_only_above_the_limit(self):
        opt = Adam([Param(np.ones(2))], clip_norm=2.0)
        assert opt.clip_scale(2.0) == 1.0 and opt.clip_scale(4.0) == 0.5
        assert Adam([Param(np.ones(2))], clip_norm=None).clip_scale(1e9) == 1.0
