import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import gyromoe.backbone as bb
import gyromoe.diffmath as dm
from gyromoe import ore
from gyromoe.backbone import BackboneConfig, mask_from_flags
from gyromoe.diffmath import DiffContext
from gyromoe.errors import ConfigError, ContractError, DimensionError
from gyromoe.gate import GateConfig, route
from gyromoe.optim import TRAIN_CHUNK, Adam
from gyromoe.ore import (
    OreConfig,
    corr_loss,
    load_ore,
    ore_total_loss,
    pinn_loss,
    reconstruct,
    save_ore,
    train_ore,
)
from gyromoe.signal import CLIP_EPS, ClipSpec, clip

TINY_BB = BackboneConfig(
    patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2
)


def tiny_config(**kw):
    return OreConfig(clip=ClipSpec(level=1.0), backbone=TINY_BB, **kw)


class TestMasks:
    def test_flags_hide_touched_patches(self):
        flags = np.zeros(12, dtype=bool)
        flags[5] = True
        np.testing.assert_array_equal(mask_from_flags(flags, 4), [False, True, False])

    def test_sample_indices(self):
        # a segment whose samples 5 and 11 sit on the rail hides patches 1 and 2
        clean = np.zeros(12)
        clean[[5, 11]] = 2.0
        _, _, hidden, midx = ore._prepare_segment(clean, tiny_config())
        np.testing.assert_array_equal(hidden, [False, True, True])
        np.testing.assert_array_equal(midx, [4, 5, 6, 7, 8, 9, 10, 11])

    def test_non_tiling_flags_rejected(self):
        with pytest.raises(DimensionError):
            mask_from_flags(np.zeros(10, dtype=bool), 4)


class TestCorrLoss:
    def test_worked_example(self):
        x = np.array([0.0, 1.0, 2.0, 1.0])
        xh = np.array([0.0, 1.0, 1.0, 1.0])
        loss = corr_loss(x, xh, [1, 2, 3], ctx=DiffContext())
        assert float(loss.data) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=16)
        loss = corr_loss(x, x.copy(), np.arange(1, 16), ctx=DiffContext())
        assert float(loss.data) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x, xh = rng.normal(size=12), rng.normal(size=12)
        m = np.sort(rng.choice(np.arange(1, 12), size=5, replace=False))
        loss = corr_loss(x, xh, m, ctx=DiffContext())
        assert float(loss.data) >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_diff_term_oracle_without_pin(self, seed):
        rng = np.random.default_rng(seed)
        x, xh = rng.normal(size=10), rng.normal(size=10)
        m = np.arange(1, 10)
        loss = corr_loss(x, xh, m, lambda_sign=0.0, ctx=DiffContext())
        want = np.mean((np.diff(x) - np.diff(xh)) ** 2)
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_extrema_found_on_true_signal_only(self):
        # true signal flat, prediction wiggly: no extrema, pin term absent
        x = np.linspace(0.0, 1.0, 8)
        xh = np.array([0.0, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.0])
        loss = corr_loss(x, xh, np.arange(1, 8), ctx=DiffContext())
        want = np.mean((np.diff(x) - np.diff(xh)) ** 2)
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_mask_without_usable_index_rejected(self):
        with pytest.raises(ContractError):
            corr_loss(np.zeros(4), np.zeros(4), [0], ctx=DiffContext())

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            corr_loss(np.zeros(4), np.zeros(4), [], ctx=DiffContext())


def barrier_series(e_bar: float) -> np.ndarray:
    # usable index set {2}: e_2 = 0.5*(x3 - x2 - x1 + x0)*(x2 - x1)
    # with x = [0, 0, 1, 1 + 2E] this gives exactly E
    return np.array([0.0, 0.0, 1.0, 1.0 + 2.0 * e_bar])


class TestPinnLoss:
    def test_constant_prediction_value(self):
        loss = pinn_loss(np.full(16, 3.7), np.arange(16), kappa=1.0, ctx=DiffContext())
        assert float(loss.data) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_barrier_series_helper_hits_target_energy(self):
        for e in (-1.3, 0.0, 0.42):
            x = barrier_series(e)
            acc = 0.5 * (x[3] - x[2] - x[1] + x[0])
            assert acc * (x[2] - x[1]) == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_minimum_sits_at_inverse_one_plus_kappa(self, kappa):
        def f(e):
            return float(pinn_loss(barrier_series(e), [2], kappa=kappa, ctx=DiffContext()).data)

        res = minimize_scalar(f, bounds=(-6.0, 6.0), method="bounded", options={"xatol": 1e-12})
        from scipy.special import expit

        assert expit(res.x) == pytest.approx(1.0 / (1.0 + kappa), abs=1e-6)

    def test_loss_value_formula(self):
        from scipy.special import expit

        for e in (-0.8, 0.3, 2.0):
            u = expit(e)
            want = -math.log(u) - 2.0 * math.log(1.0 - u)
            got = float(pinn_loss(barrier_series(e), [2], kappa=2.0, ctx=DiffContext()).data)
            assert got == pytest.approx(want, rel=1e-12)

    def test_no_usable_index_rejected(self):
        with pytest.raises(ContractError):
            pinn_loss(np.zeros(8), [0, 1, 7], ctx=DiffContext())

    def test_bad_kappa_rejected(self):
        with pytest.raises(ConfigError):
            pinn_loss(np.zeros(8), [3], kappa=0.0, ctx=DiffContext())


class TestTotalLoss:
    def test_reduces_to_masked_mse(self):
        cfg = tiny_config(lambda_corr=0.0, lambda_pinn=0.0)
        rng = np.random.default_rng(1)
        x, xh = rng.normal(size=16), rng.normal(size=16)
        m = np.array([4, 5, 6, 7])
        loss = ore_total_loss(x, xh, m, cfg, ctx=DiffContext())
        assert float(loss.data) == pytest.approx(np.mean((x[m] - xh[m]) ** 2), rel=1e-12)

    def test_composition_identity(self):
        cfg = tiny_config()
        rng = np.random.default_rng(2)
        x, xh = rng.normal(size=16), rng.normal(size=16)
        m = np.arange(2, 14)
        total = float(ore_total_loss(x, xh, m, cfg, ctx=DiffContext()).data)
        l2 = np.mean((x[m] - xh[m]) ** 2)
        c = float(corr_loss(x, xh, m, lambda_sign=cfg.lambda_sign, ctx=DiffContext()).data)
        p = float(pinn_loss(xh, m, kappa=cfg.kappa, ctx=DiffContext()).data)
        assert total == pytest.approx(l2 + cfg.lambda_corr * c + cfg.lambda_pinn * p, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_wrt_prediction(self, seed):
        cfg = tiny_config()
        rng = np.random.default_rng(seed)
        x = rng.normal(size=16)
        m = np.sort(rng.choice(np.arange(2, 14), size=6, replace=False))
        rep = dm.grad_check(
            lambda ctx, xh: ore_total_loss(x, xh, m, cfg, ctx=ctx),
            [rng.normal(size=16)],
        )
        assert rep.passed, f"max rel err {rep.max_rel_err:.3e}"

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            ore_total_loss(np.zeros(8), np.zeros(8), [], tiny_config(), ctx=DiffContext())


def peaky_segments(rng, n, seg_len=32, level=1.0):
    """Clean segments whose apex exceeds the rail so clipping bites."""
    out = []
    t = np.linspace(-1.0, 1.0, seg_len)
    for _ in range(n):
        amp = rng.uniform(1.3, 1.9) * level
        width = rng.uniform(0.25, 0.5)
        center = rng.uniform(-0.3, 0.3)
        out.append(amp * np.exp(-((t - center) ** 2) / (2 * width**2)))
    return out


class TestTraining:
    def test_tiny_run_learns_and_is_deterministic(self):
        rng = np.random.default_rng(0)
        segs = peaky_segments(rng, 24)
        cfg = tiny_config(batch_size=8)
        params1, trace1 = train_ore(segs, cfg, epochs=3, seed=7)
        params2, trace2 = train_ore(segs, cfg, epochs=3, seed=7)
        assert trace1.step_losses == trace2.step_losses
        for name, arr in params1.to_arrays().items():
            np.testing.assert_array_equal(arr, params2.to_arrays()[name])
        assert trace1.epoch_means[-1] < trace1.epoch_means[0]
        assert trace1.skipped_segments == 0

    def test_segments_missing_the_rail_are_skipped(self):
        rng = np.random.default_rng(1)
        segs = peaky_segments(rng, 8) + [np.full(32, 0.2), np.zeros(32)]
        _, trace = train_ore(segs, tiny_config(batch_size=4), epochs=1, seed=0)
        assert trace.skipped_segments == 2

    def test_all_quiet_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_ore([np.zeros(32)], tiny_config(), epochs=1, seed=0)


def first_step_grads(monkeypatch):
    """Patch Adam.step to keep a copy of every gradient it is handed."""
    seen = []
    step = Adam.step

    def keep(self):
        seen.append([p.grad.data.copy() for p in self.params])
        return step(self)

    monkeypatch.setattr(Adam, "step", keep)
    return seen


def assert_grads_close(got, want, rel=1e-12):
    """Every gradient entry within ``rel`` of the largest entry of all. The
    scale is global: a buffer whose exact gradient is zero (a key bias,
    which softmax ignores) holds rounding noise only."""
    assert len(got) == len(want)
    scale = max(np.abs(w).max() for w in want)
    worst = max(np.abs(g - w).max() for g, w in zip(got, want))
    assert worst <= rel * scale, (worst, scale)


class TestChunkedTapes:
    """fit records one tape per chunk of the minibatch, whose rows may hide
    different numbers of patches."""

    def corpus(self):
        segs = peaky_segments(np.random.default_rng(3), 20)
        cfg = tiny_config(batch_size=len(segs))
        prepared = [ore._prepare_segment(s, cfg) for s in segs]
        return segs, cfg, prepared

    def test_gradient_equals_sum_of_per_segment_tapes(self, monkeypatch):
        segs, cfg, prepared = self.corpus()
        visible = {int((~m).sum()) for _, _, m, _ in prepared}
        assert len(visible) >= 3 and None not in prepared
        seen = first_step_grads(monkeypatch)
        train_ore(segs, cfg, epochs=1, seed=9)
        # reference: one B=1 tape per segment, each weighted 1/B
        params = bb.init_params(cfg.backbone, np.random.default_rng(9))
        for x_in, x_tgt, mask, midx in prepared:
            ctx = DiffContext()
            pred = bb.forward(ctx, params, cfg.backbone, x_in[None], mask[None])
            loss = ore_total_loss(x_tgt, dm.reshape(ctx, pred, x_tgt.shape), midx, cfg, ctx=ctx)
            dm.backward(dm.scale(ctx, loss, 1.0 / len(prepared)), ctx)
        assert_grads_close(seen[0], [p.grad.data for p in params.all_params()])

    def test_chunks_are_the_minibatch_cut_in_order(self, monkeypatch):
        segs, cfg, prepared = self.corpus()
        calls = []
        forward = bb.forward

        def spy(ctx, params, config, values, masks):
            calls.append(([row.tobytes() for row in values], [int(m.sum()) for m in masks]))
            return forward(ctx, params, config, values, masks)

        monkeypatch.setattr(bb, "forward", spy)
        train_ore(segs, cfg, epochs=2, seed=9)
        # the same draws train_ore makes: parameters first, then one permutation per epoch
        rng = np.random.default_rng(9)
        bb.init_params(cfg.backbone, rng)
        orders = [rng.permutation(len(prepared)) for _ in range(2)]
        assert cfg.batch_size == len(prepared)
        want = [order[s : s + TRAIN_CHUNK] for order in orders for s in range(0, len(order), TRAIN_CHUNK)]
        index = {x_in.tobytes(): i for i, (x_in, _, _, _) in enumerate(prepared)}
        assert [[index[row] for row in rows] for rows, _ in calls] == [list(c) for c in want]
        assert all(len(rows) <= TRAIN_CHUNK for rows, _ in calls)
        assert any(len(set(hidden)) > 1 for _, hidden in calls)

    def test_trace_keeps_norms_clips_and_sigma(self):
        segs = peaky_segments(np.random.default_rng(4), 12)
        cfg = tiny_config(batch_size=4, grad_clip=0.05)
        _, trace = train_ore(segs, cfg, epochs=2, seed=1)
        steps = len(trace.step_losses)
        assert steps == 6
        assert len(trace.grad_norms) == len(trace.clipped) == len(trace.gd_sigma) == steps
        assert trace.clipped == [n > 0.05 for n in trace.grad_norms]
        bbc = cfg.backbone
        assert all(set(s) == {"gd_sigma"} for s in trace.gd_sigma)
        assert all(bbc.sigma_min <= s["gd_sigma"] <= bbc.sigma_max for s in trace.gd_sigma)


class TestReconstruct:
    def test_untouched_segment_passes_through(self):
        cfg = tiny_config()
        params, _ = train_ore(peaky_segments(np.random.default_rng(2), 8), cfg, epochs=1, seed=1)
        windows = np.linspace(-0.5, 0.5, 32)[None]
        out = reconstruct(windows, params, cfg)
        assert out.shape == (1, 32) and out is not windows
        np.testing.assert_array_equal(out, windows)
        assert reconstruct(windows[:0], params, cfg).shape == (0, 32)
        # the windows of one call form one [k, L] batch
        with pytest.raises(DimensionError):
            reconstruct(windows[0], params, cfg)

    def test_only_saturated_samples_change(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        params, _ = train_ore(peaky_segments(rng, 8), cfg, epochs=1, seed=2)
        level = cfg.clip.level
        railed = clip(peaky_segments(rng, 1)[0], cfg.clip)
        # off the rail run: one sample just inside the rail tolerance, one just outside it
        railed[1] = level * (1 - CLIP_EPS / 2)
        railed[30] = level * (1 - 2 * CLIP_EPS)
        # the expert must change exactly the samples the gate counts as on the rail
        decision = route(railed, GateConfig(clip=cfg.clip, segment_len=32))
        on_rail = np.zeros(railed.size, dtype=bool)
        for s, e in decision.clipped_ranges:
            on_rail[s:e] = True
        assert decision.peak and on_rail[1] and not on_rail[30]
        out = reconstruct(railed[None], params, cfg)[0]
        changed = out.view(np.int64) != railed.view(np.int64)
        np.testing.assert_array_equal(changed, on_rail)

    def test_padding_is_not_treated_as_saturated(self):
        cfg = tiny_config()
        params, _ = train_ore(peaky_segments(np.random.default_rng(4), 8), cfg, epochs=1, seed=3)
        vals = np.zeros(32)
        vals[:6] = 0.3
        out = reconstruct(vals[None], params, cfg)[0]
        np.testing.assert_array_equal(out, vals)


class TestCheckpointGlue:
    def test_round_trip_preserves_predictions(self, tmp_path):
        cfg = tiny_config()
        rng = np.random.default_rng(5)
        params, _ = train_ore(peaky_segments(rng, 8), cfg, epochs=1, seed=4)
        path = tmp_path / "ore.ckpt"
        save_ore(path, params, cfg)
        params2, cfg2 = load_ore(path)
        assert cfg2.clip.level == cfg.clip.level
        assert cfg2.backbone == cfg.backbone
        windows = clip(peaky_segments(rng, 1)[0], cfg.clip)[None]
        np.testing.assert_array_equal(
            reconstruct(windows, params, cfg), reconstruct(windows, params2, cfg2)
        )

    def test_wrong_kind_rejected(self, tmp_path):
        from gyromoe.denoise import AugmentConfig, DeConfig, save_de, train_de
        from gyromoe.signal import make_snippet_pool

        rng = np.random.default_rng(6)
        noise = [rng.normal(0, 0.05, size=32) for _ in range(6)]
        pool = make_snippet_pool(rng, 4, (8, 16), 100.0)
        de_cfg = DeConfig(clip=ClipSpec(level=1.0), backbone=TINY_BB, batch_size=4)
        de_params, _ = train_de(noise, 100.0, AugmentConfig(pool), de_cfg, epochs=1, seed=0)
        path = tmp_path / "de.ckpt"
        save_de(path, de_params, de_cfg)
        with pytest.raises(ConfigError):
            load_ore(path)
