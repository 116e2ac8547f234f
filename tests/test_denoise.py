import sys

import numpy as np
import pytest

import gyromoe.backbone as bb
import gyromoe.diffmath as dm
from gyromoe.backbone import BackboneConfig, init_params, is_encoder_param, param_spec
from gyromoe.denoise import (
    SHARE_MODES,
    AugmentConfig,
    DeConfig,
    augment_segment,
    branch_loss,
    build_de_params,
    cross_masks,
    de_pair_loss,
    denoise,
    dual_forward,
    fuse,
    inject_weak_signal,
    load_de,
    noise_floor,
    save_de,
    spectral_corruption,
    train_de,
)
from gyromoe.diffmath import DiffContext, grad_check
from gyromoe.errors import ConfigError, ContractError, DimensionError
from gyromoe.optim import Adam
from gyromoe.signal import (
    ClipSpec,
    SampleSeries,
    SpectralDensity,
    make_snippet_pool,
    psd,
)

TINY_BB = BackboneConfig(
    patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2
)


def tiny_config(**kw):
    return DeConfig(clip=ClipSpec(level=1.0), backbone=TINY_BB, **kw)


def flat_density(n, fs, level=1.0):
    k = n // 2 + 1
    return SpectralDensity(np.linspace(0.0, fs / 2.0, k), np.full(k, level))


class TestCrossMasks:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_complementary_and_covering(self, n):
        a, b = cross_masks(n)
        assert a.shape == b.shape == (n,) and a.dtype == b.dtype == bool
        assert (a | b).all()
        assert not (a & b).any()

    def test_parity_assignment(self):
        a, b = cross_masks(6)
        np.testing.assert_array_equal(np.flatnonzero(a), [1, 3, 5])
        np.testing.assert_array_equal(np.flatnonzero(b), [0, 2, 4])

    def test_single_patch_rejected(self):
        with pytest.raises(ContractError):
            cross_masks(1)


class TestFuse:
    def test_takes_each_branch_at_its_hidden_patches(self):
        a, b = cross_masks(4)
        pred_a, pred_b = np.full(8, 1.0), np.full(8, 2.0)
        out = fuse(pred_a, pred_b, a, b, patch_len=2)
        # even patches hidden in B, odd patches hidden in A
        np.testing.assert_array_equal(out, [2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0])

    def test_identical_branches_fuse_to_same(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        a, b = cross_masks(3)
        np.testing.assert_array_equal(fuse(x, x, a, b, 4), x)

    def test_non_complementary_rejected(self):
        a = np.array([True, False])
        with pytest.raises(ContractError):
            fuse(np.zeros(4), np.zeros(4), a, a, 2)
        with pytest.raises(ContractError):
            fuse(np.zeros(4), np.zeros(4), a, np.zeros(2, dtype=bool), 2)

    def test_masks_must_tile_the_segment(self):
        a, b = cross_masks(4)
        with pytest.raises(DimensionError):
            fuse(np.zeros(8), np.zeros(8), a, b[:3], 2)
        with pytest.raises(DimensionError):
            fuse(np.zeros(6), np.zeros(6), a, b, 2)


class TestNoiseFloor:
    def test_odd_count_median(self):
        d = SpectralDensity(np.arange(3.0), np.array([1.0, 2.0, 3.0]))
        assert noise_floor(d) == 2.0

    def test_even_count_median(self):
        d = SpectralDensity(np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0]))
        assert noise_floor(d) == 2.5

    def test_white_noise_floor_near_theory(self):
        # median of one periodogram sits low; average densities across seeds
        fs, n, sigma = 100.0, 1024, 0.3
        floors = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            series = SampleSeries(rng.normal(0.0, sigma, size=n), fs)
            floors.append(np.mean(psd(series).power[1:-1]))
        theory = 2.0 * sigma**2 / fs
        assert np.mean(floors) == pytest.approx(theory, rel=0.05)
        # and the in-package median estimator lands within 30% even per draw
        rng = np.random.default_rng(99)
        one = noise_floor(psd(SampleSeries(rng.normal(0.0, sigma, size=n), fs)))
        assert abs(one - theory) / theory < 0.5


class TestInjection:
    def test_alpha_formula(self):
        rng = np.random.default_rng(0)
        noise = SampleSeries(np.zeros(64), 100.0)
        snippet = np.array([0.5, -2.0, 1.0])
        res = inject_weak_signal(noise, snippet, beta=1.0, rng=rng, floor=4.0)
        assert res.alpha == pytest.approx(1.0)

    def test_alpha_scales_linearly_with_beta(self):
        noise = SampleSeries(np.zeros(64), 100.0)
        snippet = np.array([1.0, -1.0])
        r1 = inject_weak_signal(noise, snippet, 2.0, np.random.default_rng(1), floor=1.0)
        r2 = inject_weak_signal(noise, snippet, 8.0, np.random.default_rng(1), floor=1.0)
        assert r2.alpha == pytest.approx(4.0 * r1.alpha)

    def test_snippet_lands_at_offset_and_copies_match(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=128)
        noise = SampleSeries(base.copy(), 50.0)
        snippet = np.sin(np.linspace(0, 3, 16))
        res = inject_weak_signal(noise, snippet, 4.0, rng, floor=0.01)
        assert 0 <= res.offset <= 128 - 16
        lo, hi = res.offset, res.offset + 16
        np.testing.assert_allclose(res.x_clean[lo:hi] - base[lo:hi], res.alpha * snippet)
        outside = np.ones(128, dtype=bool)
        outside[lo:hi] = False
        np.testing.assert_array_equal(res.x_clean[outside], base[outside])

    def test_zero_snippet_rejected(self):
        with pytest.raises(ContractError):
            inject_weak_signal(
                SampleSeries(np.zeros(32), 10.0), np.zeros(4), 1.0, np.random.default_rng(0), floor=1.0
            )

    def test_oversized_snippet_rejected(self):
        with pytest.raises(ContractError):
            inject_weak_signal(
                SampleSeries(np.zeros(8), 10.0), np.ones(9), 1.0, np.random.default_rng(0), floor=1.0
            )


class TestSpectralCorruption:
    def test_zero_gain_is_exact_copy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        out = spectral_corruption(x, 100.0, flat_density(64, 100.0), 0.0, rng)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_added_component_matches_requested_density(self):
        # corrupting a zero record leaves exactly the synthetic noise, whose
        # periodogram is deterministic given the magnitudes
        fs, n, gain = 100.0, 256, 1.5
        rng = np.random.default_rng(4)
        out = spectral_corruption(np.zeros(n), fs, flat_density(n, fs, 0.02), gain, rng)
        d = psd(SampleSeries(out, fs))
        np.testing.assert_allclose(d.power[1:], gain * 0.02, rtol=1e-9)

    def test_mean_is_preserved(self):
        rng = np.random.default_rng(5)
        x = rng.normal(2.0, 1.0, size=128)
        out = spectral_corruption(x, 10.0, flat_density(128, 10.0), 2.0, rng)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-12)

    def test_white_on_white_doubles_the_floor(self):
        fs, n, sigma = 100.0, 512, 0.5
        levels = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = rng.normal(0.0, sigma, size=n)
            d = psd(SampleSeries(x, fs))
            out = spectral_corruption(x, fs, d, 1.0, rng)
            levels.append(np.mean(psd(SampleSeries(out, fs)).power[1:-1]))
        theory = 2.0 * 2.0 * sigma**2 / fs  # (1 + gain) times the white level
        assert np.mean(levels) == pytest.approx(theory, rel=0.1)

    def test_density_bin_count_checked(self):
        from gyromoe.errors import DimensionError

        with pytest.raises(DimensionError):
            spectral_corruption(
                np.zeros(64), 10.0, flat_density(32, 10.0), 1.0, np.random.default_rng(0)
            )


def scalar_count(params) -> int:
    return sum(p.tensor.data.size for p in params.all_params())


class TestWeightSharing:
    def test_full_share_matches_single_backbone(self):
        rng = np.random.default_rng(6)
        single = init_params(TINY_BB, np.random.default_rng(6))
        dp = build_de_params(tiny_config(weight_share="both"), rng)
        assert scalar_count(dp) == scalar_count(single)

    def test_no_share_doubles_the_count(self):
        rng = np.random.default_rng(7)
        single = init_params(TINY_BB, np.random.default_rng(7))
        dp = build_de_params(tiny_config(weight_share="none"), rng)
        assert scalar_count(dp) == 2 * scalar_count(single)

    def test_partial_modes_sit_strictly_between(self):
        single = scalar_count(init_params(TINY_BB, np.random.default_rng(8)))
        counts = {}
        for mode in ("encoder", "decoder"):
            dp = build_de_params(tiny_config(weight_share=mode), np.random.default_rng(8))
            counts[mode] = scalar_count(dp)
            assert single < counts[mode] < 2 * single
        assert counts["encoder"] + counts["decoder"] == 3 * single

    def test_array_names_reflect_sharing(self):
        both = build_de_params(tiny_config(weight_share="both"), np.random.default_rng(9))
        none = build_de_params(tiny_config(weight_share="none"), np.random.default_rng(9))
        assert all(not k.startswith(("a.", "b.")) for k in both.to_arrays())
        assert all(k.startswith(("a.", "b.")) for k in none.to_arrays())

    def test_shared_buffer_is_aliased(self):
        dp = build_de_params(tiny_config(weight_share="encoder"), np.random.default_rng(10))
        assert dp.branch_a["embed.w"] is dp.branch_b["embed.w"]
        assert dp.branch_a["head.w"] is not dp.branch_b["head.w"]

    @pytest.mark.parametrize("mode", SHARE_MODES)
    def test_parameter_order_and_names(self, mode):
        # Adam sums the gradient norm in all_params() order, so trained
        # checkpoint bytes depend on it: every branch-A buffer in spec
        # order, then the branch-B buffers A does not share
        dp = build_de_params(tiny_config(weight_share=mode), np.random.default_rng(21))
        names = [name for name, _, _ in param_spec(TINY_BB)]
        shared = {
            "both": names,
            "none": [],
            "encoder": [n for n in names if is_encoder_param(n)],
            "decoder": [n for n in names if not is_encoder_param(n)],
        }[mode]
        assert all((dp.branch_a[n] is dp.branch_b[n]) == (n in shared) for n in names)
        want = [dp.branch_a[n] for n in names] + [dp.branch_b[n] for n in names if n not in shared]
        assert [id(p) for p in dp.all_params()] == [id(p) for p in want]
        own = [f"{side}.{n}" for n in names if n not in shared for side in "ab"]
        assert set(dp.to_arrays()) == set(shared) | set(own)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(weight_share="all")

    @pytest.mark.parametrize("learn_rate", [0.0, -1e-3])
    def test_nonpositive_learn_rate_rejected(self, learn_rate):
        with pytest.raises(ConfigError, match="learn_rate"):
            tiny_config(learn_rate=learn_rate)


class TestBranchLoss:
    def test_masked_mse_oracle(self):
        rng = np.random.default_rng(11)
        target, pred = rng.normal(size=16), rng.normal(size=16)
        mask_a, _ = cross_masks(4)
        loss = branch_loss(target, pred, mask_a, 4, ctx=DiffContext())
        idx = np.concatenate([np.arange(4, 8), np.arange(12, 16)])
        assert float(loss.data) == pytest.approx(np.mean((target[idx] - pred[idx]) ** 2), rel=1e-12)
        # a constant prediction with no context given gets a fresh one
        const = branch_loss(np.arange(16.0), dm.constant(np.zeros(16)), mask_a, 4)
        assert float(const.data) == pytest.approx(np.mean(idx.astype(float) ** 2), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_wrt_prediction(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=16)
        mask_a, mask_b = cross_masks(4)
        rep = grad_check(
            lambda ctx, pred: branch_loss(target, pred, mask_a, 4, ctx=ctx),
            [rng.normal(size=16)],
        )
        assert rep.passed, f"max rel err {rep.max_rel_err:.3e}"


def noise_corpus(rng, n, seg_len=32, sigma=0.05):
    return [rng.normal(0.0, sigma, size=seg_len) for _ in range(n)]


def snippet_pool(rng):
    return make_snippet_pool(rng, 4, (8, 16), 100.0)


class TestTraining:
    def test_tiny_run_learns_and_is_deterministic(self):
        rng = np.random.default_rng(12)
        segs = noise_corpus(rng, 12)
        aug = AugmentConfig(snippet_pool(rng))
        cfg = tiny_config(batch_size=4)
        p1, t1 = train_de(segs, 100.0, aug, cfg, epochs=3, seed=5)
        p2, t2 = train_de(segs, 100.0, aug, cfg, epochs=3, seed=5)
        assert t1.step_losses == t2.step_losses
        for name, arr in p1.to_arrays().items():
            np.testing.assert_array_equal(arr, p2.to_arrays()[name])
        assert t1.epoch_means[-1] < t1.epoch_means[0]

    def test_mixed_lengths_rejected(self):
        rng = np.random.default_rng(13)
        segs = [rng.normal(size=32), rng.normal(size=28)]
        with pytest.raises(ContractError):
            train_de(segs, 100.0, AugmentConfig(snippet_pool(rng)), tiny_config(), 1, 0)

    def test_single_patch_corpus_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ContractError):
            train_de([rng.normal(size=4)], 100.0, AugmentConfig([np.ones(2)]), tiny_config(), 1, 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_de([], 100.0, AugmentConfig([np.ones(2)]), tiny_config(), 1, 0)

    def test_empty_snippet_pool_rejected(self):
        rng = np.random.default_rng(15)
        series = SampleSeries(rng.normal(size=32), 100.0)
        with pytest.raises(ConfigError, match="snippet pool"):
            augment_segment(series, AugmentConfig([]), rng)
        with pytest.raises(ConfigError, match="snippet pool"):
            train_de(noise_corpus(rng, 2), 100.0, AugmentConfig([]), tiny_config(), 1, 0)


class TestDualForward:
    @pytest.mark.parametrize("n_patches", [8, 5])
    @pytest.mark.parametrize("mode", SHARE_MODES)
    def test_matches_one_forward_per_branch(self, monkeypatch, mode, n_patches):
        # the reference is two separate backbone passes, one per branch
        cfg = tiny_config(weight_share=mode)
        x, target = np.random.default_rng(40).normal(size=(2, 3, 4 * n_patches))
        mask_a, mask_b = cross_masks(n_patches)
        params = build_de_params(cfg, np.random.default_rng(41))

        def reference(ctx, params):
            return (bb.forward(ctx, params.branch_a, TINY_BB, x, mask_a),
                    bb.forward(ctx, params.branch_b, TINY_BB, x, mask_b))

        want = reference(DiffContext(record=False), params)
        passes = []
        forward = bb.forward

        def counted(*args):
            passes.append(np.shape(args[3]))
            return forward(*args)

        monkeypatch.setattr(bb, "forward", counted)
        got = dual_forward(DiffContext(record=False), params, cfg, x, mask_a, mask_b)
        # one stacked pass when the branches share every buffer and hide as many patches each
        assert passes == ([(2, *x.shape)] if mode == "both" and n_patches % 2 == 0 else [x.shape] * 2)
        for g, w in zip(got, want):
            assert g.shape == w.shape == x.shape
            np.testing.assert_array_equal(g.data.view(np.int64), w.data.view(np.int64))

        def grads(run):
            params = build_de_params(cfg, np.random.default_rng(41))
            ctx = DiffContext()
            pred_a, pred_b = run(ctx, params)
            dm.backward(de_pair_loss(target, pred_a, pred_b, mask_a, mask_b, 4, ctx=ctx), ctx)
            return [p.grad.data for p in params.all_params()]

        got = grads(lambda ctx, params: dual_forward(ctx, params, cfg, x, mask_a, mask_b))
        want = grads(reference)
        # relative to the largest entry of all, as in TestChunkedTapes
        scale = max(np.abs(w).max() for w in want)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-12 * scale


class TestChunkedTapes:
    @pytest.mark.parametrize("mode", ["both", "none"])
    def test_gradient_equals_sum_of_per_segment_tapes(self, monkeypatch, mode):
        rng = np.random.default_rng(21)
        segs = noise_corpus(rng, 20)
        aug = AugmentConfig(snippet_pool(rng), corruption_gain=2.0)
        cfg = tiny_config(batch_size=len(segs), weight_share=mode)
        seen = []
        step = Adam.step

        def keep(self):
            seen.append([p.grad.data.copy() for p in self.params])
            return step(self)

        monkeypatch.setattr(Adam, "step", keep)
        train_de(segs, 100.0, aug, cfg, epochs=1, seed=6)
        # reference: one B=1 tape per segment in minibatch order, each weighted 1/B,
        # drawing the augmentation from the same generator
        run_rng = np.random.default_rng(6)
        params = build_de_params(cfg, run_rng)
        mask_a, mask_b = cross_masks(8)
        for i in run_rng.permutation(len(segs)):
            x_mix, x_clean, _ = augment_segment(SampleSeries(segs[i], 100.0), aug, run_rng)
            ctx = DiffContext()
            pred_a, pred_b = dual_forward(ctx, params, cfg, x_mix[None], mask_a, mask_b)
            flat = (x_mix.size,)
            loss = de_pair_loss(x_clean, dm.reshape(ctx, pred_a, flat), dm.reshape(ctx, pred_b, flat),
                                mask_a, mask_b, 4, ctx=ctx)
            dm.backward(dm.scale(ctx, loss, 1.0 / len(segs)), ctx)
        want = [p.grad.data for p in params.all_params()]
        # relative to the largest entry of all: a buffer whose exact gradient
        # is zero (a key bias, which softmax ignores) holds rounding noise only
        scale = max(np.abs(w).max() for w in want)
        assert len(seen[0]) == len(want)
        assert max(np.abs(g - w).max() for g, w in zip(seen[0], want)) <= 1e-12 * scale

    def test_batched_branch_loss_is_the_mean_of_row_losses(self):
        rng = np.random.default_rng(22)
        target, pred = rng.normal(size=(3, 16)), rng.normal(size=(3, 16))
        mask_a, _ = cross_masks(4)
        batched = float(branch_loss(target, pred, mask_a, 4, ctx=DiffContext()).data)
        rows = [float(branch_loss(t, p, mask_a, 4, ctx=DiffContext()).data) for t, p in zip(target, pred)]
        assert batched == pytest.approx(np.mean(rows), rel=1e-14)


def test_package_attribute_is_the_submodule():
    from gyromoe import denoise as de

    assert de is sys.modules["gyromoe.denoise"]
    assert de.train_de is train_de and de.denoise is denoise


class TestDenoiseInference:
    def make_trained(self, seed=15):
        rng = np.random.default_rng(seed)
        segs = noise_corpus(rng, 8)
        cfg = tiny_config(batch_size=4)
        params, _ = train_de(segs, 100.0, AugmentConfig(snippet_pool(rng)), cfg, 1, seed)
        return params, cfg

    def test_output_shape_and_metadata(self):
        params, cfg = self.make_trained()
        windows = np.random.default_rng(16).normal(0, 0.05, (3, 32))
        out = denoise(windows, params, cfg)
        assert out.shape == (3, 32) and out.dtype == np.float64
        assert denoise(windows[:0], params, cfg).shape == (0, 32)

    def test_matches_manual_fuse(self):
        from gyromoe.denoise import dual_forward

        params, cfg = self.make_trained(17)
        x = np.random.default_rng(18).normal(0, 0.05, 32)
        [out] = denoise(x[None], params, cfg)
        a, b = cross_masks(8)
        ctx = DiffContext()
        pa, pb = dual_forward(ctx, params, cfg, (x / cfg.clip.level)[None], a, b)
        want = fuse(pa.data[0], pb.data[0], a, b, 4) * cfg.clip.level
        np.testing.assert_array_equal(out, want)

    def test_checkpoint_round_trip(self, tmp_path):
        params, cfg = self.make_trained(19)
        path = tmp_path / "de.ckpt"
        save_de(path, params, cfg)
        params2, cfg2 = load_de(path)
        assert cfg2.weight_share == cfg.weight_share
        assert cfg2.backbone == cfg.backbone
        x = np.random.default_rng(20).normal(0, 0.05, 32)
        np.testing.assert_array_equal(
            denoise(x[None], params, cfg),
            denoise(x[None], params2, cfg2),
        )

    def test_wrong_kind_rejected(self, tmp_path):
        from gyromoe.ore import OreConfig, save_ore, train_ore

        rng = np.random.default_rng(21)
        t = np.linspace(-1, 1, 32)
        segs = [1.5 * np.exp(-(t**2) / 0.18) for _ in range(4)]
        ore_cfg = OreConfig(clip=ClipSpec(1.0), backbone=TINY_BB, batch_size=4)
        params, _ = train_ore(segs, ore_cfg, epochs=1, seed=0)
        path = tmp_path / "ore.ckpt"
        save_ore(path, params, ore_cfg)
        with pytest.raises(ConfigError):
            load_de(path)


class TestAugmentChain:
    def test_mix_contains_snippet_and_corruption(self):
        rng = np.random.default_rng(22)
        series = SampleSeries(rng.normal(0, 0.1, 256), 100.0)
        aug = AugmentConfig(snippet_pool(rng), beta=4.0, corruption_gain=1.0)
        x_mix, x_clean, inj = augment_segment(series, aug, rng)
        assert x_mix.shape == x_clean.shape == (256,)
        assert inj.alpha > 0.0
        assert not np.array_equal(x_mix, x_clean)

    def test_zero_gain_keeps_mix_equal_to_clean(self):
        rng = np.random.default_rng(23)
        series = SampleSeries(rng.normal(0, 0.1, 128), 100.0)
        aug = AugmentConfig(snippet_pool(rng), corruption_gain=0.0)
        x_mix, x_clean, _ = augment_segment(series, aug, rng)
        np.testing.assert_array_equal(x_mix, x_clean)
