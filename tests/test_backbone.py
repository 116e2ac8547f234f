import dataclasses
import math

import numpy as np
import pytest

from gyromoe import backbone as bb
from gyromoe import diffmath as dm
from gyromoe.backbone import (
    GD_PLACEMENTS,
    BackboneConfig,
    apply_mask,
    build_params,
    embed,
    forward,
    forward_values,
    gd_attention,
    gd_bias,
    init_params,
    is_encoder_param,
    mask_from_flags,
    param_spec,
    patchify,
    pe_table,
)
from gyromoe.checkpoint import load_expert, save_expert
from gyromoe.diffmath import DiffContext, backward, constant, gather, mean, square, sub
from gyromoe.errors import ConfigError, DimensionError, MaskError
from gyromoe.optim import Adam
from gyromoe.signal import ClipSpec

SMALL = BackboneConfig(
    patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2
)


def small_params(seed=0, config=SMALL):
    return init_params(config, np.random.default_rng(seed))


def hide(n, *idx):
    """A ``[n]`` mask that hides the patches ``idx``."""
    mask = np.zeros(n, dtype=bool)
    mask[list(idx)] = True
    return mask


class TestConfig:
    def test_embed_dim_must_divide(self):
        with pytest.raises(ConfigError):
            BackboneConfig(embed_dim=10, heads=4)

    def test_placement_validated(self):
        with pytest.raises(ConfigError):
            BackboneConfig(gd_placement="everywhere")

    def test_sigma_bounds_ordered(self):
        with pytest.raises(ConfigError):
            BackboneConfig(sigma_min=2.0, sigma_max=1.0)


class TestPatchify:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=32)
        np.testing.assert_array_equal(patchify(x, 8).reshape(-1), x)

    def test_shape(self):
        assert patchify(np.zeros(32), 8).shape == (4, 8)

    def test_non_divisible_rejected(self):
        with pytest.raises(DimensionError):
            patchify(np.zeros(30), 8)


class TestMasks:
    def test_flags_batched(self):
        flags = np.zeros((3, 12), dtype=bool)
        flags[0, 5] = flags[2, [0, 11]] = True
        want = np.array([[False, True, False], [False, False, False], [True, False, True]])
        np.testing.assert_array_equal(mask_from_flags(flags, 4), want)
        for row, got in zip(flags, want):
            np.testing.assert_array_equal(mask_from_flags(row, 4), got)

    def test_wrong_shape_rejected_at_apply(self):
        ctx = DiffContext()
        seq = embed(ctx, small_params(), SMALL, np.zeros((2, 16)))
        for bad in (hide(3, 0), hide(5, 0), hide(4, 0)[None], np.zeros((3, 4), dtype=bool),
                    np.zeros((2, 4, 1), dtype=bool)):
            with pytest.raises(DimensionError):
                apply_mask(ctx, seq, bad)

    def test_all_hidden_rejected_at_apply(self):
        params = small_params()
        ctx = DiffContext()
        seq = embed(ctx, params, SMALL, np.zeros((1, 16)))
        all_hidden = hide(4, 0, 1, 2, 3)
        with pytest.raises(MaskError):
            apply_mask(ctx, seq, all_hidden[None])
        with pytest.raises(MaskError):
            apply_mask(ctx, seq, all_hidden)
        # one all-hidden row fails a batch whose other rows keep patches visible
        mixed = embed(ctx, params, SMALL, np.zeros((3, 16)))
        with pytest.raises(MaskError):
            apply_mask(ctx, mixed, np.stack([hide(4, 0), all_hidden, hide(4)]))

    def test_rows_with_different_visible_counts_match_single_rows(self):
        params = small_params()
        ctx = DiffContext()
        seq = embed(ctx, params, SMALL, np.zeros((2, 16)))
        with pytest.raises(DimensionError):
            apply_mask(ctx, seq, hide(4, 0)[None])
        masks = np.stack([hide(4, 0), hide(4), hide(4, 0, 2, 3), hide(4, 1, 2)])
        x = np.random.default_rng(3).normal(size=(len(masks), 16))
        for cfg in (SMALL, dataclasses.replace(SMALL, gd_placement="both")):
            params = small_params(4, cfg)
            batched = forward_values(params, cfg, x, masks)
            for row, mask, got in zip(x, masks, batched):
                alone = forward_values(params, cfg, row[None], mask[None])[0]
                np.testing.assert_array_equal(got.view(np.int64), alone.view(np.int64))

    def test_empty_mask_keeps_all_tokens(self):
        params = small_params()
        ctx = DiffContext()
        seq = embed(ctx, params, SMALL, np.zeros((1, 16)))
        kept = apply_mask(ctx, seq, hide(4)[None])
        assert kept.tokens.data.shape == (1, 4, SMALL.embed_dim)

    @pytest.mark.parametrize("placement", GD_PLACEMENTS)
    def test_shared_and_per_row_forms_agree(self, placement):
        # key padding keeps the hidden tokens out of attention, so one mask
        # given per row gives, up to rounding, the prediction and gradients of
        # the same mask shared by the batch, whose encoder drops them (MAE)
        cfg = dataclasses.replace(SMALL, gd_placement=placement)
        rng = np.random.default_rng(GD_PLACEMENTS.index(placement))

        def run(seed, x, target, mask, idx):
            params = small_params(seed, cfg)
            ctx = DiffContext()
            pred = forward(ctx, params, cfg, x, mask)
            diff = sub(ctx, gather(ctx, pred, idx, axis=1), constant(target[:, idx]))
            backward(mean(ctx, square(ctx, diff)), ctx)
            return pred.data, np.concatenate([p.grad.data.ravel() for p in params.all_params()])

        def rel(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        for case in range(5):
            x, target = rng.normal(size=(2, 3, 16))
            mask = hide(4, *rng.choice(4, size=rng.integers(1, 4), replace=False))
            idx = np.flatnonzero(np.repeat(mask, cfg.patch_len))
            shared = run(case, x, target, mask, idx)
            per_row = run(case, x, target, np.broadcast_to(mask, (3, 4)), idx)
            assert max(rel(got, want) for got, want in zip(per_row, shared)) <= 1e-12


class TestMaskStack:
    @pytest.mark.parametrize("placement", GD_PLACEMENTS)
    def test_each_group_equals_its_own_shared_mask_forward(self, placement):
        cfg = dataclasses.replace(SMALL, gd_placement=placement)
        params = small_params(GD_PLACEMENTS.index(placement), cfg)
        rng = np.random.default_rng(30)
        for masks in ([hide(4, 1, 3), hide(4, 0, 2), hide(4, 0, 1)], [hide(4, 2)]):
            x = rng.normal(size=(len(masks), 2, 16))
            stacked = forward_values(params, cfg, x, np.stack(masks))
            assert stacked.shape == x.shape
            for group, mask, got in zip(x, masks, stacked):
                alone = forward_values(params, cfg, group, mask)
                np.testing.assert_array_equal(got.view(np.int64), alone.view(np.int64))

    def test_masks_hiding_different_counts_rejected(self):
        x = np.zeros((2, 1, 16))
        with pytest.raises(DimensionError):
            forward_values(small_params(), SMALL, x, np.stack([hide(4, 1, 3), hide(4, 0)]))
        ctx = DiffContext()
        seq = embed(ctx, small_params(), SMALL, x[:, 0])
        with pytest.raises(DimensionError):
            apply_mask(ctx, seq, np.stack([hide(4, 1), hide(4)])[:, None])

    def test_one_mask_per_group_required(self):
        x = np.zeros((2, 3, 16))
        for bad in (hide(4, 1), np.stack([hide(4, 1)] * 3), np.zeros((2, 3, 4), dtype=bool)):
            with pytest.raises(DimensionError):
                forward_values(small_params(), SMALL, x, bad)


class TestPositionalEncoding:
    def test_shape_and_range(self):
        t = pe_table(10, 8)
        assert t.shape == (10, 8)
        assert np.abs(t).max() <= 1.0

    def test_first_row_pattern(self):
        # position 0: sin(0)=0 on even columns, cos(0)=1 on odd
        t = pe_table(3, 4)
        np.testing.assert_allclose(t[0], [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_computed_once_and_read_only(self):
        t = pe_table(5, 6)
        assert pe_table(5, 6) is t
        with pytest.raises(ValueError):
            t[0, 0] = 1.0


def bias_values(n_tokens, sigma, positions=None):
    """The ``[n, n]`` penalty of one row of positions (default 0..n-1)."""
    if positions is None:
        positions = np.arange(n_tokens)
    return gd_bias(DiffContext(record=False), sigma, np.asarray(positions)[None]).data[0, 0]


def single_head(q, k, v, bias):
    """:func:`gd_attention` on one head's ``[n, d]`` operands."""
    ctx = DiffContext(record=False)
    return gd_attention(ctx, np.stack([q, k, v])[None], bias).data[0, 0]


class TestGaussianBias:
    def test_unit_distance_unit_sigma(self):
        b = bias_values(2, 1.0)
        assert b[0, 1] == pytest.approx(-0.5)
        assert b[0, 0] == 0.0

    def test_worked_value(self):
        # distance 3, sigma 2 -> -9/8
        b = bias_values(4, 2.0)
        assert b[0, 3] == pytest.approx(-9 / 8)

    def test_symmetry_and_decay(self):
        b = bias_values(6, 3.0)
        np.testing.assert_array_equal(b, b.T)
        row = b[0]
        assert np.all(np.diff(row) < 0)

    def test_explicit_positions(self):
        b = bias_values(2, 1.0, positions=np.array([0.0, 3.0]))
        assert b[0, 1] == pytest.approx(-4.5)


class TestGaussianAttention:
    @pytest.mark.parametrize("seed", range(5))
    def test_huge_sigma_matches_plain_attention(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 6, 4
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        ctx = DiffContext(record=False)
        biased = single_head(q, k, v, gd_bias(ctx, 1e6, np.arange(n)[None]))
        plain = single_head(q, k, v, None)
        # oracle: softmax(q k^T / sqrt(d)) v
        logits = q @ k.T / np.sqrt(d)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(plain, w @ v, atol=1e-12)
        np.testing.assert_allclose(biased, plain, atol=1e-9)

    def test_tiny_sigma_localizes(self):
        rng = np.random.default_rng(7)
        n, d = 12, 4
        q, k = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        v = np.eye(n, d)
        out = single_head(q, k, v, gd_bias(DiffContext(record=False), 0.5, np.arange(n)[None]))
        # attention weight at distance 10 is ~exp(-200) of the diagonal
        logits = q @ k.T / np.sqrt(d) + bias_values(n, 0.5)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        assert w[0, 10] < 1e-6
        assert out.shape == (n, d)
        np.testing.assert_allclose(out, w @ v, atol=1e-12)


class TestParamStore:
    def test_spec_covers_store(self):
        params = small_params()
        names = {name for name, _, _ in param_spec(SMALL)}
        assert set(params.store) == names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            small_params()["enc9.ln1.g"]

    def test_no_sigma_when_disabled(self):
        cfg = BackboneConfig(patch_len=4, embed_dim=8, heads=2, gd_placement="none")
        names = {name for name, _, _ in param_spec(cfg)}
        assert "gd_sigma" not in names
        assert "gd_sigma" in {n for n, _, _ in param_spec(SMALL)}

    def test_encoder_param_predicate(self):
        assert is_encoder_param("embed.w")
        assert is_encoder_param("enc0.attn.wq")
        assert not is_encoder_param("dec0.attn.wq")
        assert not is_encoder_param("head.w")
        assert not is_encoder_param("mask_token")

    @staticmethod
    def file_fill(tmp_path, arrays):
        """The parameter source a checkpoint of ``arrays`` at SMALL geometry loads into."""
        path = tmp_path / "params.ckpt"
        save_expert(path, arrays, "peak-expert", SMALL, ClipSpec(1.0), {})
        config, _, _, fill = load_expert(path, "peak-expert")
        assert config == SMALL
        return fill

    def test_array_round_trip(self, tmp_path):
        arrays = small_params(3).to_arrays()
        clone = build_params(SMALL, self.file_fill(tmp_path, arrays))
        assert list(clone.store) == list(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(clone[name].tensor.data, arr)

    def test_load_shape_mismatch(self, tmp_path):
        arrays = small_params().to_arrays()
        arrays["embed.w"] = np.zeros((2, 2))
        fill = self.file_fill(tmp_path, arrays)
        with pytest.raises(DimensionError):
            build_params(SMALL, fill)


class TestSigmaClamp:
    def test_clamp_after_optimizer_steps(self):
        cfg = BackboneConfig(patch_len=4, embed_dim=8, heads=2, sigma_init=0.6, sigma_min=0.5)
        params = init_params(cfg, np.random.default_rng(0))
        sigma = params["gd_sigma"]
        opt = Adam([sigma], lr=0.5)
        for _ in range(4):
            ctx = DiffContext()
            # loss = sigma pushes the value down past the floor
            loss = mean(ctx, sigma)
            backward(loss, ctx)
            opt.step()
            params.clamp_sigma()
            assert sigma.tensor.data >= cfg.sigma_min

        assert sigma.tensor.data == pytest.approx(cfg.sigma_min)


class TestForward:
    def test_output_shape_and_determinism(self):
        params = small_params(1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=16)
        mask = hide(4, 1, 3)[None]
        out1 = forward_values(params, SMALL, x[None], mask)
        out2 = forward_values(params, SMALL, x[None], mask)
        assert out1.shape == (1, 16)
        np.testing.assert_array_equal(out1, out2)

    def test_length_must_tile(self):
        params = small_params()
        with pytest.raises(DimensionError):
            forward_values(params, SMALL, np.zeros((1, 15)), hide(3, 0)[None])

    def test_masked_loss_ignores_hidden_input_values(self):
        # Hidden patches are replaced by the mask token, so the prediction
        # cannot depend on what the input held there.
        params = small_params(5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=16)
        mask = hide(4, 2)
        y1 = forward_values(params, SMALL, x[None], mask[None])
        x2 = x.copy()
        x2[8:12] = 99.0
        y2 = forward_values(params, SMALL, x2[None], mask[None])
        np.testing.assert_array_equal(y1, y2)
        # the same for a mask shared by the whole batch ...
        shared = [forward_values(params, SMALL, np.stack([v, x]), mask) for v in (x, x2)]
        np.testing.assert_array_equal(shared[0], shared[1])
        # ... and for per-row masks with the Gaussian bias in the encoder too
        cfg = dataclasses.replace(SMALL, gd_placement="both")
        both = small_params(5, cfg)
        masks = np.stack([mask, hide(4, 0, 3)])
        x3 = np.stack([x, x])
        x4 = np.stack([x2, x])
        x4[1, :4] = -7.5
        x4[1, 12:] = 1e3
        np.testing.assert_array_equal(forward_values(both, cfg, x3, masks), forward_values(both, cfg, x4, masks))

    def test_gradient_reaches_sigma_and_encoder(self):
        params = small_params(8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=16)
        target = rng.normal(size=16)
        ctx = DiffContext()
        pred = forward(ctx, params, SMALL, x[None], hide(4, 0, 2)[None])
        loss = mean(ctx, square(ctx, sub(ctx, pred, constant(target[None]))))
        backward(loss, ctx)
        assert params["gd_sigma"].grad.data.shape == ()
        assert np.abs(params["embed.w"].grad.data).sum() > 0

    def test_bias_reaches_both_stacks(self):
        cfg = BackboneConfig(patch_len=4, embed_dim=8, heads=2, gd_placement="both")
        params = init_params(cfg, np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(2, 16))
        masks = np.stack([hide(4, 1), hide(4, 3)])

        def run(placement, sigma):
            params["gd_sigma"].tensor.data[...] = sigma
            return forward_values(params, dataclasses.replace(cfg, gd_placement=placement), x, masks)

        # a huge sigma vanishes from both stacks ...
        np.testing.assert_allclose(run("both", 1e6), run("none", 1e6), rtol=0, atol=1e-9)
        # ... and a narrow one changes the output of each
        narrow = run("both", 0.5)
        for one_stack in ("encoder", "decoder"):
            assert np.abs(narrow - run(one_stack, 0.5)).max() > 1e-6

    @pytest.mark.parametrize("placement", ["none", "encoder", "decoder", "both"])
    def test_all_placements_run(self, placement):
        cfg = BackboneConfig(patch_len=4, embed_dim=8, heads=2, gd_placement=placement)
        params = init_params(cfg, np.random.default_rng(0))
        out = forward_values(params, cfg, np.linspace(-1, 1, 16)[None], hide(4, 1)[None])
        assert out.shape == (1, 16)
        assert np.all(np.isfinite(out))


def _primitive_linear(ctx, x, w, b, residual=None):
    out = dm.add(ctx, dm.matmul(ctx, x, w), b)
    return out if residual is None else dm.add(ctx, residual, out)


def _primitive_attention_sublayer(ctx, params, prefix, config, x, bias_term):
    """The attention sublayer built from primitives only, node for node as
    it was before the block ops: the reference the block ops must match."""
    B, n, d = x.shape
    heads, d_k = config.heads, config.embed_dim // config.heads
    a = f"{prefix}.attn."
    h = dm.layer_norm(ctx, x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    qkv = dm.concat(
        ctx, [_primitive_linear(ctx, h, params[a + f"w{p}"], params[a + f"b{p}"]) for p in "qkv"], axis=2
    )
    cols = dm.reshape(ctx, dm.transpose(ctx, qkv), (B, 3 * heads, d_k, n))
    rows = dm.transpose(ctx, cols)
    q = dm.gather(ctx, rows, np.arange(0, heads), axis=1)
    k_t = dm.gather(ctx, cols, np.arange(heads, 2 * heads), axis=1)
    v = dm.gather(ctx, rows, np.arange(2 * heads, 3 * heads), axis=1)
    logits = dm.scale(ctx, dm.matmul(ctx, q, k_t), 1.0 / math.sqrt(d_k))
    if bias_term is not None:
        logits = dm.add(ctx, logits, bias_term)
    per_head = dm.matmul(ctx, dm.row_softmax(ctx, logits), v)
    merged_t = dm.reshape(ctx, dm.transpose(ctx, per_head), (B, d, n))
    out = _primitive_linear(ctx, dm.transpose(ctx, merged_t), params[a + "wo"], params[a + "bo"])
    return dm.add(ctx, x, out)


class TestBlockOps:
    @pytest.mark.parametrize("placement", GD_PLACEMENTS)
    @pytest.mark.parametrize("per_row", [False, True])
    def test_block_ops_match_primitive_blocks_bit_for_bit(self, monkeypatch, placement, per_row):
        cfg = BackboneConfig(patch_len=4, embed_dim=8, enc_layers=2, dec_layers=2, heads=2,
                             gd_placement=placement, sigma_init=2.0)
        rng = np.random.default_rng([31, GD_PLACEMENTS.index(placement), per_row])
        x, target = rng.normal(size=(2, 3, 32))
        mask = hide(8, 1, 4, 5) if not per_row else np.stack([hide(8, 1, 4, 5), hide(8, 0), hide(8, 2, 7)])

        def run():
            params = init_params(cfg, np.random.default_rng(7))
            ctx = DiffContext()
            pred = forward(ctx, params, cfg, x, mask)
            backward(mean(ctx, square(ctx, sub(ctx, pred, constant(target)))), ctx)
            return [pred.data] + [p.grad.data for p in params.all_params()]

        fused = run()
        with monkeypatch.context() as m:
            m.setattr(dm, "linear", _primitive_linear)
            m.setattr(bb, "_attention_sublayer", _primitive_attention_sublayer)
            reference = run()
        assert len(fused) == len(reference)
        for got, want in zip(fused, reference):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
