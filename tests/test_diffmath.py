import numpy as np
import pytest

import gyromoe.diffmath as dm
from gyromoe import backbone as bb
from gyromoe.diffmath import DiffContext, Param, Tensor
from gyromoe.errors import ContractError, DimensionError

TOL = 1e-4


def check(f, inputs, tol=TOL):
    rep = dm.grad_check(f, inputs, tol=tol)
    assert rep.passed, f"max rel err {rep.max_rel_err:.3e} > {tol}"
    return rep


class TestPrimitiveGradients:
    """Central-difference checks, several random instances per primitive."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check(lambda ctx, a, b: dm.mean(ctx, dm.square(ctx, dm.matmul(ctx, a, b))), [a, b])

    @pytest.mark.parametrize("seed", range(10))
    def test_add_same_shape(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, a, b: dm.mean(ctx, dm.square(ctx, dm.add(ctx, a, b))),
            [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_add_row_bias(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, a, b: dm.mean(ctx, dm.square(ctx, dm.add(ctx, a, b))),
            [rng.normal(size=(4, 3)), rng.normal(size=3)],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_sub(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, a, b: dm.mean(ctx, dm.square(ctx, dm.sub(ctx, a, b))),
            [rng.normal(size=(2, 5)), rng.normal(size=(2, 5))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_mul(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, a, b: dm.mean(ctx, dm.mul(ctx, a, b)),
            [rng.normal(size=6), rng.normal(size=6)],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_scale(self, seed):
        rng = np.random.default_rng(seed)
        c = float(rng.normal())
        check(lambda ctx, a: dm.mean(ctx, dm.square(ctx, dm.scale(ctx, a, c))), [rng.normal(size=7)])

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_mul(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, s, a: dm.mean(ctx, dm.square(ctx, dm.scalar_mul(ctx, s, a))),
            [np.asarray(rng.normal()), rng.normal(size=(3, 2))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_row_softmax(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=4)

        def f(ctx, a):
            return dm.mean(ctx, dm.mul(ctx, dm.row_softmax(ctx, a), dm.constant(np.tile(w, (3, 1)))))

        check(f, [rng.normal(size=(3, 4))])

    @pytest.mark.parametrize("seed", range(10))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, x, g, b: dm.mean(ctx, dm.square(ctx, dm.layer_norm(ctx, x, g, b))),
            [rng.normal(size=(3, 5)), rng.normal(size=5), rng.normal(size=5)],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_gelu(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.mean(ctx, dm.gelu(ctx, x)), [rng.normal(size=9)])

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.mean(ctx, dm.sigmoid(ctx, x)), [rng.normal(size=8)])

    @pytest.mark.parametrize("seed", range(10))
    def test_exp(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.mean(ctx, dm.exp(ctx, x)), [rng.normal(size=6)])

    @pytest.mark.parametrize("seed", range(10))
    def test_log(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.mean(ctx, dm.log(ctx, x)), [rng.uniform(0.2, 3.0, size=6)])

    @pytest.mark.parametrize("seed", range(10))
    def test_reciprocal(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2.0, size=5) * np.where(rng.random(5) < 0.5, -1.0, 1.0)
        check(lambda ctx, x: dm.mean(ctx, dm.reciprocal(ctx, x)), [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_square(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.mean(ctx, dm.square(ctx, x)), [rng.normal(size=7)])

    @pytest.mark.parametrize("seed", range(10))
    def test_mean(self, seed):
        rng = np.random.default_rng(seed)
        check(lambda ctx, x: dm.square(ctx, dm.mean(ctx, x)), [rng.normal(size=(2, 4))])

    @pytest.mark.parametrize("seed", range(10))
    def test_gather_rows(self, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 4, size=6)  # repeats exercise accumulation
        check(
            lambda ctx, x: dm.mean(ctx, dm.square(ctx, dm.gather(ctx, x, idx, axis=0))),
            [rng.normal(size=(4, 3))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_gather_cols(self, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 5, size=3)
        check(
            lambda ctx, x: dm.mean(ctx, dm.square(ctx, dm.gather(ctx, x, idx, axis=1))),
            [rng.normal(size=(2, 5))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_scatter(self, seed):
        rng = np.random.default_rng(seed)
        idx = np.asarray(rng.permutation(6)[:3])
        check(
            lambda ctx, x: dm.mean(ctx, dm.square(ctx, dm.scatter(ctx, x, idx, 6, axis=0))),
            [rng.normal(size=(3, 2))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_concat(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, a, b: dm.mean(ctx, dm.square(ctx, dm.concat(ctx, [a, b], axis=1))),
            [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_transpose(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(3, 2))
        check(
            lambda ctx, x: dm.mean(ctx, dm.mul(ctx, dm.transpose(ctx, x), dm.constant(w.T))),
            [w + rng.normal(size=(3, 2))],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_reshape(self, seed):
        rng = np.random.default_rng(seed)
        check(
            lambda ctx, x: dm.mean(ctx, dm.square(ctx, dm.reshape(ctx, x, (6,)))),
            [rng.normal(size=(2, 3))],
        )


class TestOpSemantics:
    def test_row_softmax_uniform(self):
        ctx = DiffContext()
        out = dm.row_softmax(ctx, dm.constant(np.array([0.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        ctx = DiffContext()
        out = dm.row_softmax(ctx, dm.constant(rng.normal(0, 10, size=(8, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        ctx = DiffContext()
        out = dm.matmul(ctx, dm.constant(np.eye(2)), dm.constant(a))
        np.testing.assert_array_equal(out.data, a)

    def test_mean_square_gradient_closed_form(self):
        # d/dx mean(x^2) = 2x/n
        p = Param(np.array([1.0, 2.0, 3.0]))
        ctx = DiffContext()
        out = dm.mean(ctx, dm.square(ctx, p))
        dm.backward(out, ctx)
        np.testing.assert_allclose(p.grad.data, [2 / 3, 4 / 3, 2.0], atol=1e-15)

    def test_layer_norm_output_stats(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 5.0, size=(4, 16))
        ctx = DiffContext()
        out = dm.layer_norm(ctx, dm.constant(x), dm.constant(np.ones(16)), dm.constant(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=1), np.ones(4), atol=1e-3)

    def test_log_domain(self):
        ctx = DiffContext()
        with pytest.raises(ContractError):
            dm.log(ctx, dm.constant(np.array([1.0, 0.0])))

    def test_layer_norm_equals_np_var_form_bit_for_bit(self):
        # layer_norm reuses its centred input for the variance; np.var is the reference
        rng = np.random.default_rng(3)
        for shape in [(4, 16), (2, 5, 64), (1, 7, 33)]:
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            got = dm.layer_norm(DiffContext(record=False), x, g, b).data
            mu = x.mean(axis=-1, keepdims=True)
            want = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + dm.LAYER_NORM_EPS) * g + b
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "idx, axis",
        [
            (np.array([4, 0, 2]), 0),  # distinct: assigned
            (np.array([1, 1, 3]), 0),  # repeated: accumulated
            (np.array([5, 2]), 1),
            (np.array([[0, 3], [2, 1]]), 1),  # per-row, distinct
            (np.array([[0, 3], [2, 2]]), 1),  # per-row, one row repeats
        ],
    )
    def test_scatter_equals_add_at_bit_for_bit(self, idx, axis):
        rng = np.random.default_rng(idx.size)
        shape = [2, 3, 2]
        shape[axis] = idx.shape[-1]
        x = rng.normal(size=shape)
        x.reshape(-1)[::3] = -0.0  # 0.0 + -0.0 is 0.0
        want = np.zeros([2, 6, 2] if axis else [6, 3, 2])
        at = (np.arange(2)[:, None], idx) if idx.ndim == 2 else (slice(None),) * axis + (idx,)
        np.add.at(want, at, x)
        got = dm.scatter(DiffContext(record=False), x, idx, 6, axis=axis).data
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_forward_ops_equal_their_plain_numpy_forms_bit_for_bit(self):
        from scipy import special

        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5, 8)) * 3.0
        w, b, r = rng.normal(size=(8, 8)), rng.normal(size=8), rng.normal(size=(2, 5, 8))
        ctx = DiffContext(record=False)
        shifted = np.exp(x - x.max(axis=-1, keepdims=True))
        cases = [
            (dm.row_softmax(ctx, x), shifted / shifted.sum(axis=-1, keepdims=True)),
            (dm.gelu(ctx, x), x * (0.5 * (1.0 + special.erf(x * (1.0 / np.sqrt(2.0)))))),
            (dm.linear(ctx, x, w, b), np.matmul(x, w) + b),
            (dm.linear(ctx, x, w, b, residual=r), r + (np.matmul(x, w) + b)),
        ]
        for got, want in cases:
            np.testing.assert_array_equal(got.data.view(np.int64), want.view(np.int64))
        inputs = (x.copy(), w.copy(), b.copy(), r.copy())
        dm.linear(ctx, x, w, b, residual=r)
        dm.layer_norm(ctx, x, b, b)
        for before, after in zip(inputs, (x, w, b, r)):
            np.testing.assert_array_equal(before, after)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.array([1.0, np.inf]))
        for bad in (-np.inf, np.nan):
            with pytest.raises(ContractError):
                Tensor(np.array([[1.0, bad], [2.0, 3.0]]))
        # finite entries whose squares overflow are accepted
        assert Tensor(np.array([1e200, -1e300, 5.0])).size == 3


class TestTape:
    def test_backward_needs_scalar(self):
        p = Param(np.ones(3))
        ctx = DiffContext()
        out = dm.square(ctx, p)
        with pytest.raises(ContractError):
            dm.backward(out, ctx)

    def test_backward_needs_attached_output(self):
        with pytest.raises(ContractError):
            dm.backward(dm.constant(np.asarray(1.0)))

    def test_shared_param_accumulates(self):
        # y = mean(p) + mean(p^2): dy/dp = 1/n + 2p/n
        p = Param(np.array([1.0, -2.0]))
        ctx = DiffContext()
        out = dm.add(ctx, dm.mean(ctx, p), dm.mean(ctx, dm.square(ctx, p)))
        dm.backward(out, ctx)
        np.testing.assert_allclose(p.grad.data, [0.5 + 1.0, 0.5 - 2.0], atol=1e-14)

    def test_grad_accumulates_across_backward_calls(self):
        p = Param(np.array([2.0]))
        for expected in (1.0, 2.0):
            ctx = DiffContext()
            dm.backward(dm.mean(ctx, p), ctx)
            np.testing.assert_allclose(p.grad.data, [expected])
        p.zero_grad()
        assert not p.grad.data.any()

    def test_backward_consumes_the_tape(self):
        p = Param(np.array([1.0, -2.0]))
        ctx = DiffContext()
        out = dm.mean(ctx, dm.square(ctx, p))
        dm.backward(out, ctx)
        assert len(ctx) == 0
        with pytest.raises(ContractError):
            dm.backward(out, ctx)
        np.testing.assert_allclose(p.grad.data, [1.0, -2.0])

    def test_context_without_tape_records_nothing(self):
        p = Param(np.array([1.0, -2.0]))
        ctx = DiffContext(record=False)
        out = dm.mean(ctx, dm.square(ctx, p))
        assert len(ctx) == 0 and float(out.data) == 2.5
        with pytest.raises(ContractError):
            dm.backward(out, ctx)
        # outputs are still finite-checked
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            dm.scale(ctx, dm.constant(np.array([1e308])), 10.0)

    def test_nodes_hold_no_tensor(self):
        cfg = bb.BackboneConfig(patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2)
        params = bb.init_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 16))
        masks = np.eye(4, dtype=bool)[[1, 0, 3]]  # row r hides patch 1, 0, 3
        ctx = DiffContext()
        pred = bb.forward(ctx, params, cfg, x, masks)
        dm.mean(ctx, dm.square(ctx, dm.sub(ctx, pred, dm.constant(x))))

        def holds_tensor(obj):
            if isinstance(obj, (Tensor, Param)):
                return True
            if isinstance(obj, (tuple, list)):
                return any(holds_tensor(o) for o in obj)
            return False

        # embed 2, 16 per block, mask-token pad 4, Gaussian bias 4, norm + head
        # + reshape 3, and the loss 3
        assert len(ctx) == 2 + 16 * 2 + 4 + 4 + 3 + 3
        for keys, vjp in ctx.nodes:
            assert all(k is None or isinstance(k, (int, Param)) for k in keys)
            assert not any(holds_tensor(c.cell_contents) for c in vjp.__closure__ or ())

    def test_backward_pops_nodes_and_skips_constant_only_ops(self):
        p = Param(np.array([1.0, 2.0]))
        ctx = DiffContext()
        c = dm.square(ctx, dm.constant(np.array([3.0, 4.0])))  # no Param upstream
        out = dm.mean(ctx, dm.mul(ctx, p, c))
        assert len(ctx) == 2 and c._slot is None
        dm.backward(out, ctx)
        np.testing.assert_allclose(p.grad.data, [4.5, 8.0])
        with pytest.raises(ContractError):
            dm.square(ctx, p)  # the context is spent

    def test_shape_error_names_both_shapes(self):
        ctx = DiffContext()
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            dm.matmul(ctx, dm.constant(np.zeros((2, 3))), dm.constant(np.zeros((4, 2))))

    def test_grad_check_sum_is_exact(self):
        rep = dm.grad_check(lambda ctx, x: dm.mean(ctx, x), [np.array([1.0, 2.0, 3.0])])
        assert rep.max_rel_err < 1e-9
