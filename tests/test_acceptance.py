"""Acceptance gates for the full enhancement pipeline.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE Cnn PASS/FAIL`` line with the measured figures, so a plain
pytest run doubles as the sign-off checklist. Desk-scale training runs
(C06, C07) take a few minutes each; everything else is fast.
"""

import json
import math
import time
import zlib

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit

import gyromoe.diffmath as dm
from gyromoe.backbone import BackboneConfig, gd_attention, gd_bias, init_params
from gyromoe.cli import main
from gyromoe.denoise import (
    AugmentConfig,
    DeConfig,
    augment_segment,
    branch_loss,
    build_de_params,
    cross_masks,
    denoise,
    train_de,
)
from gyromoe.gate import GateConfig, enhance, route
from gyromoe.metrics import (
    allan_deviation,
    bias_instability,
    p_mse,
    peak_indices,
    pearson_corr,
    percent_reduction,
    poly_extrapolate_peaks,
    psnr,
    savgol_weights,
    snr,
)
from gyromoe.ore import OreConfig, ore_total_loss, pinn_loss, reconstruct, train_ore
from gyromoe.signal import (
    ClipSpec,
    SampleSeries,
    load_csv,
    make_snippet_pool,
    saturated_mask,
    synth_peak_segments,
)

SMALL_BB = BackboneConfig(
    patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2
)


def announce(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} {detail}"


# ---------------------------------------------------------------------------
# C01: gradient correctness of every primitive and both composite losses.


def _sq_mean(ctx, t):
    return dm.mean(ctx, dm.square(ctx, t))


def _primitive_cases():
    # name -> (target fn, input builder)
    return [
        ("matmul", lambda c, a, b: _sq_mean(c, dm.matmul(c, a, b)),
         lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2))]),
        ("add", lambda c, a, b: _sq_mean(c, dm.add(c, a, b)),
         lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))]),
        ("add_bias", lambda c, a, b: _sq_mean(c, dm.add(c, a, b)),
         lambda r: [r.normal(size=(3, 4)), r.normal(size=(4,))]),
        ("sub", lambda c, a, b: _sq_mean(c, dm.sub(c, a, b)),
         lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))]),
        ("mul", lambda c, a, b: _sq_mean(c, dm.mul(c, a, b)),
         lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))]),
        ("scale", lambda c, a: _sq_mean(c, dm.scale(c, a, -1.7)),
         lambda r: [r.normal(size=(3, 4))]),
        ("scalar_mul", lambda c, s, a: _sq_mean(c, dm.scalar_mul(c, s, a)),
         lambda r: [r.normal(), r.normal(size=(3, 4))]),
        ("row_softmax", lambda c, a: _sq_mean(c, dm.row_softmax(c, a)),
         lambda r: [r.normal(size=(3, 5))]),
        ("layer_norm", lambda c, x, g, b: _sq_mean(c, dm.layer_norm(c, x, g, b)),
         lambda r: [r.normal(size=(3, 4)), 1.0 + 0.1 * r.normal(size=(4,)), r.normal(size=(4,))]),
        ("gelu", lambda c, x: _sq_mean(c, dm.gelu(c, x)),
         lambda r: [r.normal(size=(3, 4))]),
        ("sigmoid", lambda c, x: _sq_mean(c, dm.sigmoid(c, x)),
         lambda r: [r.normal(size=(3, 4))]),
        ("exp", lambda c, x: _sq_mean(c, dm.exp(c, x)),
         lambda r: [r.normal(size=(3, 4))]),
        ("log", lambda c, x: dm.mean(c, dm.log(c, x)),
         lambda r: [np.abs(r.normal(size=(3, 4))) + 0.5]),
        ("reciprocal", lambda c, x: _sq_mean(c, dm.reciprocal(c, x)),
         lambda r: [np.abs(r.normal(size=(3, 4))) + 0.5]),
        ("square", lambda c, x: dm.mean(c, dm.square(c, x)),
         lambda r: [r.normal(size=(3, 4))]),
        ("mean", lambda c, x: dm.mean(c, x),
         lambda r: [r.normal(size=(3, 4))]),
        ("gather_rows", lambda c, x: _sq_mean(c, dm.gather(c, x, np.array([0, 2, 2, 1]), axis=0)),
         lambda r: [r.normal(size=(3, 4))]),
        ("gather_cols", lambda c, x: _sq_mean(c, dm.gather(c, x, np.array([3, 0, 3]), axis=1)),
         lambda r: [r.normal(size=(3, 4))]),
        ("scatter", lambda c, x: _sq_mean(c, dm.scatter(c, x, np.array([4, 1]), 5, axis=0)),
         lambda r: [r.normal(size=(2, 3))]),
        ("concat", lambda c, a, b: _sq_mean(c, dm.concat(c, [a, b], axis=0)),
         lambda r: [r.normal(size=(2, 3)), r.normal(size=(1, 3))]),
        ("transpose", lambda c, x: _sq_mean(c, dm.transpose(c, x)),
         lambda r: [r.normal(size=(3, 4))]),
        ("reshape", lambda c, x: _sq_mean(c, dm.reshape(c, x, (2, 6))),
         lambda r: [r.normal(size=(3, 4))]),
        # batch-first shapes: leading batch axes, last-axis rules, per-row indices
        ("matmul_3d_2d", lambda c, a, b: _sq_mean(c, dm.matmul(c, a, b)),
         lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2))]),
        ("matmul_4d", lambda c, a, b: _sq_mean(c, dm.matmul(c, a, b)),
         lambda r: [r.normal(size=(2, 2, 3, 4)), r.normal(size=(2, 2, 4, 3))]),
        ("add_bias_3d", lambda c, a, b: _sq_mean(c, dm.add(c, a, b)),
         lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4,))]),
        ("add_broadcast_4d", lambda c, a, b: _sq_mean(c, dm.add(c, a, b)),
         lambda r: [r.normal(size=(2, 3, 4, 4)), r.normal(size=(2, 1, 4, 4))]),
        ("layer_norm_3d", lambda c, x, g, b: _sq_mean(c, dm.layer_norm(c, x, g, b)),
         lambda r: [r.normal(size=(2, 3, 4)), 1.0 + 0.1 * r.normal(size=(4,)), r.normal(size=(4,))]),
        ("row_softmax_4d", lambda c, a: _sq_mean(c, dm.row_softmax(c, a)),
         lambda r: [r.normal(size=(2, 2, 3, 5))]),
        ("transpose_4d", lambda c, x: _sq_mean(c, dm.mul(c, dm.transpose(c, x), dm.constant(np.arange(48.0).reshape(2, 2, 4, 3)))),
         lambda r: [r.normal(size=(2, 2, 3, 4))]),
        ("gather_axis1_4d", lambda c, x: _sq_mean(c, dm.gather(c, x, np.array([2, 0, 2]), axis=1)),
         lambda r: [r.normal(size=(2, 3, 2, 2))]),
        ("gather_per_row", lambda c, x: _sq_mean(c, dm.gather(c, x, np.array([[0, 2, 2], [3, 1, 0]]), axis=1)),
         lambda r: [r.normal(size=(2, 4, 3))]),
        ("scatter_per_row", lambda c, x: _sq_mean(c, dm.scatter(c, x, np.array([[4, 1], [0, 4]]), 5, axis=1)),
         lambda r: [r.normal(size=(2, 2, 3))]),
        ("reshape_3d", lambda c, x: _sq_mean(c, dm.reshape(c, x, (2, 3, 4))),
         lambda r: [r.normal(size=(6, 4))]),
        # transformer-block ops
        ("linear_3d", lambda c, x, w, b: _sq_mean(c, dm.linear(c, x, w, b)),
         lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(5,))]),
        ("linear_residual", lambda c, x, w, b, s: _sq_mean(c, dm.linear(c, x, w, b, residual=s)),
         lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(5,)),
                    r.normal(size=(2, 3, 5))]),
        ("split_heads", lambda c, x: _sq_mean(c, dm.mul(c, dm.split_heads(c, x, 3), dm.constant(np.arange(36.0).reshape(2, 3, 3, 2)))),
         lambda r: [r.normal(size=(2, 3, 6))]),
        ("merge_heads", lambda c, x: _sq_mean(c, dm.mul(c, dm.merge_heads(c, x), dm.constant(np.arange(36.0).reshape(2, 3, 6)))),
         lambda r: [r.normal(size=(2, 3, 3, 2))]),
        ("scores_bias", lambda c, s, b: _sq_mean(c, dm.scores(c, s, dm.transpose(c, s), b)),
         lambda r: [r.normal(size=(2, 6, 4, 3)), r.normal(size=(2, 1, 4, 4))]),
        ("scores", lambda c, s: _sq_mean(c, dm.scores(c, s, dm.transpose(c, s))),
         lambda r: [r.normal(size=(2, 6, 4, 3))]),
        ("values", lambda c, p, s: _sq_mean(c, dm.values(c, p, s)),
         lambda r: [r.normal(size=(2, 2, 4, 4)), r.normal(size=(2, 6, 4, 3))]),
    ]


def test_c01_gradient_correctness(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for name, fn, build in _primitive_cases():
        for seed in range(10):
            rng = np.random.default_rng([910, zlib.crc32(name.encode()), seed])
            rep = dm.grad_check(fn, build(rng))
            worst = max(worst, rep.max_rel_err)
            assert rep.passed, f"{name} seed {seed}: rel err {rep.max_rel_err:.2e}"

    # composite 1: full reconstruction loss wrt the prediction
    for seed in range(10):
        rng = np.random.default_rng([911, seed])
        x = rng.normal(0.0, 0.6, 16)
        mask = np.isin(np.arange(16), np.arange(2, 14))
        fn = lambda c, xh: ore_total_loss(x, xh, mask, ctx=c)
        rep = dm.grad_check(fn, [rng.normal(0.0, 0.6, 16)])
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, f"ore_total_loss seed {seed}: rel err {rep.max_rel_err:.2e}"

    # composite 2: denoiser branch loss wrt the prediction
    masks = cross_masks(4)
    for seed in range(10):
        rng = np.random.default_rng([912, seed])
        target = rng.normal(size=16)
        fn = lambda c, p: branch_loss(target, p, masks[0], 4, ctx=c)
        rep = dm.grad_check(fn, [rng.normal(size=16)])
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, f"branch_loss seed {seed}: rel err {rep.max_rel_err:.2e}"

    dt = time.monotonic() - t0
    ok = worst <= 1e-4 and dt < 120.0
    announce(capsys, "C01", ok, f"max_rel_err={worst:.2e} runtime={dt:.1f}s")


# ---------------------------------------------------------------------------
# C02: huge-sigma attention collapses onto the bias-free form.


def test_c02_gd_attention_limit(capsys):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([920, seed])
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 4))
        logits = q @ k.T / math.sqrt(4)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        plain = w @ v
        # the model's attention on one batch row and one head
        ctx = dm.DiffContext(record=False)
        bias = gd_bias(ctx, 1e6, np.arange(6)[None])
        biased = gd_attention(ctx, np.stack([q, k, v])[None], bias).data[0, 0]
        worst = max(worst, float(np.abs(biased - plain).max()))
    announce(capsys, "C02", worst <= 1e-9, f"max_abs_diff={worst:.2e} over 20 draws")


# ---------------------------------------------------------------------------
# C03: energy barrier closed form and minimizer location.


def _barrier_series(e):
    # usable position t=2 sees exactly e as its energy increment
    return np.array([0.0, 0.0, 1.0, 1.0 + 2.0 * e])


def test_c03_energy_barrier(capsys):
    const = float(pinn_loss(np.full(12, 3.7), np.isin(np.arange(12), np.arange(2, 10)), kappa=1.0).data)
    err_const = abs(const - 2.0 * math.log(2.0))

    mask = np.arange(4) == 2
    worst_u = 0.0
    for kappa in (0.5, 1.0, 2.0):
        f = lambda e: float(pinn_loss(_barrier_series(e), mask, kappa=kappa).data)
        res = minimize_scalar(f, bounds=(-6.0, 6.0), method="bounded",
                              options={"xatol": 1e-12})
        u = float(expit(res.x))
        worst_u = max(worst_u, abs(u - 1.0 / (1.0 + kappa)))
    ok = err_const <= 1e-9 and worst_u <= 1e-6
    announce(capsys, "C03", ok,
             f"const_err={err_const:.2e} minimizer_err={worst_u:.2e}")


# ---------------------------------------------------------------------------
# C04: Allan deviation against theory and a literal double-loop oracle.


def _allan_oracle(x, m, fs):
    n_clusters = x.size // m
    means = [float(x[k * m : (k + 1) * m].mean()) for k in range(n_clusters)]
    diffs = [(means[k + 1] - means[k]) ** 2 for k in range(n_clusters - 1)]
    return math.sqrt(math.fsum(diffs) / (2.0 * (n_clusters - 1)))


def test_c04_allan_oracle(capsys):
    t0 = time.monotonic()
    sigma, fs = 0.1, 100.0
    x = np.random.default_rng([940, 19]).normal(0.0, sigma, 2**17)
    sizes = list(range(1, 257))
    curve = allan_deviation(SampleSeries(x, fs), sizes)
    assert curve.devs.size == 256 and not curve.skipped_m

    worst_theory = 0.0
    worst_oracle = 0.0
    for m, dev in zip(sizes, curve.devs):
        expect = sigma / math.sqrt(m)
        worst_theory = max(worst_theory, abs(dev - expect) / expect)
        ref = _allan_oracle(x, m, fs)
        worst_oracle = max(worst_oracle, abs(dev - ref) / ref)
    dt = time.monotonic() - t0
    ok = worst_theory <= 0.10 and worst_oracle <= 1e-12 and dt < 30.0
    announce(capsys, "C04", ok,
             f"theory_rel={worst_theory:.3f} oracle_rel={worst_oracle:.2e} runtime={dt:.1f}s")


# ---------------------------------------------------------------------------
# C05: headline arithmetic sanity.


def test_c05_reduction_arithmetic(capsys):
    red = percent_reduction(10.03, 0.157)
    ratio = 59017.0 / 181456.0
    ok = abs(red - (-98.4)) <= 0.05 and abs(ratio - 0.325) <= 0.001
    announce(capsys, "C05", ok, f"reduction={red:.4f}% ratio={ratio:.5f}")


# ---------------------------------------------------------------------------
# C06: desk-scale peak reconstruction.


def test_c06_desk_scale_reconstruction(capsys):
    rail, fs, seg_len = 270.0, 100.0, 256
    amp = (1.15 * rail, (5.0 / 3.0) * rail)  # rail sits at 60% of the top peak
    width = (0.15, 0.45)
    cfg = OreConfig(clip=ClipSpec(rail), backbone=BackboneConfig())

    train = synth_peak_segments(np.random.default_rng([100, 0]), 2000, seg_len, fs,
                                amp, width, 0.01 * rail)
    held = synth_peak_segments(np.random.default_rng([100, 1]), 200, seg_len, fs,
                               amp, width, 0.01 * rail)
    t0 = time.monotonic()
    params, _ = train_ore(train, cfg, epochs=24, seed=[100, 2])
    dt = time.monotonic() - t0

    clip = ClipSpec(rail)
    t_list, c_list, r_list, escapes = [], [], [], []
    for clean in held:
        clipped = np.clip(clean, -rail, rail)
        recon = reconstruct(clipped[None], params, cfg)[0]
        t_list.append(clean)
        c_list.append(clipped)
        r_list.append(recon)
        sat = np.abs(clipped) >= rail
        escapes.append(np.abs(recon[sat]).max() > rail)
    t_all, c_all, r_all = map(np.concatenate, (t_list, c_list, r_list))
    idx = peak_indices(t_all, clip)
    ratio = p_mse(t_all, r_all, idx) / p_mse(t_all, c_all, idx)
    gain = psnr(t_list, r_list, clip) - psnr(t_list, c_list, clip)
    escape = float(np.mean(escapes))

    ok = dt <= 1800.0 and ratio <= 0.5 and gain >= 3.0 and escape >= 0.9
    announce(capsys, "C06", ok,
             f"p_mse_ratio={ratio:.3f} psnr_gain={gain:+.2f}dB "
             f"apex_escape={escape:.3f} train={dt:.0f}s")


# ---------------------------------------------------------------------------
# C07: desk-scale denoising.


def test_c07_desk_scale_denoising(capsys):
    clip, fs, seg_len, sigma = 8.0, 100.0, 256, 2.0
    rng = np.random.default_rng([200, 0])
    noise_segs = [rng.normal(0.0, sigma, seg_len) for _ in range(300)]
    pool = make_snippet_pool(rng, 32, (seg_len // 4, 3 * seg_len // 4), fs)
    aug = AugmentConfig(pool, beta=24.0, corruption_gain=8.0)
    cfg = DeConfig(clip=ClipSpec(clip))
    params, _ = train_de(noise_segs, fs, aug, cfg, epochs=20, seed=[200, 1])

    # held-out augmented records: SNR of the injected region vs the rest
    eval_rng = np.random.default_rng([200, 2])
    gains = []
    for _ in range(40):
        base = SampleSeries(eval_rng.normal(0.0, sigma, seg_len), fs)
        x_mix, _, inj = augment_segment(base, aug, eval_rng)
        y = denoise(x_mix[None], params, cfg)[0]
        sig = np.zeros(seg_len, dtype=bool)
        sig[inj.offset : inj.offset + inj.snippet_len] = True
        gains.append(snr(y[sig], y[~sig]) - snr(x_mix[sig], x_mix[~sig]))
    mean_gain = float(np.mean(gains))

    # static stream: bias instability before and after denoising
    static_rng = np.random.default_rng([200, 3])
    n_static = 2**15
    static = 0.5 + static_rng.normal(0.0, sigma, n_static)
    den = np.empty_like(static)
    for s in range(0, n_static, seg_len):
        den[s : s + seg_len] = denoise(static[s : s + seg_len][None], params, cfg)[0]
    bi_raw = bias_instability(allan_deviation(SampleSeries(static, fs)))
    bi_den = bias_instability(allan_deviation(SampleSeries(den, fs)))
    assert bi_raw is not None and bi_raw > 0.0
    # a stream flattened beyond measurability counts as full reduction
    red = 100.0 if bi_den is None else 100.0 * (bi_raw - bi_den) / bi_raw

    ok = mean_gain >= 5.0 and red >= 80.0
    announce(capsys, "C07", ok,
             f"snr_gain={mean_gain:+.2f}dB (min {min(gains):+.2f}) bi_reduction={red:.1f}%")


# ---------------------------------------------------------------------------
# C08: batched gate equals the scalar splice oracle.


def _scalar_walk(x, config, p_hat, n_hat):
    decision = route(x, config)
    sat = saturated_mask(x, config.clip)
    quiet = np.abs(x) < config.quiet_tau
    q = config.quiet_run
    y = x.copy()
    t = 0
    while t < x.size:
        if decision.peak and sat[t]:
            y[t] = p_hat[t]
            t += 1
        elif decision.noise and t + q <= x.size and quiet[t : t + q].all():
            y[t : t + q] = n_hat[t : t + q]
            t += q
        else:
            t += 1
    return y


def _case_segment(rng, kind, n, level, tau):
    vals = rng.uniform(0.3 * level, 0.9 * level, n) * rng.choice([-1.0, 1.0], n)
    if kind in ("peak", "both"):
        # keep the rail run in the first half so a quiet run cannot clobber it
        at = int(rng.integers(0, 20))
        vals[at : at + int(rng.integers(3, 6))] = level * rng.choice([-1.0, 1.0])
    if kind in ("noise", "both"):
        at = int(rng.integers(32, n - 12))
        vals[at : at + int(rng.integers(9, 13))] = rng.uniform(-0.5, 0.5, 1) * tau
    if kind == "pass":
        # near misses only: two rail samples, six quiet samples
        vals[2:4] = level
        vals[20:26] = 0.2 * tau
    return vals


def test_c08_gate_equivalence(capsys):
    cfg = GateConfig(clip=ClipSpec(1.0), segment_len=64, quiet_run=8)
    rng = np.random.default_rng([980, 0])
    kinds = (["peak"] * 25 + ["noise"] * 25 + ["both"] * 25 + ["pass"] * 25)
    seen = {"peak": 0, "noise": 0, "both": 0, "pass": 0}
    mismatches = 0
    for kind in kinds:
        x = _case_segment(rng, kind, 64, cfg.clip.level, cfg.quiet_tau)
        d = route(x, cfg)
        label = ("both" if d.peak and d.noise else "peak" if d.peak
                 else "noise" if d.noise else "pass")
        assert label == kind, f"engineered {kind} segment routed as {label}"
        seen[label] += 1
        p_hat = rng.normal(1.5, 0.3, 64)
        n_hat = rng.normal(0.0, 0.01, 64)
        got = enhance(SampleSeries(x.copy(), 100.0), cfg,
                      peak_fn=lambda segs, p=p_hat: p[None],
                      noise_fn=lambda segs, nn=n_hat: nn[None]).values
        want = _scalar_walk(x, cfg, p_hat, n_hat)
        if not np.array_equal(got, want):
            mismatches += 1
        if kind == "pass":
            assert got.tobytes() == x.tobytes(), "pass-through must be bit-identical"
    ok = mismatches == 0 and all(v == 25 for v in seen.values())
    announce(capsys, "C08", ok, f"mismatches={mismatches} cases={seen}")


# ---------------------------------------------------------------------------
# C09: mask algebra and weight-sharing parameter counts.


def test_c09_mask_algebra(capsys):
    for n in range(2, 65):
        a, b = cross_masks(n)
        assert not (a & b).any()
        assert (a | b).all()
        assert {i for i in range(n) if i % 2 == 1} == set(np.flatnonzero(a))

    rng = np.random.default_rng([990, 0])
    single = sum(p.tensor.data.size for p in init_params(SMALL_BB, rng).all_params())
    shared = sum(p.tensor.data.size for p in build_de_params(
        DeConfig(clip=ClipSpec(1.0), backbone=SMALL_BB, weight_share="both"), rng
    ).all_params())
    split = sum(p.tensor.data.size for p in build_de_params(
        DeConfig(clip=ClipSpec(1.0), backbone=SMALL_BB, weight_share="none"), rng
    ).all_params())
    ok = shared == single and split > single
    announce(capsys, "C09", ok,
             f"masks 2..64 complementary, params shared={shared} single={single} split={split}")


# ---------------------------------------------------------------------------
# C10: classical baseline sanity.


def test_c10_baselines(capsys):
    w = savgol_weights(5, 2)
    w_err = float(np.abs(w - np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0).max())

    t = np.arange(64, dtype=np.float64)
    apex = 600.0
    truth = apex - 500.0 * ((t - 32.0) / 24.0) ** 2
    clipped = np.clip(truth, -450.0, 450.0)
    res = poly_extrapolate_peaks(SampleSeries(clipped, 100.0), ClipSpec(450.0))
    apex_err = abs(float(res.series.values.max()) - apex)

    rng = np.random.default_rng([1000, 0])
    x = rng.normal(size=64)
    up = pearson_corr(x, 2.5 * x - 7.0)
    down = pearson_corr(x, -0.3 * x + 11.0)
    affine_err = max(abs(up - 1.0), abs(down + 1.0))

    ok = w_err <= 1e-9 and apex_err <= 1e-6 and affine_err <= 1e-12
    announce(capsys, "C10", ok,
             f"sg_err={w_err:.2e} apex_err={apex_err:.2e} pearson_err={affine_err:.2e}")


# ---------------------------------------------------------------------------
# C11: byte-identical artifacts from identical config and seeds.


def _pipeline_config(tmp_path):
    cfg = {
        "clip_level": 450.0,
        "sample_rate": 100.0,
        "segment_len": 32,
        "backbone": {"patch_len": 4, "embed_dim": 8, "enc_layers": 1,
                     "dec_layers": 1, "heads": 2, "mlp_ratio": 2},
        "synth": {
            "duration_s": 4.0,
            "white_noise_sigma": 1.0,
            "drift_rate": 0.5,
            "peak_events": [[1.0, 600.0, 0.08], [2.5, -520.0, 0.1]],
        },
        "train_ore": {"n_segments": 6, "epochs": 1, "batch_size": 4,
                      "width_lo_s": 0.03, "width_hi_s": 0.06},
        "train_de": {"n_segments": 6, "epochs": 1, "batch_size": 4, "n_snippets": 4},
        "gate": {"quiet_run": 8},
        "bench": {"static_region": [0, 256]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_pipeline(cfg, out_dir):
    out_dir.mkdir()
    ore = out_dir / "ore.ckpt"
    de = out_dir / "de.ckpt"
    assert main(["synth", "--config", cfg, "--seed", "5", "--out", str(out_dir / "data")]) == 0
    assert main(["train-ore", "--config", cfg, "--seed", "6", "--out", str(ore)]) == 0
    assert main(["train-de", "--config", cfg, "--seed", "7", "--out", str(de)]) == 0
    assert main([
        "enhance", "--config", cfg,
        "--input", str(out_dir / "data" / "clipped.csv"),
        "--ore-ckpt", str(ore), "--de-ckpt", str(de),
        "--out", str(out_dir / "enhanced.csv"),
    ]) == 0
    assert main([
        "bench", "--config", cfg,
        "--raw", str(out_dir / "data" / "clipped.csv"),
        "--enhanced", str(out_dir / "enhanced.csv"),
        "--truth", str(out_dir / "data" / "clean.csv"),
        "--out", str(out_dir / "report.json"),
    ]) == 0


def test_c11_reproducibility(tmp_path, capsys):
    cfg = _pipeline_config(tmp_path)
    _run_pipeline(cfg, tmp_path / "run1")
    _run_pipeline(cfg, tmp_path / "run2")

    names = ["ore.ckpt", "de.ckpt", "enhanced.csv", "report.json",
             "data/clean.csv", "data/clipped.csv"]
    diffs = [n for n in names
             if (tmp_path / "run1" / n).read_bytes() != (tmp_path / "run2" / n).read_bytes()]
    # the enhanced stream must actually differ from its clipped input
    changed = not np.array_equal(
        load_csv(tmp_path / "run1" / "enhanced.csv").values,
        load_csv(tmp_path / "run1" / "data" / "clipped.csv").values,
    )
    ok = not diffs and changed
    announce(capsys, "C11", ok, f"identical={not diffs} files={len(names)} enhanced_differs={changed}")
