import math

import numpy as np
import pytest

from gyromoe.errors import ConfigError, ContractError
from gyromoe.metrics import (
    AllanCurve,
    allan_deviation,
    angle_random_walk,
    bias_instability,
    default_cluster_sizes,
    fit_slope_region,
    p_mse,
    peak_indices,
    pearson_corr,
    percent_reduction,
    poly_extrapolate_peaks,
    psnr,
    quantization_noise,
    report,
    savgol,
    savgol_weights,
    snr,
)
from gyromoe.signal import ClipSpec, SampleSeries, clip

CLIP = ClipSpec(level=450.0)


class TestPeakMse:
    def test_strictly_over_range_only(self):
        truth = np.array([0.0, 450.0, 451.0, -452.0])
        np.testing.assert_array_equal(peak_indices(truth, CLIP), [2, 3])

    def test_oracle(self):
        truth = np.array([0.0, 500.0, 470.0])
        recon = np.array([0.0, 490.0, 480.0])
        assert p_mse(truth, recon, [1, 2]) == pytest.approx((100.0 + 100.0) / 2)

    def test_empty_peak_set_rejected(self):
        with pytest.raises(ContractError):
            p_mse(np.zeros(4), np.zeros(4), [])


class TestPsnr:
    def test_worked_example(self):
        truth = np.zeros(8)
        truth[3] = 500.0
        recon = truth.copy()
        recon[3] = 495.0
        assert psnr([truth], [recon], CLIP) == pytest.approx(20.0, abs=1e-12)

    def test_two_segments_pool_errors_and_average_peaks(self):
        t1 = np.array([0.0, 500.0])
        t2 = np.array([0.0, 460.0])
        r1 = np.array([0.0, 497.0])  # err 3
        r2 = np.array([0.0, 456.0])  # err 4
        got = psnr([t1, t2], [r1, r2], CLIP)
        mean_peak = (500.0 + 460.0) / 2
        mse = (9.0 + 16.0) / 2
        assert got == pytest.approx(10 * math.log10((mean_peak - 450.0) ** 2 / mse))

    def test_perfect_reconstruction_is_inf(self):
        truth = np.array([0.0, 500.0])
        assert psnr([truth], [truth.copy()], CLIP) == math.inf

    def test_segment_without_peak_rejected(self):
        with pytest.raises(ContractError):
            psnr([np.zeros(4)], [np.zeros(4)], CLIP)


class TestPearson:
    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        assert pearson_corr(x, 3.0 * x + 7.0) == pytest.approx(1.0)

    def test_negative_affine(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        assert pearson_corr(x, -0.5 * x + 2.0) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert pearson_corr(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ContractError):
            pearson_corr(np.ones(5), np.arange(5.0))

    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            pearson_corr(np.array([1.0]), np.array([2.0]))


class TestSnr:
    def test_worked_example(self):
        assert snr(np.full(4, 2.0), np.full(4, 0.2)) == pytest.approx(20.0)

    def test_zero_noise_is_inf(self):
        assert snr(np.ones(3), np.zeros(3)) == math.inf

    def test_zero_signal_is_neg_inf(self):
        assert snr(np.zeros(3), np.ones(3)) == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            snr(np.empty(0), np.ones(3))


class TestPercentReduction:
    def test_documented_value(self):
        assert percent_reduction(10.03, 0.157) == pytest.approx(-98.43, abs=0.05)

    def test_sign_convention(self):
        assert percent_reduction(2.0, 3.0) == pytest.approx(50.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ContractError):
            percent_reduction(0.0, 1.0)


def allan_oracle(x, fs, sizes):
    taus, devs = [], []
    for m in sizes:
        big_m = len(x) // m
        if big_m < 2:
            continue
        means = [float(np.mean(x[i * m : (i + 1) * m])) for i in range(big_m)]
        acc = 0.0
        for i in range(big_m - 1):
            acc += (means[i + 1] - means[i]) ** 2
        taus.append(m / fs)
        devs.append(math.sqrt(acc / (2.0 * (big_m - 1))))
    return np.asarray(taus), np.asarray(devs)


class TestAllan:
    def test_default_cluster_sizes(self):
        assert default_cluster_sizes(1024) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert default_cluster_sizes(15) == [1]
        assert default_cluster_sizes(7) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=4096)
        series = SampleSeries(x, 100.0)
        curve = allan_deviation(series)
        taus, devs = allan_oracle(x, 100.0, default_cluster_sizes(4096))
        np.testing.assert_allclose(curve.taus, taus, atol=1e-15)
        np.testing.assert_allclose(curve.devs, devs, atol=1e-12)

    @pytest.mark.parametrize(
        "n, sizes",
        [
            (4096, [1, 3, 4, 6, 12, 5, 60, 7]),  # no divisor chain
            (4096, [64, 2, 16, 1, 8, 32, 4, 128]),  # unsorted powers of two
            (4099, [1, 2, 4, 8, 16, 3, 9, 27, 81]),  # odd n
            (1001, [2, 600, 4, 1, 500, 8, 250, 10]),  # skipped sizes among kept ones
            (777, [6, 6, 3, 12, 2]),  # a repeated size
        ],
    )
    def test_custom_sizes_match_double_loop_oracle(self, n, sizes):
        x = np.random.default_rng(n).normal(size=n)
        curve = allan_deviation(SampleSeries(x, 50.0), cluster_sizes=sizes)
        taus, devs = allan_oracle(x, 50.0, sizes)
        assert curve.skipped_m == [m for m in sizes if n // m < 2]
        np.testing.assert_allclose(curve.taus, taus, atol=1e-15)
        np.testing.assert_allclose(curve.devs, devs, atol=1e-12)

    def test_long_biased_walk_matches_block_mean_formula(self):
        # block means built from smaller blocks' means agree with reshaping
        # the samples into blocks, on a 0.5 deg/s bias plus white noise and
        # a rate random walk
        n = 2**20
        rng = np.random.default_rng(952)
        x = 0.5 + rng.normal(0.0, 0.1, n) + np.cumsum(rng.normal(0.0, 1e-3, n))
        sizes = default_cluster_sizes(n)
        curve = allan_deviation(SampleSeries(x, 100.0))
        want = []
        for m in sizes:
            big_m = n // m
            d = np.diff(x[: big_m * m].reshape(big_m, m).mean(axis=1))
            want.append(math.sqrt(float((d * d).sum()) / (2.0 * (big_m - 1))))
        np.testing.assert_allclose(curve.devs, want, rtol=1e-12, atol=0.0)

    def test_white_noise_scaling(self):
        rng = np.random.default_rng(10)
        sigma = 0.1
        series = SampleSeries(rng.normal(0.0, sigma, size=2**14), 100.0)
        curve = allan_deviation(series, cluster_sizes=[1, 4, 16])
        for tau, dev, m in zip(curve.taus, curve.devs, [1, 4, 16]):
            assert dev == pytest.approx(sigma / math.sqrt(m), rel=0.15)

    def test_linear_ramp_slope_is_plus_one(self):
        fs, c = 10.0, 0.01
        x = c * np.arange(4096, dtype=np.float64)
        curve = allan_deviation(SampleSeries(x, fs))
        m = np.asarray(default_cluster_sizes(4096), dtype=np.float64)
        np.testing.assert_allclose(curve.devs, c * m / math.sqrt(2.0), rtol=1e-12)
        sigma_1s = fit_slope_region(curve, 1.0)
        assert sigma_1s == pytest.approx(c * fs / math.sqrt(2.0), rel=1e-9)

    def test_constant_stream_has_zero_devs_and_no_figures(self):
        curve = allan_deviation(SampleSeries(np.full(1024, 3.3), 10.0))
        assert (curve.devs == 0.0).all()
        assert quantization_noise(curve) is None
        assert angle_random_walk(curve) is None
        assert bias_instability(curve) is None

    def test_small_cluster_counts_skipped_and_recorded(self):
        curve = allan_deviation(SampleSeries(np.arange(100.0), 1.0), cluster_sizes=[1, 60])
        assert curve.skipped_m == [60]
        assert curve.taus.shape == (1,)

    def test_bad_cluster_size_rejected(self):
        with pytest.raises(ContractError):
            allan_deviation(SampleSeries(np.arange(100.0), 1.0), cluster_sizes=[0])


class TestNoiseFigures:
    def test_arw_from_exact_minus_half_curve(self):
        a = 0.02
        taus = np.logspace(-2, 2, 20)
        curve = AllanCurve(taus, a / np.sqrt(taus))
        assert fit_slope_region(curve, -0.5) == pytest.approx(a, rel=1e-9)
        assert angle_random_walk(curve) == pytest.approx(60.0 * a, rel=1e-9)

    def test_qn_from_exact_minus_one_curve(self):
        a = 0.5
        taus = np.logspace(-2, 1, 16)
        curve = AllanCurve(taus, a / taus)
        assert quantization_noise(curve) == pytest.approx(a / math.sqrt(3.0), rel=1e-9)

    def test_bi_formula(self):
        curve = AllanCurve(np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.0, 2.5]))
        want = 2.0 * math.sqrt(2.0 * math.log(2.0) / math.pi) * 3600.0
        assert bias_instability(curve) == pytest.approx(want, rel=1e-12)

    def test_no_matching_region_returns_none(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0])
        curve = AllanCurve(taus, 0.1 * taus)  # slope +1 everywhere
        assert fit_slope_region(curve, -0.5) is None
        assert angle_random_walk(curve) is None

    def test_mixed_curve_finds_the_right_stretch(self):
        # -1/2 region at small tau, +1/2 drift at large tau
        taus = np.logspace(-2, 2, 30)
        devs = 0.05 / np.sqrt(taus) + 0.003 * np.sqrt(taus)
        curve = AllanCurve(taus, devs)
        arw = angle_random_walk(curve)
        assert arw is not None
        assert arw == pytest.approx(60.0 * 0.05, rel=0.15)


class TestSavgol:
    def test_reference_weights(self):
        want = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
        np.testing.assert_allclose(savgol_weights(5, 2), want, atol=1e-9)

    def test_normalization(self):
        for window, order in [(5, 2), (7, 3), (9, 4)]:
            assert savgol_weights(window, order).sum() == pytest.approx(1.0, abs=1e-12)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            savgol_weights(4, 2)

    def test_order_bound(self):
        with pytest.raises(ConfigError):
            savgol_weights(5, 5)

    def test_polynomial_invariance_everywhere(self):
        t = np.arange(40, dtype=np.float64)
        x = 1.5 - 0.3 * t + 0.02 * t * t
        out = savgol(SampleSeries(x, 10.0), window=5, order=2)
        np.testing.assert_allclose(out.values, x, atol=1e-8)

    def test_short_record_still_smooths(self):
        x = np.array([1.0, 2.0, 4.0])
        out = savgol(SampleSeries(x, 10.0), window=5, order=2)
        assert out.values.shape == (3,)
        np.testing.assert_allclose(out.values, x, atol=1e-8)  # quadratic fit is exact

    def test_noise_variance_shrinks(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2000)
        out = savgol(SampleSeries(x, 100.0), window=5, order=2)
        assert out.values.var() < 0.6 * x.var()


class TestPolyPeaks:
    def make_clipped_parabola(self, n=64, apex=600.0, width=24.0, center=32.0):
        # stays inside the negative rail at the edges, crosses +450 mid-record
        t = np.arange(n, dtype=np.float64)
        truth = apex - 500.0 * ((t - center) / width) ** 2
        return truth, clip(truth, CLIP)

    def test_parabola_recovered_exactly(self):
        truth, railed = self.make_clipped_parabola()
        res = poly_extrapolate_peaks(SampleSeries(railed, 100.0), CLIP, order=2, flank=6)
        assert len(res.replaced_runs) == 1 and not res.skipped_runs
        s, e = res.replaced_runs[0]
        np.testing.assert_allclose(res.series.values[s:e], truth[s:e], atol=1e-6)

    def test_untouched_outside_runs(self):
        truth, railed = self.make_clipped_parabola()
        res = poly_extrapolate_peaks(SampleSeries(railed, 100.0), CLIP)
        s, e = res.replaced_runs[0]
        keep = np.ones(64, dtype=bool)
        keep[s:e] = False
        np.testing.assert_array_equal(res.series.values[keep], railed[keep])

    def test_run_near_edge_skipped_and_flagged(self):
        railed = np.full(32, 100.0)
        railed[0:5] = 450.0
        res = poly_extrapolate_peaks(SampleSeries(railed, 100.0), CLIP, flank=6)
        assert res.skipped_runs == [(0, 5)]
        assert not res.replaced_runs
        np.testing.assert_array_equal(res.series.values, railed)

    def test_flank_with_saturated_sample_skipped(self):
        railed = np.full(64, 100.0)
        railed[20:25] = 450.0
        railed[27] = 450.0  # pollutes the right flank
        res = poly_extrapolate_peaks(SampleSeries(railed, 100.0), CLIP, flank=6)
        assert (20, 25) in res.skipped_runs

    def test_flank_must_support_order(self):
        with pytest.raises(ConfigError):
            poly_extrapolate_peaks(SampleSeries(np.zeros(16), 1.0), CLIP, order=3, flank=3)


class TestReport:
    def make_streams(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 2048
        truth = rng.normal(0.0, 5.0, size=n)
        truth[300:310] = 500.0  # over-range stretch
        raw = clip(truth, CLIP) + rng.normal(0.0, 1.0, size=n)
        fs = 100.0
        return (
            SampleSeries(raw, fs),
            SampleSeries(truth.copy(), fs),
            SampleSeries(truth, fs),
        )

    def test_identity_enhancement_reductions_are_zero(self):
        raw, _, truth = self.make_streams()
        rep = report(raw, raw, truth, CLIP, static_region=(1024, 2048))
        assert rep.p_mse_reduction_pct == pytest.approx(0.0, abs=1e-9)
        if rep.bi_reduction_pct is not None:
            assert rep.bi_reduction_pct == pytest.approx(0.0, abs=1e-9)

    def test_peak_fields_need_over_range_truth(self):
        fs = 100.0
        quiet = SampleSeries(np.random.default_rng(1).normal(0, 1, 512), fs)
        rep = report(quiet, quiet, quiet, CLIP)
        assert rep.psnr_db is None and rep.p_mse is None and rep.corr is None

    def test_noise_fields_need_static_region(self):
        raw, enh, truth = self.make_streams()
        rep = report(raw, enh, truth, CLIP)
        assert rep.snr_db is None and rep.bi_dph is None

    def test_perfect_enhancement(self):
        raw, enh, truth = self.make_streams()
        rep = report(raw, enh, truth, CLIP, segment_len=256)
        assert rep.psnr_db == "inf" or rep.psnr_db == math.inf
        assert rep.p_mse == 0.0
        assert rep.p_mse_reduction_pct == pytest.approx(-100.0)

    def test_length_mismatch_rejected(self):
        fs = 100.0
        a = SampleSeries(np.zeros(10), fs)
        b = SampleSeries(np.zeros(11), fs)
        with pytest.raises(ContractError):
            report(a, a, b, CLIP)

    def test_bad_static_region_rejected(self):
        raw, enh, truth = self.make_streams()
        with pytest.raises(ContractError):
            report(raw, enh, truth, CLIP, static_region=(100, 9999))

    def test_json_rendering(self):
        import json

        raw, enh, truth = self.make_streams()
        rep = report(raw, enh, truth, CLIP)
        data = json.loads(rep.to_json())
        assert data["psnr_db"] == "inf"
        assert data["snr_db"] is None
        assert list(data) == sorted(data)
        assert rep.to_json().endswith("\n")
