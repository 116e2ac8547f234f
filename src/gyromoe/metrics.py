"""Evaluation metrics and classical baselines for rate-stream enhancement.

Peak metrics (peak-averaged PSNR, peak-region MSE, Pearson correlation)
are computed only on samples where the ground truth exceeds the clip
rail. Noise metrics (SNR, Allan deviation and the quantization noise /
angle random walk / bias instability figures read off it) are computed on
a designated static region. Angular rate is deg/s; QN is reported in deg,
ARW in deg/sqrt(h), BI in deg/h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .signal import RATE_RTOL, ClipSpec, SampleSeries, saturated_mask, true_runs

_BI_FACTOR = math.sqrt(2.0 * math.log(2.0) / math.pi)

# how far a local log-log slope may stray from the target and join a fit region
SLOPE_TOL = 0.15


# ---------------------------------------------------------------------------
# Peak-side metrics.


def peak_indices(truth: np.ndarray, clip: ClipSpec) -> np.ndarray:
    """Samples where the true magnitude strictly exceeds the rail, found
    with two boolean compares rather than a float ``|truth|``."""
    t = np.asarray(truth, dtype=np.float64)
    over = t > clip.level
    over |= t < -clip.level
    return np.nonzero(over)[0]


def p_mse(truth, recon, idx) -> float:
    """Mean squared error restricted to the given peak samples."""
    t = np.asarray(truth, dtype=np.float64)
    r = np.asarray(recon, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ContractError("p_mse needs a nonempty peak set")
    if t.shape != r.shape:
        raise ContractError(f"p_mse shapes {t.shape} and {r.shape} differ")
    d = t[idx] - r[idx]
    return float(np.mean(d * d))


def psnr(truth_segments, recon_segments, clip: ClipSpec) -> float:
    """Peak-averaged PSNR over segments that contain over-range samples.

    The reference level is the mean over segments of the per-segment peak
    magnitude minus the rail; the error power pools every over-range sample.
    Zero pooled error gives +inf.
    """
    if len(truth_segments) == 0 or len(truth_segments) != len(recon_segments):
        raise ContractError("psnr needs matching nonempty segment lists")
    peaks = []
    sq_sum = 0.0
    n_over = 0
    for t, r in zip(truth_segments, recon_segments):
        t = np.asarray(t, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        if t.shape != r.shape:
            raise ContractError(f"psnr segment shapes {t.shape} and {r.shape} differ")
        over = np.abs(t) > clip.level
        if not over.any():
            raise ContractError("psnr segment has no over-range sample")
        peaks.append(np.abs(t).max())
        d = t[over] - r[over]
        sq_sum += float((d * d).sum())
        n_over += int(over.sum())
    mean_peak = float(np.mean(peaks))
    if mean_peak <= clip.level:
        raise ContractError(
            f"mean segment peak {mean_peak} does not exceed the rail {clip.level}"
        )
    mse = sq_sum / n_over
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10((mean_peak - clip.level) ** 2 / mse)


def pearson_corr(a, b) -> float:
    """Pearson correlation; zero variance on either side is an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(f"pearson_corr needs matching 1-D inputs, got {a.shape}, {b.shape}")
    if a.size < 2:
        raise ContractError("pearson_corr needs at least 2 samples")
    da = a - a.mean()
    db = b - b.mean()
    va = float((da * da).sum())
    vb = float((db * db).sum())
    if va == 0.0 or vb == 0.0:
        raise ContractError("pearson_corr input has zero variance")
    return float((da * db).sum() / math.sqrt(va * vb))


def snr(signal_samples, noise_samples) -> float:
    """10 log10 of mean-square signal power over mean-square noise power."""
    s = np.asarray(signal_samples, dtype=np.float64)
    n = np.asarray(noise_samples, dtype=np.float64)
    if s.size == 0 or n.size == 0:
        raise ContractError("snr needs nonempty signal and noise sample sets")
    ps = float(np.mean(s * s))
    pn = float(np.mean(n * n))
    if pn == 0.0:
        return math.inf
    if ps == 0.0:
        return -math.inf
    return 10.0 * math.log10(ps / pn)


def percent_reduction(raw: float, enhanced: float) -> float:
    """Signed percent change from raw to enhanced (negative = reduction)."""
    if raw == 0.0:
        raise ContractError("percent_reduction is undefined for a zero baseline")
    return 100.0 * (enhanced - raw) / raw


# ---------------------------------------------------------------------------
# Allan deviation and derived noise figures.


@dataclass
class AllanCurve:
    taus: np.ndarray
    devs: np.ndarray
    skipped_m: list = field(default_factory=list)

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=np.float64)
        self.devs = np.asarray(self.devs, dtype=np.float64)
        if self.taus.shape != self.devs.shape:
            raise ContractError("Allan curve taus and devs must align")


def default_cluster_sizes(n_samples: int) -> list:
    """Powers of two up to n/8, so every cluster count stays meaningful."""
    sizes = []
    m = 1
    while m <= n_samples // 8:
        sizes.append(m)
        m *= 2
    return sizes


def allan_deviation(series: SampleSeries, cluster_sizes=None) -> AllanCurve:
    """Non-overlapping Allan deviation of a rate stream.

    For cluster size m the samples are averaged in M = floor(N/m) blocks
    and the deviation is sqrt(sum((mean_{i+1} - mean_i)^2) / (2 (M - 1)))
    at tau = m / fs. Cluster sizes leaving fewer than two blocks are
    skipped and recorded.

    The block means of size m are built from those of the largest size
    k already computed that divides m (the samples themselves when none
    does): r = m / k strided column adds over the first M r means of size
    k, divided by r. Default sizes are powers of two, so each level halves
    the previous one and the whole curve costs O(n), not O(n log n). Means
    of a size are kept only while a later size is a multiple of it. Means
    of means equal block means in exact arithmetic; only the summation
    order differs. Each level's differences are squared in place and freed
    before the next level is built.
    """
    x = series.values
    n = x.size
    if cluster_sizes is None:
        cluster_sizes = default_cluster_sizes(n)
    sizes = [int(m) for m in cluster_sizes]
    for m in sizes:
        if m < 1:
            raise ContractError(f"cluster size must be >= 1, got {m}")
    # the position of the last size that each size divides
    last_use = {k: max(i for i, m in enumerate(sizes) if m % k == 0) for k in set(sizes)}
    levels = {1: x}  # block means by cluster size
    taus = []
    devs = []
    skipped = []
    for i, m in enumerate(sizes):
        big_m = n // m
        if big_m < 2:
            skipped.append(m)
            continue
        k = max(s for s in levels if m % s == 0)
        r = m // k
        base = levels[k][: big_m * r]
        means = base[::r]
        if r > 1:
            means = means + base[1::r]
            for j in range(2, r):
                means += base[j::r]
            means /= r
        levels[m] = means
        levels = {s: v for s, v in levels.items() if s == 1 or last_use[s] > i}
        d = np.subtract(means[1:], means[:-1])
        var = float(np.add.reduce(np.multiply(d, d, out=d))) / (2.0 * (big_m - 1))
        del d  # one level's differences at a time
        taus.append(m / series.sample_rate)
        devs.append(math.sqrt(var))
    return AllanCurve(np.asarray(taus), np.asarray(devs), skipped)


def fit_slope_region(curve: AllanCurve, target_slope: float):
    """Intercept sigma(tau=1 s) of the longest log-log stretch near a slope.

    Local slopes come from centered differences of log(dev) against
    log(tau); points within ``SLOPE_TOL`` of the target form candidate runs
    and the longest contiguous run (at least 2 points) is fitted by least
    squares and extrapolated to tau = 1 s. Returns None when no such
    region exists.
    """
    taus, devs = curve.taus, curve.devs
    if taus.size < 2 or (devs <= 0.0).any():
        return None
    lt = np.log(taus)
    ls = np.log(devs)
    k = taus.size
    slopes = np.empty(k)
    slopes[1:-1] = (ls[2:] - ls[:-2]) / (lt[2:] - lt[:-2])
    slopes[0] = (ls[1] - ls[0]) / (lt[1] - lt[0])
    slopes[-1] = (ls[-1] - ls[-2]) / (lt[-1] - lt[-2])
    ok = np.abs(slopes - target_slope) <= SLOPE_TOL
    starts, stops = true_runs(ok)
    lengths = stops - starts
    if lengths.max(initial=0) < 2:
        return None
    i = np.argmax(lengths)  # the first of equally long runs
    sl = slice(starts[i], stops[i])
    a, b = np.polyfit(lt[sl], ls[sl], 1)
    return float(math.exp(b))


def quantization_noise(curve: AllanCurve) -> float | None:
    """Quantization figure: sigma(1 s) on the -1 slope stretch over sqrt(3)."""
    s1 = fit_slope_region(curve, -1.0)
    return None if s1 is None else s1 / math.sqrt(3.0)


def angle_random_walk(curve: AllanCurve) -> float | None:
    """ARW in deg/sqrt(h): sigma(1 s) on the -1/2 stretch, times 60."""
    s1 = fit_slope_region(curve, -0.5)
    return None if s1 is None else s1 * 60.0


def bias_instability(curve: AllanCurve) -> float | None:
    """BI in deg/h: curve minimum scaled by sqrt(2 ln 2 / pi) and 3600."""
    if curve.devs.size == 0 or (curve.devs <= 0.0).any():
        return None
    return float(curve.devs.min()) * _BI_FACTOR * 3600.0


# ---------------------------------------------------------------------------
# Classical baselines.


def savgol_weights(window: int, order: int) -> np.ndarray:
    """Center-sample smoothing weights of a least-squares polynomial fit."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    if not 0 <= order < window:
        raise ConfigError(f"order must lie in [0, {window}), got {order}")
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    basis = np.vander(offsets, order + 1, increasing=True)
    return np.linalg.pinv(basis)[0]


def savgol(series: SampleSeries, window: int = 5, order: int = 2) -> SampleSeries:
    """Savitzky-Golay smoothing with truncated-window edge fits.

    Interior samples use the closed-form center weights; near the edges the
    polynomial is refitted on whatever part of the window remains, so
    polynomials of degree <= order pass through unchanged everywhere.
    """
    w = savgol_weights(window, order)
    x = series.values
    n = x.size
    half = window // 2
    y = np.empty_like(x)
    if n >= window:
        y[half : n - half] = np.correlate(x, w, mode="valid")
    for i in list(range(min(half, n))) + list(range(max(n - half, 0), n)):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        offsets = np.arange(lo, hi, dtype=np.float64) - i
        basis = np.vander(offsets, order + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(basis, x[lo:hi], rcond=None)
        y[i] = coef[0]
    return SampleSeries(y, series.sample_rate)


@dataclass
class PolyPeakResult:
    series: SampleSeries
    replaced_runs: list
    skipped_runs: list


def poly_extrapolate_peaks(
    series: SampleSeries,
    clip: ClipSpec,
    order: int = 2,
    flank: int = 6,
) -> PolyPeakResult:
    """Rebuild each saturated run from one polynomial fit to its flanks.

    Both flanks must provide ``flank`` unclipped in-bounds samples; runs
    without that support are left unchanged and reported in
    ``skipped_runs``.
    """
    if order < 0:
        raise ConfigError(f"order must be >= 0, got {order}")
    if flank < order + 1:
        raise ConfigError(f"flank {flank} must be at least order + 1 = {order + 1}")
    x = series.values.copy()
    n = x.size
    sat = saturated_mask(x, clip)
    replaced = []
    skipped = []
    starts, stops = true_runs(sat)
    for s, e in zip(starts.tolist(), stops.tolist()):
        left = np.arange(s - flank, s)
        right = np.arange(e, e + flank)
        support = np.concatenate((left, right))
        if (
            left.size < flank
            or (support < 0).any()
            or (support >= n).any()
            or sat[support].any()
        ):
            skipped.append((s, e))
            continue
        poly = np.polynomial.Polynomial.fit(support.astype(np.float64), x[support], order)
        x[s:e] = poly(np.arange(s, e, dtype=np.float64))
        replaced.append((s, e))
    return PolyPeakResult(SampleSeries(x, series.sample_rate), replaced, skipped)


# ---------------------------------------------------------------------------
# Aggregate report.


@dataclass
class MetricReport:
    psnr_db: float | None = None
    p_mse: float | None = None
    corr: float | None = None
    snr_db: float | None = None
    qn_dps: float | None = None
    arw_dsqrth: float | None = None
    bi_dph: float | None = None
    p_mse_reduction_pct: float | None = None
    qn_reduction_pct: float | None = None
    arw_reduction_pct: float | None = None
    bi_reduction_pct: float | None = None

    def to_json_dict(self) -> dict:
        def render(v):
            if v is None:
                return None
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return float(v)

        return {k: render(v) for k, v in vars(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _reduction_or_none(raw_v, enh_v):
    if raw_v is None or enh_v is None or raw_v == 0.0:
        return None
    return percent_reduction(raw_v, enh_v)


def report(
    raw: SampleSeries,
    enhanced: SampleSeries,
    truth: SampleSeries,
    clip: ClipSpec,
    segment_len: int = 256,
    static_region: tuple | None = None,
) -> MetricReport:
    """Full metric sweep of an enhanced stream against truth and raw input.

    Peak metrics appear only when the truth exceeds the rail somewhere;
    noise metrics only when ``static_region`` (a half-open sample range)
    is given. Reductions compare the enhanced stream against the raw one
    and are None whenever either side is unavailable. The three series
    must share one length and one sample rate (within
    ``signal.RATE_RTOL``).
    """
    if not (len(raw) == len(enhanced) == len(truth)):
        raise ContractError(
            f"series lengths differ: raw {len(raw)}, enhanced {len(enhanced)}, truth {len(truth)}"
        )
    rates = (raw.sample_rate, enhanced.sample_rate, truth.sample_rate)
    if max(rates) - min(rates) > RATE_RTOL * min(rates):
        raise ContractError(
            f"series sample rates differ: raw {rates[0]!r} Hz, enhanced {rates[1]!r} Hz, truth {rates[2]!r} Hz"
        )
    rep = MetricReport()
    idx = peak_indices(truth.values, clip)
    if idx.size:
        if segment_len < 1:
            raise ContractError(f"segment length must be >= 1, got {segment_len}")
        # the windows of ``segment_len`` that hold a peak; a partial last window
        # pools the same samples as its zero-padded form, since padding never exceeds the rail
        starts = (np.unique(idx // segment_len) * segment_len).tolist()
        rep.psnr_db = psnr(
            [truth.values[s : s + segment_len] for s in starts],
            [enhanced.values[s : s + segment_len] for s in starts],
            clip,
        )
        rep.p_mse = p_mse(truth.values, enhanced.values, idx)
        raw_p_mse = p_mse(truth.values, raw.values, idx)
        rep.p_mse_reduction_pct = _reduction_or_none(raw_p_mse, rep.p_mse)
        try:
            rep.corr = pearson_corr(truth.values[idx], enhanced.values[idx])
        except ContractError:
            rep.corr = None
    if static_region is not None:
        lo, hi = int(static_region[0]), int(static_region[1])
        if not 0 <= lo < hi <= len(truth):
            raise ContractError(
                f"static region [{lo}, {hi}) outside series of {len(truth)}"
            )
        v = enhanced.values
        if lo > 0 or hi < v.size:
            rep.snr_db = snr(np.concatenate((v[:lo], v[hi:])), v[lo:hi])
        fs = enhanced.sample_rate
        curve_enh = allan_deviation(SampleSeries(v[lo:hi], fs))
        curve_raw = allan_deviation(SampleSeries(raw.values[lo:hi], fs))
        rep.qn_dps = quantization_noise(curve_enh)
        rep.arw_dsqrth = angle_random_walk(curve_enh)
        rep.bi_dph = bias_instability(curve_enh)
        rep.qn_reduction_pct = _reduction_or_none(quantization_noise(curve_raw), rep.qn_dps)
        rep.arw_reduction_pct = _reduction_or_none(angle_random_walk(curve_raw), rep.arw_dsqrth)
        rep.bi_reduction_pct = _reduction_or_none(bias_instability(curve_raw), rep.bi_dph)
    return rep
