import importlib
import tracemalloc

import numpy as np
import pytest

from gyromoe import backbone as bb
from gyromoe import ore
from gyromoe.errors import ConfigError, ContractError, MaskError
from gyromoe.gate import EXPERT_CHUNK, GateConfig, RouteDecision, enhance, route
from gyromoe.signal import CLIP_EPS, ClipSpec, SampleSeries, saturated_mask, true_runs

de = importlib.import_module("gyromoe.denoise")

LEVEL = 1.0


def gate_config(**kw):
    kw.setdefault("segment_len", 64)
    kw.setdefault("quiet_run", 8)
    return GateConfig(clip=ClipSpec(level=LEVEL), **kw)


def scalar_walk(x, config, p_hat, n_hat):
    """Literal left-to-right splice walk used as the batching oracle."""
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


def mixed_segment(rng, n, config):
    """Random stitch of quiet, mid-band, and rail chunks."""
    tau = config.quiet_tau
    chunks = []
    total = 0
    while total < n:
        kind = rng.integers(0, 3)
        length = int(rng.integers(1, 14))
        if kind == 0:
            vals = rng.uniform(-0.4 * tau, 0.4 * tau, size=length)
        elif kind == 1:
            vals = rng.uniform(1.2 * tau, 0.9 * LEVEL, size=length) * rng.choice([-1.0, 1.0])
        else:
            vals = np.full(length, LEVEL * rng.choice([-1.0, 1.0]))
        chunks.append(vals)
        total += length
    return np.concatenate(chunks)[:n]


class TestConfig:
    def test_quiet_tau_defaults_to_tenth_of_level(self):
        assert gate_config().quiet_tau == pytest.approx(0.1 * LEVEL)

    def test_quiet_tau_override(self):
        assert gate_config(quiet_threshold=0.25).quiet_tau == 0.25
        below_rail = np.nextafter(LEVEL * (1 - CLIP_EPS), 0.0)  # the largest threshold off the rail
        assert not saturated_mask(below_rail, ClipSpec(LEVEL))
        assert gate_config(quiet_threshold=below_rail).quiet_tau == below_rail

    def test_validation(self):
        # a NaN threshold would compare false everywhere and silently disable the noise route
        for kw in ({"segment_len": 0}, {"peak_run": 0}, {"quiet_run": 0}, {"quiet_threshold": -1.0},
                   {"quiet_threshold": np.nan}, {"quiet_threshold": np.inf}):
            with pytest.raises(ConfigError):
                gate_config(**kw)
        # a threshold on or above the rail would make rail samples quiet too
        for tau in (LEVEL * (1 - CLIP_EPS), LEVEL, 1.5 * LEVEL):
            with pytest.raises(ConfigError, match="quiet_threshold"):
                gate_config(quiet_threshold=tau)


class TestRoute:
    def test_three_rail_samples_fire_peak(self):
        x = np.full(16, 0.5)
        x[4:7] = LEVEL
        d = route(x, gate_config())
        assert d.peak and not d.noise
        np.testing.assert_array_equal(np.flatnonzero(d.peak_samples), [4, 5, 6])
        assert not d.noise_samples.any()

    def test_two_rail_samples_do_not(self):
        x = np.full(16, 0.5)
        x[4:6] = -LEVEL
        d = route(x, gate_config())
        assert not d.peak
        assert not d.peak_samples.any()  # a rail run too short to fire replaces nothing

    def test_quiet_run_fires_noise(self):
        cfg = gate_config()
        x = np.full(32, 0.5)
        x[10:18] = 0.01
        d = route(x, cfg)
        assert d.noise and not d.peak
        np.testing.assert_array_equal(np.flatnonzero(d.noise_samples), np.arange(10, 18))
        assert not d.peak_samples.any()

    def test_short_quiet_run_does_not(self):
        cfg = gate_config()
        x = np.full(32, 0.5)
        x[10:17] = 0.01
        d = route(x, cfg)
        assert not d.noise
        assert not d.noise_samples.any()

    def test_both_routes_can_fire(self):
        cfg = gate_config()
        x = np.full(40, 0.5)
        x[0:8] = 0.0
        x[20:25] = LEVEL
        d = route(x, cfg)
        assert d.peak and d.noise

    def test_threshold_is_strict_below(self):
        cfg = gate_config()
        x = np.full(16, cfg.quiet_tau)  # exactly at tau is not quiet
        assert not route(x, cfg).noise

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            route(np.empty(0), gate_config())


def const_expert(row):
    """Expert that predicts ``row`` for every window it is given."""
    return lambda windows: np.tile(row, (len(windows), 1))


def identity_expert(windows):
    return windows.copy()


def stub_experts(n):
    return const_expert(np.full(n, 7.0)), const_expert(-np.arange(n, dtype=np.float64))


class TestEnhance:
    def test_pass_through_is_bit_exact(self):
        cfg = gate_config()
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.2, 0.8, size=200) * rng.choice([-1.0, 1.0], size=200)
        series = SampleSeries(vals, 100.0)
        calls = []

        def spy(windows):
            calls.append(len(windows))
            return identity_expert(windows)

        out = enhance(series, cfg, peak_fn=spy, noise_fn=spy)
        np.testing.assert_array_equal(out.values, vals)
        assert calls == []

    def test_only_saturated_samples_change(self):
        cfg = gate_config()
        x = np.full(64, 0.5)
        x[10:15] = LEVEL
        peak, noise = stub_experts(64)
        out = enhance(SampleSeries(x, 100.0), cfg, peak_fn=peak, noise_fn=noise)
        np.testing.assert_array_equal(out.values[10:15], np.full(5, 7.0))
        keep = np.ones(64, dtype=bool)
        keep[10:15] = False
        np.testing.assert_array_equal(out.values[keep], x[keep])

    def test_quiet_blocks_replaced_in_quiet_run_multiples(self):
        cfg = gate_config()
        x = np.full(64, 0.5)
        x[20:39] = 0.0  # 19 quiet samples -> two blocks of 8, tail of 3 kept
        peak, noise = stub_experts(64)
        out = enhance(SampleSeries(x, 100.0), cfg, peak_fn=peak, noise_fn=noise)
        np.testing.assert_array_equal(out.values[20:36], -np.arange(20.0, 36.0))
        np.testing.assert_array_equal(out.values[36:39], x[36:39])

    def test_missing_peak_expert_is_config_error(self):
        cfg = gate_config()
        x = np.full(64, 0.5)
        x[5:9] = LEVEL
        with pytest.raises(ConfigError, match="origin|segment at 0"):
            enhance(SampleSeries(x, 100.0), cfg, noise_fn=identity_expert)

    def test_missing_noise_expert_is_config_error(self):
        cfg = gate_config(segment_len=32)
        x = np.full(70, 0.5)
        x[40:60] = 0.0
        with pytest.raises(ConfigError, match="32"):
            enhance(SampleSeries(x, 100.0), cfg, peak_fn=identity_expert)

    def test_length_preserved_for_partial_tail_segment(self):
        cfg = gate_config()
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.2, 0.8, size=150)
        out = enhance(SampleSeries(vals, 100.0), cfg)
        assert out.values.shape == (150,)
        assert out.sample_rate == 100.0
        np.testing.assert_array_equal(out.values, vals)

        # routed partial windows: only the real samples are routed and spliced,
        # so a quiet run at the end does not grow into the zero padding
        p_hat, n_hat = np.full(64, 7.0), -np.arange(64, dtype=np.float64)
        peak, noise = stub_experts(64)
        tail = vals.copy()
        tail[130:134] = LEVEL  # rail run in the 22-sample tail
        tail[136:144] = 0.0  # quiet run of quiet_run samples
        tail[147:150] = 0.0  # 3 quiet samples at the very end
        short = rng.uniform(0.2, 0.8, size=20)  # shorter than one window
        short[5:9] = -LEVEL
        short[16:20] = 0.0
        outs = []
        for x in (tail, short):
            out = enhance(SampleSeries(x, 100.0), cfg, peak_fn=peak, noise_fn=noise).values
            assert out.shape == x.shape
            for w in range(0, x.size, 64):
                real = x[w : w + 64]
                np.testing.assert_array_equal(out[w : w + 64], scalar_walk(real, cfg, p_hat, n_hat))
            outs.append(out)
        np.testing.assert_array_equal(outs[0][130:134], np.full(4, 7.0))
        np.testing.assert_array_equal(outs[0][136:144], n_hat[8:16])
        np.testing.assert_array_equal(outs[0][144:], tail[144:])
        np.testing.assert_array_equal(outs[1][5:9], np.full(4, 7.0))
        np.testing.assert_array_equal(outs[1][16:], short[16:])

    def test_expert_shape_checked(self):
        cfg = gate_config()
        x = np.full(64, 0.5)
        x[5:9] = LEVEL
        with pytest.raises(ContractError, match="shape"):
            enhance(SampleSeries(x, 100.0), cfg, peak_fn=lambda windows: np.zeros(3))


def assert_masks_are_the_walk(decision, x, walked):
    """The decision's two masks are disjoint and together are exactly the
    samples the scalar walk changed."""
    assert not (decision.peak_samples & decision.noise_samples).any()
    np.testing.assert_array_equal(decision.peak_samples | decision.noise_samples, walked != x)


def route_by_run_lists(x, config):
    """``route`` as one Python list of runs per mask: the reference that
    the array form must equal."""
    peak = saturated_mask(x, config.clip)
    if not any(e - s >= config.peak_run for s, e in true_runs(peak)):
        peak = np.zeros(x.size, dtype=bool)
    q = config.quiet_run
    noise = np.zeros(x.size, dtype=bool)
    for s, e in true_runs(np.abs(x) < config.quiet_tau):
        noise[s : s + q * ((e - s) // q)] = True
    return peak, noise


class TestRouteMasks:
    @pytest.mark.parametrize("seed", range(20))
    def test_masks_equal_the_run_list_form(self, seed):
        rng = np.random.default_rng([16, seed])
        for _ in range(50):
            # None, or any threshold off the rail
            tau = None if rng.random() < 0.25 else float(rng.uniform(1e-3, 1.0 - CLIP_EPS)) * LEVEL
            cfg = gate_config(peak_run=int(rng.integers(1, 9)), quiet_run=int(rng.integers(1, 21)), quiet_threshold=tau)
            # runs of quiet, mid-band and rail samples, any threshold up to the rail
            n = int(rng.integers(1, 200))
            lo = [0.0, cfg.quiet_tau, LEVEL * (1 - CLIP_EPS)]
            hi = [cfg.quiet_tau, LEVEL * (1 - CLIP_EPS), LEVEL]
            kinds = np.repeat(rng.integers(0, 3, n), rng.integers(1, 25, n))[:n]
            x = rng.uniform(np.take(lo, kinds), np.take(hi, kinds)) * rng.choice([-1.0, 1.0], n)
            decision = route(x, cfg)
            peak, noise = route_by_run_lists(x, cfg)
            for got, want in ((decision.peak_samples, peak), (decision.noise_samples, noise)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    def test_runs_touching_both_ends(self):
        cfg = gate_config(peak_run=2, quiet_run=3)
        x = np.array([LEVEL, LEVEL, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        decision = route(x, cfg)
        np.testing.assert_array_equal(decision.peak_samples, [1, 1, 0, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(decision.noise_samples, [0, 0, 0, 1, 1, 1, 1, 1, 1])


class TestScalarWalkEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_mixed_segments(self, seed):
        rng = np.random.default_rng(seed)
        tau = None if seed % 3 == 0 else float(rng.uniform(0.02, 0.7)) * LEVEL
        cfg = gate_config(peak_run=int(rng.integers(1, 6)), quiet_run=int(rng.integers(1, 17)), quiet_threshold=tau)
        x = mixed_segment(rng, 64, cfg)
        p_hat = np.full(64, 7.0)
        n_hat = -np.arange(64, dtype=np.float64)
        out = enhance(
            SampleSeries(x, 100.0), cfg, peak_fn=const_expert(p_hat), noise_fn=const_expert(n_hat)
        )
        want = scalar_walk(x, cfg, p_hat, n_hat)
        np.testing.assert_array_equal(out.values, want)
        decision = route(x, cfg)
        assert_masks_are_the_walk(decision, x, want)
        assert decision.peak == decision.peak_samples.any()
        assert decision.noise == decision.noise_samples.any()

    def test_block_never_starts_inside_consumed_window(self):
        # quiet run of 12 with q=8: exactly one block, tail passes through
        cfg = gate_config()
        x = np.full(64, 0.5)
        x[0:12] = 0.0
        n_hat = -np.arange(64, dtype=np.float64)
        out = enhance(SampleSeries(x, 100.0), cfg, noise_fn=const_expert(n_hat))
        np.testing.assert_array_equal(out.values, scalar_walk(x, cfg, None, n_hat))
        np.testing.assert_array_equal(out.values[8:12], x[8:12])


# ---------------------------------------------------------------------------
# Batched experts: one call per chunk of routed windows, same bits as one
# window at a time.

SMALL_BB = bb.BackboneConfig(patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2)
WINDOW = 32
KINDS = ("peak", "noise", "both", "pass")


def batch_window(rng, kind):
    """A 32-sample window that routes as ``kind`` under ``gate_config``."""
    x = rng.uniform(0.3, 0.9, WINDOW) * rng.choice([-1.0, 1.0], WINDOW)
    if kind in ("peak", "both"):
        # rail runs of 3-12 samples hide 1-4 of the 8 patches
        at = int(rng.integers(0, 12))
        x[at : at + int(rng.integers(3, 13))] = LEVEL * rng.choice([-1.0, 1.0])
    if kind in ("noise", "both"):
        at = int(rng.integers(24, 26))
        x[at - 8 : at] = rng.uniform(-0.05, 0.05, 8)
    return x


class SpyExpert:
    def __init__(self, fn, stream):
        self.fn = fn
        # start sample of each window of ``stream``, keyed by its bytes
        self.starts = {stream[w : w + WINDOW].tobytes(): w for w in range(0, stream.size, WINDOW)}
        assert len(self.starts) * WINDOW == stream.size
        self.calls = []  # start samples of the windows in each call

    def __call__(self, windows):
        self.calls.append([self.starts[row.tobytes()] for row in windows])
        return self.fn(windows)


def small_experts(seed=0):
    rng = np.random.default_rng(seed)
    clip = ClipSpec(LEVEL)
    ore_cfg = ore.OreConfig(clip=clip, backbone=SMALL_BB)
    de_cfg = de.DeConfig(clip=clip, backbone=SMALL_BB)
    peak = ore.make_peak_fn(bb.init_params(SMALL_BB, rng), ore_cfg)
    noise = de.make_noise_fn(de.build_de_params(de_cfg, rng), de_cfg)
    return peak, noise


class TestBatchedExperts:
    def test_stream_equals_window_by_window_and_chunks_calls(self):
        cfg = gate_config(segment_len=WINDOW)
        rng = np.random.default_rng(11)
        kinds = [KINDS[i % 4] for i in range(2 * EXPERT_CHUNK + 24)]
        x = np.concatenate([batch_window(rng, k) for k in kinds])
        routes = [route(x[w * WINDOW : (w + 1) * WINDOW], cfg) for w in range(len(kinds))]
        assert [("both" if d.peak and d.noise else "peak" if d.peak else "noise" if d.noise else "pass")
                for d in routes] == kinds
        peak_windows = [w * WINDOW for w, d in enumerate(routes) if d.peak]
        noise_windows = [w * WINDOW for w, d in enumerate(routes) if d.noise]
        assert len(peak_windows) > EXPERT_CHUNK and len(noise_windows) > EXPERT_CHUNK
        masks = bb.mask_from_flags(np.stack([saturated_mask(x[w : w + WINDOW], cfg.clip) for w in peak_windows]), 4)
        assert len(set(masks.sum(axis=1))) >= 2  # more than one visible-patch group

        peak, noise = small_experts()
        peak_spy, noise_spy = SpyExpert(peak, x), SpyExpert(noise, x)
        whole = enhance(SampleSeries(x, 100.0), cfg, peak_fn=peak_spy, noise_fn=noise_spy).values
        for spy, windows in ((peak_spy, peak_windows), (noise_spy, noise_windows)):
            want = [windows[i : i + EXPERT_CHUNK] for i in range(0, len(windows), EXPERT_CHUNK)]
            assert spy.calls == want

        per_window = np.concatenate([
            enhance(SampleSeries(x[w * WINDOW : (w + 1) * WINDOW], 100.0), cfg, peak_fn=peak, noise_fn=noise).values
            for w in range(len(kinds))
        ])
        np.testing.assert_array_equal(whole.view(np.int64), per_window.view(np.int64))
        assert (whole.view(np.int64) != x.view(np.int64)).any()

    def test_all_rail_window_raises_mask_error(self):
        cfg = gate_config(segment_len=WINDOW)
        rng = np.random.default_rng(12)
        x = np.concatenate([batch_window(rng, "peak"), np.full(WINDOW, LEVEL), batch_window(rng, "noise")])
        peak, noise = small_experts()
        with pytest.raises(MaskError):
            enhance(SampleSeries(x, 100.0), cfg, peak_fn=peak, noise_fn=noise)

    def test_temporaries_stay_bounded(self):
        # every 64-sample window holds a 3-sample rail run and a 16-sample quiet run
        cfg = gate_config()
        window = np.full(64, 0.5)
        window[10:13] = LEVEL
        window[30:46] = 0.0
        n = 2**16
        series = SampleSeries(np.tile(window, n // 64), 100.0)
        assert route(window, cfg).peak and route(window, cfg).noise
        tracemalloc.start()
        try:
            enhance(series, cfg, peak_fn=lambda w: w + 1.0, noise_fn=lambda w: w + 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n, f"enhance peaked at {peak / (8 * n):.2f} stream-length arrays"
