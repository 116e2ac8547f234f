import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from gyromoe.cli import main as cli_main
from gyromoe.errors import ContractError, CsvFormatError, CsvParseError
from gyromoe.signal import (
    _SCAN_BLOCK,
    ClipSpec,
    SampleSeries,
    SynthConfig,
    clip,
    load_csv,
    make_snippet_pool,
    psd,
    saturated_mask,
    save_csv,
    segment,
    stitch,
    synth_motion,
    synth_noise_segments,
    synth_peak_segments,
    true_runs,
    write_csv,
)


class TestCarriers:
    def test_series_validation(self):
        with pytest.raises(ContractError):
            SampleSeries(np.array([1.0, np.nan]), 100.0)
        with pytest.raises(ContractError):
            SampleSeries(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ContractError):
            SampleSeries(np.empty(0), 100.0)

    def test_clip_spec_positive(self):
        with pytest.raises(ContractError):
            ClipSpec(0.0)
        with pytest.raises(ContractError):
            ClipSpec(-1.0)


class TestClip:
    def test_worked_example(self):
        out = clip(np.array([-500.0, 100.0, 470.0]), ClipSpec(450.0))
        assert out.tolist() == [-450.0, 100.0, 450.0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 600, 500)
        spec = ClipSpec(450.0)
        once = clip(x, spec)
        assert np.array_equal(clip(once, spec), once)

    def test_in_range_unchanged(self):
        x = np.array([-449.9, 0.0, 449.9])
        assert np.array_equal(clip(x, ClipSpec(450.0)), x)

    def test_saturated_mask_tolerance(self):
        spec = ClipSpec(450.0)
        x = np.array([450.0, 450.0 * (1 - 1e-7), 449.0, -450.0])
        assert saturated_mask(x, spec).tolist() == [True, True, False, True]


class TestTrueRuns:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_equals_a_scan(self, n):
        rng = np.random.default_rng(n)
        for _ in range(30):
            mask = rng.random(n) < rng.random()
            pairs = []
            for i, on in enumerate(mask):
                if on and (i == 0 or not mask[i - 1]):
                    pairs.append([i, i + 1])
                elif on:
                    pairs[-1][1] = i + 1
            starts, stops = true_runs(mask)
            assert starts.tolist() == [s for s, _ in pairs]
            assert stops.tolist() == [e for _, e in pairs]


class TestSegment:
    def test_len10_window4_stride4(self):
        series = SampleSeries(np.arange(10.0), 100.0)
        windows = segment(series, 4)
        assert windows.shape == (3, 4) and windows.dtype == np.float64
        assert windows.tolist() == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [8.0, 9.0, 0.0, 0.0]]

    def test_window_longer_than_series(self):
        series = SampleSeries(np.arange(3.0), 10.0)
        windows = segment(series, 8)
        assert windows.tolist() == [[0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]]

    def test_coverage(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            series = SampleSeries(rng.normal(size=n), 10.0)
            L = int(rng.integers(2, 32))
            windows = segment(series, L)
            assert windows.shape == (math.ceil(n / L), L)
            for w, row in enumerate(windows):
                real = min(L, n - w * L)
                assert real >= 1
                np.testing.assert_array_equal(row[:real], series.values[w * L : w * L + real])
                assert not row[real:].any()

    def test_stitch_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        series = SampleSeries(x, 10.0)
        windows = segment(series, 16)
        np.testing.assert_array_equal(stitch(windows, 100), x)
        # rows too short to cover the series
        with pytest.raises(ContractError):
            stitch(windows[:-1], 100)


class TestSpectra:
    def test_psd_sinusoid_bin(self):
        fs = 100.0
        n = 1000
        t = np.arange(n) / fs
        x = np.sin(2 * math.pi * 10.0 * t)
        density = psd(SampleSeries(x, fs))
        assert abs(density.frequencies[np.argmax(density.power)] - 10.0) < 1e-9

    def test_psd_white_noise_level(self):
        # mean interior-bin density of white noise sits at 2 sigma^2 / fs
        fs, sigma, n = 100.0, 0.5, 4096
        levels = []
        for seed in range(40):
            x = np.random.default_rng(seed).normal(0, sigma, n)
            density = psd(SampleSeries(x, fs))
            levels.append(np.mean(density.power[1:-1]))
        expected = 2 * sigma**2 / fs
        assert abs(np.mean(levels) - expected) < 0.1 * expected

    def test_psd_parseval_power(self):
        # one-sided density integrates back to the mean-removed variance
        rng = np.random.default_rng(12)
        x = rng.normal(0, 2.0, 1024)
        fs = 50.0
        density = psd(SampleSeries(x, fs))
        var = float(np.var(x))
        integrated = float(density.power.sum()) * fs / x.size
        assert abs(integrated - var) < 1e-9 * var

    def test_psd_needs_two_samples(self):
        with pytest.raises(ContractError):
            psd(SampleSeries(np.array([1.0]), 10.0))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        series = SampleSeries(rng.normal(0, 450, 257), 100.0)
        path = tmp_path / "s.csv"
        save_csv(series, path)
        back = load_csv(path)
        assert back.sample_rate == pytest.approx(100.0, rel=1e-9)
        np.testing.assert_array_equal(back.values, series.values)

    def test_byte_determinism(self, tmp_path):
        series = SampleSeries(np.random.default_rng(7).normal(size=100), 200.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(series, p1)
        save_csv(series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_rate_from_times(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n0,1.0\n0.01,2.0\n0.02,3.0\n")
        assert load_csv(path).sample_rate == pytest.approx(100.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,rate\n0,1\n0.1,2\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n0,1.0\n0.01,huh\n0.02,3.0\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path)

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n0,1.0\n0.01,nan\n0.02,3.0\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path)

    def test_non_uniform_times(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n0,1\n0.01,2\n0.05,3\n0.06,4\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_decreasing_times(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n0,1\n0.02,2\n0.01,3\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        values = np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 1e16, 1e-05, 0.1])
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(values, 100.0), path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values.view(np.int64), values.view(np.int64))
        assert back.sample_rate == pytest.approx(100.0, rel=1e-9)

    def test_blank_lines_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"t,omega\r\n0,1.0\r\n\r\n0.01,2.0\r\n\n0.02,3.0\r\n\r\n")
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, [1.0, 2.0, 3.0])
        assert back.sample_rate == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "row",
        ["0.02,3.O", "0.02", "0.02,3.0,4.0", "0.02,3.0,", "0.02,nan", "0.02,-inf", "   ", "0.02,3_000.0"],
        ids=["bad_float", "one_field", "three_fields", "trailing_comma", "nan", "inf", "whitespace_only",
             "digit_separator"],
    )
    def test_rejected_row_names_its_line(self, tmp_path, row):
        # the blank line 3 is skipped but still counted
        path = tmp_path / "s.csv"
        path.write_text(f"t,omega\n0,1.0\n\n{row}\n0.03,4.0\n0.04,5.0\n")
        with pytest.raises(CsvParseError, match="^line 4: "):
            load_csv(path)

    @pytest.mark.parametrize("body", ["", "\n\n", "0,1.0\n"], ids=["no_rows", "blank_rows", "one_row"])
    def test_fewer_than_two_rows(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text("t,omega\n" + body)
        with pytest.raises(CsvFormatError, match="need at least 2 data rows"):
            load_csv(path)

    def test_non_utf8_byte_deep_in_file(self, tmp_path):
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(np.zeros(5000), 100.0), path)
        with open(path, "ab") as fh:
            fh.write(b"50.0,\xff\n")
        with pytest.raises(CsvFormatError, match="UTF-8"):
            load_csv(path)

    def test_byte_format_pinned(self, tmp_path):
        # shortest round-trip floats, LF line ends, times i / sample_rate
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(np.random.default_rng(4096).normal(0.0, 100.0, 4096), 100.0), path)
        data = path.read_bytes()
        assert data.startswith(b"t,omega\n0.0,91.84255692870084\n0.01,-74.61803753752208\n")
        assert hashlib.sha256(data).hexdigest() == "1bec2d5863bfbf98c4348ac8bb80ada63b7e8621fd306813281b44369a717e6f"

    @pytest.mark.parametrize(
        "text, line",
        [("t,omega\n0,1\n\n0.01,2\n0.005,3\n", 5), ("t,omega\n0,1\n0.01,2\n0.005,3\n", 4),
         ("t,omega\r\n\r\n0,1\r\n\r\n0.01,2\r\n0.01,3\r\n", 6), ("t,omega\r0,1\r\r0.01,2\r0.005,3\r", 5)],
        ids=["blank_line", "no_blank_line", "crlf_blank_lines", "cr_blank_line"],
    )
    def test_time_order_fault_names_its_file_line(self, tmp_path, text, line):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with pytest.raises(CsvFormatError, match=f"^time column not strictly increasing at line {line}$"):
            load_csv(path)

    @pytest.mark.parametrize("offset", [-5000, -2, -1, 0, 1, None], ids=lambda o: "at_end" if o is None else str(o))
    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xe2\x82x", b"\xe2\x82", b"\xe2\x82\xac\xff"],
        ids=["start", "continuation", "truncated", "after_a_whole_char"],
    )
    def test_non_utf8_message_counts_from_the_start_of_the_file(self, tmp_path, offset, bad):
        # the scan decodes in blocks; its message equals a whole-file decode's,
        # also for a character split across the edge of the first block
        text = b"t,omega\n" + b"".join(b"%d.0,1.0\n" % i for i in range(20000))
        at = len(text) if offset is None else _SCAN_BLOCK + offset
        data = text[:at] + bad + text[at:]
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"file is not UTF-8: {whole.value}"

    def test_load_memory_is_bounded_in_stream_lengths(self, tmp_path):
        # the [n, 2] rows plus the time steps, freed before the values are
        # copied out; a median copy and an |dt - med| temporary peak near 5
        n = 1 << 17
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(np.random.default_rng(18).normal(0.0, 100.0, n), 100.0), path)
        load_csv(path)  # warm: the reader's one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * 8


def _one_shot(header, a, b):
    # the writer's contract: every row formatted in one pass
    return header + "\n" + "".join([f"{x!r},{y!r}\n" for x, y in zip(a, b)])


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, 2, 16383, 16384, 16385, 3 * 16384 + 7])
    def test_bytes_equal_one_shot_formatting(self, tmp_path, n):
        values = np.random.default_rng(n).normal(0.0, 100.0, n)
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(values, 333.3), path)
        times = (np.arange(n, dtype=np.float64) / 333.3).tolist()
        assert path.read_bytes() == _one_shot("t,omega", times, values.tolist()).encode()
        stream = io.StringIO()
        write_csv(stream, "step,loss", range(n), values)
        assert stream.getvalue() == _one_shot("step,loss", range(n), values.tolist())

    def test_round_trip_across_a_block_boundary_bit_exact(self, tmp_path):
        values = np.random.default_rng(16384).normal(0.0, 450.0, 16384 + 5)
        values[16382:16387] = [5e-324, -0.0, 1.7976931348623157e308, 0.1, -2.2250738585072014e-308]
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(values, 100.0), path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values.view(np.int64), values.view(np.int64))
        assert back.sample_rate == pytest.approx(100.0, rel=1e-9)

    def test_allan_stdout_equals_out_file(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        save_csv(SampleSeries(np.random.default_rng(3).normal(size=3000), 100.0), path)
        assert cli_main(["allan", "--input", str(path)]) == 0
        printed = capsys.readouterr().out
        assert cli_main(["allan", "--input", str(path), "--out", str(tmp_path / "curve.csv")]) == 0
        assert printed.startswith("tau_s,sigma\n")
        assert (tmp_path / "curve.csv").read_bytes() == printed.encode()

    def test_save_memory_does_not_grow_with_the_series(self, tmp_path):
        # a one-string writer peaks near 22 MiB here; blocks of 16 384 rows stay near 2.5 MiB
        series = SampleSeries(np.random.default_rng(17).normal(0.0, 100.0, 1 << 17), 100.0)
        tracemalloc.start()
        try:
            save_csv(series, tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSynth:
    def test_silence(self):
        series = synth_motion(SynthConfig(duration_s=1.0, sample_rate=100.0))
        assert not series.values.any()

    def test_apex_amplitude(self):
        cfg = SynthConfig(
            duration_s=10.0,
            sample_rate=100.0,
            white_noise_sigma=2.0,
            peak_events=[(5.0, 900.0, 0.4)],
            rng_seed=11,
        )
        series = synth_motion(cfg)
        peak = np.abs(series.values).max()
        assert 850.0 <= peak <= 950.0
        assert peak >= 0.94 * 900.0

    def test_determinism(self):
        cfg = SynthConfig(2.0, 100.0, white_noise_sigma=1.0, rng_seed=3)
        a = synth_motion(cfg)
        b = synth_motion(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_peak_segments_reach_rail(self):
        rng = np.random.default_rng(8)
        rail = 450.0
        segs = synth_peak_segments(
            rng, 50, 256, 100.0, (1.25 * rail, 2.0 * rail), (0.15, 0.45), 4.0
        )
        assert len(segs) == 50
        n_over = sum(bool((np.abs(s) > rail).any()) for s in segs)
        assert n_over >= 45

    def test_noise_segments_shape(self):
        segs = synth_noise_segments(np.random.default_rng(9), 10, 128, 2.0)
        assert len(segs) == 10
        assert all(s.shape == (128,) for s in segs)

    def test_snippet_pool(self):
        pool = make_snippet_pool(np.random.default_rng(10), 8, (64, 192), 100.0)
        assert len(pool) == 8
        for s in pool:
            assert 64 <= s.size <= 192
            assert abs(np.abs(s).max() - 1.0) < 1e-12
