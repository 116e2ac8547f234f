"""Sample carriers, CSV ingestion, segmentation, spectra, and synthetic motion.

Angular rate is carried in deg/s throughout; time bases are uniform. All
arrays are float64. ``saturated_mask`` with the tolerance ``CLIP_EPS`` is
the one rule for which samples sit on the clip rail. ``segment`` cuts a
series into the ``[n, L]`` window array that the gate and both experts
share, one window per row, and ``stitch`` undoes it. ``synth_motion``
returns a clean series.
"""

from __future__ import annotations

import codecs
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, CsvFormatError, CsvParseError, GyroMoeError

CSV_HEADER = "t,omega"

# relative tolerance of the one rail rule, saturated_mask: a sample whose
# magnitude reaches level * (1 - CLIP_EPS) sits on the clip rail
CLIP_EPS = 1e-6

# relative tolerance of a sample rate: of each CSV time step from their
# median, and of a CSV-derived rate from the configured one
RATE_RTOL = 1e-6


def _as_float_array(values, name="values"):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ContractError(f"{name} contains non-finite entries")
    return arr


@dataclass
class SampleSeries:
    """A uniformly sampled angular-rate stream.

    Parameters
    ----------
    values : array_like
        Rate samples in deg/s, finite, at least one sample.
    sample_rate : float
        Sampling frequency in Hz, strictly positive.
    """

    values: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.values = _as_float_array(self.values)
        self.sample_rate = float(self.sample_rate)
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0.0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class ClipSpec:
    """Symmetric saturation rail: representable range is [-level, +level]."""

    level: float

    def __post_init__(self):
        if not math.isfinite(self.level) or self.level <= 0.0:
            raise ContractError(f"clip level must be positive, got {self.level}")


@dataclass
class SpectralDensity:
    """One-sided power spectral density with its frequency grid."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        self.power = np.asarray(self.power, dtype=np.float64)
        if self.frequencies.shape != self.power.shape:
            raise ContractError(
                f"frequency grid {self.frequencies.shape} does not match power {self.power.shape}"
            )
        if (self.power < 0.0).any():
            raise ContractError("spectral power must be nonnegative")


def clip(values: np.ndarray, spec: ClipSpec) -> np.ndarray:
    """Saturate ``values`` into [-level, +level]."""
    arr = _as_float_array(values)
    return np.clip(arr, -spec.level, spec.level)


def saturated_mask(values: np.ndarray, spec: ClipSpec) -> np.ndarray:
    """Boolean mask of samples sitting on (or numerically at) the rail; the
    gate, the peak expert and the polynomial baseline share this one rule."""
    arr = np.asarray(values, dtype=np.float64)
    return np.abs(arr) >= spec.level * (1.0 - CLIP_EPS)


def true_runs(mask: np.ndarray) -> tuple:
    """Maximal True runs of a 1-D boolean mask as two index arrays, the
    starts and the (exclusive) stops, left to right."""
    padded = np.zeros(mask.size + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.nonzero(padded[1:] != padded[:-1])[0]
    return edges[::2], edges[1::2]


def segment(series: SampleSeries, seg_len: int) -> np.ndarray:
    """Cut ``series`` into back-to-back windows of ``seg_len`` samples.

    Returns a ``[ceil(n / seg_len), seg_len]`` array whose rows are the
    windows; the last row is zero padded past the end of the series, so a
    series shorter than ``seg_len`` yields one padded row.
    """
    if seg_len < 1:
        raise ContractError(f"segment length must be >= 1, got {seg_len}")
    n = len(series)
    rows = -(-n // seg_len)
    out = np.zeros(rows * seg_len, dtype=np.float64)
    out[:n] = series.values
    return out.reshape(rows, seg_len)


def stitch(windows: np.ndarray, total_len: int) -> np.ndarray:
    """Inverse of ``segment``: the first ``total_len`` samples of the rows."""
    flat = np.asarray(windows, dtype=np.float64).reshape(-1)
    if flat.size < total_len:
        raise ContractError(
            f"{flat.size} window samples cannot cover series length {total_len}"
        )
    return flat[:total_len].copy()


def psd(series: SampleSeries) -> SpectralDensity:
    """One-sided periodogram density of the mean-removed series.

    White noise of variance sigma^2 has an expected interior-bin level of
    2*sigma^2/fs. Length must be at least 2.
    """
    x = series.values
    n = x.size
    if n < 2:
        raise ContractError("psd needs at least 2 samples")
    fs = series.sample_rate
    spec = np.fft.rfft(x - x.mean())
    power = (spec.real**2 + spec.imag**2) / (fs * n)
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is not doubled
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return SpectralDensity(freqs, power)


# ---------------------------------------------------------------------------
# CSV interface: header "t,omega", UTF-8, LF line endings.

# rows per block of write_csv, and bytes per block of the UTF-8 check: what
# a write or a rejection scan holds at once, whatever the length of the file
_CSV_BLOCK = 1 << 14
_SCAN_BLOCK = 1 << 16


def write_csv(stream, header: str, a, b) -> None:
    """Write two-column CSV text to the text ``stream``: ``header``, then one
    ``a,b`` row per pair, LF ended, 16 384 rows at a time.

    ``b`` is a list, range or 1-D array. ``a`` is one too, or a function of
    ``(lo, hi)`` that returns rows ``lo:hi``, so a computed column is never
    built whole. Each value is the ``repr`` of a plain Python number: a
    float's shortest round-trip form, an int's digits. The bytes equal those
    of all rows formatted in one pass, whatever the block size.
    """
    stream.write(header + "\n")
    n = len(b)
    for lo in range(0, n, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, n)
        xs = a(lo, hi) if callable(a) else a[lo:hi]
        stream.write("".join([f"{x!r},{y!r}\n" for x, y in zip(_plain(xs), _plain(b[lo:hi]))]))


def _plain(block):
    return block.tolist() if isinstance(block, np.ndarray) else block


def save_csv(series: SampleSeries, path) -> None:
    """Write a series as ``t,omega`` rows through ``write_csv``.

    Row ``i`` holds the time ``i / sample_rate``, computed a block at a time,
    and the sample value, both in shortest round-trip form. So save/load
    reproduces values exactly, identical series produce identical bytes, and
    the memory a write takes does not grow with the series.
    """
    fs = series.sample_rate
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(fh, CSV_HEADER, lambda lo, hi: np.arange(lo, hi, dtype=np.float64) / fs, series.values)


def load_csv(path) -> SampleSeries:
    """Read a ``t,omega`` CSV back into a series.

    numpy's reader parses the body in one pass. It skips empty lines and
    accepts LF, CRLF and CR line ends.

    Raises
    ------
    CsvFormatError
        Not UTF-8, wrong header, fewer than 2 rows, or a non-uniform/non-increasing
        time column (relative jitter above ``RATE_RTOL``).
    CsvParseError
        A row that does not parse as two finite floats; the message names the
        1-based line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
        if header.strip() != CSV_HEADER:
            got = header.strip() if header else "<empty file>"
            raise CsvFormatError(f"expected header '{CSV_HEADER}', got '{got}'")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
            rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except ValueError as exc:  # a UnicodeDecodeError is one too
        raise _rejection(path, str(exc)) from None
    if rows.size and (rows.shape[1] != 2 or not np.isfinite(rows).all()):
        raise _rejection(path, "the body is not two columns of finite floats")
    if len(rows) < 2:
        raise CsvFormatError(f"need at least 2 data rows, got {len(rows)}")
    dt = np.diff(rows[:, 0])
    if (dt <= 0).any():
        row = int(np.nonzero(dt <= 0)[0][0]) + 1  # the later row of the first bad step
        with open(path, "r", encoding="utf-8") as fh:
            line = next(itertools.islice(_data_lines(fh), row, None))[0]
        raise CsvFormatError(f"time column not strictly increasing at line {line}")
    # dt is partitioned by the median, reused for |dt - med| and freed before
    # the values are copied out, so at most one column is held beside the rows
    med = float(np.median(dt, overwrite_input=True))
    dt -= med
    if np.abs(dt, out=dt).max() > RATE_RTOL * med:
        raise CsvFormatError("time column is not uniformly spaced")
    del dt
    return SampleSeries(rows[:, 1].copy(), 1.0 / med)


def _data_lines(fh):
    """``(lineno, line)`` for every non-empty line after the header of the
    text file ``fh``, read a line at a time: the rows numpy's reader parses,
    with their 1-based file lines. LF, CRLF and CR end a line."""
    for lineno, line in enumerate(fh, start=1):
        line = line[:-1] if line.endswith("\n") else line
        if lineno > 1 and line:
            yield lineno, line


def _rejection(path, reason: str) -> GyroMoeError:
    """The error for a file ``load_csv`` could not read: CsvFormatError if it
    is not UTF-8, else CsvParseError naming the first 1-based line that is
    not two finite floats, or giving ``reason`` if no line is at fault. Two
    streaming passes: the UTF-8 check, then the line scan."""
    fault = _utf8_fault(path)
    if fault is not None:
        return CsvFormatError(f"file is not UTF-8: {fault}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh):
            parts = line.split(",")
            if len(parts) != 2:
                return CsvParseError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            try:
                t, v = map(_reader_float, parts)
            except ValueError:
                return CsvParseError(f"line {lineno}: could not parse '{line}'")
            if not (math.isfinite(t) and math.isfinite(v)):
                return CsvParseError(f"line {lineno}: non-finite entry '{line}'")
    return CsvParseError(reason)


def _utf8_fault(path) -> str | None:
    """The first UTF-8 decode error of the file, worded as a whole-file decode
    words it (the position counts from the start of the file), or None; the
    file is decoded a block at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # file position of the next block
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_SCAN_BLOCK)
            held = len(decoder.getstate()[0])  # bytes of a split character, decoded with this block
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                lo = offset - held + exc.start
                where = (f"byte 0x{exc.object[exc.start]:02x} in position {lo}" if exc.end == exc.start + 1
                         else f"bytes in position {lo}-{lo + exc.end - exc.start - 1}")
                return f"'utf-8' codec can't decode {where}: {exc.reason}"
            if not block:
                return None
            offset += len(block)


def _reader_float(field: str) -> float:
    """``float(field)``, but rejecting what numpy's reader rejects and
    ``float`` takes: digit separators and non-ASCII digits."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(field)
    return float(field)


# ---------------------------------------------------------------------------
# Synthetic motion generator.


@dataclass
class SynthConfig:
    """Recipe for one synthetic rate stream.

    ``peak_events`` is a list of (center_time_s, amplitude_dps, width_s)
    triples. Each event is a Gaussian-windowed sinusoid whose center is
    snapped to the sample grid, so the apex attains the full amplitude.
    """

    duration_s: float
    sample_rate: float
    white_noise_sigma: float = 0.0
    drift_rate: float = 0.0
    peak_events: list[tuple[float, float, float]] = field(default_factory=list)
    rng_seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0.0:
            raise ContractError(f"duration_s must be positive, got {self.duration_s}")
        if self.sample_rate <= 0.0:
            raise ContractError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.white_noise_sigma < 0.0:
            raise ContractError("white_noise_sigma must be >= 0")
        for ev in self.peak_events:
            if len(ev) != 3:
                raise ContractError(f"peak event must be a 3-tuple, got {ev!r}")
            if ev[2] <= 0.0:
                raise ContractError(f"peak width must be positive, got {ev[2]}")


def _burst(n: int, fs: float, center_s: float, amp: float, width_s: float) -> np.ndarray:
    # center snapped to the grid so one sample sits exactly at the apex
    c = round(center_s * fs)
    rel = (np.arange(n) - c) / fs
    envelope = np.exp(-(rel**2) / (2.0 * width_s**2))
    carrier = np.cos(2.0 * math.pi * rel / (8.0 * width_s))
    return amp * envelope * carrier


def synth_motion(config: SynthConfig) -> SampleSeries:
    """Generate drift + burst + white-noise motion.

    Returns the clean (unclipped) series; ``metrics.peak_indices`` finds its
    over-range samples at any clip level.
    """
    fs = config.sample_rate
    n = int(round(config.duration_s * fs))
    if n < 1:
        raise ContractError("configured duration yields an empty series")
    t = np.arange(n, dtype=np.float64) / fs
    v = config.drift_rate * t
    for center_s, amp, width_s in config.peak_events:
        v = v + _burst(n, fs, center_s, amp, width_s)
    if config.white_noise_sigma > 0.0:
        rng = np.random.default_rng(config.rng_seed)
        v = v + rng.normal(0.0, config.white_noise_sigma, n)
    return SampleSeries(v, fs)


# ---------------------------------------------------------------------------
# Desk-scale dataset builders reused by the CLI and the test benches.


def synth_peak_segments(
    rng: np.random.Generator,
    n_segments: int,
    seg_len: int,
    sample_rate: float,
    amp_range: tuple[float, float],
    width_range: tuple[float, float],
    noise_sigma: float,
) -> list[np.ndarray]:
    """Clean fixed-length windows, each holding one centered-ish burst.

    Amplitude sign is random; the burst apex lands on the grid. Used as the
    self-supervision corpus for peak reconstruction training.
    """
    if n_segments < 1:
        raise ContractError("need at least one segment")
    fs = sample_rate
    out = []
    for _ in range(n_segments):
        amp = rng.uniform(*amp_range) * (1.0 if rng.random() < 0.5 else -1.0)
        width = rng.uniform(*width_range)
        center = rng.uniform(0.35, 0.65) * seg_len / fs
        vals = _burst(seg_len, fs, center, amp, width)
        if noise_sigma > 0.0:
            vals = vals + rng.normal(0.0, noise_sigma, seg_len)
        out.append(vals)
    return out


def synth_noise_segments(
    rng: np.random.Generator,
    n_segments: int,
    seg_len: int,
    sigma: float,
) -> list[np.ndarray]:
    """Static white-noise windows with mild per-segment sigma jitter."""
    if n_segments < 1:
        raise ContractError("need at least one segment")
    out = []
    for _ in range(n_segments):
        s = sigma * rng.uniform(0.7, 1.3)
        out.append(rng.normal(0.0, s, seg_len))
    return out


def make_snippet_pool(
    rng: np.random.Generator,
    n_snippets: int,
    len_range: tuple[int, int],
    sample_rate: float,
) -> list[np.ndarray]:
    """Smooth low-frequency motion snippets, Hann tapered, peak-normalized."""
    if n_snippets < 1:
        raise ContractError("need at least one snippet")
    lo, hi = len_range
    if not 4 <= lo <= hi:
        raise ContractError(f"snippet length range [{lo}, {hi}] is invalid")
    pool = []
    for _ in range(n_snippets):
        length = int(rng.integers(lo, hi + 1))
        t = np.arange(length) / sample_rate
        s = np.zeros(length)
        for _ in range(int(rng.integers(2, 4))):
            f = rng.uniform(0.5, 3.0)
            a = rng.uniform(0.3, 1.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            s += a * np.sin(2.0 * math.pi * f * t + phase)
        s *= np.hanning(length)
        peak = np.abs(s).max()
        if peak <= 0.0:
            s[length // 2] = 1.0
            peak = 1.0
        pool.append(s / peak)
    return pool
