"""Window gate: route each window's samples to the range or noise expert and splice.

``signal.segment`` cuts the stream into a ``[n, L]`` array, one fixed-length
window per row, and routing is rule-based per window. A route decision is
two disjoint boolean sample masks, the samples each expert replaces. The
peak mask is every sample on the clip rail by ``signal.saturated_mask``, the
one rail rule, when some run of them reaches ``peak_run`` samples, and
nothing otherwise. The noise mask covers each run of samples below the
quiet threshold with as many back-to-back blocks of ``quiet_run`` samples
as fit from the run's start; the run's tail shorter than a block passes
through. The quiet threshold must sit below the rail, so no sample is both
quiet and saturated.

``enhance`` routes every window first, then calls each expert once per
chunk of up to ``EXPERT_CHUNK`` windows whose mask is not empty, and writes
each chunk's output into one output array at that chunk's rows only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .signal import ClipSpec, SampleSeries, saturated_mask, segment, stitch

log = logging.getLogger("gyromoe.gate")

# windows per expert call: large enough to amortize per-call overhead, small
# enough that a long stream's expert working set stays bounded
EXPERT_CHUNK = 64


@dataclass
class GateConfig:
    clip: ClipSpec
    segment_len: int = 256
    peak_run: int = 3
    quiet_run: int = 32
    quiet_threshold: float | None = None  # None -> 0.1 * clip level

    def __post_init__(self):
        if self.segment_len < 1:
            raise ConfigError(f"segment_len must be >= 1, got {self.segment_len}")
        if self.peak_run < 1:
            raise ConfigError(f"peak_run must be >= 1, got {self.peak_run}")
        if self.quiet_run < 1:
            raise ConfigError(f"quiet_run must be >= 1, got {self.quiet_run}")
        if self.quiet_threshold is not None and not 0.0 < self.quiet_threshold < np.inf:
            raise ConfigError(
                f"quiet_threshold must be positive and finite, got {self.quiet_threshold}"
            )
        if saturated_mask(self.quiet_tau, self.clip):
            raise ConfigError(f"quiet_threshold {self.quiet_tau} must sit below the clip rail at {self.clip.level}")

    @property
    def quiet_tau(self) -> float:
        if self.quiet_threshold is not None:
            return self.quiet_threshold
        return 0.1 * self.clip.level


@dataclass
class RouteDecision:
    """The disjoint boolean masks of the samples of one window that each
    expert replaces; a route fires when its mask is not empty."""

    peak_samples: np.ndarray
    noise_samples: np.ndarray

    @property
    def peak(self) -> bool:
        return bool(self.peak_samples.any())

    @property
    def noise(self) -> bool:
        return bool(self.noise_samples.any())


def _runs(mask: np.ndarray):
    """Starts and stops of the maximal True runs of a 1-D boolean mask, as
    two index arrays. Rows of a 2-D mask, each padded with a False column
    and raveled, give runs that never cross a row."""
    padded = np.zeros(mask.size + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.nonzero(padded[1:] != padded[:-1])[0]
    return edges[::2], edges[1::2]


def _cover(size: int, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A boolean mask of ``size`` samples, True on ``[start, start + length)``
    for each pair. Starts must be distinct, and so must stops, and spans
    must not overlap."""
    marks = np.zeros(size + 1, dtype=np.int8)
    marks[starts] = 1
    marks[starts + lengths] -= 1
    return np.cumsum(marks[:-1], dtype=np.int8).astype(bool)


def route(values: np.ndarray, config: GateConfig) -> RouteDecision:
    """The samples of one window that each expert replaces."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractError("route needs a nonempty 1-D window")
    peak = saturated_mask(x, config.clip)
    starts, stops = _runs(peak)
    if (stops - starts).max(initial=0) < config.peak_run:
        peak = np.zeros(x.size, dtype=bool)
    q = config.quiet_run
    starts, stops = _runs(np.abs(x) < config.quiet_tau)
    noise = _cover(x.size, starts, q * ((stops - starts) // q))
    return RouteDecision(peak, noise)


def enhance(
    series: SampleSeries,
    config: GateConfig,
    peak_fn=None,
    noise_fn=None,
) -> SampleSeries:
    """Route every window of ``series`` and splice expert outputs in.

    ``peak_fn`` / ``noise_fn`` map a ``[k, L]`` array of windows, one per
    row, to a ``[k, L]`` array of full-length predictions. An expert is only
    consulted on windows where its route fires, once per chunk of up to
    ``EXPERT_CHUNK`` such windows; if a route fires and its expert is
    missing, that is a configuration error, raised before any expert runs.
    Each expert's output replaces exactly the samples of its route's mask;
    the rest pass through untouched; experts read the unspliced windows.
    Only a window's real samples are routed and spliced; the zero padding
    that ``segment`` adds past the end of the stream is not. Besides one
    chunk per expert call, ``enhance`` holds the window array, one output
    array and the ``[2, n, L]`` boolean replacement masks.
    """
    n = len(series)
    L = config.segment_len
    windows = segment(series, L)
    # per expert (peak, noise): the samples it replaces, False on the zero padding
    replace = np.zeros((2, *windows.shape), dtype=bool)
    for w, row in enumerate(windows):
        real = min(L, n - w * L)
        decision = route(row[:real], config)
        if decision.peak and peak_fn is None:
            raise ConfigError(
                f"peak route fired on segment at {w * L} but no peak expert is loaded"
            )
        if decision.noise and noise_fn is None:
            raise ConfigError(
                f"noise route fired on segment at {w * L} but no noise expert is loaded"
            )
        replace[:, w, :real] = decision.peak_samples, decision.noise_samples
    fired = replace.any(axis=2)
    out = windows.copy()
    for fn, rows, samples, name in zip((peak_fn, noise_fn), fired, replace, ("peak", "noise")):
        routed = np.flatnonzero(rows)
        for start in range(0, len(routed), EXPERT_CHUNK):
            at = routed[start : start + EXPERT_CHUNK]
            chunk = windows[at]
            hat = np.asarray(fn(chunk), dtype=np.float64)
            if hat.shape != chunk.shape:
                raise ContractError(f"{name} expert returned shape {hat.shape}, expected {chunk.shape}")
            out[at] = np.where(samples[at], hat, out[at])
    log.info("enhance: %d segments, %d peak-routed, %d noise-routed", len(windows), *fired.sum(axis=1))
    return SampleSeries(stitch(out, n), series.sample_rate)
