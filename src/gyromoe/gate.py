"""Window gate: route each window's samples to the range or noise expert and splice.

``signal.segment`` cuts the stream into a ``[n, L]`` array, one fixed-length
window per row, and routing is rule-based per window. The peak route fires
when at least ``peak_run`` consecutive samples sit on the clip rail by
``signal.saturated_mask``, the one rail rule, whose samples are the ones the
peak expert hides and replaces; the noise route fires when some run of
``quiet_run`` consecutive samples stays below the quiet threshold. A route
decision is two disjoint boolean sample masks, the samples each expert
replaces, as a left-to-right walk over the window assigns them: a saturated
sample goes to the peak expert and advances by one; a fully quiet block of
``quiet_run`` samples goes to the noise expert and advances by the block
length; everything else passes through.

``route`` vectorizes the rail mask and walks only the quiet runs, but its
masks are sample-for-sample those of the scalar walk above. ``enhance``
routes every window first, then calls each expert once per chunk of up to
``EXPERT_CHUNK`` windows its route fired on, and splices each expert's
output into the whole window array with one ``np.where``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .signal import ClipSpec, SampleSeries, saturated_mask, segment, stitch, true_runs

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

    @property
    def quiet_tau(self) -> float:
        if self.quiet_threshold is not None:
            return self.quiet_threshold
        return 0.1 * self.clip.level


@dataclass
class RouteDecision:
    """One window's routing flags and the disjoint boolean masks of the samples
    each expert replaces. A mask is all False when its route did not fire, and
    can be when it did: with the quiet threshold above the rail, quiet blocks
    can take every rail sample, or start on none."""

    peak: bool
    noise: bool
    peak_samples: np.ndarray
    noise_samples: np.ndarray


def route(values: np.ndarray, config: GateConfig) -> RouteDecision:
    """Routing flags and the sample masks they replace, for one window."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractError("route needs a nonempty 1-D window")
    sat = saturated_mask(x, config.clip)
    peak = any(e - s >= config.peak_run for s, e in true_runs(sat))
    quiet = np.abs(x) < config.quiet_tau
    quiet_ranges = [(s, e) for s, e in true_runs(quiet) if e - s >= config.quiet_run]
    covered = _quiet_blocks(quiet_ranges, x.size, sat if peak else None, config.quiet_run)
    peak_samples = sat & ~covered if peak else np.zeros(x.size, dtype=bool)
    return RouteDecision(peak, bool(quiet_ranges), peak_samples, covered)


def _quiet_blocks(quiet_ranges: list, n: int, sat: np.ndarray | None, q: int) -> np.ndarray:
    """Samples of an ``n``-sample window consumed as noise-expert blocks by
    the left-to-right walk over the quiet runs of at least ``q`` samples.

    ``sat`` is the rail mask when the peak route fired (rail samples take
    single steps in the walk and so can shift block starts), or None.
    """
    covered = np.zeros(n, dtype=bool)
    for s, e in quiet_ranges:
        t = s
        while t < e:
            if (sat is None or not sat[t]) and t + q <= e:
                covered[t : t + q] = True
                t += q
            else:
                t += 1
    return covered


def _expert_outputs(fn, windows: np.ndarray, name: str) -> np.ndarray:
    """``fn`` over the rows of ``windows`` in chunks of EXPERT_CHUNK, as one
    ``[k, L]`` array of output rows, one per window."""
    outs = []
    for start in range(0, len(windows), EXPERT_CHUNK):
        chunk = windows[start : start + EXPERT_CHUNK]
        out = np.asarray(fn(chunk), dtype=np.float64)
        if out.shape != chunk.shape:
            raise ContractError(f"{name} expert returned shape {out.shape}, expected {chunk.shape}")
        outs.append(out)
    return np.concatenate(outs)


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
    the rest pass through untouched. Only a window's real samples are
    routed and spliced; the zero padding that ``segment`` adds past the end
    of the stream is not.
    """
    n = len(series)
    L = config.segment_len
    windows = segment(series, L)
    # per expert (peak, noise): the windows its route fired on, and the
    # samples it replaces, False on the zero padding
    fired = np.zeros((2, len(windows)), dtype=bool)
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
        fired[:, w] = decision.peak, decision.noise
        replace[:, w, :real] = decision.peak_samples, decision.noise_samples
    out = windows
    for fn, rows, samples, name in zip((peak_fn, noise_fn), fired, replace, ("peak", "noise")):
        if rows.any():
            hat = np.zeros(windows.shape)
            hat[rows] = _expert_outputs(fn, windows[rows], name)
            out = np.where(samples, hat, out)
    log.info("enhance: %d segments, %d peak-routed, %d noise-routed", len(windows), *fired.sum(axis=1))
    return SampleSeries(stitch(out, n), series.sample_rate)
