"""Window gate: route windows to the range or noise expert and splice.

``signal.segment`` cuts the stream into a ``[n, L]`` array, one fixed-length
window per row, and routing is rule-based per window. The peak route fires
when at least ``peak_run`` consecutive samples sit on the clip rail by
``signal.saturated_mask``, the one rail rule, whose samples are the ones the
peak expert hides and replaces; the noise route fires when some run of
``quiet_run`` consecutive samples stays below the quiet threshold. Splicing
walks the window left to right: a saturated sample takes the peak expert's
value and advances by one; a fully quiet block of ``quiet_run`` samples
takes the noise expert's values and advances by the block length;
everything else passes through.

The implementation vectorizes the rail replacement and walks only the
quiet runs, but is sample-for-sample identical to the scalar procedure
above. Experts are batched too: every window is routed first, then each
expert is called once per chunk of up to ``EXPERT_CHUNK`` windows its route
fired on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    peak: bool
    noise: bool
    clipped_ranges: list = field(default_factory=list)
    quiet_ranges: list = field(default_factory=list)


def route(values: np.ndarray, config: GateConfig) -> RouteDecision:
    """Routing flags and the runs that produced them, for one window."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractError("route needs a nonempty 1-D window")
    sat = saturated_mask(x, config.clip)
    quiet = np.abs(x) < config.quiet_tau
    clipped_ranges = true_runs(sat)
    peak = any(e - s >= config.peak_run for s, e in clipped_ranges)
    quiet_ranges = [(s, e) for s, e in true_runs(quiet) if e - s >= config.quiet_run]
    return RouteDecision(peak, bool(quiet_ranges), clipped_ranges, quiet_ranges)


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


def _splice(
    x: np.ndarray,
    decision: RouteDecision,
    config: GateConfig,
    p_hat: np.ndarray | None,
    n_hat: np.ndarray | None,
) -> np.ndarray:
    y = x.copy()
    sat = saturated_mask(x, config.clip) if decision.peak else None
    if decision.noise:
        covered = _quiet_blocks(decision.quiet_ranges, x.size, sat, config.quiet_run)
        y[covered] = n_hat[: x.size][covered]
    else:
        covered = np.zeros(x.size, dtype=bool)
    if decision.peak:
        repl = sat & ~covered
        y[repl] = p_hat[: x.size][repl]
    return y


def _expert_outputs(fn, windows: np.ndarray, name: str) -> list:
    """``fn`` over the rows of ``windows`` in chunks of EXPERT_CHUNK; one
    output row per window."""
    rows = []
    for start in range(0, len(windows), EXPERT_CHUNK):
        chunk = windows[start : start + EXPERT_CHUNK]
        out = np.asarray(fn(chunk), dtype=np.float64)
        if out.shape != chunk.shape:
            raise ContractError(f"{name} expert returned shape {out.shape}, expected {chunk.shape}")
        rows.extend(out)
    return rows


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
    Windows where nothing fires pass through untouched. Only a window's
    real samples are routed and spliced; the zero padding that ``segment``
    adds past the end of the stream is not.
    """
    n = len(series)
    L = config.segment_len
    windows = segment(series, L)
    out = windows.copy()
    # window w holds min(L, n - w * L) real samples; the rest is zero padding
    real = [windows[w, : min(L, n - w * L)] for w in range(len(windows))]
    decisions = []
    for w, x in enumerate(real):
        decision = route(x, config)
        if decision.peak and peak_fn is None:
            raise ConfigError(
                f"peak route fired on segment at {w * L} but no peak expert is loaded"
            )
        if decision.noise and noise_fn is None:
            raise ConfigError(
                f"noise route fired on segment at {w * L} but no noise expert is loaded"
            )
        decisions.append(decision)
    p_rows = iter(_expert_outputs(peak_fn, windows[[d.peak for d in decisions]], "peak"))
    n_rows = iter(_expert_outputs(noise_fn, windows[[d.noise for d in decisions]], "noise"))
    for w, (x, decision) in enumerate(zip(real, decisions)):
        p_hat = next(p_rows) if decision.peak else None
        n_hat = next(n_rows) if decision.noise else None
        out[w, : x.size] = _splice(x, decision, config, p_hat, n_hat)
    n_peak = sum(d.peak for d in decisions)
    n_noise = sum(d.noise for d in decisions)
    log.info(
        "enhance: %d segments, %d peak-routed, %d noise-routed", len(windows), n_peak, n_noise
    )
    return SampleSeries(stitch(out, n), series.sample_rate)
