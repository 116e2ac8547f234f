"""The three benchmark workloads: seeded inputs, timed passes, output checks.

Each workload is a closed loop: one single-threaded caller waits for every
library call to return before making the next. A workload has two phases
(``phase1``/``phase2``); a pass is a fixed amount of work in one phase. The
runner interleaves passes of both phases until the time budget is spent,
each phase taking half of it. Inputs are built here from the seed with numpy
alone; the library only ever receives the generated arrays and files.

Library functions are always looked up on their module at call time
(``ore.train_ore``, never a name bound at import), so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from gyromoe import backbone as bb
from gyromoe import gate, metrics, ore
from gyromoe import signal as sg
from gyromoe.errors import GyroMoeError

# the package exports a `denoise` function that shadows the submodule
de = importlib.import_module("gyromoe.denoise")

FS = 100.0
CLIP = 450.0
DE_CLIP = 8.0  # C07 denoise settings: rail 8, static noise sigma 2
NOISE_SIGMA = 2.0
SEGMENT_LEN = 256  # samples per training segment and per enhance window
ALLAN_TAIL = 2**12  # motion with over-range bursts after the static part of the Allan record


@dataclass(frozen=True)
class Size:
    """Problem size. ``FULL`` is the benchmark; ``TINY`` backs its tests."""

    backbone: dict = field(default_factory=dict)  # BackboneConfig overrides
    batch_size: int = 32
    train_segments: int = 32  # per training pass: one optimizer step
    recordings: int = 6
    allan_samples: int = 2**18


FULL = Size()
# C11-scale backbone; the window and batch geometry shrinks with it
TINY = Size(
    backbone=dict(patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2),
    batch_size=4,
    train_segments=4,
    recordings=2,
    allan_samples=2**15,
)


class Tally:
    """Library operations attempted and failed, failures counted by exception type.

    Every pass of a phase makes the same calls on the same inputs in the
    same order, so an operation is identified by its phase and its place in
    the pass. ``attempted`` and ``failed`` count distinct operations, each
    once however many timed repeats it had; ``calls`` counts every call.
    A repeat that ends differently from the operation's first call (another
    exception type, or an exception where the first succeeded) is a check
    failure, listed by ``problems()``.

    A unit of the ``kind`` kernel of ``reference`` (a ``reference.Reference``)
    runs after any call that ends at least ``REFERENCE_EVERY_S`` after the
    previous unit, so long passes are calibrated by units spread through
    them. ``last_s`` is the duration of the latest call alone.
    """

    REFERENCE_EVERY_S = 0.2

    def __init__(self, reference):
        self.calls = 0
        self.outcomes = {}  # (phase, place in pass) -> None, or the exception type name
        self.changed = []  # operations whose repeats ended differently
        self.reference = reference
        self.kind = "tape"
        self.units = []  # per reference unit: (end time, kernel, its time over the nominal time)
        self.unit_s = 0.0  # wall time spent in reference units
        self.last_s = 0.0
        self._last_unit = time.perf_counter()
        self._phase, self._place = None, 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> Counter:
        return Counter(o for o in self.outcomes.values() if o is not None)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def begin_pass(self, phase: str):
        self._phase, self._place = phase, 0

    def problems(self) -> list:
        return [f"{phase} operation {place}: a repeat ended with {now or 'success'}, "
                f"the first call with {first or 'success'}" for (phase, place), first, now in self.changed]

    def reference_unit(self):
        unit_s, factor = self.reference.unit_factor(self.kind)
        self._last_unit = time.perf_counter()
        self.units.append((self._last_unit, self.kind, factor))
        self.unit_s += unit_s

    def call(self, fn, *args, **kwargs):
        """Run one library call; returns (ok, result) and records its outcome."""
        self.calls += 1
        key = (self._phase, self._place)
        self._place += 1
        outcome = None
        t0 = time.perf_counter()
        try:
            return True, fn(*args, **kwargs)
        except GyroMoeError as exc:
            outcome = type(exc).__name__
            return False, exc
        finally:
            end = time.perf_counter()
            self.last_s = end - t0
            first = self.outcomes.setdefault(key, outcome)
            if first != outcome:
                self.changed.append((key, first, outcome))
            if end - self._last_unit >= self.REFERENCE_EVERY_S:
                self.reference_unit()


# ---------------------------------------------------------------------------
# Seeded inputs.


def _burst(n: int, center: float, amp: float, width_s: float) -> np.ndarray:
    """Gaussian-windowed cosine burst, the shape the paper's peaks take."""
    rel = (np.arange(n) - round(center)) / FS
    return amp * np.exp(-(rel**2) / (2.0 * width_s**2)) * np.cos(2.0 * math.pi * rel / (8.0 * width_s))


def burst_segments(rng, count: int, seg_len: int) -> list:
    """Clean segments with one burst at 1.15-1.67x the rail (C06 geometry)."""
    out = []
    for _ in range(count):
        amp = rng.uniform(1.15, 1.67) * CLIP * rng.choice([-1.0, 1.0])
        center = rng.uniform(0.35, 0.65) * seg_len
        clean = _burst(seg_len, center, amp, rng.uniform(0.15, 0.45))
        out.append(clean + rng.normal(0.0, 0.01 * CLIP, seg_len))
    return out


def noise_segments(rng, count: int, seg_len: int) -> list:
    return [rng.normal(0.0, NOISE_SIGMA * rng.uniform(0.7, 1.3), seg_len) for _ in range(count)]


def snippet_pool(rng, count: int, seg_len: int) -> list:
    """Smooth Hann-tapered snippets, peak-normalised, for weak-signal injection."""
    pool = []
    for _ in range(count):
        length = int(rng.integers(seg_len // 4, 3 * seg_len // 4 + 1))
        t = np.arange(length) / FS
        s = sum(
            rng.uniform(0.3, 1.0) * np.sin(2.0 * math.pi * rng.uniform(0.5, 3.0) * t + rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(3)
        ) * np.hanning(length)
        pool.append(s / np.abs(s).max())
    return pool


# Window kinds of every enhance recording, one per aligned window. The mix
# keeps the median window latency inside the "noise" group and the 95th
# percentile inside the "both" group whatever the seed.
LAYOUT = (
    "noise", "pass", "peak", "noise", "both", "noise", "noise", "pass",
    "both", "noise", "peak", "noise", "both", "pass", "noise", "peak",
)
SUSTAINED_WINDOW = 5  # of recording 0: on the rail from end to end
SPILL = 20  # the sustained event runs this many samples into each neighbour


def _moving(rng, seg_len: int) -> np.ndarray:
    """Moderate motion: never below the quiet threshold, never on the rail."""
    t = np.arange(seg_len) / FS
    wave = 60.0 * np.sin(2.0 * math.pi * rng.uniform(0.2, 0.6) * t + rng.uniform(0.0, 2.0 * math.pi))
    return rng.choice([-1.0, 1.0]) * (150.0 + wave) + rng.normal(0.0, NOISE_SIGMA, seg_len)


def make_window(kind: str, rng, seg_len: int) -> np.ndarray:
    if kind == "noise":
        return rng.normal(0.0, NOISE_SIGMA, seg_len)
    if kind == "pass":
        return _moving(rng, seg_len)
    if kind == "peak":
        base = _moving(rng, seg_len)
        amp = rng.uniform(1.15, 1.67) * CLIP * np.sign(base[seg_len // 2])
        burst = _burst(seg_len, rng.uniform(0.35, 0.65) * seg_len, amp, rng.uniform(0.15, 0.3))
        return np.clip(base + burst, -CLIP, CLIP)
    if kind == "both":
        amp = rng.uniform(1.15, 1.67) * CLIP * rng.choice([-1.0, 1.0])
        burst = _burst(seg_len, rng.choice([0.25, 0.75]) * seg_len, amp, rng.uniform(0.08, 0.15))
        return np.clip(rng.normal(0.0, NOISE_SIGMA, seg_len) + burst, -CLIP, CLIP)
    raise ValueError(f"unknown window kind {kind!r}")


def make_recordings(rng, count: int, seg_len: int) -> list:
    recs = [np.concatenate([make_window(k, rng, seg_len) for k in LAYOUT]) for _ in range(count)]
    lo = SUSTAINED_WINDOW * seg_len - SPILL
    recs[0][lo : lo + seg_len + 2 * SPILL] = CLIP * rng.choice([-1.0, 1.0])
    return recs


def make_static_record(rng, n: int, tail: int):
    """Multi-hour static log followed by a short stretch with over-range bursts.

    Returns (raw, enhanced, truth). The raw stream carries white noise,
    angle quantization (an Allan slope of -1 at short tau) and a slow bias
    random walk; the stand-in "enhanced" stream halves the raw error, so
    every field of the metric report is defined.
    """
    truth = 0.5 + np.cumsum(rng.normal(0.0, 2e-5, n))
    t = np.arange(n) / FS
    for k in range(4):
        rel = t - (n - tail + (k + 0.5) * tail / 4) / FS
        amp = rng.uniform(1.15, 1.67) * CLIP * rng.choice([-1.0, 1.0])
        truth += amp * np.exp(-(rel**2) / (2.0 * 0.2**2)) * np.cos(2.0 * math.pi * rel / 1.6)
    angle = np.cumsum(truth + rng.normal(0.0, 0.3, n)) / FS
    q = 0.02
    raw = np.clip(np.diff(np.round(angle / q) * q, prepend=0.0) * FS, -CLIP, CLIP)
    return raw, truth + 0.5 * (raw - truth), truth


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means correct.


def check_finite_losses(name: str, losses) -> list:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        return [f"{name}: no training loss recorded"]
    if not np.isfinite(losses).all():
        return [f"{name}: {int((~np.isfinite(losses)).sum())} non-finite step losses"]
    return []


def check_same_arrays(name: str, before: dict, after: dict) -> list:
    if before.keys() != after.keys():
        return [f"{name}: checkpoint round trip changed the parameter names"]
    bad = [k for k in before if not np.array_equal(before[k], after[k])]
    return [f"{name}: checkpoint round trip changed {bad[:3]}"] if bad else []


def check_window(x: np.ndarray, y: np.ndarray, routed: bool, quiet_tau: float, where: str) -> list:
    """Enhance contract for one window: length kept, pass windows untouched,
    and only samples on the rail or below the quiet threshold changed."""
    if y.shape != x.shape:
        return [f"{where}: length {y.shape} != {x.shape}"]
    changed = x.view(np.int64) != y.view(np.int64)
    if not routed and changed.any():
        return [f"{where}: window routed nowhere but {int(changed.sum())} samples changed"]
    allowed = (np.abs(x) >= CLIP * (1.0 - sg.CLIP_EPS)) | (np.abs(x) < quiet_tau)
    stray = changed & ~allowed
    if stray.any():
        return [f"{where}: {int(stray.sum())} changed samples were neither on the rail nor quiet"]
    return []


def check_online_matches_offline(offline: np.ndarray, online: np.ndarray, where: str) -> list:
    if offline.shape != online.shape or not np.array_equal(offline.view(np.int64), online.view(np.int64)):
        return [f"{where}: window-by-window output differs from the whole-recording output"]
    return []


def check_roundtrip_csv(written: np.ndarray, read: np.ndarray) -> list:
    if written.shape != read.shape or not np.array_equal(written, read):
        return ["allan_report: CSV write then read did not return the values exactly"]
    return []


def check_report(fields: dict) -> list:
    missing = sorted(k for k, v in fields.items() if v is None)
    return [f"allan_report: report fields are null: {missing}"] if missing else []


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""
    # (phase, span that opens a new segment or window in that phase)
    phases: tuple = ()
    labels: tuple = ()  # the name DESIGN.md gives each phase's throughput
    reference_kind: dict = {}  # phase -> reference kernel, if not "tape"
    tracer = None  # set by the runner while a traced run is in progress

    def __init__(self, seed: int, workdir: str, size: Size = FULL):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.backbone = bb.BackboneConfig(**size.backbone)

    def min_passes(self, phase: str) -> int:
        return 1

    def setup(self):
        raise NotImplementedError

    def run_pass(self, phase: str, tally: Tally) -> int:
        """One pass of ``phase``; returns the input samples it processed."""
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def extras(self) -> dict:
        """Figures the workload measures itself, taken after the untraced passes."""
        return {}


class TrainWorkload(Workload):
    """Peak expert at C06 geometry, then the denoise expert at C07 settings."""

    name = "train"
    phases = (("ore", "backbone.forward"), ("de", "denoise.augment_segment"))
    labels = ("train_ore_segments_per_s", "train_de_segments_per_s")

    def setup(self):
        size = self.size
        rng = np.random.default_rng([self.seed, 0])
        L = SEGMENT_LEN
        self.ore_segments = burst_segments(rng, size.train_segments, L)
        self.noise_segments = noise_segments(rng, size.train_segments, L)
        self.ore_cfg = ore.OreConfig(clip=sg.ClipSpec(CLIP), backbone=self.backbone, batch_size=size.batch_size)
        self.de_cfg = de.DeConfig(
            clip=sg.ClipSpec(DE_CLIP), backbone=self.backbone, weight_share="both", batch_size=size.batch_size
        )
        self.aug = de.AugmentConfig(snippet_pool(rng, 32, L), beta=24.0, corruption_gain=8.0)
        self.losses = {"ore": [], "de": []}
        self.trained = {}
        # the first calls pay one-off costs (allocator growth, BLAS start-up)
        ore.train_ore(self.ore_segments, self.ore_cfg, epochs=1, seed=[self.seed, 1])
        de.train_de(self.noise_segments, FS, self.aug, self.de_cfg, epochs=1, seed=[self.seed, 2])

    def run_pass(self, phase, tally):
        if phase == "ore":
            ok, out = tally.call(ore.train_ore, self.ore_segments, self.ore_cfg, epochs=1, seed=[self.seed, 1])
            n = len(self.ore_segments)
        else:
            ok, out = tally.call(
                de.train_de, self.noise_segments, FS, self.aug, self.de_cfg, epochs=1, seed=[self.seed, 2]
            )
            n = len(self.noise_segments)
        if not ok:
            return 0
        params, trace = out
        self.losses[phase].extend(trace.step_losses)
        self.trained[phase] = params
        return n * SEGMENT_LEN

    def check(self):
        problems = check_finite_losses("ore", self.losses["ore"]) + check_finite_losses("de", self.losses["de"])
        codecs = {
            "ore": (ore.save_ore, ore.load_ore, self.ore_cfg),
            "de": (de.save_de, de.load_de, self.de_cfg),
        }
        for phase, (save, load, cfg) in codecs.items():
            if phase not in self.trained:
                problems.append(f"{phase}: no training pass succeeded")
                continue
            path = os.path.join(self.workdir, f"{phase}.ckpt")
            save(path, self.trained[phase], cfg)
            loaded, _ = load(path)
            problems += check_same_arrays(phase, self.trained[phase].to_arrays(), loaded.to_arrays())
        return problems


class EnhanceWorkload(Workload):
    """Gate plus both experts, offline per recording and online per window."""

    name = "enhance"
    phases = (("offline", "gate.route"), ("online", "gate.route"))
    labels = ("enhance_samples_per_s", "enhance_online_samples_per_s")

    def min_passes(self, phase):
        # the online p95 needs at least 200 windows, so 10 beyond it
        per_pass = self.size.recordings * len(LAYOUT) - 1
        return math.ceil(200 / per_pass) if phase == "online" else 1

    def setup(self):
        size = self.size
        rng = np.random.default_rng([self.seed, 0])
        L = SEGMENT_LEN
        self.recordings = make_recordings(rng, size.recordings, L)
        self.gate_cfg = gate.GateConfig(clip=sg.ClipSpec(CLIP), segment_len=L)
        ore_cfg = ore.OreConfig(clip=sg.ClipSpec(CLIP), backbone=self.backbone)
        de_cfg = de.DeConfig(clip=sg.ClipSpec(CLIP), backbone=self.backbone, weight_share="both")
        ore_path = os.path.join(self.workdir, "ore.ckpt")
        de_path = os.path.join(self.workdir, "de.ckpt")
        ore.save_ore(ore_path, bb.init_params(self.backbone, rng), ore_cfg)
        de.save_de(de_path, de.build_de_params(de_cfg, rng), de_cfg)
        self.peak_fn = ore.make_peak_fn(*ore.load_ore(ore_path))
        self.noise_fn = de.make_noise_fn(*de.load_de(de_path))
        self.offline = {}  # recording -> output array, or the exception type name
        self.online = {}  # (recording, window) -> output array, or the exception type name
        self.window_ms = []
        # warm-up on a recording without the sustained event
        gate.enhance(sg.SampleSeries(self.recordings[1], FS), self.gate_cfg,
                     peak_fn=self.peak_fn, noise_fn=self.noise_fn)

    def _enhance(self, values, tally):
        series = sg.SampleSeries(values, FS)
        ok, out = tally.call(gate.enhance, series, self.gate_cfg, peak_fn=self.peak_fn, noise_fn=self.noise_fn)
        return ok, (out.values if ok else type(out).__name__)

    def run_pass(self, phase, tally):
        L = SEGMENT_LEN
        samples = 0
        for r, rec in enumerate(self.recordings):
            if phase == "offline":
                ok, self.offline[r] = self._enhance(rec, tally)
                samples += rec.size if ok else 0
                continue
            for w in range(rec.size // L):
                ok, self.online[(r, w)] = self._enhance(rec[w * L : (w + 1) * L], tally)
                if ok:
                    self.window_ms.append(1e3 * tally.last_s)
                    samples += L
        return samples

    def check(self):
        L = SEGMENT_LEN
        tau = self.gate_cfg.quiet_tau
        problems = []
        for r, rec in enumerate(self.recordings):
            off = self.offline.get(r)
            if isinstance(off, np.ndarray):
                problems += check_window(rec, off, True, tau, f"recording {r}")
            for w in range(rec.size // L):
                where = f"recording {r} window {w}"
                x = rec[w * L : (w + 1) * L]
                on = self.online.get((r, w))
                if on is None:
                    problems.append(f"{where}: never enhanced online")
                    continue
                if isinstance(on, str):
                    # a window may only fail online if its recording failed offline the same way
                    if not isinstance(off, str) or off != on:
                        problems.append(f"{where}: online {on}, offline {off!r}")
                    continue
                decision = gate.route(x, self.gate_cfg)
                problems += check_window(x, on, decision.peak or decision.noise, tau, where)
                if isinstance(off, np.ndarray):
                    problems += check_online_matches_offline(off[w * L : (w + 1) * L], on, where)
        return problems

    def extras(self):
        return {"window_ms": self.window_ms}

    def windows_failed_per_pass(self) -> int:
        return sum(isinstance(out, str) for out in self.online.values())

    def samples_spliced_per_pass(self) -> int:
        """Samples the gate changed, over one online pass of every window."""
        L = SEGMENT_LEN
        changed = 0
        for (r, w), out in self.online.items():
            if isinstance(out, np.ndarray):
                x = self.recordings[r][w * L : (w + 1) * L]
                changed += int((x.view(np.int64) != out.view(np.int64)).sum())
        return changed


class AllanReportWorkload(Workload):
    """The `bench` and `allan` CLI paths on a multi-hour static record."""

    name = "allan_report"
    phases = (("path", None), ("analysis", None))
    labels = ("allan_report_samples_per_s", "allan_analysis_samples_per_s")
    reference_kind = {"path": "text", "analysis": "stream"}

    def setup(self):
        size = self.size
        rng = np.random.default_rng([self.seed, 0])
        n, tail = size.allan_samples, ALLAN_TAIL
        self.static_region = (0, n - tail)
        self.clip = sg.ClipSpec(CLIP)
        self.paths = {k: os.path.join(self.workdir, f"{k}.csv") for k in ("raw", "enhanced", "truth", "out")}
        for key, values in zip(("raw", "enhanced", "truth"), make_static_record(rng, n, tail)):
            sg.save_csv(sg.SampleSeries(values, FS), self.paths[key])
        self.loaded = None

    def _analyse(self, raw, enhanced, truth):
        self.report = metrics.report(
            raw, enhanced, truth, self.clip, segment_len=SEGMENT_LEN, static_region=self.static_region
        )
        lo, hi = self.static_region
        curve = metrics.allan_deviation(sg.SampleSeries(raw.values[lo:hi], raw.sample_rate))
        self.figures = {
            "qn": metrics.quantization_noise(curve),
            "arw": metrics.angle_random_walk(curve),
            "bi": metrics.bias_instability(curve),
        }
        metrics.savgol(raw)
        return metrics.poly_extrapolate_peaks(raw, self.clip).series

    def run_pass(self, phase, tally):
        if phase == "analysis" and self.loaded is not None:
            ok, _ = tally.call(self._analyse, *self.loaded)
            return len(self.loaded[0]) if ok else 0
        self.loaded = self.written = None  # keep peak memory the same whatever the pass count
        loaded = []
        for key in ("raw", "enhanced", "truth"):
            ok, series = tally.call(sg.load_csv, self.paths[key])
            if not ok:
                return 0
            loaded.append(series)
        ok, written = tally.call(self._analyse, *loaded)
        if ok:
            ok, _ = tally.call(sg.save_csv, written, self.paths["out"])
        if not ok:
            return 0
        self.loaded, self.written = tuple(loaded), written
        return len(written)

    def check(self):
        if self.loaded is None:
            return ["allan_report: no pass succeeded"]
        read = sg.load_csv(self.paths["out"])
        problems = check_roundtrip_csv(self.written.values, read.values)
        problems += check_report(self.report.to_json_dict())
        problems += check_report({f"allan.{k}": v for k, v in self.figures.items()})
        return problems


WORKLOADS = {w.name: w for w in (TrainWorkload, EnhanceWorkload, AllanReportWorkload)}
