"""Outside-in span tracing of the gyromoe layers.

Every span comes from a wrapper that this module installs on a public
function of a ``gyromoe`` module; nothing under ``src/`` knows it is being
traced. Wrappers go where callers look the name up at call time:

* ``gyromoe.denoise`` is reached through ``importlib``, because the package
  re-exports a function of the same name that shadows the submodule;
* ``psd`` is wrapped in the ``denoise`` namespace and ``segment`` / ``stitch``
  in the ``gate`` namespace, since those modules bound the names at import.

Spans are kept in memory while the run lasts. When it ends they are turned
into per-layer figures and written out with ``Tracer.write``. A span's self
time is its duration minus the time its child spans cover. The benchmark is
single-threaded, so one stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

DIFFMATH_OPS = (
    "add", "concat", "gather", "gelu", "layer_norm", "log", "matmul", "mean",
    "mul", "reciprocal", "reshape", "row_softmax", "scalar_mul", "scale",
    "scatter", "sigmoid", "square", "sub", "transpose",
)
# primitives the backbone forward uses; the rest only appear in training losses
FORWARD_OPS = (
    "add", "concat", "gather", "gelu", "layer_norm", "matmul", "reciprocal",
    "reshape", "row_softmax", "scalar_mul", "scale", "scatter", "square", "transpose",
)

# (module, attribute path inside it, span name)
WRAPPED = (
    [("gyromoe.diffmath", op, f"diffmath.{op}") for op in DIFFMATH_OPS]
    + [
        ("gyromoe.diffmath", "backward", "diffmath.backward"),
        ("gyromoe.backbone", "forward", "backbone.forward"),
        ("gyromoe.backbone", "embed", "backbone.embed"),
        ("gyromoe.backbone", "apply_mask", "backbone.apply_mask"),
        ("gyromoe.backbone", "encode", "backbone.encode"),
        ("gyromoe.backbone", "pad_with_mask_tokens", "backbone.pad"),
        ("gyromoe.backbone", "decode", "backbone.decode"),
        ("gyromoe.optim", "Adam.step", "optim.step"),
        ("gyromoe.ore", "train_ore", "ore.train_ore"),
        ("gyromoe.ore", "ore_total_loss", "ore.ore_total_loss"),
        ("gyromoe.ore", "reconstruct", "ore.reconstruct"),
        ("gyromoe.denoise", "train_de", "denoise.train_de"),
        ("gyromoe.denoise", "augment_segment", "denoise.augment_segment"),
        ("gyromoe.denoise", "de_pair_loss", "denoise.de_pair_loss"),
        ("gyromoe.denoise", "denoise", "denoise.denoise"),
        ("gyromoe.denoise", "fuse", "denoise.fuse"),
        ("gyromoe.denoise", "psd", "signal.psd"),
        ("gyromoe.gate", "enhance", "gate.enhance"),
        ("gyromoe.gate", "route", "gate.route"),
        ("gyromoe.gate", "segment", "signal.segment"),
        ("gyromoe.gate", "stitch", "signal.stitch"),
        ("gyromoe.signal", "load_csv", "signal.load_csv"),
        ("gyromoe.signal", "save_csv", "signal.save_csv"),
        ("gyromoe.metrics", "report", "metrics.report"),
        ("gyromoe.metrics", "allan_deviation", "metrics.allan_deviation"),
        ("gyromoe.metrics", "quantization_noise", "metrics.quantization_noise"),
        ("gyromoe.metrics", "angle_random_walk", "metrics.angle_random_walk"),
        ("gyromoe.metrics", "bias_instability", "metrics.bias_instability"),
        ("gyromoe.metrics", "savgol", "metrics.savgol"),
        ("gyromoe.metrics", "poly_extrapolate_peaks", "metrics.poly_extrapolate_peaks"),
        ("gyromoe.checkpoint", "save_checkpoint", "checkpoint.save"),
        ("gyromoe.checkpoint", "load_checkpoint", "checkpoint.load"),
    ]
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Span ``i`` is ``names[name[i]]``, ``start[i]``, ``end[i]``, ``parent[i]``
    (a span index, -1 at top level), ``phases[phase_of[i]]`` and ``item[i]``.
    The phase is set by the workload; the item numbers the segment or window
    the span serves and advances each time the phase's boundary span opens.
    ``items`` counts the segments or windows seen per phase. Spans live in
    flat arrays, which the garbage collector never scans, so tracing does
    not make the program's own collections slower.
    """

    def __init__(self):
        self.names, self.phases = [], []
        self.name, self.phase_of = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.parent, self.item = array("q"), array("q")
        self._stack = []
        self._patches = []
        self.phase = "setup"
        self._phase_id = self._intern(self.phases, self.phase)
        self._boundary = None
        self._item = 0
        self.items = Counter()
        self.visible_patches = []
        self.csv_samples = Counter()
        self.routes = Counter()

    @staticmethod
    def _intern(table: list, value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def set_phase(self, phase: str, boundary: str | None = None):
        self.phase = phase
        self._phase_id = self._intern(self.phases, phase)
        self._boundary = boundary

    def install(self):
        for module_name, path, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            self._wrap(owner, attr, span_name)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, owner, attr, name):
        orig = getattr(owner, attr)
        observe = _OBSERVERS.get(name)
        nid = self._intern(self.names, name)
        stack, clock = self._stack, time.perf_counter
        s_name, s_phase, s_start, s_end, s_parent, s_item = (
            self.name, self.phase_of, self.start, self.end, self.parent, self.item
        )
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name == tracer._boundary:
                tracer.items[tracer.phase] += 1
                tracer._item += 1
            idx = len(s_start)
            s_name.append(nid)
            s_phase.append(tracer._phase_id)
            s_parent.append(stack[-1] if stack else -1)
            s_item.append(tracer._item)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """Save every span to ``path`` as an uncompressed ``.npz``: the arrays
        ``name``, ``phase``, ``start``, ``end``, ``parent`` and ``item``, one
        entry per span, plus the tables ``names`` and ``phases`` that the
        ``name`` and ``phase`` entries index."""
        np.savez(
            path,
            names=np.array(self.names), phases=np.array(self.phases),
            name=np.frombuffer(self.name, np.int32), phase=np.frombuffer(self.phase_of, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int64), item=np.frombuffer(self.item, np.int64),
        )

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


def _observe_visible(tracer, args, result):
    tracer.visible_patches.append(len(result.positions))


def _observe_load(tracer, args, result):
    tracer.csv_samples["load"] += len(result)


def _observe_save(tracer, args, result):
    tracer.csv_samples["save"] += len(args[0])


def _observe_route(tracer, args, result):
    tracer.routes[(tracer.phase, bool(result.peak), bool(result.noise))] += 1


_OBSERVERS = {
    "backbone.apply_mask": _observe_visible,
    "signal.load_csv": _observe_load,
    "signal.save_csv": _observe_save,
    "gate.route": _observe_route,
}


class SpanSummary:
    """Call counts, total and self seconds per span name, and per
    (phase, span name)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        n = len(tracer)
        child = [0.0] * n
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            name = tracer.names[tracer.name[i]]
            for key in (name, (tracer.phases[tracer.phase_of[i]], name)):
                self.calls[key] += 1
                self.total[key] += dur[i]
                self.self_time[key] += dur[i] - child[i]

    def items(self, *phases) -> int:
        return sum(self.tracer.items[p] for p in phases)

    def calls_in(self, name, *phases) -> int:
        return sum(self.calls[(p, name)] for p in phases)

    def total_in(self, name, *phases) -> float:
        return sum(self.total[(p, name)] for p in phases)

    def self_in(self, name, *phases) -> float:
        return sum(self.self_time[(p, name)] for p in phases)
