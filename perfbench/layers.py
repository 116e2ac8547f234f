"""Per-layer metrics: name, unit, direction, the workloads that load the
layer, the spans whose calls feed it, and how it is computed.

Every metric is printed on every workload; a workload that does not load
a layer reports 0 for it. On the workloads listed for a metric, each span
it needs must have fired at least once, or the traced run fails: a zero
there would mean a wrapper missed its callers. Which end-to-end metric each
per-layer metric should move is written down in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracing import DIFFMATH_OPS, FORWARD_OPS

TRAIN, ENHANCE, ALLAN = "train", "enhance", "allan_report"
ITEM_PHASES = {TRAIN: ("ore", "de"), ENHANCE: ("offline", "online"), ALLAN: ()}
MS = 1e3


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    workloads: tuple
    needs: tuple  # span names that must fire on those workloads
    compute: object  # (RunView) -> float


class RunView:
    """What a metric may read: the span summary, the workload name and
    figures measured by the workload itself."""

    def __init__(self, workload: str, summary, extras: dict):
        self.workload = workload
        self.s = summary
        self.x = extras
        self.item_phases = ITEM_PHASES[workload]

    def prim_calls(self, *phases) -> int:
        return sum(self.s.calls_in(f"diffmath.{op}", *phases) for op in DIFFMATH_OPS)

    def per_call_ms(self, name) -> float:
        return MS * self.s.total[name] / self.s.calls[name]

    def per_item_ms(self, name, *phases) -> float:
        return MS * self.s.total_in(name, *phases) / self.s.items(*phases)

    def online_passes(self) -> int:
        return self.x["passes"]["online"]


def _op_self(op):
    def compute(v: RunView):
        return MS * v.s.self_in(f"diffmath.{op}", *v.item_phases) / v.s.items(*v.item_phases)

    return compute


def _matmul_share(v: RunView):
    selfs = [v.s.self_in(f"diffmath.{op}", *v.item_phases) for op in DIFFMATH_OPS]
    return v.s.self_in("diffmath.matmul", *v.item_phases) / sum(selfs)


def _routes(peak, noise):
    def compute(v: RunView):
        return v.s.tracer.routes[("online", peak, noise)] / v.online_passes()

    return compute


def _csv_ms_per_1k(name, key):
    def compute(v: RunView):
        return MS * v.s.total[name] / (v.s.tracer.csv_samples[key] / 1e3)

    return compute


def _noise_figures(v: RunView):
    names = ("metrics.quantization_noise", "metrics.angle_random_walk", "metrics.bias_instability")
    return MS * sum(v.s.total[n] for n in names) / v.s.calls["metrics.quantization_noise"]


def _expert_calls(v: RunView):
    calls = v.s.calls_in("ore.reconstruct", "online") + v.s.calls_in("denoise.denoise", "online")
    return calls / v.s.items("online")


def _samples_used(v: RunView):
    calls = v.s.calls_in("ore.reconstruct", "online") + v.s.calls_in("denoise.denoise", "online")
    computed = calls / v.online_passes() * v.x["segment_len"]
    return v.x["spliced_per_pass"] / computed


def _percentile(q):
    return lambda v: float(np.percentile(v.x["window_ms"], q))


PRIMS = tuple(f"diffmath.{op}" for op in FORWARD_OPS)
BOTH = (TRAIN, ENHANCE)

METRICS = (
    LayerMetric("diffmath.nodes_per_ore_segment", "count", "lower", (TRAIN,), PRIMS,
                lambda v: v.prim_calls("ore") / v.s.items("ore")),
    LayerMetric("diffmath.nodes_per_de_segment", "count", "lower", (TRAIN,), PRIMS,
                lambda v: v.prim_calls("de") / v.s.items("de")),
    LayerMetric("diffmath.nodes_per_window", "count", "lower", (ENHANCE,), PRIMS,
                lambda v: v.prim_calls("offline", "online") / v.s.items("offline", "online")),
    LayerMetric("diffmath.backward_ms_per_ore_segment", "ms", "lower", (TRAIN,), ("diffmath.backward",),
                lambda v: v.per_item_ms("diffmath.backward", "ore")),
    LayerMetric("diffmath.backward_ms_per_de_segment", "ms", "lower", (TRAIN,), ("diffmath.backward",),
                lambda v: v.per_item_ms("diffmath.backward", "de")),
    *(
        LayerMetric(f"diffmath.{op}_self_ms", "ms", "lower",
                    BOTH if op in FORWARD_OPS else (TRAIN,), (f"diffmath.{op}",), _op_self(op))
        for op in DIFFMATH_OPS
    ),
    LayerMetric("diffmath.matmul_share", "share", "higher", BOTH, ("diffmath.matmul",), _matmul_share),
    LayerMetric("backbone.forward_ms_per_ore_segment", "ms", "lower", (TRAIN,), ("backbone.forward",),
                lambda v: v.per_item_ms("backbone.forward", "ore")),
    LayerMetric("backbone.forward_ms_per_de_segment", "ms", "lower", (TRAIN,), ("backbone.forward",),
                lambda v: v.per_item_ms("backbone.forward", "de")),
    LayerMetric("backbone.forward_ms_per_window", "ms", "lower", (ENHANCE,), ("backbone.forward",),
                lambda v: v.per_item_ms("backbone.forward", "offline", "online")),
    LayerMetric("backbone.embed_ms", "ms", "lower", BOTH, ("backbone.embed",),
                lambda v: v.per_call_ms("backbone.embed")),
    LayerMetric("backbone.encode_ms", "ms", "lower", BOTH, ("backbone.encode",),
                lambda v: v.per_call_ms("backbone.encode")),
    LayerMetric("backbone.pad_ms", "ms", "lower", BOTH, ("backbone.pad",),
                lambda v: v.per_call_ms("backbone.pad")),
    LayerMetric("backbone.decode_ms", "ms", "lower", BOTH, ("backbone.decode",),
                lambda v: v.per_call_ms("backbone.decode")),
    LayerMetric("backbone.visible_patches_mean", "count", "lower", BOTH, ("backbone.apply_mask",),
                lambda v: float(np.mean(v.s.tracer.visible_patches))),
    LayerMetric("optim.step_ms", "ms", "lower", (TRAIN,), ("optim.step",),
                lambda v: v.per_call_ms("optim.step")),
    LayerMetric("optim.steps", "count", "lower", (TRAIN,), ("optim.step",),
                lambda v: v.s.calls_in("optim.step", "ore", "de") / (v.x["passes"]["ore"] + v.x["passes"]["de"])),
    LayerMetric("ore.loss_ms_per_segment", "ms", "lower", (TRAIN,), ("ore.ore_total_loss",),
                lambda v: v.per_item_ms("ore.ore_total_loss", "ore")),
    LayerMetric("ore.reconstruct_ms_per_window", "ms", "lower", (ENHANCE,), ("ore.reconstruct",),
                lambda v: v.per_call_ms("ore.reconstruct")),
    LayerMetric("denoise.augment_ms_per_segment", "ms", "lower", (TRAIN,), ("denoise.augment_segment",),
                lambda v: v.per_item_ms("denoise.augment_segment", "de")),
    LayerMetric("denoise.pair_loss_ms_per_segment", "ms", "lower", (TRAIN,), ("denoise.de_pair_loss",),
                lambda v: v.per_item_ms("denoise.de_pair_loss", "de")),
    LayerMetric("denoise.denoise_ms_per_window", "ms", "lower", (ENHANCE,), ("denoise.denoise",),
                lambda v: v.per_call_ms("denoise.denoise")),
    LayerMetric("denoise.fuse_ms_per_window", "ms", "lower", (ENHANCE,), ("denoise.fuse",),
                lambda v: v.per_call_ms("denoise.fuse")),
    LayerMetric("gate.route_ms_per_window", "ms", "lower", (ENHANCE,), ("gate.route",),
                lambda v: v.per_call_ms("gate.route")),
    LayerMetric("gate.self_ms_per_window", "ms", "lower", (ENHANCE,), ("gate.enhance",),
                lambda v: MS * v.s.self_time["gate.enhance"] / v.s.calls["gate.route"]),
    LayerMetric("gate.windows_pass", "count", "higher", (ENHANCE,), ("gate.route",), _routes(False, False)),
    LayerMetric("gate.windows_noise", "count", "higher", (ENHANCE,), ("gate.route",), _routes(False, True)),
    LayerMetric("gate.windows_peak", "count", "higher", (ENHANCE,), ("gate.route",), _routes(True, False)),
    LayerMetric("gate.windows_both", "count", "higher", (ENHANCE,), ("gate.route",), _routes(True, True)),
    LayerMetric("gate.windows_failed", "count", "lower", (ENHANCE,), ("gate.route",),
                lambda v: v.x["windows_failed"]),
    LayerMetric("gate.expert_calls_per_window", "count", "lower", (ENHANCE,),
                ("ore.reconstruct", "denoise.denoise"), _expert_calls),
    LayerMetric("gate.expert_samples_used_share", "share", "higher", (ENHANCE,),
                ("ore.reconstruct", "denoise.denoise"), _samples_used),
    LayerMetric("gate.window_ms_p50", "ms", "lower", (ENHANCE,), (), _percentile(50)),
    LayerMetric("gate.window_ms_p95", "ms", "lower", (ENHANCE,), (), _percentile(95)),
    LayerMetric("signal.load_csv_ms_per_1k_samples", "ms", "lower", (ALLAN,), ("signal.load_csv",),
                _csv_ms_per_1k("signal.load_csv", "load")),
    LayerMetric("signal.save_csv_ms_per_1k_samples", "ms", "lower", (ALLAN,), ("signal.save_csv",),
                _csv_ms_per_1k("signal.save_csv", "save")),
    LayerMetric("signal.segment_ms", "ms", "lower", (ENHANCE,), ("signal.segment",),
                lambda v: v.per_call_ms("signal.segment")),
    LayerMetric("signal.stitch_ms", "ms", "lower", (ENHANCE,), ("signal.stitch",),
                lambda v: v.per_call_ms("signal.stitch")),
    LayerMetric("signal.psd_ms_per_de_segment", "ms", "lower", (TRAIN,), ("signal.psd",),
                lambda v: v.per_item_ms("signal.psd", "de")),
    LayerMetric("metrics.report_ms", "ms", "lower", (ALLAN,), ("metrics.report",),
                lambda v: v.per_call_ms("metrics.report")),
    LayerMetric("metrics.allan_deviation_ms", "ms", "lower", (ALLAN,), ("metrics.allan_deviation",),
                lambda v: v.per_call_ms("metrics.allan_deviation")),
    LayerMetric("metrics.noise_figures_ms", "ms", "lower", (ALLAN,),
                ("metrics.quantization_noise", "metrics.angle_random_walk", "metrics.bias_instability"),
                _noise_figures),
    LayerMetric("metrics.savgol_ms", "ms", "lower", (ALLAN,), ("metrics.savgol",),
                lambda v: v.per_call_ms("metrics.savgol")),
    LayerMetric("metrics.poly_extrapolate_ms", "ms", "lower", (ALLAN,), ("metrics.poly_extrapolate_peaks",),
                lambda v: v.per_call_ms("metrics.poly_extrapolate_peaks")),
    LayerMetric("checkpoint.save_ms", "ms", "lower", (ENHANCE,), ("checkpoint.save",),
                lambda v: v.per_call_ms("checkpoint.save")),
    LayerMetric("checkpoint.load_ms", "ms", "lower", (ENHANCE,), ("checkpoint.load",),
                lambda v: v.per_call_ms("checkpoint.load")),
    LayerMetric("trace.overhead_share", "share", "lower", (TRAIN, ENHANCE, ALLAN), (),
                lambda v: v.x["overhead_share"]),
)


def missing_spans(workload: str, summary) -> list:
    """Spans some metric of ``workload`` needs that never fired."""
    needed = {n for m in METRICS if workload in m.workloads for n in m.needs}
    return sorted(n for n in needed if summary.calls[n] == 0)


def compute(workload: str, summary, extras: dict) -> dict:
    view = RunView(workload, summary, extras)
    return {m.name: (float(m.compute(view)) if workload in m.workloads else 0.0) for m in METRICS}
