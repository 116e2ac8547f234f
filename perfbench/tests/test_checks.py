"""Tiny-size runs of every workload (C11-scale backbone), and proof that each
output check fails on a deliberately corrupted output.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
from gyromoe.errors import MaskError  # noqa: E402
import workloads as W  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    with Reference() as r:
        yield r


def _run(cls, tmp_path, ref, passes=1, tracer=None):
    wl = cls(7, str(tmp_path), W.TINY)
    wl.setup()
    wl.tracer = tracer
    tally = W.Tally(ref)
    for phase, boundary in wl.phases:
        if tracer is not None:
            tracer.set_phase(phase, boundary)
        for _ in range(max(passes, wl.min_passes(phase))):
            tally.begin_pass(phase)
            wl.run_pass(phase, tally)
    return wl, tally


@pytest.fixture(scope="module")
def enhanced(tmp_path_factory, ref):
    return _run(W.EnhanceWorkload, tmp_path_factory.mktemp("enhance"), ref)


@pytest.fixture(scope="module")
def allan(tmp_path_factory, ref):
    return _run(W.AllanReportWorkload, tmp_path_factory.mktemp("allan"), ref)


def test_train_checks_pass_and_catch_corruption(tmp_path, ref):
    wl, tally = _run(W.TrainWorkload, tmp_path, ref)
    assert tally.failed == 0
    assert wl.check() == []
    assert W.check_finite_losses("ore", wl.losses["ore"] + [float("nan")])
    assert W.check_finite_losses("de", [])
    arrays = wl.trained["ore"].to_arrays()
    corrupted = {k: v.copy() for k, v in arrays.items()}
    corrupted["head.b"][0] += 1e-12
    assert W.check_same_arrays("ore", arrays, corrupted)
    assert W.check_same_arrays("ore", arrays, {k: v for k, v in arrays.items() if k != "head.b"})


def test_enhance_counts_the_saturated_window_and_checks_pass(enhanced):
    wl, tally = enhanced
    # the sustained event fails as one recording offline and one window
    # online, every pass alike
    assert dict(tally.failures) == {"MaskError": 2}
    assert tally.attempted == len(wl.recordings) * (1 + len(W.LAYOUT))
    assert tally.calls > tally.attempted and tally.problems() == []
    assert wl.windows_failed_per_pass() == 1
    assert isinstance(wl.offline[0], str)
    assert wl.check() == []


def test_enhance_route_mix_is_fixed_by_layout():
    cfg = W.gate.GateConfig(clip=W.sg.ClipSpec(W.CLIP))
    kinds = {(False, False): "pass", (True, False): "peak", (False, True): "noise", (True, True): "both"}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for kind in W.LAYOUT:
            d = W.gate.route(W.make_window(kind, rng, 256), cfg)
            assert kinds[(d.peak, d.noise)] == kind


def test_enhance_checks_catch_corruption(enhanced):
    wl, _ = enhanced
    L = W.SEGMENT_LEN
    tau = wl.gate_cfg.quiet_tau
    rec = wl.recordings[1]
    off = wl.offline[1]
    pass_w = W.LAYOUT.index("pass")
    x = rec[pass_w * L : (pass_w + 1) * L]
    y = x.copy()
    y[3] = np.nextafter(y[3], np.inf)
    assert W.check_window(x, y, False, tau, "w")  # a pass window changed
    assert W.check_window(x, y, True, tau, "w")  # a moving sample changed
    assert W.check_window(x, y[:-1], True, tau, "w")  # length lost
    on = wl.online[(1, pass_w)].copy()
    assert W.check_online_matches_offline(off[pass_w * L : (pass_w + 1) * L], on, "w") == []
    on[0] = -on[0] if on[0] else 1.0
    assert W.check_online_matches_offline(off[pass_w * L : (pass_w + 1) * L], on, "w")


def test_allan_checks_pass_and_catch_corruption(allan):
    wl, tally = allan
    assert tally.failed == 0
    assert wl.check() == []
    written = wl.written.values
    read = written.copy()
    read[10] = np.nextafter(read[10], np.inf)
    assert W.check_roundtrip_csv(written, read)
    fields = wl.report.to_json_dict()
    assert W.check_report(fields) == []
    assert W.check_report(dict(fields, qn_dps=None))


def test_traced_tiny_run_fires_every_needed_span(tmp_path, ref):
    for cls in W.WORKLOADS.values():
        tracer = Tracer()
        tracer.install()
        try:
            wl, _ = _run(cls, tmp_path, ref, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        assert layers.missing_spans(cls.name, summary) == []
        extras = {
            "passes": {p: max(1, wl.min_passes(p)) for p, _ in wl.phases},
            "segment_len": W.SEGMENT_LEN,
            "overhead_share": 0.0,
            **wl.extras(),
        }
        if cls.name == "enhance":
            extras.update(spliced_per_pass=wl.samples_spliced_per_pass(),
                          windows_failed=wl.windows_failed_per_pass())
        values = layers.compute(cls.name, summary, extras)
        for m in layers.METRICS:
            if cls.name in m.workloads and m.needs:
                assert values[m.name] > 0.0, m.name
    # uninstall restores every original function
    assert W.gate.route.__module__ == "gyromoe.gate" and not hasattr(W.gate.route, "__wrapped__")


def test_missing_wrapper_is_reported():
    summary = Tracer().summary()
    assert "gate.route" in layers.missing_spans("enhance", summary)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in layers.METRICS]
    for entry, m in zip(spec["per_layer"], layers.METRICS):
        assert (entry["unit"], entry["better"]) == (m.unit, m.better)
    design = (BENCH / "DESIGN.md").read_text()
    for m in layers.METRICS:
        assert f"`{m.name}`" in design, m.name


def test_tally_counts_failures_and_keeps_reference_out_of_call_time(ref):
    tally = W.Tally(ref)
    tally._last_unit -= W.Tally.REFERENCE_EVERY_S
    assert tally.call(lambda: 3) == (True, 3)
    assert len(tally.units) == 1 and tally.last_s < tally.unit_s

    def fail():
        raise MaskError("every patch hidden")

    ok, exc = tally.call(fail)
    assert not ok and isinstance(exc, MaskError)
    assert (tally.attempted, tally.failed, dict(tally.failures)) == (2, 1, {"MaskError": 1})


def test_tally_counts_each_operation_once_and_flags_a_changed_repeat(ref):
    def fail():
        raise MaskError("every patch hidden")

    tally = W.Tally(ref)
    for _ in range(3):
        tally.begin_pass("p")
        tally.call(lambda: 3)
        tally.call(fail)
    assert (tally.calls, tally.attempted, tally.failed) == (6, 2, 1)
    assert tally.problems() == []
    tally.begin_pass("p")
    tally.call(fail)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.problems()) == 1 and "MaskError" in tally.problems()[0]


def test_spans_are_written_with_parent_and_item(tmp_path, ref):
    tracer = Tracer()
    tracer.install()
    try:
        _run(W.TrainWorkload, tmp_path, ref, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    n = len(tracer)
    assert all(spans[k].shape == (n,) for k in ("name", "phase", "start", "end", "parent", "item"))
    assert (spans["end"] >= spans["start"]).all()
    names = spans["names"][spans["name"]]
    nested = spans["parent"] >= 0
    assert nested.any() and (spans["parent"][nested] < np.arange(n)[nested]).all()
    # one item per training segment: each opens with a backbone forward
    # (peak expert) or a segment augmentation (denoise expert)
    phases = spans["phases"][spans["phase"]]
    for phase, boundary in (("ore", "backbone.forward"), ("de", "denoise.augment_segment")):
        opens = (phases == phase) & (names == boundary)
        assert len(np.unique(spans["item"][opens])) == opens.sum() == tracer.items[phase]


def test_reference_helper_times_units_and_stops():
    with Reference() as r:
        for kind in ("tape", "stream", "text"):
            dt, factor = r.unit_factor(kind)
            assert dt > 0 and factor > 0
        proc = r._proc
    assert proc.poll() is not None
