"""gyromoe benchmark: one command, three workloads, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the same passes untraced and then traced,
prints the per-layer metrics, including the tracing overhead, and writes
every span to ``.perfbench-spans/<workload>.npz`` in the checkout. Human-readable
lines come first (environment, every metric with its unit and sample count,
failures by exception type, check results); the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPS = 5  # set-ups per run; setup_s is their median
CALIBRATION_WINDOW_S = 1.0


def _git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(ROOT),
        "note": "no CPU pinning or frequency control available; times are medians over passes, rescaled to the nominal speed of the reference kernels",
    }


def run_phases(workload, seconds: float, tally, order=None):
    """Run passes of every phase, interleaved so that each phase gets half
    of ``seconds`` spread over the whole run, or replay ``order``.

    A pass with no reference unit in it gets one right after it. Each pass
    is calibrated by the units of its kernel that ended within
    ``CALIBRATION_WINDOW_S`` of it: a single 25 ms unit varies by about 20%
    on its own, while the machine's speed drifts over seconds and minutes.
    Returns the (seconds, samples, machine slowness) of every pass per
    phase, where slowness is the mean of those units' times over their
    nominal time, and the order in which the phases ran.
    """
    boundary = dict(workload.phases)
    passes = []  # (phase, kernel, start, end, seconds, samples)
    count = dict.fromkeys(boundary, 0)
    spent = dict.fromkeys(boundary, 0.0)
    t_end = time.perf_counter() + seconds
    while True:
        if order is not None:
            if len(passes) == len(order):
                break
            phase = order[len(passes)]
        else:
            now = time.perf_counter()
            todo = [p for p in boundary if now < t_end or count[p] < workload.min_passes(p)]
            if not todo:
                break
            phase = min(todo, key=lambda p: spent[p])
        if workload.tracer is not None:
            workload.tracer.set_phase(phase, boundary[phase])
        kind = tally.kind = workload.reference_kind.get(phase, "tape")
        units, unit_s = len(tally.units), tally.unit_s
        tally.begin_pass(phase)
        t0 = time.perf_counter()
        samples = workload.run_pass(phase, tally)
        t1 = time.perf_counter()
        dt = t1 - t0 - (tally.unit_s - unit_s)
        if len(tally.units) == units:
            tally.reference_unit()
        passes.append((phase, kind, t0, t1, dt, samples))
        count[phase] += 1
        spent[phase] += dt
    runs = {phase: [] for phase in boundary}
    w = CALIBRATION_WINDOW_S
    for phase, kind, t0, t1, dt, samples in passes:
        near = [f for t, k, f in tally.units if k == kind and t0 - w <= t <= t1 + w]
        runs[phase].append((dt, samples, statistics.fmean(near)))
    return runs, [p[0] for p in passes]


def throughput(runs, calibrated=True) -> float:
    """Median over passes of samples per second, by default rescaled to the
    nominal machine speed by each pass's reference units."""
    return statistics.median(samples / dt * (slow if calibrated else 1.0) for dt, samples, slow in runs)


def nominal_seconds(runs) -> float:
    """Total pass time, each pass rescaled to the nominal machine speed."""
    return sum(dt / slow for phase_runs in runs.values() for dt, _, slow in phase_runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "enhance", "allan_report"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gyromoe" / "__init__.py").is_file():
        print(f"error: no gyromoe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the reference helper starts before gyromoe is imported, so none of its state reaches it
    with reference.Reference() as ref:
        return _run(args, ref)


def _run(args, ref) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads
    from tracing import Tracer

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, setup_raw_s = [], []
        for _ in range(SETUP_REPS):
            _, slow_before = ref.unit_factor()
            t0 = time.perf_counter()
            wl.setup()
            setup_raw_s.append(time.perf_counter() - t0)
            slow = (slow_before + ref.unit_factor()[1]) / 2
            setup_s.append(setup_raw_s[-1] / slow)
        tally = workloads.Tally(ref)
        runs, order = run_phases(wl, args.seconds, tally)
        problems = tally.problems()
        passes = {phase: len(r) for phase, r in runs.items()}
        untraced_extras = wl.extras()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup()
                wl.tracer = tracer
                tally = workloads.Tally(ref)
                traced, _ = run_phases(wl, args.seconds, tally, order)
                problems += tally.problems()
            finally:
                tracer.uninstall()
                wl.tracer = None
        problems += wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    phase_names = [p for p, _ in wl.phases]
    if args.trace:
        summary = tracer.summary()
        spans_dir = ROOT / ".perfbench-spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}.npz")
        missing = layers.missing_spans(args.workload, summary)
        if missing:
            print(f"error: traced run saw no call to {missing}; a wrapper missed its callers",
                  file=sys.stderr)
            return 1
        extras = dict(
            untraced_extras,
            passes=passes,
            segment_len=workloads.SEGMENT_LEN,
            overhead_share=nominal_seconds(traced) / nominal_seconds(runs) - 1.0,
        )
        if args.workload == "enhance":
            extras["spliced_per_pass"] = wl.samples_spliced_per_pass()
            extras["windows_failed"] = wl.windows_failed_per_pass()
        values = layers.compute(args.workload, summary, extras)
        print(f"trace: {len(tracer)} spans over passes {passes}, written to "
              f"{spans_dir.name}/{args.workload}.npz")
        metrics = {}
        for m in layers.METRICS:
            metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            print(f"  {m.name} = {values[m.name]:.6g} {m.unit}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB", "n": 1},
            "phase1_samples_per_s": {"value": throughput(runs[phase_names[0]]), "unit": "1/s",
                                     "n": passes[phase_names[0]]},
            "phase2_samples_per_s": {"value": throughput(runs[phase_names[1]]), "unit": "1/s",
                                     "n": passes[phase_names[1]]},
        }
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {m['n']})")
        slows = [slow for phase_runs in runs.values() for _, _, slow in phase_runs]
        print(f"  machine slowness: reference units took {statistics.median(slows):.4g}x their "
              f"nominal time (median over passes); uncalibrated setup_s = "
              f"{statistics.median(setup_raw_s):.6g} s, phase1/phase2 = "
              f"{throughput(runs[phase_names[0]], False):.6g} / {throughput(runs[phase_names[1]], False):.6g} 1/s")
        for key, phase, label in zip(("phase1", "phase2"), phase_names, wl.labels):
            per = workloads.SEGMENT_LEN if label.endswith("segments_per_s") else 1
            value = metrics[f"{key}_samples_per_s"]["value"] / per
            print(f"  {key} is {args.workload}.{phase}: {label} = {value:.6g} 1/s")
        if args.workload == "enhance":
            lat = untraced_extras["window_ms"]
            print(f"  window_ms_p50 = {np.percentile(lat, 50):.6g} ms, "
                  f"window_ms_p95 = {np.percentile(lat, 95):.6g} ms (of {len(lat)} windows)")
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    failed_share = tally.failed / max(tally.attempted, 1)
    print(f"  failed_share = {failed_share:.6g} ({tally.failed} of {tally.attempted} distinct "
          f"operations, {tally.calls} calls; by type {dict(tally.failures)})")
    for p in problems:
        print(f"check failed: {p}")
    print(f"checks: {'pass' if not problems else f'{len(problems)} failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
