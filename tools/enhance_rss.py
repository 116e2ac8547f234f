"""Measure the peak memory and wall time of ``gyromoe enhance``,
``gyromoe allan`` and ``gyromoe bench`` on long logs.

For each ``LOG2`` it writes a seeded static log of ``2**LOG2`` samples into
a temporary directory: 0.5 + N(0, 2) deg/s at 100 Hz, with one burst every
2048 samples clipped at 450 deg/s, and the same log unclipped as
``clean.csv``. Beside them go seeded random experts of the default backbone
geometry and a config with ``segment_len`` 256 and a ``bench.static_region``
that covers the whole log. It then runs ``gyromoe enhance``, ``gyromoe allan
--input`` and ``gyromoe bench`` (raw: the log, enhanced: the enhance output,
truth: ``clean.csv``), each in a fresh ``sys.executable`` child with
``OPENBLAS_NUM_THREADS=1``, and prints one line per size:

    log2  samples  peak_rss_mb  wall_s  allan_rss_mb  allan_wall_s  bench_rss_mb  bench_wall_s  sha256(enhanced.csv)

A peak RSS is the child's own ``ru_maxrss`` (from ``os.wait4``) in
KiB / 1024, as ``perfbench`` reports it; a wall time counts from the
child's start to its exit, interpreter start-up included. On Linux
``exec`` carries the parent's high-water mark into the child's
``ru_maxrss``, so a child's figure is at least its launcher's RSS at the
spawn. This process therefore imports neither numpy nor gyromoe: the
inputs are written by a child of their own, and the measured commands are
spawned from a lean parent. The same seeds give the same inputs, so two
checkouts that enhance alike print the same sha256.

    python3 tools/enhance_rss.py LOG2 [LOG2 ...]

The children import the checkout's own ``src/``, so the script measures the
tree it sits in. Linux only (``os.wait4`` and ``ru_maxrss`` in KiB).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_RATE = 100.0
CLIP_LEVEL = 450.0
BURST_EVERY = 2048
BURST_LEN = 16  # a half-sine of twice the clip level, about 10 samples on the rail
CHILD = "import sys; from gyromoe.cli import main; sys.exit(main(sys.argv[1:]))"
WRITER = "import sys, enhance_rss; enhance_rss._write_inputs(sys.argv[1], int(sys.argv[2]))"


def _write_inputs(work: str, log2: int) -> None:
    """Write the log, both experts and the config for one size into ``work``;
    runs in the writer child, never in the launcher."""
    import numpy as np

    from gyromoe.backbone import BackboneConfig, init_params
    from gyromoe.denoise import DeConfig, build_de_params, save_de
    from gyromoe.ore import OreConfig, save_ore
    from gyromoe.signal import ClipSpec, SampleSeries, save_csv

    work = Path(work)
    rng = np.random.default_rng(log2)
    values = 0.5 + rng.normal(0.0, 2.0, size=2**log2)
    burst = 2.0 * CLIP_LEVEL * np.sin(np.pi * (np.arange(BURST_LEN) + 0.5) / BURST_LEN)
    for start in range(BURST_EVERY // 2, values.size - BURST_LEN, BURST_EVERY):
        values[start : start + BURST_LEN] += burst
    save_csv(SampleSeries(values, SAMPLE_RATE), work / "clean.csv")
    save_csv(SampleSeries(np.clip(values, -CLIP_LEVEL, CLIP_LEVEL), SAMPLE_RATE), work / "log.csv")

    clip, backbone = ClipSpec(CLIP_LEVEL), BackboneConfig()
    experts = np.random.default_rng(0)
    save_ore(work / "ore.ckpt", init_params(backbone, experts), OreConfig(clip, backbone))
    de_cfg = DeConfig(clip, backbone)
    save_de(work / "de.ckpt", build_de_params(de_cfg, experts), de_cfg)
    config = {"clip_level": CLIP_LEVEL, "sample_rate": SAMPLE_RATE, "segment_len": 256,
              "bench": {"static_region": [0, values.size]}}
    (work / "config.json").write_text(json.dumps(config))


def _env(*paths: Path) -> dict:
    """This environment with one BLAS thread and ``paths`` ahead on PYTHONPATH."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")])))


def _run_child(args: list[str]) -> tuple[float, float]:
    """Run ``gyromoe`` with ``args`` in a fresh interpreter; returns its
    peak RSS in MB and its wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *args], env=_env(ROOT / "src"),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"gyromoe {args[0]} exited {proc.returncode}")
    return usage.ru_maxrss / 1024.0, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("log2", type=int, nargs="+", help="log2 of the number of samples")
    args = parser.parse_args(argv)
    if min(args.log2) < 12:
        parser.error("LOG2 must be at least 12, so the log holds a burst")
    print("log2  samples  peak_rss_mb  wall_s  allan_rss_mb  allan_wall_s  bench_rss_mb  bench_wall_s  "
          "sha256(enhanced.csv)")
    for log2 in args.log2:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            subprocess.run([sys.executable, "-c", WRITER, tmp, str(log2)], env=_env(HERE, ROOT / "src"),
                           check=True)
            log, config, enhanced = str(work / "log.csv"), str(work / "config.json"), str(work / "enhanced.csv")
            rss, wall = _run_child(["enhance", "--config", config, "--input", log,
                                    "--ore-ckpt", str(work / "ore.ckpt"), "--de-ckpt", str(work / "de.ckpt"),
                                    "--out", enhanced])
            allan_rss, allan_wall = _run_child(["allan", "--input", log])
            bench_rss, bench_wall = _run_child(["bench", "--config", config, "--raw", log, "--enhanced", enhanced,
                                                "--truth", str(work / "clean.csv"), "--out", str(work / "report.json")])
            digest = hashlib.sha256((work / "enhanced.csv").read_bytes()).hexdigest()
        print(f"{log2}  {2**log2}  {rss:.1f}  {wall:.2f}  {allan_rss:.1f}  {allan_wall:.2f}  "
              f"{bench_rss:.1f}  {bench_wall:.2f}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
