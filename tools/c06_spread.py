"""Run acceptance test C06 over several training seeds and write its spread.

C06 trains the peak expert once, with training seed ``[100, 2]``, so one
run cannot tell a change that moves ``ore.ckpt`` bytes from seed noise.
This script runs the same recipe (``c06_run`` in
``tests/test_acceptance.py``, so it cannot drift from the test) for the
training seeds ``[100, k]``, one after another in this process, and writes
one JSON file:

- ``runs``: per seed, the p_mse ratio, PSNR gain (dB) and apex escape share
  at full precision, and ``figures``, the same three as C06's ACCEPTANCE
  line prints them (the k = 2 row is the test's own run);
- ``summary``: the median, min and max of each figure over the seeds;
- ``wall_s``: training seconds per seed and the whole run's seconds. This
  is the only field that differs between two runs of one checkout; never
  compare it.

    python3 tools/c06_spread.py OUT_JSON [--seeds K [K ...]]

The checkout's own ``src/`` is imported first, so the script measures the
tree it sits in. BLAS runs on one thread. Each seed takes about two
minutes; the default eight seeds take about sixteen.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIGURES = ("p_mse_ratio", "psnr_gain_db", "apex_escape")


def _acceptance_module():
    spec = importlib.util.spec_from_file_location("_acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(2, 10)),
                        help="k of each training seed [100, k] (default 2..9)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads, below
    sys.path.insert(0, str(ROOT / "src"))
    acceptance = _acceptance_module()

    start = time.monotonic()
    runs, train_s = [], []
    for k in args.seeds:
        ratio, gain, escape, dt = acceptance.c06_run([100, k])
        runs.append({"k": k, "p_mse_ratio": ratio, "psnr_gain_db": gain, "apex_escape": escape,
                     "figures": acceptance.c06_figures(ratio, gain, escape)})
        train_s.append(round(dt, 1))
        print(f"k={k} {runs[-1]['figures']} train={dt:.0f}s", file=sys.stderr, flush=True)
    summary = {
        name: {"median": statistics.median(r[name] for r in runs),
               "min": min(r[name] for r in runs), "max": max(r[name] for r in runs)}
        for name in FIGURES
    }
    record = {"runs": runs, "summary": summary,
              "wall_s": {"train_per_seed": train_s, "total": round(time.monotonic() - start, 1)}}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
