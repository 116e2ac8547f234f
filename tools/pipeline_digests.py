"""Print the sha256 of every artifact of the C11 pipeline.

Runs ``synth``, ``train-ore``, ``train-de`` (both with ``--trace``),
``enhance``, ``bench`` and ``allan`` (the curve of ``data/clean.csv``)
through ``gyromoe.cli.main`` on the config of
``tests/test_acceptance.py::_pipeline_config`` with seeds 5, 6 and 7, and
prints one ``sha256  name`` line for each of the nine files it writes.
Two checkouts that print the same lines produce the same bytes.

    python3 tools/pipeline_digests.py OUT_DIR [--gd-placement P]

OUT_DIR must not exist yet. The checkout's own ``src/`` is imported first,
so the script measures the tree it sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("ore.ckpt", "ore.trace.csv", "de.ckpt", "de.trace.csv", "enhanced.csv", "report.json",
             "data/clean.csv", "data/clipped.csv", "allan.csv")


def _acceptance_module():
    spec = importlib.util.spec_from_file_location("_acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="new directory for the pipeline's files")
    parser.add_argument("--gd-placement", help="backbone.gd_placement written into the config")
    args = parser.parse_args(argv)
    out = args.out_dir
    if out.exists():
        parser.error(f"{out} already exists")
    sys.path.insert(0, str(ROOT / "src"))
    from gyromoe.cli import main as cli_main

    out.mkdir(parents=True)
    cfg = _acceptance_module()._pipeline_config(out)
    if args.gd_placement is not None:
        settings = json.loads(Path(cfg).read_text())
        settings["backbone"]["gd_placement"] = args.gd_placement
        Path(cfg).write_text(json.dumps(settings))
    steps = [  # allan takes no --config
        ["synth", "--config", cfg, "--seed", "5", "--out", str(out / "data")],
        ["train-ore", "--config", cfg, "--seed", "6", "--out", str(out / "ore.ckpt"),
         "--trace", str(out / "ore.trace.csv")],
        ["train-de", "--config", cfg, "--seed", "7", "--out", str(out / "de.ckpt"),
         "--trace", str(out / "de.trace.csv")],
        ["enhance", "--config", cfg, "--input", str(out / "data" / "clipped.csv"),
         "--ore-ckpt", str(out / "ore.ckpt"), "--de-ckpt", str(out / "de.ckpt"), "--out", str(out / "enhanced.csv")],
        ["bench", "--config", cfg, "--raw", str(out / "data" / "clipped.csv"),
         "--enhanced", str(out / "enhanced.csv"), "--truth", str(out / "data" / "clean.csv"),
         "--out", str(out / "report.json")],
        ["allan", "--input", str(out / "data" / "clean.csv"), "--out", str(out / "allan.csv")],
    ]
    for step in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(step)
        if code != 0:
            print(f"pipeline step {step[0]} exited {code}", file=sys.stderr)
            return code
    for name in ARTIFACTS:
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
