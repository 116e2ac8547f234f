"""Print the sha256 of every artifact of the C11 pipeline.

Runs the steps of C11 (``_run_pipeline`` in ``tests/test_acceptance.py``:
``synth``, ``train-ore`` and ``train-de`` with ``--trace``, ``enhance``,
``bench`` and ``allan`` on ``data/clean.csv``, seeds 5, 6 and 7) on the
config of its ``_pipeline_config``, and prints one ``sha256  name`` line
for each of the nine files they write.
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
    acceptance = _acceptance_module()
    out.mkdir(parents=True)
    cfg = acceptance._pipeline_config(out)
    if args.gd_placement is not None:
        settings = json.loads(Path(cfg).read_text())
        settings["backbone"]["gd_placement"] = args.gd_placement
        Path(cfg).write_text(json.dumps(settings))
    with contextlib.redirect_stdout(io.StringIO()):
        acceptance._run_pipeline(cfg, out)
    for name in acceptance.PIPELINE_ARTIFACTS:
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
