"""The glibc malloc policy that ``import gyromoe`` sets, seen from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PAGES_PER_MIB = 256


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _glibc()), reason="the malloc policy is set on glibc/Linux only"
)

# prints the policy flag, then the minor faults of allocating a tape of
# 1 MiB arrays again after the same tape was allocated and freed
CHILD = """
import resource
import sys
import numpy as np
import gyromoe

def tape(mib):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(mib)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

mib = int(sys.argv[1])
tape(mib)
print(gyromoe._heap_kept, tape(mib))
"""


def _child(mib, **env_extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(PYTHONPATH=str(SRC), **env_extra)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(mib)], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    return out[0] == "True", int(out[1])


def test_freed_tape_is_reused_without_faults():
    kept, faults = _child(12)
    assert kept
    assert faults <= 12 * PAGES_PER_MIB // 100


def test_freed_heap_beyond_trim_threshold_is_returned():
    # at most 16 MiB of freed heap stays mapped, so a 24 MiB tape faults on the rest again
    kept, faults = _child(24)
    assert kept
    assert faults >= (24 - 16) * PAGES_PER_MIB - 24 * PAGES_PER_MIB // 100


@pytest.mark.parametrize(
    "env", [{"MALLOC_TRIM_THRESHOLD_": "131072"}, {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}]
)
def test_policy_set_in_environment_is_left_alone(env):
    kept, _ = _child(1, **env)
    assert not kept
