"""Reference kernels that measure how fast the machine is right now.

The benchmark shares its machine, whose speed drifts by a quarter or more
over minutes as neighbours load it. Units of a reference kernel run between
the library calls of every pass, and each timing is rescaled by the units'
duration to what it would be on a machine where a unit takes ``NOMINAL_S``.
Each phase is calibrated by the kernel whose cost profile matches its own:

* ``tape`` imitates the training and inference paths: interpreter overhead
  around many small numpy calls, and a tape walked in reverse;
* ``stream`` imitates the metric analysis: numpy reductions streaming over
  an array of 2^18 samples, as ``allan_deviation`` does;
* ``text`` imitates the CSV reads and writes: floats formatted with
  ``repr``, joined, split and parsed back, ``TEXT_ROWS`` rows a unit.

The kernels run in a helper process of their own, which never imports
gyromoe and is started before the benchmark imports it. So nothing the
program does to its own process (garbage-collector thresholds, allocator
or numpy state, a thread that holds the GIL) can move the yardstick and be
divided out of the result. The caller asks for one unit at a time and
waits for it, as it waits for a library call; the helper times the unit
itself, so the round trip is not counted.

Run this file as a script to start such a helper: it reads one kernel name
per line from standard input and answers each with the unit's wall time in
seconds, until standard input closes.
"""

from __future__ import annotations

import subprocess
import sys
import time

# what one unit of each kernel takes on this benchmark's nominal machine
NOMINAL_S = {"tape": 0.025, "stream": 0.0125, "text": 0.0125}
TEXT_ROWS = 2**12  # rows formatted and parsed back by one ``text`` unit


class Reference:
    """Client of a reference helper process; use it as a context manager,
    which stops the helper and waits for it to end."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def unit_factor(self, kind: str = "tape") -> tuple:
        """Run one unit of ``kind``; returns (its wall time, that time over nominal)."""
        self._proc.stdin.write(kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with code {self._proc.wait()}")
        dt = float(line)
        return dt, dt / NOMINAL_S[kind]

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve():
    import numpy as np

    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(16, 64))
    w = 0.1 * rng.normal(size=(64, 64))
    gain, bias = np.ones(64), np.zeros(64)
    long = rng.normal(size=2**18)

    class Node:
        __slots__ = ("data", "inputs")

        def __init__(self, data, inputs):
            if not np.isfinite(data).all():
                raise ValueError("reference kernel produced a non-finite value")
            self.data = data
            self.inputs = inputs

    def tape_unit():
        tape = []
        x = x0
        for _ in range(400):
            y = x @ w
            tape.append(Node(y, (x,)))
            mean, var = y.mean(axis=1, keepdims=True), y.var(axis=1, keepdims=True)
            y = (y - mean) / np.sqrt(var + 1e-5) * gain + bias
            tape.append(Node(y, (mean, var)))
            x = np.tanh(y)
            tape.append(Node(x, (y,)))
        return {id(node): float(node.data.sum()) for node in reversed(tape)}

    def stream_unit():
        total = 0.0
        for m in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            k = long.size // m
            d = np.diff(long[: k * m].reshape(k, m).mean(axis=1))
            total += float((d * d).sum())
        quiet = np.abs(long) < 0.5
        total += float(long[quiet].sum())
        return total + float(np.correlate(long[: 2**16], np.full(5, 0.2), mode="valid").sum())

    def text_unit():
        lines = [f"{0.01 * i!r},{v!r}" for i, v in enumerate(long[:TEXT_ROWS].tolist())]
        parsed = [tuple(map(float, line.split(","))) for line in "\n".join(lines).splitlines()]
        if parsed[-1][1] != long[TEXT_ROWS - 1]:
            raise ValueError("reference kernel lost a value")
        return len(parsed)

    kernels = {"tape": tape_unit, "stream": stream_unit, "text": text_unit}
    for unit in kernels.values():  # warm up before the first request
        unit()
    for line in sys.stdin:
        unit = kernels[line.strip()]
        t0 = time.perf_counter()
        unit()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
