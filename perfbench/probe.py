"""Reference probe and machine description.

The probe is a fixed numpy + Python loop with no `convgen` code in it,
shaped like one step of a dilated stack: 20 layers, each rotating a small
deque, checking two tap shapes, building a tap list, running scheduling
bookkeeping over four stage objects, and computing
tanh(b + W0 @ old + W1 @ new) over 32 channels.  The benchmark times it in
short blocks between its timed workload blocks and divides step latencies
by it.  On a shared 2-core KVM guest (Intel Xeon, numpy 2.4 with OpenBLAS)
the cores ran at two speeds about 1.9x apart, switching every few seconds.
The probe slows with the engines, so the ratio moved by 1-5% (dilated,
image2d) or ~14% (idle strided steps) where raw times moved by up to 1.9x.
Interpreter-level work slowed less than numpy calls there, which is why
the probe carries Python bookkeeping and not matmuls alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import sys
import time
from collections import deque

import numpy as np

PROBE_LAYERS = 20
PROBE_WIDTH = 32
PROBE_REPS = 12


def _check(v: np.ndarray, width: int) -> None:
    if v.ndim not in (1, 2) or v.shape[0] != width:
        raise ValueError(f"probe tap shape {v.shape}")


class _Stage:
    __slots__ = ("count", "stride", "recent")

    def __init__(self):
        self.count = 0
        self.stride = 2
        self.recent = deque([None], maxlen=1)

    def feed(self, item) -> list:
        out = []
        if self.count % self.stride == 0 and len(out) > 1:
            out.append(item)
        self.recent.append(item)
        self.count += 1
        return out


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = 0.5 / np.sqrt(2 * PROBE_WIDTH)
        self.layers = [
            (rng.uniform(-a, a, (PROBE_WIDTH, PROBE_WIDTH)).astype(np.float32),
             rng.uniform(-a, a, (PROBE_WIDTH, PROBE_WIDTH)).astype(np.float32),
             rng.uniform(-a, a, PROBE_WIDTH).astype(np.float32),
             deque([np.zeros(PROBE_WIDTH, dtype=np.float32)] * 2))
            for _ in range(PROBE_LAYERS)
        ]
        self.x = rng.uniform(-1, 1, PROBE_WIDTH).astype(np.float32)
        self.stages = [_Stage() for _ in range(4)]

    def once(self) -> np.ndarray:
        h = self.x
        for w0, w1, b, fifo in self.layers:
            old = fifo.popleft()
            fifo.append(h)
            taps = [old, h]
            for v in taps:
                _check(v, PROBE_WIDTH)
            for stage in self.stages:
                stage.feed(h)
            acc = b + w0 @ taps[0]
            acc += w1 @ taps[1]
            h = np.tanh(acc)
        return h

    def block(self) -> float:
        """Median seconds of one probe pass over a short block of passes."""
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }
