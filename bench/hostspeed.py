"""Host-speed sampling, used to steady the timings of a timed run.

On a shared host the speed of unchanged code drifts by up to 2x, in phases
that last from fractions of a second to minutes (see README.md, Steadiness).
While a timed run goes on, a background thread times a short probe job every
INTERVAL seconds, on the one CPU the process is pinned to. An op of wall time
`wall` is then reported as

    steadied = (wall - probe time inside the op) / slowdown

where `slowdown` is the geometric mean, over the probe kinds, of the mean
probe time of that kind during the op (or, for an op shorter than WINDOW, in
the WINDOW around its middle) divided by the kind's REFERENCE time. A
steadied time is thus the op's wall time at the host speed REFERENCE stands
for.

The probe jobs are benchmark code only: a change to the program under test
does not change them, so a program that gets faster or slower shows in full.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

INTERVAL = 0.025
WINDOW = 0.2

_FLOATS = [0.001 * i for i in range(40)]
_VEC = np.linspace(0.1, 1.0, 20)
_MAT = np.full((20, 20), 0.05)


def _arith() -> float:
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 7.0
    return acc


def _big_ints() -> int:
    z, mask = 1, (1 << 64) - 1
    for _ in range(400):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & mask
        z ^= z >> 33
    return z


def _small_arrays() -> float:
    v = _VEC.copy()
    for _ in range(150):
        v = (_MAT + v[:, None]).max(axis=0)
        v -= v.max()
    return float(v[0])


def _text() -> int:
    rows = [" ".join(f"{x:.6f}" for x in _FLOATS) for _ in range(20)]
    return sum(len(r.split()) for r in rows)


# The kinds of work the pipeline does most, each well under a millisecond:
# interpreted float arithmetic, 64-bit integer mixing, max-plus steps on
# small arrays, and formatting and splitting text.
PROBES = (_arith, _big_ints, _small_arrays, _text)
# Seconds each probe takes when the host is at its fastest: about the lowest
# per-run minimum seen on the 2-vCPU host the benchmark was sized on. Fixed,
# because the fastest speed a run reaches itself depends on the host's phase.
REFERENCE = (0.25e-3, 0.10e-3, 0.67e-3, 0.25e-3)


class Sampler:
    """Times the probe kinds in turn on a background thread while running."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float, float]] = []  # (kind, start, end)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._affinity: set[int] = set()

    def __enter__(self) -> Sampler:
        # One CPU for both threads and for child processes, so the probes
        # time the CPU the ops run on.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _loop(self) -> None:
        kind = 0
        while not self._stop.wait(INTERVAL):
            start = time.perf_counter()
            PROBES[kind]()
            self.samples.append((kind, start, time.perf_counter()))
            kind = (kind + 1) % len(PROBES)

    def fastest(self) -> list[float]:
        """The shortest time of each probe kind in this run."""
        best = [math.inf] * len(PROBES)
        for kind, start, end in self.samples:
            best[kind] = min(best[kind], end - start)
        return best

    def steadied(self, ops: list[tuple[float, float]]) -> list[float]:
        """Steadied seconds of each (start, end) op; call after the sampler stopped."""
        starts = [s for _, s, _ in self.samples]
        out = []
        for start, end in ops:
            mid, half = (start + end) / 2, max(end - start, WINDOW) / 2
            by_kind: dict[int, list[float]] = defaultdict(list)
            inside = 0.0
            lo = bisect.bisect_left(starts, mid - half)
            hi = bisect.bisect_right(starts, mid + half)
            for kind, s, e in self.samples[lo:hi]:
                by_kind[kind].append(e - s)
                if start <= s and e <= end:
                    inside += e - s
            if not by_kind:
                raise RuntimeError(f"no host-speed probe within {WINDOW} s of an op")
            slowdown = math.exp(statistics.fmean(
                math.log(statistics.fmean(d) / REFERENCE[k]) for k, d in by_kind.items()))
            out.append((end - start - inside) / slowdown)
        return out
