"""How fast the host runs this process right now, from the standard
library only, so that it can run before numpy is imported.

Other load on the host changes the speed of a process by up to 1.7x for
tens of seconds at a time.  The benchmark measures the current speed
between requests with a fixed pure-Python loop and reports every latency
at one reference speed: latency * REFERENCE_S / speed.
"""

from __future__ import annotations

import time

# The loop's time at the reference speed: the fastest state observed on a
# 2-vCPU x86-64 host with Python 3.11.  Any constant works; it only sets
# the scale the reported times are given at.
REFERENCE_S = 4.0e-4


def _loop() -> float:
    t0 = time.perf_counter()
    v = [0.5] * 16
    s = 0.0
    for i in range(400):
        for j in range(16):
            v[j] = v[j] * 0.999 + 0.001 * j
        s += v[i % 16]
    return time.perf_counter() - t0


def speed() -> float:
    """Seconds the loop takes now: the fastest of three back-to-back runs,
    so that one interrupt does not read as a slow host."""
    return min(_loop(), _loop(), _loop())
