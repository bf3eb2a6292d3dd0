"""A fixed kernel that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by up to 1.7x in
phases of seconds to minutes. The benchmark runs this kernel between
its timed steps and divides its host figures by the kernel's rate, so
they follow the program's speed much more than the host's (see
README.md). The kernel uses no ``repro`` code: a change to the program
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's rate, in iterations per second, that converts probe
#: iterations back to seconds: about its median on the 2-vCPU VM the
#: benchmark was written on.
REFERENCE_PER_S = 2500.0

_SORT = np.random.default_rng(0).random(20_000)
_DICT = {i: i for i in range(1000)}


def host_probe(seconds: float = 0.025) -> float:
    """Iterations per second of the kernel over about ``seconds``."""
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < seconds:
        total = 0
        for i in range(2000):
            total += _DICT[i % 1000]
        np.sort(_SORT)
        n += 1
    return n / (time.perf_counter() - start)
