"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same operation can take 1.5x longer for
minutes at a time, because other guests take the host's cores.  The
benchmark times this kernel before every set-up and every operation, and
scales its end-to-end times by ``NOMINAL_S / mean(kernel seconds)``: an
operation that took 1.3 s while the kernel ran 1.3x slower than nominal is
reported as 1.0 normalized seconds.  The kernel does the kinds of work the
workloads do (splitting CSV lines, parsing decimals, grouping in dicts,
pure-Python float loops, formatting text and numpy array work) and uses
nothing from ``ratefix``, so no change to the program can move it.
"""

from __future__ import annotations

import math
from decimal import Decimal
from time import perf_counter

import numpy as np

# About the kernel's fastest time on a 2-vCPU x86_64 VM (Python 3.11,
# numpy 2.4); only the ratio of measured to nominal matters.
NOMINAL_S = 0.08
REPEATS = 3

_LINES = [
    f"2010-01-{day % 28 + 1:02d},B{bank:03d},1M,3.{(bank * 7919 + day * 104729) % 1_000_000:06d}"
    for day in range(120)
    for bank in range(1, 101)
]
_POINTS = np.random.default_rng(12345).normal(size=(100, 24))


def kernel() -> int:
    """Fixed work; returns a checksum so nothing is optimized away."""
    table: dict[str, list[Decimal]] = {}
    for line in _LINES:
        day, bank, _, rate = line.split(",")
        table.setdefault(bank, []).append(Decimal(rate))
    means = {bank: sum(rates) / len(rates) for bank, rates in table.items()}
    text = "".join(f"{bank},{mean:.6f}\n" for bank, mean in sorted(means.items()))

    points = _POINTS.tolist()
    n = len(points)
    dist = {(i, j): math.dist(points[i], points[j]) for i in range(n) for j in range(i + 1, n)}
    alive = set(range(n))
    while len(alive) > 1:
        (i, j), _ = min(((k, v) for k, v in dist.items() if k[0] in alive and k[1] in alive),
                        key=lambda kv: kv[1])
        alive.discard(j)

    arr = _POINTS - _POINTS.mean(axis=0)
    gram = arr @ arr.T
    order = np.argsort(gram, axis=None, kind="stable")
    return len(text) + int(order[-1]) + len(alive)


def measure() -> float:
    """Seconds one run of the kernel takes now, averaged over ``REPEATS`` runs.

    One 0.1 s run varies by about 20% with bursts of lost time; averaging
    three keeps the run's mean within a few percent at about twenty samples.
    """
    start = perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (perf_counter() - start) / REPEATS
