"""Shared fixtures and panel builders for the test suite."""

from __future__ import annotations

import math
import random
from datetime import date, timedelta
from decimal import ROUND_CEILING, ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal

from ratefix import DistanceMatrix, PanelWindow, Tenor

# Ten-quote reference panel used throughout; quarter trim retains the middle
# six and lands exactly on raw mean 3.041700.
TEN_BANK_QUOTES = tuple(
    Decimal(q)
    for q in (
        "3.0026 3.0106 3.0235 3.0312 3.0358 3.0434 3.0562 3.0601 3.0658 3.0961".split()
    )
)

# Same panel with the ninth quote (3.0658) replaced by a 3.0000 lowball.
LOWBALL_INDEX = 8
LOWBALL_QUOTES = tuple(
    Decimal("3.0000") if i == LOWBALL_INDEX else q
    for i, q in enumerate(TEN_BANK_QUOTES)
)


# ambient decimal contexts that no library result may depend on: short and
# oddly rounding ones, and one that traps nothing, so malformed text parses to NaN
HOSTILE_CONTEXTS = (*(Context(prec=prec, rounding=rounding) for prec in (1, 4, 9, 16)
                      for rounding in (ROUND_DOWN, ROUND_CEILING, ROUND_HALF_EVEN)),
                    Context(traps=[]))


def window_from_rows(rows, start=date(2008, 1, 1), tenor=Tenor.ONE_MONTH, label="TEST"):
    """Build a complete PanelWindow from {bank: [rates...]} on consecutive days."""
    banks = tuple(sorted(rows))
    n_dates = len(next(iter(rows.values())))
    dates = tuple(start + timedelta(days=i) for i in range(n_dates))
    rates = tuple(tuple(Decimal(str(v)) for v in rows[bank]) for bank in banks)
    return PanelWindow(banks=banks, dates=dates, rates=rates, tenor=tenor, label=label)


def random_quotes(rng: random.Random, n: int, decimals: int = 4, lo: int = 2, hi: int = 4):
    """n random Decimal quotes in [lo, hi] with the given fractional digits."""
    scale = 10**decimals
    return [
        Decimal(rng.randrange(lo * scale, hi * scale + 1)).scaleb(-decimals)
        for _ in range(n)
    ]


def exact_decimal(sign: int, coefficient: int, exponent: int) -> Decimal:
    """A Decimal built from its digits, so no context rounds it."""
    return Decimal((sign, tuple(map(int, str(coefficient))), exponent))


def random_points(rng: random.Random, n: int, dim: int):
    return [tuple(rng.uniform(0.0, 10.0) for _ in range(dim)) for _ in range(n)]


def points_to_matrix(points):
    """Pairwise Euclidean DistanceMatrix over a small point cloud."""
    labels = tuple(f"L{i}" for i in range(len(points)))
    square = [
        [math.dist(a, b) for b in points]
        for a in points
    ]
    return DistanceMatrix.from_square(labels, square)
