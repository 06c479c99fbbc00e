"""Synthetic submission panels with planted manipulation.

The honest panel is a common base curve plus per-bank Gaussian noise.  Bank
``b``'s noise stream is an independent generator seeded by ``(seed, b)`` and
day ``t`` consumes the ``t``-th draw, so every honest cell is a pure
function of (seed, bank, day).  Strategies draw no randomness at all; they
overwrite targeted cells in declaration order after the honest panel is
fixed, which is what makes with/without-manipulation comparisons exact.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date as Date, timedelta
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import numpy as np

from .errors import DataError
from .fixing import FixingConfig, FixingResult, compute_fixing, _as_decimal
from .panel import RATE_LIMIT, RATE_QUANTUM, Submission, Tenor, bounded_rate

TRUTH_COLUMNS = ("date", "bank", "manipulated")


class InvalidStrategyTargetError(DataError):
    """A strategy names an unknown bank or day, or shifts a rate past RATE_LIMIT."""


@dataclass(frozen=True)
class BaseCurve:
    """Common honest rate level over time.

    Kinds: ``constant`` (level), ``linear`` (level + slope per day), and
    ``shock`` (level, plus delta from ``day`` onward).  Day indices are
    1-based.  The string forms are ``constant:3.0``,
    ``linear:3.0:0.001`` and ``shock:3.0:-0.5:120``.
    """

    kind: str
    level: float
    slope: float = 0.0
    delta: float = 0.0
    day: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear", "shock"):
            raise ValueError(f"unknown base curve kind {self.kind!r}")
        # accept Decimal or int levels without poisoning the float noise path
        for field_name in ("level", "slope", "delta"):
            object.__setattr__(self, field_name, float(getattr(self, field_name)))

    def value(self, t: int) -> float:
        if self.kind == "linear":
            return self.level + self.slope * (t - 1)
        if self.kind == "shock":
            return self.level + (self.delta if t >= self.day else 0.0)
        return self.level

    def spec(self) -> str:
        if self.kind == "linear":
            return f"linear:{self.level!r}:{self.slope!r}"
        if self.kind == "shock":
            return f"shock:{self.level!r}:{self.delta!r}:{self.day}"
        return f"constant:{self.level!r}"

    @classmethod
    def parse(cls, text: str) -> "BaseCurve":
        parts = text.strip().split(":")
        try:
            if parts[0] == "constant" and len(parts) == 2:
                return cls.constant(float(parts[1]))
            if parts[0] == "linear" and len(parts) == 3:
                return cls.linear(float(parts[1]), float(parts[2]))
            if parts[0] == "shock" and len(parts) == 4:
                return cls.shock(float(parts[1]), float(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise ValueError(f"bad base curve spec {text!r}: {exc}") from None
        raise ValueError(f"bad base curve spec {text!r}")

    @classmethod
    def constant(cls, level: float) -> "BaseCurve":
        return cls("constant", level)

    @classmethod
    def linear(cls, level: float, slope: float) -> "BaseCurve":
        return cls("linear", level, slope=slope)

    @classmethod
    def shock(cls, level: float, delta: float, day: int) -> "BaseCurve":
        return cls("shock", level, delta=delta, day=day)


@dataclass(frozen=True)
class SingleOffset:
    """One bank shifts its honest quote by a fixed offset on the given days."""

    bank: str
    offset: Decimal
    days: tuple[int, int] | None = None


@dataclass(frozen=True)
class SingleFixed:
    """One bank pins its quote to a fixed rate on the given days."""

    bank: str
    rate: Decimal
    days: tuple[int, int] | None = None


@dataclass(frozen=True)
class CollusiveQuote:
    """Several banks pin the same fixed rate on the given days."""

    banks: tuple[str, ...]
    rate: Decimal
    days: tuple[int, int] | None = None


Strategy = SingleOffset | SingleFixed | CollusiveQuote


def _parse_days(text: str) -> tuple[int, int]:
    first, sep, second = text.partition("-")
    lo = int(first)
    hi = int(second) if sep else lo
    return (lo, hi)


def parse_strategy(text: str) -> Strategy:
    """Parse the CLI strategy mini-grammar.

    ``single-offset:BANK:OFFSET[:A-B]``, ``single-fixed:BANK:RATE[:A-B]``, or
    ``collusive:B1+B2+..:RATE[:A-B]``.  The day range is 1-based inclusive
    and defaults to every day.  Bank references may be full labels or bare
    indices (``9`` matches the ninth generated bank).
    """
    parts = text.strip().split(":")
    try:
        kind = parts[0]
        if kind == "single-offset" and len(parts) in (3, 4):
            days = _parse_days(parts[3]) if len(parts) == 4 else None
            return SingleOffset(parts[1], bounded_rate(Decimal(parts[2])), days)
        if kind == "single-fixed" and len(parts) in (3, 4):
            days = _parse_days(parts[3]) if len(parts) == 4 else None
            return SingleFixed(parts[1], bounded_rate(Decimal(parts[2])), days)
        if kind == "collusive" and len(parts) in (3, 4):
            banks = tuple(b for b in parts[1].split("+") if b)
            if not banks:
                raise ValueError("empty bank list")
            days = _parse_days(parts[3]) if len(parts) == 4 else None
            return CollusiveQuote(banks, bounded_rate(Decimal(parts[2])), days)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad strategy spec {text!r}: {exc}") from None
    raise ValueError(f"bad strategy spec {text!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_banks: int = 12
    n_days: int = 250
    base_curve: BaseCurve = BaseCurve.constant(3.0)
    noise_sigma: float = 0.01
    seed: int = 0
    strategies: tuple[Strategy, ...] = ()
    start_date: Date = Date(2008, 1, 1)
    tenor: Tenor = Tenor.ONE_MONTH
    bank_prefix: str = "BANK"

    def __post_init__(self) -> None:
        if self.n_banks < 3:
            raise ValueError("a panel needs at least 3 banks")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def dates(self) -> tuple[Date, ...]:
        return tuple(self.start_date + timedelta(days=t) for t in range(self.n_days))


def bank_labels(config: ScenarioConfig) -> tuple[str, ...]:
    width = max(2, len(str(config.n_banks)))
    return tuple(f"{config.bank_prefix}{i:0{width}d}" for i in range(1, config.n_banks + 1))


def _quantize(value: float) -> Decimal:
    try:
        rate = Decimal(repr(float(value))).quantize(RATE_QUANTUM, rounding=ROUND_HALF_UP)
        if rate < 0:
            rate = Decimal(0).quantize(RATE_QUANTUM)
        if rate < RATE_LIMIT:
            return rate
    except InvalidOperation:
        pass
    raise DataError(
        f"simulated rate {value} cannot be quoted to six decimals below {RATE_LIMIT}; "
        "check the base curve and the noise sigma"
    )


def _resolve_bank(ref: str, labels: tuple[str, ...], config: ScenarioConfig) -> str:
    if ref in labels:
        return ref
    # accept "9" or an unpadded "BANK9" for the ninth bank
    digits = ref[len(config.bank_prefix) :] if ref.startswith(config.bank_prefix) else ref
    if digits.isdigit() and 1 <= int(digits) <= len(labels):
        return labels[int(digits) - 1]
    raise InvalidStrategyTargetError(f"strategy targets unknown bank {ref!r}")


def _resolve_days(days: tuple[int, int] | None, n_days: int) -> range:
    if days is None:
        return range(1, n_days + 1)
    lo, hi = days
    if not 1 <= lo <= hi <= n_days:
        raise InvalidStrategyTargetError(
            f"strategy day range {lo}-{hi} outside 1..{n_days}"
        )
    return range(lo, hi + 1)


def _positive_rate(value) -> Decimal:
    rate = _as_decimal(value)
    if not (rate.is_finite() and 0 <= rate < RATE_LIMIT):
        raise InvalidStrategyTargetError(f"strategy rate {value} must be in [0, {RATE_LIMIT})")
    return bounded_rate(rate.quantize(RATE_QUANTUM, rounding=ROUND_HALF_UP))


def generate(config: ScenarioConfig) -> tuple[set[Submission], list[tuple[str, Date]]]:
    """Draw the honest panel, then apply strategies in declaration order.

    Returns the submissions plus the truth mask: the (bank, date) cells any
    strategy touched, sorted by date then bank.  Rates are clamped at zero
    and quantized to six fractional digits.
    """
    labels = bank_labels(config)
    dates = config.dates
    matrix: dict[tuple[str, Date], Decimal] = {}
    for b, label in enumerate(labels):
        rng = np.random.default_rng([config.seed, b])
        noise = rng.normal(0.0, 1.0, config.n_days)
        for t in range(config.n_days):
            honest = config.base_curve.value(t + 1) + config.noise_sigma * noise[t]
            matrix[(label, dates[t])] = _quantize(honest)

    touched: set[tuple[str, Date]] = set()
    for strategy in config.strategies:
        span = _resolve_days(strategy.days, config.n_days)
        if isinstance(strategy, SingleOffset):
            bank = _resolve_bank(strategy.bank, labels, config)
            offset = bounded_rate(_as_decimal(strategy.offset))
            for t in span:
                cell = (bank, dates[t - 1])
                shifted = matrix[cell] + offset
                if shifted < 0:
                    shifted = Decimal(0)
                shifted = shifted.quantize(RATE_QUANTUM, rounding=ROUND_HALF_UP)
                if shifted >= RATE_LIMIT:
                    raise InvalidStrategyTargetError(
                        f"single-offset strategy on bank {bank}, day {t} ({cell[1]}): "
                        f"shifted rate {shifted} is not below {RATE_LIMIT}"
                    )
                matrix[cell] = shifted
                touched.add(cell)
        elif isinstance(strategy, SingleFixed):
            bank = _resolve_bank(strategy.bank, labels, config)
            rate = _positive_rate(strategy.rate)
            for t in span:
                cell = (bank, dates[t - 1])
                matrix[cell] = rate
                touched.add(cell)
        elif isinstance(strategy, CollusiveQuote):
            banks = [_resolve_bank(b, labels, config) for b in strategy.banks]
            rate = _positive_rate(strategy.rate)
            for bank in banks:
                for t in span:
                    cell = (bank, dates[t - 1])
                    matrix[cell] = rate
                    touched.add(cell)
        else:
            raise TypeError(f"unknown strategy {strategy!r}")

    submissions = {
        Submission(bank, day, config.tenor, rate) for (bank, day), rate in matrix.items()
    }
    truth = sorted(touched, key=lambda cell: (cell[1], cell[0]))
    return submissions, truth


@dataclass(frozen=True)
class FixingSeries:
    """Per-date fixing results; failures are collected, not raised."""

    results: tuple[tuple[Date, FixingResult], ...]
    errors: tuple[tuple[Date, str], ...]


def fixing_series(
    submissions, tenor: Tenor, config: FixingConfig | None = None
) -> FixingSeries:
    """One fixing per distinct date, quotes taken in bank-label order."""
    by_date: dict[Date, list[tuple[str, Decimal]]] = {}
    for sub in submissions:
        if sub.tenor is tenor:
            by_date.setdefault(sub.date, []).append((sub.bank, sub.rate))
    results = []
    errors = []
    for day in sorted(by_date):
        quotes = [rate for _, rate in sorted(by_date[day])]
        try:
            results.append((day, compute_fixing(quotes, config)))
        except DataError as exc:
            errors.append((day, str(exc)))
    return FixingSeries(tuple(results), tuple(errors))


def truth_to_csv_text(truth, all_cells) -> str:
    """Full truth mask CSV: one row per (date, bank) cell, flag 0 or 1."""
    flagged = set(truth)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRUTH_COLUMNS)
    for bank, day in sorted(all_cells, key=lambda cell: (cell[1], cell[0])):
        writer.writerow([day.isoformat(), bank, 1 if (bank, day) in flagged else 0])
    return buf.getvalue()
