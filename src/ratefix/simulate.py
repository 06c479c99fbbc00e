"""Synthetic submission panels with planted manipulation.

The honest panel is a common base curve plus per-bank Gaussian noise.  Bank
``b``'s noise stream is an independent generator seeded by ``(seed, b)`` and
day ``t`` consumes the ``t``-th draw, so every honest cell is a pure
function of (seed, bank, day).  Strategies draw no randomness at all; they
overwrite targeted cells in declaration order after the honest panel is
fixed, which is what makes with/without-manipulation comparisons exact.

The core, ``simulate_panel``, is an int64 banks x days matrix of micro-units
(10**-6 percent): honest cells are rounded in numpy, the few near a half-micro
tie or out of range and the strategies' cells as Decimals in ``CONTEXT``, not
the caller's context.  Both CSVs and ``generate``'s Submissions come from it.
Each spec grammar is one kind table; spec rates parse as ``fix --quotes`` does.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from datetime import date as Date, timedelta
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from itertools import product
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .fixing import CONTEXT, FixingConfig, FixingResult, compute_fixing, _as_decimal
from .panel import (CSV_COLUMNS, RATE_DECIMALS, RATE_LIMIT, RATE_QUANTUM,
                    DuplicateSubmissionError, Submission, Tenor, bounded_rate, rows_to_csv_text)

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
    # each kind's numbers in spec order, with their types: float, not Decimal, so
    # an inf level is refused when the panel is simulated, not when it is parsed
    _NUMBERS = {"constant": {"level": float}, "linear": {"level": float, "slope": float},
                "shock": {"level": float, "delta": float, "day": int}}

    def __post_init__(self) -> None:
        if self.kind not in self._NUMBERS:
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
        # str of a float is its repr, so the spec parses back to the same curve
        return ":".join(str(getattr(self, name)) for name in ("kind", *self._NUMBERS[self.kind]))

    @classmethod
    def parse(cls, text: str) -> "BaseCurve":
        kind, *numbers = text.strip().split(":")
        casts = cls._NUMBERS.get(kind, {})
        if not casts or len(numbers) != len(casts):
            raise ValueError(f"bad base curve spec {text!r}")
        try:
            return cls(kind, **{name: cast(n) for (name, cast), n in zip(casts.items(), numbers)})
        except ValueError as exc:
            raise ValueError(f"bad base curve spec {text!r}: {exc}") from None

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
# each strategy kind's record type, and how it reads the spec's bank field
_STRATEGY_KINDS = {"single-offset": (SingleOffset, str), "single-fixed": (SingleFixed, str),
                   "collusive": (CollusiveQuote, lambda text: tuple(filter(None, text.split("+"))))}


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
    kind, *parts = text.strip().split(":")
    if kind not in _STRATEGY_KINDS or len(parts) not in (2, 3):
        raise ValueError(f"bad strategy spec {text!r}")
    record, read_banks = _STRATEGY_KINDS[kind]
    try:
        banks = read_banks(parts[0])
        if banks == ():  # a bank list that names no bank
            raise ValueError("empty bank list")
        days = _parse_days(parts[2]) if len(parts) == 3 else None
        return record(banks, bounded_rate(_as_decimal(parts[1])), days)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad strategy spec {text!r}: {exc}") from None


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
        if self.n_days > (Date.max - self.start_date).days + 1:
            raise ValueError(f"{self.n_days} days from start date {self.start_date} "
                             f"run past {Date.max}")

    @property
    def dates(self) -> tuple[Date, ...]:
        return tuple(self.start_date + timedelta(days=t) for t in range(self.n_days))


def bank_labels(config: ScenarioConfig) -> tuple[str, ...]:
    width = max(2, len(str(config.n_banks)))
    return tuple(f"{config.bank_prefix}{i:0{width}d}" for i in range(1, config.n_banks + 1))


def _quantize(value: float) -> Decimal:
    try:
        rate = Decimal(repr(float(value))).quantize(RATE_QUANTUM, ROUND_HALF_UP, CONTEXT)
        if rate.is_signed():  # a negative rate, or the -0 a tiny one rounds to
            rate = Decimal(0).quantize(RATE_QUANTUM, context=CONTEXT)
        if rate < RATE_LIMIT:
            return rate
    except InvalidOperation:
        pass
    raise DataError(
        f"simulated rate {value} cannot be quoted to six decimals below {RATE_LIMIT}; "
        "check the base curve and the noise sigma"
    )


def _micro_units(values: np.ndarray) -> np.ndarray:
    """Each value as ``_quantize`` rounds it, in int64 micro-units.

    ``floor(x * 1e6 + 0.5)`` and ``repr(x)`` miss ``x * 10**6`` by about an ulp
    at most, so cells within four ulps of a half-micro tie, and cells not in
    (0, RATE_LIMIT), go through ``_quantize``: in row-major order, so the first
    bad cell names the error.
    """
    with np.errstate(all="ignore"):
        scaled = values * 1e6
        micros = np.floor(scaled + 0.5)
        odd = ~((values > 0) & (micros < 1e15))
        odd |= np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(scaled)
    micros = np.where(odd, 0, micros).astype(np.int64)
    for i in np.flatnonzero(odd).tolist():
        micros.flat[i] = int(_quantize(values.flat[i]).scaleb(RATE_DECIMALS, CONTEXT))
    return micros


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
        raise InvalidStrategyTargetError(
            f"strategy rate {CONTEXT.to_sci_string(rate)} must be in [0, {RATE_LIMIT})")
    return bounded_rate(rate.quantize(RATE_QUANTUM, ROUND_HALF_UP, CONTEXT))


class SimulatedPanel(NamedTuple):
    """``micros[b, t]`` is bank ``banks[b]``'s rate on ``dates[t]`` in int64
    micro-units; ``touched[b, t]`` marks the cells a strategy set."""

    banks: tuple[str, ...]
    dates: tuple[Date, ...]
    micros: np.ndarray
    touched: np.ndarray

    def csv_text(self, tenor: Tenor) -> str:
        """The panel CSV: the bytes ``submissions_to_csv_text`` writes for these cells."""
        return self._by_date(CSV_COLUMNS, (tenor.code,), _rate_bytes, self.micros)

    def truth_csv_text(self) -> str:
        """The truth CSV: the bytes ``truth_to_csv_text`` writes for these cells."""
        flags = np.frombuffer(b"0\n1\n", np.uint8).reshape(2, 2)  # a cell's bytes, by flag
        return self._by_date(TRUTH_COLUMNS, (), flags.__getitem__, self.touched.view(np.uint8))

    def _by_date(self, header, suffix: tuple[str, ...], render, cells: np.ndarray) -> str:
        """``header``, then ``date,bank,*suffix,`` and each cell's bytes, by date
        then bank.  ``render`` maps banks x dates ``cells`` to banks x dates x
        bytes.  A block of dates at a time is one uint8 row per line, padded
        with 0xFF, a byte UTF-8 never uses, which is deleted before the decode."""
        spelled = []  # each bank's fields as csv.writer spells them, one write per row
        csv.writer(SimpleNamespace(write=spelled.append), lineterminator="\n").writerows(
            (bank, *suffix, "") for bank in self.banks)
        banks = _padded([row[:-1] for row in spelled])
        dates = _padded([day.isoformat() + "," for day in self.dates])
        parts = [",".join(header) + "\n"]
        step = max(1, 2**13 // len(self.banks))
        for lo in range(0, len(self.dates), step):
            tail = render(cells[:, lo:lo + step]).transpose(1, 0, 2)
            date, bank = (np.broadcast_to(head, tail.shape[:2] + head.shape[-1:])
                          for head in (dates[lo:lo + step, None], banks))
            lines = np.concatenate([date, bank, tail], axis=-1)
            parts.append(lines.tobytes().translate(None, b"\xff").decode())
        return "".join(parts)


def _padded(texts) -> np.ndarray:
    """The UTF-8 bytes of ``texts`` as the rows of a uint8 matrix, 0xFF-padded."""
    blobs = [text.encode() for text in texts]
    width = max(map(len, blobs), default=0)
    return np.frombuffer(b"".join(blob.ljust(width, b"\xff") for blob in blobs),
                         np.uint8).reshape(len(blobs), width)


def _rate_bytes(micros: np.ndarray) -> np.ndarray:
    """``whole.ffffff`` and a newline per cell (0 <= micros < 10**15): five
    words of three digits and a pad byte, the whole part without leading zeros."""
    words = np.full((2001, 4), 0xFF, np.uint8)  # k, then k without leading zeros, then all pad
    words[:2000, :3] = np.arange(2000)[:, None] % 1000 // [100, 10, 1] % 10 + ord("0")
    words[1000:1100, 0] = words[1000:1010, 1] = 0xFF
    whole, frac = np.divmod(micros, 10**6)
    # a whole-part group with no digit above it takes the unpadded word, or the
    # all-pad word when it is zero too, save the units group
    small, tiny = 1000 * (whole < 10**6), 1000 * (whole < 1000)
    groups = np.stack([whole // 10**6 + 1000 + small, whole // 1000 % 1000 + small + tiny,
                       whole % 1000 + tiny, frac // 1000, frac % 1000], axis=-1)
    out = words.view(np.uint32)[groups, 0].view(np.uint8)
    out[..., 11], out[..., 19] = ord("."), ord("\n")  # the units' and the last word's pads
    return out


def simulate_panel(config: ScenarioConfig) -> SimulatedPanel:
    """Draw the honest panel, then apply strategies in declaration order.

    Rates are clamped at zero and rounded half-up to six fractional digits.
    """
    labels = bank_labels(config)
    base = np.array([config.base_curve.value(t) for t in range(1, config.n_days + 1)])
    noise = np.array([np.random.default_rng([config.seed, b]).normal(0.0, 1.0, config.n_days)
                      for b in range(config.n_banks)])
    with np.errstate(all="ignore"):  # an overflow is refused as a cell, not warned about
        micros = _micro_units(base + config.noise_sigma * noise)

    touched = np.zeros(micros.shape, dtype=bool)
    for strategy in config.strategies:
        span = _resolve_days(strategy.days, config.n_days)
        days = slice(span.start - 1, span.stop - 1)
        if isinstance(strategy, SingleOffset):
            bank = _resolve_bank(strategy.bank, labels, config)
            b = labels.index(bank)
            offset = bounded_rate(_as_decimal(strategy.offset))
            for t in span:
                shifted = max(CONTEXT.fma(int(micros[b, t - 1]), RATE_QUANTUM, offset), Decimal(0))
                shifted = shifted.quantize(RATE_QUANTUM, ROUND_HALF_UP, CONTEXT)
                if shifted >= RATE_LIMIT:
                    raise InvalidStrategyTargetError(
                        f"single-offset strategy on bank {bank}, day {t} ({config.dates[t - 1]}): "
                        f"shifted rate {CONTEXT.to_sci_string(shifted)} is not below {RATE_LIMIT}"
                    )
                micros[b, t - 1] = int(shifted.scaleb(RATE_DECIMALS, CONTEXT))
            rows = [b]
        elif isinstance(strategy, (SingleFixed, CollusiveQuote)):
            refs = strategy.banks if isinstance(strategy, CollusiveQuote) else (strategy.bank,)
            rows = [labels.index(_resolve_bank(ref, labels, config)) for ref in refs]
            micros[rows, days] = int(_positive_rate(strategy.rate).scaleb(RATE_DECIMALS, CONTEXT))
        else:
            raise TypeError(f"unknown strategy {strategy!r}")
        touched[rows, days] = True
    return SimulatedPanel(labels, config.dates, micros, touched)


def generate(config: ScenarioConfig) -> tuple[set[Submission], list[tuple[str, Date]]]:
    """``simulate_panel`` as Submissions, plus the (bank, date) cells any
    strategy touched, sorted by date then bank."""
    panel = simulate_panel(config)
    cells = zip(product(panel.banks, panel.dates), panel.micros.ravel().tolist())
    submissions = {Submission(bank, day, config.tenor, Decimal(q).scaleb(-RATE_DECIMALS, CONTEXT))
                   for (bank, day), q in cells}
    truth = [(panel.banks[b], panel.dates[t]) for t, b in np.argwhere(panel.touched.T).tolist()]
    return submissions, truth


@dataclass(frozen=True)
class FixingSeries:
    """Per-date fixing results; failures are collected, not raised."""

    results: tuple[tuple[Date, FixingResult], ...]
    errors: tuple[tuple[Date, str], ...]


def fixing_series(
    submissions, tenor: Tenor, config: FixingConfig | None = None
) -> FixingSeries:
    """One fixing per distinct date, quotes taken in bank-label order.

    One pass maps each date to its ``tenor`` quotes by bank.  A bank quoting
    twice on a date fails that date: its error names the smallest repeated
    label.  Every other date is one ``compute_fixing`` call.
    """
    by_date, repeated = defaultdict(dict), defaultdict(set)
    for sub in submissions:
        if sub.tenor is tenor:
            quotes = by_date[sub.date]
            if sub.bank in quotes:
                repeated[sub.date].add(sub.bank)
            quotes[sub.bank] = sub.rate
    results, errors = [], []
    for day in sorted(by_date):
        quotes = by_date.pop(day)
        try:
            if day in repeated:
                raise DuplicateSubmissionError.of(min(repeated[day]), day, tenor)
            results.append((day, compute_fixing(map(quotes.__getitem__, sorted(quotes)), config)))
        except DataError as exc:
            errors.append((day, str(exc)))
    return FixingSeries(tuple(results), tuple(errors))


def truth_to_csv_text(truth, all_cells) -> str:
    """Full truth mask CSV: one row per (date, bank) cell, flag 0 or 1."""
    flagged = set(truth)
    ordered = sorted(all_cells, key=lambda cell: (cell[1], cell[0]))
    rows = ([day.isoformat(), bank, 1 if (bank, day) in flagged else 0] for bank, day in ordered)
    return rows_to_csv_text(TRUTH_COLUMNS, rows)
