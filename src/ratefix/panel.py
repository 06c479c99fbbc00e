"""Panel submissions and aligned analysis windows.

Quoted rates are carried as exact decimals (at most six fractional digits)
from ingestion through window construction.  They only become binary floats
at distance-computation time, so fixing arithmetic downstream is free of
float drift.

Ingestion parses each distinct date and tenor text once per file.  A window
is built on an integer index matrix (banks x candidate dates, -1 where a bank
did not submit) over the submitted ``Decimal`` objects: forward-fill and date
survival are array operations on it, and the rows are gathered through it.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections import Counter
from operator import itemgetter
from dataclasses import InitVar, dataclass
from datetime import date as Date
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError

RATE_DECIMALS = 6
RATE_QUANTUM = Decimal(1).scaleb(-RATE_DECIMALS)
# |rate| < 10**9 at six decimals is at most 15 significant digits: such a rate
# round-trips through a float and keeps exact sums far inside Decimal's context
RATE_LIMIT = Decimal(10) ** 9
DEFAULT_RATE_FLOOR = Decimal(0)

CSV_COLUMNS = ("date", "bank", "tenor", "rate")


class DuplicateSubmissionError(DataError):
    """Two submissions collide on the same (bank, date, tenor)."""


class EmptyWindowError(DataError):
    """No usable panel remains after filtering and the missing-data policy."""


class SubmissionFormatError(DataError):
    """The submissions CSV is malformed; the message lists offending lines."""


class PanelWarning(UserWarning):
    """Non-fatal window construction event (bank dropped, year omitted)."""


class Tenor(Enum):
    """Quoted borrowing maturity, from the closed set used by panel fixings."""

    OVERNIGHT = "O/N"
    ONE_WEEK = "1W"
    ONE_MONTH = "1M"
    THREE_MONTHS = "3M"
    SIX_MONTHS = "6M"
    TWELVE_MONTHS = "12M"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Tenor":
        try:
            return _TENORS[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown tenor code {text!r}") from None

    def __str__(self) -> str:
        return self.value


_TENORS = {tenor.value: tenor for tenor in Tenor}


@dataclass(frozen=True)
class Submission:
    """One bank's quoted rate for one date and tenor, in percent per annum.

    Negative rates are rejected unless an explicit lower ``floor`` is given
    at construction time.
    """

    bank: str
    date: Date
    tenor: Tenor
    rate: Decimal
    floor: InitVar[Decimal | None] = None

    def __post_init__(self, floor: Decimal | None) -> None:
        if not self.bank:
            raise ValueError("bank label must be non-empty")
        rate = self.rate if isinstance(self.rate, Decimal) else Decimal(str(self.rate))
        if not rate.is_finite():
            raise ValueError(f"rate must be finite, got {self.rate}")
        limit = DEFAULT_RATE_FLOOR if floor is None else floor
        if rate < limit:
            raise ValueError(f"rate {rate} is below the allowed floor {limit}")
        object.__setattr__(self, "rate", rate)


@dataclass(frozen=True)
class MissingDataPolicy:
    """Gap handling for dates where some bank did not submit.

    With ``fill=False`` any date missing at least one bank is dropped.  With
    ``fill=True`` a bank's gap is forward-filled from its latest earlier
    value, but never across more than ``max_gap`` consecutive missing dates;
    dates still incomplete afterwards are dropped.
    """

    fill: bool = False
    max_gap: int = 5

    def __post_init__(self) -> None:
        if self.fill and self.max_gap < 1:
            raise ValueError(f"forward-fill requires max_gap >= 1, got {self.max_gap}")

    @classmethod
    def drop_incomplete(cls) -> "MissingDataPolicy":
        return cls(fill=False)

    @classmethod
    def forward_fill(cls, max_gap: int = 5) -> "MissingDataPolicy":
        return cls(fill=True, max_gap=max_gap)


@dataclass(frozen=True)
class PanelWindow:
    """Aligned banks x dates rate matrix for one analysis window.

    Each bank row, read in date order, is that bank's submission series.
    The matrix is complete by construction: every cell holds a finite rate,
    bank labels are unique, and dates are strictly increasing.
    """

    banks: tuple[str, ...]
    dates: tuple[Date, ...]
    rates: tuple[tuple[Decimal, ...], ...]
    tenor: Tenor
    label: str

    def __post_init__(self) -> None:
        if not self.banks:
            raise ValueError("window needs at least one bank")
        if len(set(self.banks)) != len(self.banks):
            raise ValueError("bank labels must be unique")
        if not self.dates:
            raise ValueError("window needs at least one date")
        for earlier, later in zip(self.dates, self.dates[1:]):
            if later <= earlier:
                raise ValueError("dates must be strictly increasing")
        if len(self.rates) != len(self.banks):
            raise ValueError("one rate row required per bank")
        for row in self.rates:
            if len(row) != len(self.dates):
                raise ValueError("every rate row must cover every date")
            for value in row:
                if not isinstance(value, Decimal) or not value.is_finite():
                    raise ValueError("window cells must be finite decimals")

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def series(self, bank: str) -> tuple[Decimal, ...]:
        return self.rates[self.banks.index(bank)]

    def submissions(self) -> list[Submission]:
        """Flatten the window back to per-cell submissions."""
        out = []
        for bank, row in zip(self.banks, self.rates):
            for day, rate in zip(self.dates, row):
                out.append(Submission(bank, day, self.tenor, rate))
        return out


def build_window(
    submissions,
    tenor: Tenor,
    date_range: tuple[Date, Date],
    policy: MissingDataPolicy | None = None,
    *,
    min_coverage: float = 0.0,
    label: str | None = None,
) -> PanelWindow:
    """Construct a complete window from a raw submission stream.

    Submissions are restricted to ``tenor`` and the inclusive ``date_range``,
    the matrix is completed per ``policy`` (default: drop incomplete dates),
    and the result is ordered with banks lexicographic and dates ascending
    regardless of input order.  If a (bank, date) occurs twice in the
    restricted stream, DuplicateSubmissionError names the earliest such pair
    by (date, bank).

    ``min_coverage`` drops banks whose raw submission coverage of the
    window's candidate dates falls below the given fraction, before the
    policy runs (the yearly pipeline passes 0.9 so that late joiners and
    leavers do not wipe out the surviving dates; the default keeps every
    bank).  Dropped banks are reported with a PanelWarning.

    Forward-fill points a missing cell of the index matrix at the bank's
    latest earlier cell if that lies at most ``max_gap`` dates back; the
    dates then present for every bank survive.
    """
    policy = policy or MissingDataPolicy.drop_incomplete()
    start, end = date_range
    if start > end:
        raise ValueError("date_range start must not be after end")

    picked: dict[tuple[str, Date], Decimal] = {}
    repeated = []
    for sub in submissions:
        if sub.tenor is not tenor or not start <= sub.date <= end:
            continue
        key = (sub.bank, sub.date)
        if key in picked:
            repeated.append(key)
        picked[key] = sub.rate
    if repeated:
        bank, day = min(repeated, key=lambda pair: (pair[1], pair[0]))
        raise DuplicateSubmissionError(f"duplicate submission for {bank} on {day} ({tenor})")

    if not picked:
        raise EmptyWindowError("no submissions in range")
    candidates = sorted(set(map(itemgetter(1), picked)))

    have = Counter(map(itemgetter(0), picked))
    banks = []
    for bank in sorted(have):
        coverage = have[bank] / len(candidates)
        if min_coverage > 0.0 and coverage < min_coverage:
            warnings.warn(
                f"bank {bank} dropped: coverage {coverage:.1%} below "
                f"{min_coverage:.1%} of {len(candidates)} candidate dates",
                PanelWarning,
                stacklevel=2,
            )
            continue
        banks.append(bank)
    if len(banks) < 2:
        raise EmptyWindowError("fewer than two banks survive in the window")

    # cell k of picked goes to idx[bank row, date column] = k; the cells of
    # dropped banks go to a spare last row, which is cut off
    n = len(picked)
    row_of = dict.fromkeys(have, len(banks)) | {bank: i for i, bank in enumerate(banks)}
    col_of = {day: j for j, day in enumerate(candidates)}
    at_row = np.fromiter(map(row_of.get, map(itemgetter(0), picked)), np.int32, n)
    at_col = np.fromiter(map(col_of.get, map(itemgetter(1), picked)), np.int32, n)
    idx = np.full((len(banks) + 1, len(candidates)), -1, dtype=np.int32)
    idx[at_row, at_col] = np.arange(n, dtype=np.int32)
    idx = idx[:-1]
    if policy.fill:
        cols = np.arange(len(candidates))
        seen = np.maximum.accumulate(np.where(idx >= 0, cols, -1), axis=1)
        # a copy may bridge at most max_gap consecutive missing dates
        reach = (seen >= 0) & (cols - seen <= policy.max_gap)
        idx = np.where(reach, np.take_along_axis(idx, seen, axis=1), -1)

    alive = (idx >= 0).all(axis=0)
    if not alive.any():
        raise EmptyWindowError("no date survives the missing-data policy")

    surviving = [candidates[j] for j in np.flatnonzero(alive)]
    objs = np.fromiter(picked.values(), object, n)
    rows = tuple(map(tuple, objs[idx[:, alive]].tolist()))
    if label is None:
        label = f"{start.isoformat()}..{end.isoformat()}"
    return PanelWindow(tuple(banks), tuple(surviving), rows, tenor, label)


def annual_windows(
    submissions,
    tenor: Tenor,
    years: tuple[int, int],
    policy: MissingDataPolicy | None = None,
    *,
    dataset: str = "PANEL",
    min_coverage: float = 0.9,
) -> list[PanelWindow]:
    """One window per calendar year, labelled ``<dataset>-<year>``.

    Years that end up with no usable panel (no submissions, or nothing
    survives the policy) are omitted and reported with a PanelWarning.
    """
    first, last = years
    if first > last:
        raise ValueError("years must satisfy first <= last")
    subs = list(submissions)
    out = []
    for year in range(first, last + 1):
        label = f"{dataset}-{year}"
        year_subs = [s for s in subs if s.date.year == year and s.tenor is tenor]
        if not year_subs:
            warnings.warn(f"{label}: no submissions; window omitted", PanelWarning, stacklevel=2)
            continue
        try:
            out.append(
                build_window(
                    year_subs,
                    tenor,
                    (Date(year, 1, 1), Date(year, 12, 31)),
                    policy,
                    min_coverage=min_coverage,
                    label=label,
                )
            )
        except EmptyWindowError as exc:
            warnings.warn(f"{label}: {exc}; window omitted", PanelWarning, stacklevel=2)
    return out


def bounded_rate(rate: Decimal) -> Decimal:
    """``rate`` itself if it is finite and below RATE_LIMIT in magnitude."""
    if not (rate.is_finite() and rate.copy_abs() < RATE_LIMIT):
        raise ValueError(f"rate {rate} is not below {RATE_LIMIT} in magnitude")
    return rate


def _parse_rate(text: str, floor: Decimal) -> Decimal:
    try:
        rate = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"bad rate {text!r}")
    if not rate.is_finite():
        raise ValueError(f"rate {text!r} is not finite")
    bounded_rate(rate)
    if -rate.as_tuple().exponent > RATE_DECIMALS:
        raise ValueError(f"rate {text!r} has more than {RATE_DECIMALS} fractional digits")
    if rate < floor:
        raise ValueError(f"rate {text!r} is below the allowed floor {floor}")
    return rate


def read_submissions_csv(path, *, rate_floor: Decimal = DEFAULT_RATE_FLOOR) -> list[Submission]:
    """Parse a submissions CSV with columns exactly ``date,bank,tenor,rate``.

    Dates are ISO 8601 and rates are decimal percent with up to six
    fractional digits.  Any unparseable row fails the whole file with a
    SubmissionFormatError listing every offending line number.
    """
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(h.strip().lower() for h in header) != CSV_COLUMNS:
        raise SubmissionFormatError(
            f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
        )
    subs = []
    problems = []
    # parses keyed on the raw field text; a failed parse is not stored, so
    # every line carrying a bad field is listed
    days: dict[str, Date] = {}
    tenors: dict[str, Tenor] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"line {lineno}: expected {len(CSV_COLUMNS)} columns, got {len(row)}")
            continue
        raw_date, raw_bank, raw_tenor, raw_rate = row
        try:
            day = days.get(raw_date)
            if day is None:
                day = days[raw_date] = Date.fromisoformat(raw_date.strip())
            bank = raw_bank.strip()
            if not bank:
                raise ValueError("empty bank label")
            tenor = tenors.get(raw_tenor)
            if tenor is None:
                tenor = tenors[raw_tenor] = Tenor.parse(raw_tenor.strip())
            rate = _parse_rate(raw_rate.strip(), rate_floor)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        subs.append(Submission(bank, day, tenor, rate, floor=rate_floor))
    if problems:
        raise SubmissionFormatError(f"{path}: " + "; ".join(problems))
    return subs


def submissions_to_csv_text(submissions) -> str:
    """Render submissions to CSV text, sorted by (date, bank, tenor)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for sub in sorted(submissions, key=lambda s: (s.date, s.bank, s.tenor.code)):
        writer.writerow([sub.date.isoformat(), sub.bank, sub.tenor.code, str(sub.rate)])
    return buf.getvalue()
