"""Panel submissions and aligned analysis windows.

Quoted rates are exact decimals (at most six fractional digits), so fixing
arithmetic is free of float drift; the distances use a float of each, made
at ingestion.

Ingestion reads a CSV into a ``SubmissionTable``: int code columns for date,
bank and tenor (each distinct field text parsed once), the rates and their
floats.  Under the default floor, a file with no quote whose every row has a
plain rate (ASCII digits, at most nine before the point and six after) is
read whole in numpy, each rate as int64 micro-units and its count of written
decimals; a plain rate obeys every rate rule by construction.  Any other file
is read row by row, a rate that is not plain checked by building a
``Submission``; every refusal comes from this path.  The ``Decimal`` rates of
a whole-file read are built when first read.  A window is built from the
columns on an integer index matrix (banks x candidate dates, -1 where a bank
did not submit): filters, the duplicate check, coverage, forward-fill and
date survival are array operations, the floats are gathered through it, and
its rates are decoded from the same cells on first read.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from itertools import chain
from dataclasses import InitVar, dataclass, field
from datetime import date as Date
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .fixing import CONTEXT, _as_decimal

RATE_DECIMALS = 6
RATE_QUANTUM = Decimal(f"1E-{RATE_DECIMALS}")
# |rate| < 10**9 at six decimals is at most 15 significant digits: such a rate
# round-trips through a float and keeps exact sums far inside Decimal's context
RATE_LIMIT = Decimal(10**9)
DEFAULT_RATE_FLOOR = Decimal(0)

CSV_COLUMNS = ("date", "bank", "tenor", "rate")
# a rate text that needs none of Submission's checks under the default floor
_PLAIN_RATE = re.compile(r"[ \t]*[0-9]{1,9}(?:\.[0-9]{1,6})?[ \t]*").fullmatch


class DuplicateSubmissionError(DataError):
    """Two submissions collide on the same (bank, date, tenor)."""

    @classmethod
    def of(cls, bank: str, day: Date, tenor: "Tenor") -> "DuplicateSubmissionError":
        return cls(f"duplicate submission for {bank} on {day} ({tenor})")


class EmptyWindowError(DataError):
    """No usable panel remains after filtering and the missing-data policy."""


class SubmissionFormatError(DataError):
    """The submissions CSV is malformed; the message lists offending lines."""


class PanelWarning(UserWarning):
    """Non-fatal window construction event: a bank dropped for low coverage."""


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

    The rate must be finite and below RATE_LIMIT in magnitude.  Negative
    rates are rejected unless an explicit lower ``floor`` is given at
    construction time.
    """

    bank: str
    date: Date
    tenor: Tenor
    rate: Decimal
    floor: InitVar[Decimal | None] = None

    def __post_init__(self, floor: Decimal | None) -> None:
        if not self.bank:
            raise ValueError("bank label must be non-empty")
        rate = self.rate
        if not isinstance(rate, Decimal):
            try:
                rate = Decimal(str(rate), CONTEXT)
            except InvalidOperation:
                raise ValueError(f"bad rate {self.rate!r}") from None
        if not rate.is_finite():
            raise ValueError(f"rate must be finite, got {CONTEXT.to_sci_string(rate)}")
        bounded_rate(rate)
        limit = DEFAULT_RATE_FLOOR if floor is None else floor
        if rate < limit:
            raise ValueError(f"rate {CONTEXT.to_sci_string(rate)} is below the allowed floor "
                             f"{CONTEXT.to_sci_string(_as_decimal(limit))}")
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
    bank labels are unique, and dates are strictly increasing.  ``values`` is
    the same matrix as read-only float64.  ``build_window`` passes it in as
    ``floats``, so that no cell is converted twice, and passes ``rates`` as a
    function that decodes the window's cells; ``rates`` is then built on first
    read and kept.
    """

    banks: tuple[str, ...]
    dates: tuple[Date, ...]
    rates: tuple[tuple[Decimal, ...], ...]
    tenor: Tenor
    label: str
    floats: InitVar[np.ndarray | None] = None
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, floats: np.ndarray | None) -> None:
        if not self.banks:
            raise ValueError("window needs at least one bank")
        if len(set(self.banks)) != len(self.banks):
            raise ValueError("bank labels must be unique")
        if not self.dates:
            raise ValueError("window needs at least one date")
        for earlier, later in zip(self.dates, self.dates[1:]):
            if later <= earlier:
                raise ValueError("dates must be strictly increasing")
        if callable(self.rates):  # cells of a checked table, decoded on first read
            object.__setattr__(self, "_decode", vars(self).pop("rates"))
        else:
            self._check_rates()
        # C order: the distance kernel's last bits depend on the memory layout
        values = np.array(self.rates if floats is None else floats, dtype=float, order="C")
        if values.shape != (len(self.banks), len(self.dates)):
            raise ValueError("floats must have one row per bank and one column per date")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _check_rates(self) -> None:
        if len(self.rates) != len(self.banks):
            raise ValueError("one rate row required per bank")
        for row in self.rates:
            if len(row) != len(self.dates):
                raise ValueError("every rate row must cover every date")
        try:
            finite = all(map(Decimal.is_finite, chain.from_iterable(self.rates)))
        except TypeError:  # a cell that is not a Decimal
            finite = False
        if not finite:
            raise ValueError("window cells must be finite decimals")

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: undecoded rates
        if name != "rates" or "_decode" not in vars(self):
            raise AttributeError(name)
        rates = tuple(map(tuple, vars(self)["_decode"]().tolist()))
        object.__setattr__(self, "rates", rates)
        return rates

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def series(self, bank: str) -> tuple[Decimal, ...]:
        return self.rates[self.banks.index(bank)]


class SubmissionTable:
    """Submissions as columns, in input order.

    Row i quotes ``rates[i]``, a Decimal whose float64 is ``values[i]``, on
    date ``dates[codes[i, 0]]`` by bank ``banks[codes[i, 1]]`` in tenor
    ``tenors[codes[i, 2]]``; two codes may stand for the same value.  The
    constructor takes ``rates`` as Decimals, or as None with ``plain`` a pair
    of int arrays (each rate's micro-units and its count of written
    fractional digits) that ``rates`` decodes on first read and keeps.
    Iterating the table yields each row as a fresh Submission with floor
    ``floor``.
    """

    def __init__(self, dates, banks, tenors, codes, rates, values, floor=DEFAULT_RATE_FLOOR,
                 plain=None):
        self.dates, self.banks, self.tenors = tuple(dates), tuple(banks), tuple(tenors)
        self.codes = np.asarray(codes, np.int64).reshape(-1, 3)
        self.values = np.asarray(values, float)
        self.floor = floor
        self._rates = None if rates is None else np.asarray(rates, object)
        self._plain = plain

    @property
    def rates(self) -> np.ndarray:
        """The rates, an object array of Decimals."""
        if self._rates is None:
            self._rates = _decode_rates(*self._plain)
        return self._rates

    def _rates_at(self, rows: np.ndarray) -> np.ndarray:
        """The rates of the rows in ``rows``, an index array of any shape."""
        if self._rates is None:
            return _decode_rates(*(column[rows] for column in self._plain))
        return self._rates[rows]

    @classmethod
    def of(cls, submissions) -> "SubmissionTable":
        """The table of an iterable of submissions (a table is its own)."""
        if isinstance(submissions, cls):
            return submissions
        dates, banks, tenors = {}, {}, {}
        codes, rates = [], []
        for sub in submissions:
            codes += (dates.setdefault(sub.date, len(dates)),
                      banks.setdefault(sub.bank, len(banks)),
                      tenors.setdefault(sub.tenor, len(tenors)))
            rates.append(sub.rate)
        return cls(dates, banks, tenors, codes, rates, np.array(rates, float))

    def __iter__(self):
        for (d, b, t), rate in zip(self.codes.tolist(), self.rates.tolist()):
            yield Submission(self.banks[b], self.dates[d], self.tenors[t], rate, floor=self.floor)

    def __len__(self) -> int:
        return len(self.values)

    def on(self, day: Date) -> "SubmissionTable":
        """The rows quoted on ``day``, in input order."""
        rows = np.isin(self.codes[:, 0], [c for c, d in enumerate(self.dates) if d == day])
        plain = None if self._plain is None else tuple(column[rows] for column in self._plain)
        return SubmissionTable(self.dates, self.banks, self.tenors, self.codes[rows],
                               None if plain else self._rates[rows], self.values[rows],
                               self.floor, plain)

    def in_tenor(self, tenor: Tenor) -> np.ndarray:
        """Mask of the rows quoted in ``tenor``."""
        return np.isin(self.codes[:, 2], [c for c, t in enumerate(self.tenors) if t is tenor])

    def quoted_dates(self, tenor: Tenor) -> list[Date]:
        """The distinct dates quoted in ``tenor``, ascending."""
        quoted = np.unique(self.codes[self.in_tenor(tenor), 0]).tolist()
        return sorted({self.dates[d] for d in quoted})


def _ranks(values) -> tuple[list, np.ndarray]:
    """The distinct values, ascending, and the position of each value among them."""
    distinct = sorted(set(values))
    at = {value: i for i, value in enumerate(distinct)}
    return distinct, np.array([at[value] for value in values], dtype=np.int64)


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
    dates then present for every bank survive.  Submissions other than a
    SubmissionTable are first turned into one.
    """
    policy = policy or MissingDataPolicy.drop_incomplete()
    start, end = date_range
    if start > end:
        raise ValueError("date_range start must not be after end")
    table = SubmissionTable.of(submissions)

    # dates and banks by their rank in sorted order, for the rows in range
    all_dates, date_rank = _ranks(table.dates)
    all_banks, bank_rank = _ranks(table.banks)
    in_range = np.array([start <= day <= end for day in table.dates], dtype=bool)
    picked = np.flatnonzero(table.in_tenor(tenor) & in_range[table.codes[:, 0]])
    day = date_rank[table.codes[picked, 0]]
    bank = bank_rank[table.codes[picked, 1]]
    keys, counts = np.unique(day * len(all_banks) + bank, return_counts=True)
    if (counts > 1).any():
        first_day, first_bank = divmod(int(keys[counts > 1][0]), len(all_banks))
        raise DuplicateSubmissionError.of(all_banks[first_bank], all_dates[first_day], tenor)

    if not len(picked):
        raise EmptyWindowError("no submissions in range")
    candidates = np.unique(day)

    have = np.bincount(bank, minlength=len(all_banks)).tolist()
    kept = []
    for b in np.flatnonzero(have).tolist():
        coverage = have[b] / len(candidates)
        if min_coverage > 0.0 and coverage < min_coverage:
            warnings.warn(
                f"bank {all_banks[b]} dropped: coverage {coverage:.1%} below "
                f"{min_coverage:.1%} of {len(candidates)} candidate dates",
                PanelWarning,
                stacklevel=2,
            )
            continue
        kept.append(b)
    if len(kept) < 2:
        raise EmptyWindowError("fewer than two banks survive in the window")

    # row k of the table goes to idx[bank row, date column] = k; the rows of
    # dropped banks go to a spare last row, which is cut off
    row_of = np.full(len(all_banks), len(kept))
    row_of[kept] = np.arange(len(kept))
    idx = np.full((len(kept) + 1, len(candidates)), -1, dtype=np.int64)
    idx[row_of[bank], np.searchsorted(candidates, day)] = picked
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

    cells = idx[:, alive]
    banks = tuple(all_banks[b] for b in kept)
    surviving = tuple(all_dates[d] for d in candidates[alive].tolist())
    if label is None:
        label = f"{start.isoformat()}..{end.isoformat()}"
    return PanelWindow(banks, surviving, partial(table._rates_at, cells), tenor, label,
                       table.values[cells])


def bounded_rate(rate: Decimal) -> Decimal:
    """``rate`` itself if it is finite and below RATE_LIMIT in magnitude."""
    if not (rate.is_finite() and rate.copy_abs() < RATE_LIMIT):
        raise ValueError(f"rate {CONTEXT.to_sci_string(rate)} is not below {RATE_LIMIT} "
                         "in magnitude")
    return rate


def read_submissions_csv(path, *, rate_floor: Decimal = DEFAULT_RATE_FLOOR) -> SubmissionTable:
    """Parse a submissions CSV with columns exactly ``date,bank,tenor,rate``.

    Dates are ISO 8601 and rates are decimal percent with at most six
    fractional digits written (``3.1234560`` is refused); Submission checks
    the value, with ``rate_floor`` as its floor.  Any bad row fails the whole
    file with a SubmissionFormatError listing every offending line number.
    The rows come back as a SubmissionTable, which iterates as Submissions.
    A plain file is read whole in numpy, any other row by row.
    """
    # universal newlines, as reading the file as text gives
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SubmissionFormatError(
            f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    if rate_floor == 0 and (table := _read_plain(data, rate_floor)) is not None:
        return table
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(h.strip().lower() for h in header) != CSV_COLUMNS:
        raise SubmissionFormatError(
            f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
        )
    problems = []
    # codes keyed on the raw field text; a failed parse is not stored, so
    # every line carrying a bad field is listed
    date_of, bank_of, tenor_of = {}, {}, {}
    dates, banks, tenors = [], [], []
    codes, rates, values = [], [], []
    plain = _PLAIN_RATE if rate_floor == 0 else lambda text: None
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"line {lineno}: expected {len(CSV_COLUMNS)} columns, got {len(row)}")
            continue
        raw_date, raw_bank, raw_tenor, raw_rate = row
        try:
            day = date_of.get(raw_date)
            if day is None:
                day = _learn(date_of, dates, Date.fromisoformat, raw_date)
            bank = bank_of.get(raw_bank)
            if bank is None:
                bank = _learn(bank_of, banks, _bank_label, raw_bank)
            tenor = tenor_of.get(raw_tenor)
            if tenor is None:
                tenor = _learn(tenor_of, tenors, Tenor.parse, raw_tenor)
            try:
                rate = Decimal(raw_rate, CONTEXT)
            except InvalidOperation:
                raise ValueError(f"bad rate {raw_rate.strip()!r}") from None
            if plain(raw_rate):
                value = float(raw_rate)
            else:
                Submission(banks[bank], dates[day], tenors[tenor], rate, floor=rate_floor)
                # tested on the exponent, so trailing zeros count as digits
                if -rate.as_tuple().exponent > RATE_DECIMALS:
                    raise ValueError(
                        f"rate {raw_rate.strip()!r} has more than {RATE_DECIMALS} fractional digits"
                    )
                value = float(rate)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        codes += (day, bank, tenor)
        rates.append(rate)
        values.append(value)
    if problems:
        raise SubmissionFormatError(f"{path}: " + "; ".join(problems))
    return SubmissionTable(dates, banks, tenors, codes, rates, values, rate_floor)


def _learn(known: dict, decoded: list, parse, raw: str) -> int:
    """Parse a field text met for the first time; its code is its place in ``decoded``."""
    decoded.append(parse(raw.strip()))
    known[raw] = len(decoded) - 1
    return known[raw]


def _bank_label(text: str) -> str:
    if not text:
        raise ValueError("empty bank label")
    return text


def _read_plain(data: bytes, floor) -> SubmissionTable | None:
    """The table of a plain file, read whole in numpy; None for any other file.

    ``data`` is valid UTF-8 with ``\n`` line ends.  Plain: no quote, the four column names as header, three commas on each
    other non-empty line, rates ``_PLAIN_RATE`` takes, and date, bank and
    tenor texts that parse.  The byte matrices hold rows x widest field, so a
    file where that passes four times its size is left to the row loop, as is
    a field longer than ``csv.field_size_limit()``.
    """
    if b'"' in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    if not len(breaks) or tuple(
            h.strip().lower() for h in data[:breaks[0]].decode().split(",")) != CSV_COLUMNS:
        return None
    starts, stops = breaks + 1, np.append(breaks[1:], len(buf))
    starts, stops = starts[stops > starts], stops[stops > starts]
    commas = np.flatnonzero(buf == ord(","))
    if not len(starts) or len(commas) != 3 * (len(starts) + 1):
        return None
    # the header holds the first three; if each line holds the three that
    # fall to it, no line holds more
    cuts = commas[3:].reshape(-1, 3).T
    if (cuts[0] < starts).any() or (cuts[2] >= stops).any():
        return None
    bounds = list(zip((starts, *(cuts + 1)), (*cuts, stops)))
    widest = max(int((stop - first).max()) for first, stop in bounds)
    if widest * len(starts) > 4 * len(data) or widest > csv.field_size_limit():
        return None
    *texts, rate_texts = (_padded(buf, first, stop) for first, stop in bounds)
    rates = _plain_rates(rate_texts)
    if rates is None:
        return None
    columns, codes = [], []
    for keys, parse in zip(texts, (Date.fromisoformat, _bank_label, Tenor.parse)):
        code, seen = _first_seen_codes(keys)
        try:
            columns.append([parse(keys[row].tobytes().rstrip(b"\xff").decode().strip())
                            for row in seen.tolist()])
        except ValueError:
            return None
        codes.append(code)
    return SubmissionTable(*columns, np.column_stack(codes), None,
                           rates[0] / 10**RATE_DECIMALS, floor, rates)


def _padded(buf: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The texts ``buf[first:stop]`` as rows of whole 8-byte words, padded
    with 0xFF: UTF-8 never uses that byte, so equal rows are equal texts."""
    width = stop - first
    widest = int(width.max())
    out = np.full((len(first), 8 * ((widest + 7) // 8 or 1)), 0xFF, np.uint8)
    for j in range(widest):
        out[:, j] = np.where(j < width, buf.take(first + j, mode="clip"), 0xFF)
    return out


def _rate_automaton() -> np.ndarray:
    """``_PLAIN_RATE`` as a byte automaton on 256 * state + byte.

    State 0 reads leading blanks, 1-9 have read that many integer digits, 10
    the point, 11-16 one to six fractional digits, 17 trailing blanks; 18
    refuses.  0xFF, which UTF-8 never uses, pads a text and reads as a blank.
    """
    digits, blanks = list(b"0123456789"), list(b" \t\xff")
    step = np.full((19, 256), 18, np.int16)
    step[:9, digits] = np.arange(1, 10)[:, None]
    step[10:16, digits] = np.arange(11, 17)[:, None]
    step[1:10, ord(".")] = 10
    step[0, blanks] = 0
    step[1:10, blanks] = step[11:18, blanks] = 17
    return (256 * step).ravel()


def _plain_rates(texts: np.ndarray):
    """Micro-units and written fractional digits of each padded rate text,
    scanned one byte column at a time; None if ``_PLAIN_RATE`` refuses one."""
    at = np.zeros(len(texts), np.int16)
    micros = np.zeros(len(texts), np.int64)
    places = np.zeros(len(texts), np.int8)
    automaton = _rate_automaton()
    for byte in texts.T:
        at = automaton.take(at + byte)
        # past a refusal these run on unchecked, since the result is dropped
        digit = byte - ord("0")
        micros = np.where(digit < 10, micros * 10 + digit, micros)
        places += (digit < 10) & (at > 10 * 256)
    if np.isin(at, (0, 10 * 256, 18 * 256)).any():
        return None
    return micros * 10 ** (RATE_DECIMALS - places.astype(np.int64)), places


def _first_seen_codes(keys: np.ndarray):
    """A code for each row of ``keys``, numbered by first appearance, and
    the row where each code first appears."""
    # a single word sorts as an integer, far faster than as raw bytes
    flat = keys.view(np.uint64 if keys.shape[1] == 8 else f"V{keys.shape[1]}").ravel()
    _, seen, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(seen))[inverse], np.sort(seen)


def _decode_rates(micros: np.ndarray, places: np.ndarray) -> np.ndarray:
    """The Decimals plain rate texts spelled, exponent included (``3.1200``
    stays ``3.1200``): each text's digits, scaled by its written places."""
    digits = micros // 10 ** (RATE_DECIMALS - places.astype(np.int64))
    return np.array([Decimal(d).scaleb(-p, CONTEXT)
                     for d, p in zip(digits.ravel().tolist(), places.ravel().tolist())],
                    object).reshape(micros.shape)


def submissions_to_csv_text(submissions) -> str:
    """Render submissions to CSV text, sorted by (date, bank, tenor)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for sub in sorted(submissions, key=lambda s: (s.date, s.bank, s.tenor.code)):
        writer.writerow([sub.date.isoformat(), sub.bank, sub.tenor.code,
                         CONTEXT.to_sci_string(sub.rate)])
    return buf.getvalue()
