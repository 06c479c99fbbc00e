"""Panel submissions and aligned analysis windows.

Quoted rates are exact decimals (at most six fractional digits), so fixing
arithmetic is free of float drift; the distances use a float of each, made
when a window is built.

Ingestion reads a CSV into a ``SubmissionTable``: int code columns for date,
bank and tenor (each distinct field text parsed once) and one rate column.
Under the default floor, a file with no quote whose every row has a plain
rate (ASCII digits, at most nine before the point and six after) is read
whole in numpy, each rate as int64 micro-units and its count of written
decimals; a plain rate obeys every rate rule by construction.  Any other file
is read row by row into ``Decimal`` rates, a rate that is not plain checked
by building a ``Submission``; every refusal comes from this path.  A window
is built from the columns on an integer index matrix (banks x candidate
dates, -1 where a bank did not submit): filters, the duplicate check,
coverage, forward-fill and date survival are array operations, and the
window's rate cells are taken through it.  A window keeps one cell array
and makes its floats from it at once, its ``Decimal`` rows on first read.
Every CSV but the simulator's is written by ``rows_to_csv_text``.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
import warnings
from itertools import chain
from dataclasses import InitVar, dataclass, field
from datetime import date as Date
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .fixing import CONTEXT, _all_finite, _as_decimal

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

    @classmethod
    def parse(cls, text: str) -> "Tenor":
        try:
            return _TENORS[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown tenor code {text!r}") from None

    def __str__(self) -> str:
        return self.value


_TENORS = {tenor.value: tenor for tenor in Tenor}


@dataclass(frozen=True, slots=True)
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
            object.__setattr__(self, "rate", rate)
        bounded_rate(rate)
        limit = DEFAULT_RATE_FLOOR if floor is None else floor
        if rate < limit:
            raise ValueError(f"rate {CONTEXT.to_sci_string(rate)} is below the allowed floor "
                             f"{CONTEXT.to_sci_string(_as_decimal(limit))}")


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


@dataclass(frozen=True)
class PanelWindow:
    """Aligned banks x dates rate matrix for one analysis window.

    Each bank row, read in date order, is that bank's submission series.
    The matrix is complete by construction: every cell holds a finite rate,
    bank labels are unique, and dates are strictly increasing.  ``rates`` is
    given as rows of Decimals or as a cell array: an object array of
    Decimals, or ``build_window``'s 2 x banks x dates block of a plain
    table's micro-units over written places.  The window keeps that one
    array, read-only; ``values``, the matrix as read-only float64, is made
    from it at once, and ``rates``, rows of Decimals, on first read.
    """

    banks: tuple[str, ...]
    dates: tuple[Date, ...]
    rates: tuple[tuple[Decimal, ...], ...]
    tenor: Tenor
    label: str
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vars(self).update(banks=tuple(self.banks), dates=tuple(self.dates))
        if not self.banks:
            raise ValueError("window needs at least one bank")
        if len(set(self.banks)) != len(self.banks):
            raise ValueError("bank labels must be unique")
        if not self.dates:
            raise ValueError("window needs at least one date")
        for earlier, later in zip(self.dates, self.dates[1:]):
            if later <= earlier:
                raise ValueError("dates must be strictly increasing")
        cells = vars(self).pop("rates")
        plain = isinstance(cells, np.ndarray) and cells.dtype == np.int64
        cells = np.asarray(cells, None if plain else object)
        if cells.shape != (2, len(self.banks), len(self.dates))[not plain:]:
            raise ValueError("rates must have one row per bank and one column per date")
        if not plain and not _all_finite(cells.ravel().tolist()):
            raise ValueError("window cells must be finite decimals")
        # float() of a Decimal and micro-units over 10**6 both round the same
        # decimal correctly, so either form gives the same bits; C order, as
        # the distance kernel's last bits depend on the memory layout
        values = (np.divide(cells[0], 10**RATE_DECIMALS, order="C") if plain
                  else cells.astype(float, order="C"))
        values.flags.writeable = cells.flags.writeable = False
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "values", values)

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: undecoded rates
        if name != "rates" or "_cells" not in vars(self):
            raise AttributeError(name)
        rates = tuple(map(tuple, _decimals(vars(self)["_cells"]).tolist()))
        object.__setattr__(self, "rates", rates)
        return rates

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def n_dates(self) -> int:
        return len(self.dates)


class SubmissionTable:
    """Submissions as columns, in input order.

    Row i is quoted on date ``dates[codes[i, 0]]`` by bank
    ``banks[codes[i, 1]]`` in tenor ``tenors[codes[i, 2]]``; two codes may
    stand for the same value.  Its rate is entry i of one column, kept in the
    form it was read: an object array of Decimals, or, from a plain file, a
    2 x rows int64 array of each rate's micro-units and its count of written
    fractional digits.  Nothing derived from the column is stored: ``rates``
    decodes it on each read, and ``build_window`` hands a window its cells
    as they are, which makes their floats.  Iterating the table yields each
    row as a fresh Submission with floor ``floor``.
    """

    def __init__(self, dates, banks, tenors, codes, column, floor=DEFAULT_RATE_FLOOR):
        self.dates, self.banks, self.tenors = tuple(dates), tuple(banks), tuple(tenors)
        self.codes = np.asarray(codes, np.int64).reshape(-1, 3)
        self.floor = floor
        self._column = column if isinstance(column, np.ndarray) else np.array(column, object)

    def _take(self, rows: np.ndarray) -> np.ndarray:
        """The column's entries for ``rows``, an index array of any shape."""
        return self._column.take(rows, axis=-1)

    @property
    def rates(self) -> np.ndarray:
        """The rates, an object array of Decimals; a plain file's are decoded anew on each read."""
        return _decimals(self._column)

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
        return cls(dates, banks, tenors, codes, rates)

    def __iter__(self):
        for (d, b, t), rate in zip(self.codes.tolist(), self.rates.tolist()):
            yield Submission(self.banks[b], self.dates[d], self.tenors[t], rate, floor=self.floor)

    def __len__(self) -> int:
        return len(self.codes)

    def on(self, day: Date) -> "SubmissionTable":
        """The rows quoted on ``day``, in input order."""
        rows = np.flatnonzero(
            np.isin(self.codes[:, 0], [c for c, d in enumerate(self.dates) if d == day]))
        return SubmissionTable(self.dates, self.banks, self.tenors, self.codes[rows],
                               self._take(rows), self.floor)

    def in_tenor(self, tenor: Tenor) -> np.ndarray:
        """Mask of the rows quoted in ``tenor``."""
        return np.isin(self.codes[:, 2], [c for c, t in enumerate(self.tenors) if t is tenor])

    def quoted_dates(self, tenor: Tenor) -> list[Date]:
        """The distinct dates quoted in ``tenor``, ascending."""
        quoted = np.flatnonzero(np.bincount(self.codes[self.in_tenor(tenor), 0],
                                            minlength=len(self.dates))).tolist()
        return sorted({self.dates[d] for d in quoted})


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

    # dates and banks by rank in sorted order, as objects, not NumPy scalars
    all_dates, date_rank = np.unique(np.array(table.dates, object), return_inverse=True)
    all_banks, bank_rank = np.unique(np.array(table.banks, object), return_inverse=True)
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
    candidates = np.flatnonzero(np.bincount(day, minlength=len(all_dates)))

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

    banks = tuple(all_banks[b] for b in kept)
    surviving = tuple(all_dates[d] for d in candidates[alive].tolist())
    if label is None:
        label = f"{start.isoformat()}..{end.isoformat()}"
    return PanelWindow(banks, surviving, table._take(idx[:, alive]), tenor, label)


def bounded_rate(rate: Decimal) -> Decimal:
    """``rate`` itself if it is finite and below RATE_LIMIT in magnitude."""
    if not rate.is_finite():
        raise ValueError(f"rate must be finite, got {CONTEXT.to_sci_string(rate)}")
    if not rate.copy_abs() < RATE_LIMIT:
        raise ValueError(f"rate {CONTEXT.to_sci_string(rate)} is not below {RATE_LIMIT} "
                         "in magnitude")
    return rate


def read_submissions_csv(path, *, rate_floor: Decimal = DEFAULT_RATE_FLOOR) -> SubmissionTable:
    """Parse a submissions CSV with columns exactly ``date,bank,tenor,rate``.

    Dates are ISO 8601 and rates are decimal percent with at most six
    fractional digits written (``3.1234560`` is refused); Submission checks
    the value, with ``rate_floor`` as its floor.  Any bad row fails the whole
    file with a SubmissionFormatError listing the line each offending record
    starts on, counting the lines inside quoted fields; a
    row the csv module cannot read (a field over ``csv.field_size_limit()``)
    is listed last, as reading stops there.  The rows come back as a
    SubmissionTable, which iterates as Submissions.  A plain file is read
    whole in numpy, any other row by row.
    """
    # less the BOM that Excel's "CSV UTF-8" writes, with universal newlines
    # as reading the file as text gives
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SubmissionFormatError(
            f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    if rate_floor == 0 and (table := _read_plain(data, rate_floor)) is not None:
        return table
    problems = []
    reader = csv.reader(io.StringIO(text))
    rows = _readable(reader, problems)
    header = next(rows, None)
    if header is None or tuple(h.strip().lower() for h in header) != CSV_COLUMNS:
        raise SubmissionFormatError(
            f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
        )
    # codes keyed on the raw field text; a failed parse is not stored, so
    # every line carrying a bad field is listed
    date_of, bank_of, tenor_of = {}, {}, {}
    dates, banks, tenors = [], [], []
    codes, rates = [], []
    plain = _PLAIN_RATE if rate_floor == 0 else lambda text: None
    # a record starts on the physical line after the previous one ended; a
    # quoted field may hold newlines
    end = reader.line_num
    for row in rows:
        lineno, end = end + 1, reader.line_num
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
            if not plain(raw_rate):
                Submission(banks[bank], dates[day], tenors[tenor], rate, floor=rate_floor)
                # tested on the exponent, so trailing zeros count as digits
                if -rate.as_tuple().exponent > RATE_DECIMALS:
                    raise ValueError(
                        f"rate {raw_rate.strip()!r} has more than {RATE_DECIMALS} fractional digits"
                    )
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        codes += (day, bank, tenor)
        rates.append(rate)
    if problems:
        raise SubmissionFormatError(f"{path}: " + "; ".join(problems))
    return SubmissionTable(dates, banks, tenors, codes, rates, rate_floor)


def _readable(reader, problems: list):
    """The rows of ``reader`` up to one that csv cannot read, which ends the
    rows and is added to ``problems`` with its line number."""
    try:
        yield from reader
    except csv.Error as exc:
        problems.append(f"line {reader.line_num}: {exc}")


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
    return SubmissionTable(*columns, np.column_stack(codes), rates, floor)


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
    """A table's rate column for the padded rate texts: a row of micro-units
    over a row of written fractional digits, scanned one byte column at a
    time; None if ``_PLAIN_RATE`` refuses a text."""
    at = np.zeros(len(texts), np.int16)
    micros = np.zeros(len(texts), np.int64)
    places = np.zeros(len(texts), np.int64)
    automaton = _rate_automaton()
    for byte in texts.T:
        at = automaton.take(at + byte)
        # past a refusal these run on unchecked, since the result is dropped
        digit = byte - ord("0")
        micros = np.where(digit < 10, micros * 10 + digit, micros)
        places += (digit < 10) & (at > 10 * 256)
    if np.isin(at, (0, 10 * 256, 18 * 256)).any():
        return None
    return np.stack((micros * 10 ** (RATE_DECIMALS - places), places))


def _first_seen_codes(keys: np.ndarray):
    """A code for each row of ``keys``, numbered by first appearance, and
    the row where each code first appears."""
    # a single word sorts as an integer, far faster than as raw bytes
    flat = keys.view(np.uint64 if keys.shape[1] == 8 else f"V{keys.shape[1]}").ravel()
    _, seen, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(seen))[inverse], np.sort(seen)


def _decimals(column: np.ndarray) -> np.ndarray:
    """The Decimals of entries taken from a table's column, decoded anew from micro-units."""
    return column if column.dtype == object else _decode_rates(*column)


def _decode_rates(micros: np.ndarray, places: np.ndarray) -> np.ndarray:
    """The Decimals plain rate texts spelled, exponent included (``3.1200``
    stays ``3.1200``): each text's digits, scaled by its written places."""
    digits = micros // 10 ** (RATE_DECIMALS - places)
    return np.array([Decimal(d).scaleb(-p, CONTEXT)
                     for d, p in zip(digits.ravel().tolist(), places.ravel().tolist())],
                    object).reshape(micros.shape)


def rows_to_csv_text(header, rows) -> str:
    """``header``, then each of ``rows``, as csv.writer spells them with ``\n`` line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(chain([header], rows))
    return buf.getvalue()


def submissions_to_csv_text(submissions) -> str:
    """Render submissions to CSV text, sorted by (date, bank, tenor)."""
    ordered = sorted(submissions, key=lambda s: (s.date, s.bank, s.tenor.value))
    return rows_to_csv_text(CSV_COLUMNS, ([sub.date.isoformat(), sub.bank, sub.tenor.value,
                                           CONTEXT.to_sci_string(sub.rate)] for sub in ordered))
