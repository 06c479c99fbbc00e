"""Window construction, missing-data policies, and CSV ingestion."""

from __future__ import annotations

import random
import re
import warnings
from datetime import date, timedelta
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ingested_rate, naive_read_submissions_csv, naive_window
from ratefix import panel
from ratefix import (
    DataError,
    DuplicateSubmissionError,
    EmptyWindowError,
    Linkage,
    MissingDataPolicy,
    PanelWarning,
    PanelWindow,
    Submission,
    SubmissionFormatError,
    Tenor,
    agglomerate,
    build_window,
    collusion_caveat_report,
    distance_matrix,
    flag_anomalies,
    read_submissions_csv,
    submissions_to_csv_text,
)

D1, D2, D3 = date(2008, 3, 3), date(2008, 3, 4), date(2008, 3, 5)


def sub(bank, day, rate, tenor=Tenor.ONE_MONTH):
    return Submission(bank=bank, date=day, tenor=tenor, rate=Decimal(str(rate)))


def two_banks_three_dates(missing=()):
    out = []
    for bank, base in (("A", "3.00"), ("B", "3.10")):
        for i, day in enumerate((D1, D2, D3)):
            if (bank, day) in missing:
                continue
            out.append(sub(bank, day, Decimal(base) + i * Decimal("0.01")))
    return out


class TestTenor:
    def test_codes_round_trip(self):
        for tenor in Tenor:
            assert Tenor.parse(tenor.value) is tenor
            assert str(tenor) == tenor.value

    def test_parse_is_forgiving_about_case_and_space(self):
        assert Tenor.parse("o/n") is Tenor.OVERNIGHT
        assert Tenor.parse(" 1m ") is Tenor.ONE_MONTH
        assert Tenor.parse("12M") is Tenor.TWELVE_MONTHS

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Tenor.parse("2M")


class TestSubmission:
    def test_rate_coerced_to_decimal(self):
        s = Submission("A", D1, Tenor.ONE_MONTH, "3.25")
        assert s.rate == Decimal("3.25")
        assert isinstance(s.rate, Decimal)

    def test_negative_rate_rejected_by_default(self):
        with pytest.raises(ValueError):
            sub("A", D1, "-0.01")

    def test_floor_can_be_lowered_for_negative_rate_regimes(self):
        s = Submission("A", D1, Tenor.ONE_MONTH, Decimal("-0.25"), floor=Decimal("-1"))
        assert s.rate == Decimal("-0.25")

    def test_rate_below_a_float_floor_is_named_in_capitals(self):
        with localcontext(capitals=0), pytest.raises(
                ValueError, match=r"^rate -1E\+2 is below the allowed floor -0.5$"):
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("-1e2"), floor=-0.5)

    def test_text_that_is_no_number_is_refused_by_name(self):
        with pytest.raises(ValueError, match="bad rate 'potato'"):
            Submission("A", D1, Tenor.ONE_MONTH, "potato")

    def test_non_finite_rate_rejected(self):
        with pytest.raises(ValueError, match="^rate must be finite, got NaN$"):
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("NaN"))
        with pytest.raises(ValueError, match="^rate must be finite, got Infinity$"):
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("Infinity"))

    @pytest.mark.parametrize("rate", ["NaN", "-NaN", "sNaN", "Infinity", "-Infinity"])
    def test_bound_names_a_non_finite_rate_as_non_finite(self, rate):
        with pytest.raises(ValueError, match=f"^rate must be finite, got {rate}$"):
            panel.bounded_rate(Decimal(rate))

    def test_rate_bound_applies_to_library_callers(self):
        low = Decimal("-1e12")
        for rate in ("1e99999", "-1e9", "1e9"):
            with pytest.raises(ValueError, match="is not below 1000000000 in magnitude"):
                Submission("A", D1, Tenor.ONE_MONTH, Decimal(rate), floor=low)
        for rate in ("999999999.999999", "-999999999.999999"):
            assert Submission("A", D1, Tenor.ONE_MONTH, Decimal(rate), floor=low).rate == Decimal(rate)


class TestBuildWindow:
    def test_complete_panel(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D1, D3))
        assert window.banks == ("A", "B")
        assert window.dates == (D1, D2, D3)
        assert window.rates[window.banks.index("B")] == (
            Decimal("3.10"), Decimal("3.11"), Decimal("3.12"))
        assert window.n_banks == 2 and window.n_dates == 3

    def test_default_label_is_date_span(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D1, D3))
        assert window.label == f"{D1.isoformat()}..{D3.isoformat()}"

    def test_drop_incomplete_removes_short_dates(self):
        subs = two_banks_three_dates(missing={("B", D2)})
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        assert window.dates == (D1, D3)
        assert window.rates[window.banks.index("A")] == (Decimal("3.00"), Decimal("3.02"))

    def test_forward_fill_copies_prior_value(self):
        subs = two_banks_three_dates(missing={("B", D2)})
        policy = MissingDataPolicy(fill=True, max_gap=1)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        assert window.dates == (D1, D2, D3)
        assert window.rates[window.banks.index("B")] == (
            Decimal("3.10"), Decimal("3.10"), Decimal("3.12"))

    def test_forward_fill_respects_gap_limit(self):
        subs = two_banks_three_dates(missing={("B", D2), ("B", D3)})
        policy = MissingDataPolicy(fill=True, max_gap=1)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        # D2 is one step past B's last quote, D3 is two and must go.
        assert window.dates == (D1, D2)

    def test_forward_fill_cannot_invent_a_leading_value(self):
        subs = two_banks_three_dates(missing={("B", D1)})
        policy = MissingDataPolicy(fill=True, max_gap=5)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        assert window.dates == (D2, D3)

    def test_duplicate_bank_date_raises(self):
        subs = two_banks_three_dates() + [sub("A", D1, "9.9")]
        with pytest.raises(DuplicateSubmissionError):
            build_window(subs, Tenor.ONE_MONTH, (D1, D3))

    def test_other_tenors_are_ignored(self):
        subs = two_banks_three_dates() + [sub("A", D1, "9.9", Tenor.THREE_MONTHS)]
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        assert window.rates[window.banks.index("A")][0] == Decimal("3.00")

    def test_date_range_filter(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D2, D3))
        assert window.dates == (D2, D3)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyWindowError):
            build_window([], Tenor.ONE_MONTH, (D1, D3))

    def test_single_bank_raises(self):
        with pytest.raises(EmptyWindowError):
            build_window([sub("A", D1, "3.0")], Tenor.ONE_MONTH, (D1, D3))

    def test_input_order_does_not_matter(self):
        subs = two_banks_three_dates()
        reference = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(subs)
            rng.shuffle(shuffled)
            assert build_window(shuffled, Tenor.ONE_MONTH, (D1, D3)) == reference

    def test_min_coverage_drops_sparse_bank_with_warning(self):
        subs = two_banks_three_dates() + [sub("C", D1, "3.30")]
        with pytest.warns(PanelWarning):
            window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), min_coverage=0.9)
        assert window.banks == ("A", "B")
        assert window.dates == (D1, D2, D3)

    def test_no_coverage_gate_by_default(self):
        subs = two_banks_three_dates() + [sub("C", D1, "3.30")]
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        assert window.banks == ("A", "B", "C")
        # drop-incomplete then keeps only the one date C quoted on
        assert window.dates == (D1,)

    def test_rebuild_from_submissions_is_identity(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D1, D3))
        cells = [
            Submission(bank, day, window.tenor, rate)
            for bank, row in zip(window.banks, window.rates)
            for day, rate in zip(window.dates, row)
        ]
        again = build_window(
            cells,
            window.tenor,
            (window.dates[0], window.dates[-1]),
            label=window.label,
        )
        assert again == window


class TestPanelWindowValidation:
    def test_list_banks_and_dates_are_stored_as_tuples(self):
        rates = ((Decimal("3"), Decimal("3.1")), (Decimal("2.9"), Decimal("3")))
        from_lists = PanelWindow(["A", "B"], [D1, D2], rates, Tenor.ONE_MONTH, "X")
        from_tuples = PanelWindow(("A", "B"), (D1, D2), rates, Tenor.ONE_MONTH, "X")
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert isinstance(from_lists.banks, tuple) and isinstance(from_lists.dates, tuple)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PanelWindow(
                banks=("A", "B"),
                dates=(D1, D2),
                rates=((Decimal("3"), Decimal("3")), (Decimal("3"),)),
                tenor=Tenor.ONE_MONTH,
                label="X",
            )

    def test_dates_must_increase(self):
        with pytest.raises(ValueError):
            PanelWindow(
                banks=("A",),
                dates=(D2, D1),
                rates=((Decimal("3"), Decimal("3")),),
                tenor=Tenor.ONE_MONTH,
                label="X",
            )

    def test_duplicate_banks_rejected(self):
        with pytest.raises(ValueError):
            PanelWindow(
                banks=("A", "A"),
                dates=(D1,),
                rates=((Decimal("3"),), (Decimal("3"),)),
                tenor=Tenor.ONE_MONTH,
                label="X",
            )

    @pytest.mark.parametrize("cell", [3.0, 3, "3", None, Decimal("NaN"), Decimal("-Infinity")])
    def test_cells_must_be_finite_decimals(self, cell):
        with pytest.raises(ValueError, match="window cells must be finite decimals"):
            PanelWindow(
                banks=("A", "B"),
                dates=(D1, D2),
                rates=((Decimal("3"), Decimal("3")), (Decimal("3"), cell)),
                tenor=Tenor.ONE_MONTH,
                label="X",
            )


class TestPolicyProperties:
    """Seeded random missingness; the window must never contain invented data."""

    def _random_panel(self, rng):
        banks = [f"B{i}" for i in range(rng.randint(3, 6))]
        days = [date(2008, 1, 1) + timedelta(days=i) for i in range(rng.randint(5, 15))]
        present = {}
        for bank in banks:
            for day in days:
                if rng.random() < 0.8:
                    present[bank, day] = Decimal(rng.randrange(29000, 31000)).scaleb(-4)
        subs = [sub(bank, day, rate) for (bank, day), rate in present.items()]
        return banks, days, present, subs

    def test_drop_incomplete_keeps_exactly_the_complete_dates(self):
        rng = random.Random(2008)
        for _ in range(50):
            banks, days, present, subs = self._random_panel(rng)
            span = (days[0], days[-1])
            expected = tuple(
                d for d in days if all((b, d) in present for b in banks)
            )
            if not expected:
                with pytest.raises(EmptyWindowError):
                    build_window(subs, Tenor.ONE_MONTH, span)
                continue
            window = build_window(subs, Tenor.ONE_MONTH, span)
            assert window.dates == expected
            for bank, row in zip(window.banks, window.rates):
                for day, got in zip(window.dates, row):
                    assert got == present[bank, day]

    def test_forward_fill_never_exceeds_gap_and_copies_latest(self):
        rng = random.Random(4712)
        policy = MissingDataPolicy(fill=True, max_gap=2)
        for _ in range(50):
            banks, days, present, subs = self._random_panel(rng)
            span = (days[0], days[-1])
            try:
                window = build_window(subs, Tenor.ONE_MONTH, span, policy)
            except EmptyWindowError:
                continue
            index = {d: i for i, d in enumerate(days)}
            for bank, row in zip(window.banks, window.rates):
                for day, got in zip(window.dates, row):
                    if (bank, day) in present:
                        assert got == present[bank, day]
                        continue
                    # walk back to the filled-from quote
                    i = index[day]
                    gap = 0
                    while (bank, days[i]) not in present:
                        i -= 1
                        gap += 1
                        assert i >= 0, "fill invented a leading value"
                    assert gap <= 2
                    assert got == present[bank, days[i]]


@st.composite
def submission_streams(draw):
    """Shuffled submissions with gaps, long runs, duplicates and stray rows."""
    banks = [f"B{i}" for i in range(draw(st.integers(1, 5)))]
    n_days = draw(st.integers(1, 14))
    days = [date(2008, 1, 1) + timedelta(days=i) for i in range(n_days)]
    rates = st.sampled_from(["3", "3.0", "3.10", "2.995", "3.000001"])
    subs = []
    for bank in banks:
        # about a quarter of the cells missing: gaps shorter and longer than max_gap
        present = draw(st.lists(st.integers(0, 3), min_size=n_days, max_size=n_days))
        for day, here in zip(days, present):
            if here:
                subs.append(sub(bank, day, draw(rates)))
            if draw(st.integers(0, 9)) == 0:
                subs.append(sub(bank, day, draw(rates), Tenor.THREE_MONTHS))
    if subs and draw(st.booleans()):
        for _ in range(draw(st.integers(2, 4))):
            twin = draw(st.sampled_from(subs))
            subs.append(sub(twin.bank, twin.date, draw(rates), twin.tenor))
    # the range may cut into the stream, reach past it, or (rarely) be reversed
    lo = draw(st.integers(-2, n_days - 1))
    hi = draw(st.integers(lo, n_days + 1))
    span = (days[0] + timedelta(days=lo), days[0] + timedelta(days=hi))
    if draw(st.sampled_from([False] * 9 + [True])):
        span = (span[1] + timedelta(days=1), span[0])
    policy = draw(st.one_of(
        st.just(MissingDataPolicy.drop_incomplete()),
        st.integers(1, 4).map(lambda gap: MissingDataPolicy(fill=True, max_gap=gap)),
    ))
    return draw(st.permutations(subs)), span, policy, draw(st.sampled_from([0.0, 0.5, 0.9]))


def _outcome(build, subs, span, policy, min_coverage):
    """The window (cells as text, so 3.0 and 3.00 differ), warnings and error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            window = build(subs, Tenor.ONE_MONTH, span, policy, min_coverage=min_coverage)
        except (DataError, ValueError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (window.banks, window.dates, window.tenor, window.label,
                      [[str(rate) for rate in row] for row in window.rates])
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(stream=submission_streams())
def test_window_build_matches_naive_oracle(stream):
    assert _outcome(build_window, *stream) == _outcome(naive_window, *stream)


@pytest.mark.slow
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(stream=submission_streams())
def test_window_build_from_a_read_csv_matches_naive_oracle(stream, tmp_path_factory):
    subs, *rest = stream
    path = tmp_path_factory.mktemp("stream") / "stream.csv"
    path.write_text(submissions_to_csv_text(subs))
    table = read_submissions_csv(path)
    assert _outcome(build_window, table, *rest) == _outcome(naive_window, subs, *rest)


@st.composite
def written_panels(draw):
    """Rate texts with up to nine integer digits and up to six decimals, some cells missing."""
    n_banks, n_days = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    rows = []
    for b in range(n_banks):
        for t in range(n_days):
            if draw(st.integers(0, 5)):
                whole = draw(st.integers(0, 10 ** draw(st.integers(1, 9)) - 1))
                frac = draw(st.text("0123456789", max_size=6))
                rows.append((date(2008, 1, 1) + timedelta(days=t), f"B{b}",
                             f"{whole}.{frac}" if frac else str(whole)))
    return rows, draw(st.sampled_from([None, MissingDataPolicy(fill=True, max_gap=2)]))


@pytest.mark.slow
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(panel=written_panels())
def test_window_floats_are_its_cells_bit_for_bit(panel, tmp_path_factory):
    rows, policy = panel
    path = tmp_path_factory.mktemp("floats") / "floats.csv"
    path.write_text("date,bank,tenor,rate\n" + "".join(
        f"{day},{bank},1M,{text}\n" for day, bank, text in rows))
    subs = [sub(bank, day, Decimal(text)) for day, bank, text in rows]
    span = (date(2008, 1, 1), date(2008, 12, 31))
    built = []
    for source in (subs, read_submissions_csv(path)):
        try:
            window = build_window(source, Tenor.ONE_MONTH, span, policy)
        except EmptyWindowError:
            continue
        expected = np.array(window.rates, dtype=float)
        assert window.values.dtype == expected.dtype and window.values.shape == expected.shape
        assert window.values.tobytes() == expected.tobytes()
        assert not window.values.flags.writeable
        built.append([[str(rate) for rate in row] for row in window.rates])
    assert len(built) in (0, 2) and built[:1] == built[1:]


# four banks over three dates; written places from none to six, trailing zeros kept
_CELLS = {"A": ("3.1200", "3", "0.000001"), "B": ("3.5", "999999999.999999", "2.25"),
          "C": ("0.1", "0.2", "0.3"), "D": ("4.000000", "4.1", "4.19")}


def _cells_file(path, quoted=False):
    """``_CELLS`` as a file, bank A quoted if ``quoted``, so the row loop reads it."""
    spell = {"A": '"A"'} if quoted else {}
    path.write_text("date,bank,tenor,rate\n" + "".join(
        f"{day},{spell.get(bank, bank)},1M,{rates[i]}\n"
        for i, day in enumerate((D1, D2, D3)) for bank, rates in _CELLS.items()))
    return path


def test_every_window_makes_its_floats_from_its_cells(tmp_path):
    path = _cells_file(tmp_path / "cells.csv")
    rows = tuple(tuple(map(Decimal, rates)) for rates in _CELLS.values())
    plain, looped = (read_submissions_csv(path, rate_floor=floor)
                     for floor in (Decimal(0), Decimal(-1)))
    assert _read_whole(plain) and not _read_whole(looped)
    windows = [PanelWindow(tuple(_CELLS), (D1, D2, D3), rows, Tenor.ONE_MONTH, "X")] + [
        build_window(table, Tenor.ONE_MONTH, (D1, D3), label="X") for table in (plain, looped)]
    for window in windows:
        values = window.values
        assert values.flags.c_contiguous and not values.flags.writeable and values.base is None
        expected = np.array([[float(rate) for rate in row] for row in window.rates])
        assert values.tobytes() == expected.tobytes()
        assert [[str(rate) for rate in row] for row in window.rates] == [
            list(rates) for rates in _CELLS.values()]
    assert windows[1] == windows[0] == windows[2]


@pytest.mark.parametrize("quoted", [False, True], ids=["whole-file", "row-loop"])
def test_scoring_and_clustering_leave_a_window_undecoded(tmp_path, quoted):
    table = read_submissions_csv(_cells_file(tmp_path / "cells.csv", quoted))
    assert _read_whole(table) != quoted
    window = build_window(table, Tenor.ONE_MONTH, (D1, D3))
    report = flag_anomalies(window)
    collusion_caveat_report(report, window)
    agglomerate(distance_matrix(window), Linkage.WARD)
    assert "rates" not in vars(window)
    assert window.rates[window.banks.index("A")] == tuple(map(Decimal, _CELLS["A"]))
    assert "rates" in vars(window)


class TestCsv:
    def test_round_trip(self, tmp_path):
        subs = two_banks_three_dates()
        path = tmp_path / "panel.csv"
        path.write_text(submissions_to_csv_text(subs))
        back = read_submissions_csv(path)
        assert set(back) == set(subs)

    def test_round_trip_of_labels_the_writer_quotes(self, tmp_path):
        subs = [sub(bank, day, 3.1) for bank in ("A", "A,B", 'C"D', "E\nF") for day in (D1, D2)]
        path = tmp_path / "quoted.csv"
        path.write_text(submissions_to_csv_text(subs))
        assert path.read_text().splitlines()[1:4] == ["2008-03-03,A,1M,3.1",
                                                      '2008-03-03,"A,B",1M,3.1',
                                                      '2008-03-03,"C""D",1M,3.1']
        assert set(read_submissions_csv(path)) == set(subs)

    def test_rows_are_emitted_sorted(self):
        subs = list(reversed(two_banks_three_dates()))
        lines = submissions_to_csv_text(subs).splitlines()
        assert lines[0] == "date,bank,tenor,rate"
        assert lines[1].startswith("2008-03-03,A,")
        assert lines == sorted(lines[:1]) + sorted(lines[1:])

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bank,date,tenor,rate\nA,2008-03-03,1M,3.0\n")
        with pytest.raises(SubmissionFormatError):
            read_submissions_csv(path)

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,bank,tenor,rate\n"
            "2008-03-03,A,1M,3.0\n"
            "not-a-date,B,1M,3.0\n"
            "2008-03-03,C,1M,oops\n"
        )
        with pytest.raises(SubmissionFormatError) as err:
            read_submissions_csv(path)
        message = str(err.value)
        assert "line 3" in message
        assert "line 4" in message

    @pytest.mark.parametrize("quoted", [False, True], ids=["whole-file", "row-loop"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, quoted):
        text = _THREE_ROWS.replace(",A,", ',"A",') if quoted else _THREE_ROWS
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert _read_outcome(read_submissions_csv, marked) == _read_outcome(
            read_submissions_csv, plain)
        assert _read_whole(read_submissions_csv(marked)) != quoted

    @pytest.mark.parametrize("quoted", [False, True], ids=["whole-file", "row-loop"])
    def test_a_byte_order_mark_moves_no_line_number(self, tmp_path, quoted):
        text = _THREE_ROWS + '2008-03-04,B,1M,x\n2008-03-05,"B",1M,y\n' if quoted else \
            _THREE_ROWS + "2008-03-04,B,1M,x\n2008-03-05,B,1M,y\n"
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with pytest.raises(SubmissionFormatError) as err:
            read_submissions_csv(path)
        assert str(err.value) == f"{path}: line 5: bad rate 'x'; line 6: bad rate 'y'"
        # one mark is skipped, a second is the header's text
        path.write_bytes(b"\xef\xbb\xbf" * 2 + text.encode())
        with pytest.raises(SubmissionFormatError, match="header must be exactly"):
            read_submissions_csv(path)

    def test_line_numbers_are_physical_past_a_quoted_newline(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,bank,tenor,rate\n"
            '2008-01-01,"A\nB",1M,3\n'
            "\n"
            '2008-01-01,"C\n\nD",1M,x\n'
            "2008-01-01,E,1M,y\n"
        )
        with pytest.raises(SubmissionFormatError) as err:
            read_submissions_csv(path)
        assert str(err.value) == (f"{path}: line 5: bad rate 'x'; line 8: bad rate 'y'")

    def test_rate_precision_capped_at_six_digits(self, tmp_path):
        path = tmp_path / "tight.csv"
        path.write_text("date,bank,tenor,rate\n2008-03-03,A,1M,3.1234567\n")
        with pytest.raises(SubmissionFormatError):
            read_submissions_csv(path)

    def test_negative_rate_rejected_unless_floor_lowered(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("date,bank,tenor,rate\n2008-03-03,A,1M,-0.25\n")
        with pytest.raises(SubmissionFormatError):
            read_submissions_csv(path)
        subs = read_submissions_csv(path, rate_floor=Decimal("-1"))
        assert next(iter(subs)).rate == Decimal("-0.25")

    PADDED_ROWS = (
        " 2008-03-03, A , 1m , 3.10 \n"
        "2008-03-03,B,1M,3.2\n"
        "2008-13-01,C,1M,3.0\n"
        " 2008-03-04 ,A,o/n,3.0\n"
        "2008-13-01,D, 1m ,3.0\n"
        "2008-03-04,B,2M,3.0\n"
        "2008-03-04,C, 2m ,3.0\n"
        "2008-13-01,E,2M,3.0\n"
        "\n"
        "2008-03-05, ,1M,3.0\n"
        "2008-03-05,F,1M, 3.1234567 \n"
    )

    def test_padded_and_lowercase_fields_parse(self, tmp_path):
        path = tmp_path / "padded.csv"
        good = [self.PADDED_ROWS.splitlines()[i] for i in (0, 1, 3)]
        path.write_text("date,bank,tenor,rate\n" + "\n".join(good) + "\n")
        assert list(read_submissions_csv(path)) == [
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("3.10")),
            Submission("B", D1, Tenor.ONE_MONTH, Decimal("3.2")),
            Submission("A", D2, Tenor.OVERNIGHT, Decimal("3.0")),
        ]

    def test_every_repeated_bad_field_is_listed(self, tmp_path):
        # each bad date and tenor text recurs, so a parse cache must not hide a line
        path = tmp_path / "padded.csv"
        path.write_text("date,bank,tenor,rate\n" + self.PADDED_ROWS)
        with pytest.raises(SubmissionFormatError) as err:
            read_submissions_csv(path)
        assert str(err.value) == (
            f"{path}: line 4: month must be in 1..12; line 6: month must be in 1..12; "
            "line 7: unknown tenor code '2M'; line 8: unknown tenor code '2m'; "
            "line 9: month must be in 1..12; line 11: empty bank label; "
            "line 12: rate '3.1234567' has more than 6 fractional digits"
        )


_SIGN = st.sampled_from(["", "-", "+"])
_PLAIN = st.builds(
    lambda sign, whole, frac: f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}",
    _SIGN,
    st.one_of(st.integers(0, 9), st.integers(0, 10**11)),
    st.text("0123456789", max_size=8),
)
_RATE_TEXT = st.one_of(
    _PLAIN,
    st.builds(
        lambda mantissa, e, exp: f"{mantissa}{e}{exp}",
        _PLAIN,
        st.sampled_from(["e", "E"]),
        st.one_of(st.integers(-12, 12), st.sampled_from([99999, -99999])),
    ),
    st.sampled_from([
        "nan", "NaN", "-nan", "sNaN", "inf", "-Infinity", "", "x", "1.2.3", "1_000",
        "1e9", "-1e9", "1E+9", "1000000000", "-1000000000", "999999999.999999",
        "-999999999.999999", "1000000000.0000001", "3.1234567", "3.1234560",
        "-0.1234567", "-0.25", "-0", "0E-7", "1e200", "1e99999",
    ]),
)
_PADDED_RATE = st.builds(
    lambda left, core, right: left + core + right,
    st.sampled_from(["", " ", "\t", "  "]), _RATE_TEXT, st.sampled_from(["", " ", "\t"]),
)


@pytest.mark.slow
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    texts=st.lists(_PADDED_RATE, min_size=1, max_size=6),
    floor=st.sampled_from([Decimal(0), Decimal("-1"), Decimal("-1e12")]),
)
def test_ingest_accepts_and_refuses_rates_like_the_oracle(texts, floor, tmp_path_factory):
    path = tmp_path_factory.mktemp("rates") / "rates.csv"
    path.write_text("date,bank,tenor,rate\n" + "".join(
        f"2008-03-03,B{i},1M,{text}\n" for i, text in enumerate(texts)
    ))
    accepted, refused = [], []
    for lineno, text in enumerate(texts, start=2):
        try:
            accepted.append(str(ingested_rate(text, floor)))
        except ValueError:
            refused.append(lineno)
    try:
        subs = read_submissions_csv(path, rate_floor=floor)
    except SubmissionFormatError as exc:
        assert [int(n) for n in re.findall(r"line (\d+): ", str(exc))] == refused
    else:
        assert refused == []
        assert [str(s.rate) for s in subs] == accepted


# rate texts the plain pattern takes: up to nine integer digits, up to six
# decimals, spaces or tabs around
_PLAIN_RATE = st.builds(
    lambda left, whole, frac, right: f"{left}{whole}{frac}{right}",
    st.sampled_from(["", " ", "\t"]),
    st.one_of(st.integers(0, 2), st.integers(0, 99), st.integers(0, 10**9 - 1)).map(str),
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=6).map(".{}".format)),
    st.sampled_from(["", " ", "\t", " \t"]),
)
# every kind of rate text the plain pattern leaves to the per-row checks:
# first texts every floor here accepts, then texts some floor refuses
_OTHER_RATE = st.sampled_from([
    "+3.1", "3.1E0", "31e-1", "1E+1", ".5", "3.", "1_000", "\u0663.\u0665", "-0", "0.5",
    "999999999.999999", " 3.25\t",
])
_REFUSED_RATE = st.sampled_from([
    "nan", "-inf", "-0.25", " -1.5 ", "0.4", "1234567890", "1000000000", "3.1234567",
    "3.1234560", "", "x", "1.2.3",
])
_FIELDS = (
    st.sampled_from(["2008-03-03", " 2008-03-03", "2008-03-04 ", "2009-01-02"]),
    st.sampled_from(["A", " A ", "B", "C\t", "BANK01"]),
    st.sampled_from(["1M", " 1m ", "o/n", "O/N", "3M"]),
)
# bank fields in quotes, which the csv module reads as A, A,B and C"D
_QUOTED_BANK = st.sampled_from(['"A"', '"A,B"', '"C""D"'])
_GOOD_ROW = st.tuples(_FIELDS[0], st.one_of(_FIELDS[1], _QUOTED_BANK), _FIELDS[2],
                      st.one_of(_PLAIN_RATE, _PLAIN_RATE, _OTHER_RATE)).map(",".join)
# a record over two physical lines; the oracle numbers records, not lines
_NEWLINE_ROW = st.tuples(_FIELDS[0], st.just('"E\nF"'), _FIELDS[2], _PLAIN_RATE).map(",".join)
_BAD_ROW = st.one_of(
    st.tuples(*_FIELDS, _REFUSED_RATE).map(",".join),
    st.tuples(
        st.sampled_from(["2008-13-01", "x", "", "2008-03-03"]),
        st.sampled_from(["", " ", "A"]),
        st.sampled_from(["2M", "", "1M"]),
        st.one_of(_PLAIN_RATE, _REFUSED_RATE),
    ).map(",".join),
    st.sampled_from(["", "2008-03-03,A,1M", "2008-03-03,A,1M,3.1,extra", "2008-03-03"]),
)


@st.composite
def csv_files(draw):
    """A rate floor, and rows the plain pattern takes mixed with rows it
    leaves to the checks, some with a quoted bank; about half the files also
    carry a few refused or blank rows.  A file where no row is refused may
    hold quoted newlines: every good row passes floors 0 and -1."""
    floor = draw(st.sampled_from([Decimal(0), Decimal("-1"), Decimal("0.5")]))
    rows = draw(st.lists(_GOOD_ROW, max_size=30))
    bad = draw(st.one_of(st.just([]), st.lists(_BAD_ROW, min_size=1, max_size=3)))
    extra = bad or (draw(st.lists(_NEWLINE_ROW, max_size=2)) if floor <= 0 else [])
    for row in extra:
        rows.insert(draw(st.integers(0, len(rows))), row)
    return floor, rows


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(file=csv_files())
def test_reader_matches_the_row_at_a_time_oracle(file, tmp_path_factory):
    floor, rows = file
    path = tmp_path_factory.mktemp("mixed") / "mixed.csv"
    path.write_text("date,bank,tenor,rate\n" + "".join(row + "\n" for row in rows))

    def outcome(read):
        try:
            subs = read(path, rate_floor=floor)
        except SubmissionFormatError as exc:
            return str(exc)
        return [(s.bank, s.date, s.tenor, str(s.rate)) for s in subs]

    assert outcome(read_submissions_csv) == outcome(naive_read_submissions_csv)


# texts of an all-plain file, which the whole-file path reads: padded and
# non-ASCII fields, rates of 1-9 integer and 0-6 fractional digits with
# blanks around, blank lines, and a last line with or without its newline
_PLAIN_FIELDS = (
    st.sampled_from(["2008-03-03", " 2008-03-03", "2008-03-04 ", "2009-01-02", "\t2008-03-05"]),
    st.sampled_from(["A", " A ", "B", "C\t", "BANK01", "Crédit", " 銀行", "Ωmega ", "Z "]),
    st.sampled_from(["1M", " 1m ", "o/n", "O/N", "3M", "12m"]),
)
_WHOLE_FILE_RATE = st.builds(
    lambda left, whole, frac, right: f"{left}{whole}{frac}{right}",
    st.sampled_from(["", " ", "\t", " \t"]),
    st.text("0123456789", min_size=1, max_size=9),
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=6).map(".{}".format)),
    st.sampled_from(["", " ", "\t", " \t"]),
)
_PLAIN_LINE = st.tuples(*_PLAIN_FIELDS, _WHOLE_FILE_RATE).map(",".join)
_PLAIN_ROW = st.one_of(_PLAIN_LINE, _PLAIN_LINE, st.just(""))  # one line in three blank


def _read_outcome(read, path, floor=Decimal(0)):
    """What a reader makes of a file: its refusal, or each row's fields, rate
    text and float bits, plus the 1M window built from the rows."""
    try:
        rows = read(path, rate_floor=floor)
    except SubmissionFormatError as exc:
        return str(exc)
    try:
        window = build_window(rows, Tenor.ONE_MONTH, (date(2008, 1, 1), date(2009, 12, 31)),
                              MissingDataPolicy(fill=True, max_gap=2))
    except DataError as exc:
        built = str(exc)
    else:
        built = (window.banks, window.dates, [[str(r) for r in row] for row in window.rates],
                 window.values.tobytes())
    return [(s.bank, s.date, s.tenor, str(s.rate), float.hex(float(s.rate)))
            for s in rows], built


def _read_whole(table) -> bool:
    """Whether the whole-file path read ``table``: it keeps micro-units, not Decimals."""
    return table._column.dtype != object


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(_PLAIN_ROW, max_size=40), last_newline=st.booleans(),
       newline=st.sampled_from(["\n", "\n", "\r\n", "\r"]))
def test_whole_file_path_reads_plain_files_like_the_row_at_a_time_oracle(
        rows, last_newline, newline, tmp_path_factory):
    path = tmp_path_factory.mktemp("plain") / "plain.csv"
    lines = ["date,bank,tenor,rate", *rows] + ([""] if last_newline else [])
    path.write_bytes(newline.join(lines).encode())
    assert _read_outcome(read_submissions_csv, path) == _read_outcome(
        naive_read_submissions_csv, path)
    # a floor below zero sends the same file through the row loop: the two
    # paths give the same columns, codes included, and the same rows and
    # window, float bits included
    whole, by_row = read_submissions_csv(path), read_submissions_csv(path, rate_floor=Decimal(-1))
    assert _read_whole(whole) or not any(rows)
    assert (whole.dates, whole.banks, whole.tenors) == (by_row.dates, by_row.banks, by_row.tenors)
    assert whole.codes.tolist() == by_row.codes.tolist()
    assert _read_outcome(read_submissions_csv, path, Decimal(-1)) == _read_outcome(
        read_submissions_csv, path)


_THREE_ROWS = ("date,bank,tenor,rate\n"
               "2008-03-03,A,1M,3.1\n2008-03-04,A,1M,3.25\n2008-03-03,B,1M,3.10\n")


@pytest.mark.parametrize("text, floor, whole", [
    pytest.param(_THREE_ROWS.replace(",A,", ',"A",'), Decimal(0), False, id="quote"),
    pytest.param(_THREE_ROWS + "2008-03-04,B,1M,x\n", Decimal(0), False, id="refused-row"),
    pytest.param(_THREE_ROWS, Decimal(-1), False, id="floor"),
    pytest.param(_THREE_ROWS + "2008-02-30,B,1M,3.2\n", Decimal(0), False, id="bad-date"),
    pytest.param(_THREE_ROWS.replace("rate", "rates", 1), Decimal(0), False, id="bad-header"),
    # 2 and 4 commas: the total is what four-column lines hold, so only where
    # the commas fall leaves the file to the row loop
    pytest.param(_THREE_ROWS + "2008-03-04,B,1M\n2008-03-05,B,1M,3.2,x\n", Decimal(0), False,
                 id="uneven-commas"),
    # carriage returns read as newlines, as a text-mode read gives them
    pytest.param(_THREE_ROWS.replace("\n", "\r\n"), Decimal(0), True, id="crlf"),
    pytest.param(_THREE_ROWS.replace("\n", "\r"), Decimal(0), True, id="cr"),
    pytest.param(_THREE_ROWS.replace("\n", "\r\n").replace(",A,", ",\"A\r\nB\","), Decimal(0),
                 False, id="crlf-in-quotes"),
])
def test_each_file_is_read_as_the_oracle_reads_it_whichever_path_takes_it(
        text, floor, whole, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    got = _read_outcome(read_submissions_csv, path, floor)
    assert got == _read_outcome(naive_read_submissions_csv, path, floor)
    if not isinstance(got, str):
        assert _read_whole(read_submissions_csv(path, rate_floor=floor)) == whole


@pytest.mark.slow
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(rate=st.one_of(
    st.text(" \t.0123456789", max_size=20),
    st.text("0123456789", min_size=8, max_size=11).map(lambda digits: digits[:4] + "." + digits[4:]),
    st.sampled_from(["1234567890", "123456789", "1.1234567", "1.123456", "1.", ".5", "1..2",
                     "1 2", "", " ", "1.2.3", "\x0b1", "+1", "1e3", "\u0663", "0x1", "1\xa0"]),
))
def test_whole_file_path_takes_exactly_the_rates_the_plain_pattern_takes(rate):
    data = f"date,bank,tenor,rate\n2008-03-03,A,1M,{rate}\n".encode()
    assert (panel._read_plain(data, Decimal(0)) is not None) == bool(panel._PLAIN_RATE(rate))
