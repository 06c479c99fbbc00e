"""Window construction, missing-data policies, and CSV ingestion."""

from __future__ import annotations

import random
import warnings
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_window
from ratefix import (
    DataError,
    DuplicateSubmissionError,
    EmptyWindowError,
    MissingDataPolicy,
    PanelWarning,
    PanelWindow,
    Submission,
    SubmissionFormatError,
    Tenor,
    annual_windows,
    build_window,
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
            assert Tenor.parse(tenor.code) is tenor
            assert str(tenor) == tenor.code

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

    def test_non_finite_rate_rejected(self):
        with pytest.raises(ValueError):
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("NaN"))
        with pytest.raises(ValueError):
            Submission("A", D1, Tenor.ONE_MONTH, Decimal("Infinity"))


class TestBuildWindow:
    def test_complete_panel(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D1, D3))
        assert window.banks == ("A", "B")
        assert window.dates == (D1, D2, D3)
        assert window.series("B") == (Decimal("3.10"), Decimal("3.11"), Decimal("3.12"))
        assert window.n_banks == 2 and window.n_dates == 3

    def test_default_label_is_date_span(self):
        window = build_window(two_banks_three_dates(), Tenor.ONE_MONTH, (D1, D3))
        assert window.label == f"{D1.isoformat()}..{D3.isoformat()}"

    def test_drop_incomplete_removes_short_dates(self):
        subs = two_banks_three_dates(missing={("B", D2)})
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        assert window.dates == (D1, D3)
        assert window.series("A") == (Decimal("3.00"), Decimal("3.02"))

    def test_forward_fill_copies_prior_value(self):
        subs = two_banks_three_dates(missing={("B", D2)})
        policy = MissingDataPolicy.forward_fill(max_gap=1)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        assert window.dates == (D1, D2, D3)
        assert window.series("B") == (Decimal("3.10"), Decimal("3.10"), Decimal("3.12"))

    def test_forward_fill_respects_gap_limit(self):
        subs = two_banks_three_dates(missing={("B", D2), ("B", D3)})
        policy = MissingDataPolicy.forward_fill(max_gap=1)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        # D2 is one step past B's last quote, D3 is two and must go.
        assert window.dates == (D1, D2)

    def test_forward_fill_cannot_invent_a_leading_value(self):
        subs = two_banks_three_dates(missing={("B", D1)})
        policy = MissingDataPolicy.forward_fill(max_gap=5)
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3), policy)
        assert window.dates == (D2, D3)

    def test_duplicate_bank_date_raises(self):
        subs = two_banks_three_dates() + [sub("A", D1, "9.9")]
        with pytest.raises(DuplicateSubmissionError):
            build_window(subs, Tenor.ONE_MONTH, (D1, D3))

    def test_other_tenors_are_ignored(self):
        subs = two_banks_three_dates() + [sub("A", D1, "9.9", Tenor.THREE_MONTHS)]
        window = build_window(subs, Tenor.ONE_MONTH, (D1, D3))
        assert window.series("A")[0] == Decimal("3.00")

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
        again = build_window(
            window.submissions(),
            window.tenor,
            (window.dates[0], window.dates[-1]),
            label=window.label,
        )
        assert again == window


class TestPanelWindowValidation:
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
            for bank in window.banks:
                for day, got in zip(window.dates, window.series(bank)):
                    assert got == present[bank, day]

    def test_forward_fill_never_exceeds_gap_and_copies_latest(self):
        rng = random.Random(4712)
        policy = MissingDataPolicy.forward_fill(max_gap=2)
        for _ in range(50):
            banks, days, present, subs = self._random_panel(rng)
            span = (days[0], days[-1])
            try:
                window = build_window(subs, Tenor.ONE_MONTH, span, policy)
            except EmptyWindowError:
                continue
            index = {d: i for i, d in enumerate(days)}
            for bank in window.banks:
                for day, got in zip(window.dates, window.series(bank)):
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
        st.integers(1, 4).map(MissingDataPolicy.forward_fill),
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(stream=submission_streams())
def test_window_build_matches_naive_oracle(stream):
    assert _outcome(build_window, *stream) == _outcome(naive_window, *stream)


class TestAnnualWindows:
    def _multi_year(self):
        subs = []
        for year in (2005, 2006, 2007):
            for offset in range(4):
                day = date(year, 6, 2) + timedelta(days=offset)
                subs.append(sub("A", day, "3.00"))
                subs.append(sub("B", day, "3.10"))
        return subs

    def test_one_window_per_year_with_dataset_labels(self):
        windows = annual_windows(self._multi_year(), Tenor.ONE_MONTH, (2005, 2007), dataset="LIBOR")
        assert [w.label for w in windows] == ["LIBOR-2005", "LIBOR-2006", "LIBOR-2007"]
        assert all(w.n_dates == 4 for w in windows)

    def test_other_tenor_does_not_leak_in(self):
        subs = self._multi_year() + [
            sub("A", date(2006, 6, 2), "9.9", Tenor.THREE_MONTHS)
        ]
        windows = annual_windows(subs, Tenor.ONE_MONTH, (2005, 2007))
        year_2006 = [w for w in windows if w.label.endswith("2006")][0]
        assert all(r != Decimal("9.9") for r in year_2006.series("A"))

    def test_empty_year_is_omitted_with_warning(self):
        subs = [s for s in self._multi_year() if s.date.year != 2006]
        with pytest.warns(PanelWarning, match="2006"):
            windows = annual_windows(subs, Tenor.ONE_MONTH, (2005, 2007), dataset="X")
        assert [w.label for w in windows] == ["X-2005", "X-2007"]


class TestCsv:
    def test_round_trip(self, tmp_path):
        subs = two_banks_three_dates()
        path = tmp_path / "panel.csv"
        path.write_text(submissions_to_csv_text(subs))
        back = read_submissions_csv(path)
        assert set(back) == set(subs)

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
        assert read_submissions_csv(path) == [
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
