"""Scenario generator: determinism, strategy overlays, and the truth mask."""

from __future__ import annotations

import math
from datetime import date
from itertools import product
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import HOSTILE_CONTEXTS, exact_decimal
from oracles import naive_fixing_series, naive_generate, naive_quantize
from ratefix import (
    BaseCurve,
    CollusiveQuote,
    DataError,
    FixingConfig,
    InvalidStrategyTargetError,
    ScenarioConfig,
    SimulatedPanel,
    SingleFixed,
    SingleOffset,
    Submission,
    SubmissionTable,
    Tenor,
    bank_labels,
    fixing_series,
    generate,
    parse_strategy,
    simulate_panel,
    submissions_to_csv_text,
    truth_to_csv_text,
)
from ratefix.cli import main
from ratefix.fixing import CONTEXT
import ratefix.simulate
from ratefix.simulate import _micro_units


def rates_by_cell(submissions):
    return {(s.bank, s.date): s.rate for s in submissions}


class TestBaseCurve:
    def test_values(self):
        assert BaseCurve.constant(3.0).value(200) == 3.0
        linear = BaseCurve("linear", 3.0, slope=0.001)
        assert linear.value(1) == 3.0
        assert linear.value(11) == pytest.approx(3.01)
        shock = BaseCurve("shock", 3.0, delta=-0.5, day=120)
        assert shock.value(119) == 3.0
        assert shock.value(120) == 2.5

    def test_spec_round_trip(self):
        for text, curve in (
            ("constant:3.0", BaseCurve.constant(3.0)),
            ("linear:2.5:-0.0004", BaseCurve("linear", 2.5, slope=-0.0004)),
            ("shock:3.0:-0.5:120", BaseCurve("shock", 3.0, delta=-0.5, day=120)),
            (" shock:3:-0.5:120 ", BaseCurve("shock", 3.0, delta=-0.5, day=120)),
        ):
            assert BaseCurve.parse(text) == curve

    def test_bad_specs(self):
        for text in ("", "constant", "constant:x", "linear:3.0", "shock:3:1", "step:3.0"):
            with pytest.raises(ValueError):
                BaseCurve.parse(text)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BaseCurve("quadratic", 3.0)


class TestStrategyGrammar:
    def test_single_offset(self):
        got = parse_strategy("single-offset:9:-0.25:30-60")
        assert got == SingleOffset("9", Decimal("-0.25"), (30, 60))

    def test_single_fixed_defaults_to_every_day(self):
        got = parse_strategy("single-fixed:BANK02:2.8")
        assert got == SingleFixed("BANK02", Decimal("2.8"), None)

    def test_single_day_range(self):
        got = parse_strategy("single-fixed:1:2.8:45")
        assert got.days == (45, 45)

    def test_collusive(self):
        got = parse_strategy("collusive:2+5+11:3.6:100-150")
        assert got == CollusiveQuote(("2", "5", "11"), Decimal("3.6"), (100, 150))

    def test_bad_specs(self):
        for text in (
            "",
            "single-offset:1",
            "single-offset:1:x",
            "collusive::3.6",
            "collusive:1+2:3.6:a-b",
            "mystery:1:2",
        ):
            with pytest.raises(ValueError):
                parse_strategy(text)


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_banks=2)
        with pytest.raises(ValueError):
            ScenarioConfig(n_days=0)
        with pytest.raises(ValueError):
            ScenarioConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(seed=-1)

    def test_a_horizon_past_the_last_date_names_the_start_date_and_day_count(self):
        assert ScenarioConfig(n_days=2, start_date=date(9999, 12, 30)).dates[-1] == date.max
        with pytest.raises(ValueError, match="^2 days from start date 9999-12-31 run past"):
            ScenarioConfig(n_days=2, start_date=date.max)

    def test_dates_are_consecutive(self):
        config = ScenarioConfig(n_days=3, start_date=date(2008, 2, 28))
        assert config.dates == (date(2008, 2, 28), date(2008, 2, 29), date(2008, 3, 1))

    def test_bank_labels_zero_padded(self):
        assert bank_labels(ScenarioConfig(n_banks=12))[:2] == ("BANK01", "BANK02")
        assert bank_labels(ScenarioConfig(n_banks=12))[-1] == "BANK12"
        assert bank_labels(ScenarioConfig(n_banks=100))[8] == "BANK009"
        assert bank_labels(ScenarioConfig(n_banks=4, bank_prefix="X"))[0] == "X01"


class TestGenerate:
    def test_reruns_are_identical(self):
        config = ScenarioConfig(n_banks=5, n_days=20, seed=99)
        first = generate(config)
        second = generate(config)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_zero_noise_constant_curve_pins_every_quote(self):
        config = ScenarioConfig(n_banks=4, n_days=5, noise_sigma=0.0)
        submissions, truth = generate(config)
        assert truth == []
        assert {s.rate for s in submissions} == {Decimal("3.000000")}
        assert len(submissions) == 20

    def test_zero_noise_linear_curve_follows_base(self):
        config = ScenarioConfig(
            n_banks=3, n_days=3, noise_sigma=0.0,
            base_curve=BaseCurve("linear", 3.0, slope=0.01),
        )
        cells = rates_by_cell(generate(config)[0])
        days = config.dates
        for bank in bank_labels(config):
            assert cells[bank, days[0]] == Decimal("3.000000")
            assert cells[bank, days[1]] == Decimal("3.010000")
            assert cells[bank, days[2]] == Decimal("3.020000")

    def test_rates_clamped_at_zero(self):
        config = ScenarioConfig(
            n_banks=4, n_days=10, noise_sigma=0.0,
            base_curve=BaseCurve.constant(0.05),
            strategies=(SingleOffset("1", Decimal("-1")),),
        )
        cells = rates_by_cell(generate(config)[0])
        for day in config.dates:
            assert cells["BANK01", day] == Decimal("0.000000")

    def test_strategy_touches_only_its_cells(self):
        base = ScenarioConfig(n_banks=6, n_days=12, seed=5)
        rigged = ScenarioConfig(
            n_banks=6, n_days=12, seed=5,
            strategies=(SingleOffset("BANK03", Decimal("0.10"), (4, 6)),),
        )
        honest = rates_by_cell(generate(base)[0])
        touched = rates_by_cell(generate(rigged)[0])
        days = base.dates
        _, truth = generate(rigged)
        assert truth == [("BANK03", days[t]) for t in (3, 4, 5)]
        for (bank, day), rate in touched.items():
            if (bank, day) in set(truth):
                assert rate == honest[bank, day] + Decimal("0.10")
            else:
                assert rate == honest[bank, day]

    def test_offset_is_exact_on_the_quote_grid(self):
        config = ScenarioConfig(
            n_banks=4, n_days=4, seed=11,
            strategies=(SingleOffset("2", Decimal("0.015")),),
        )
        honest = rates_by_cell(generate(ScenarioConfig(n_banks=4, n_days=4, seed=11))[0])
        rigged = rates_by_cell(generate(config)[0])
        for day in config.dates:
            assert rigged["BANK02", day] == honest["BANK02", day] + Decimal("0.015")

    @pytest.mark.parametrize("offset", [
        "0.0000004999999999999999999999999", "0.0000005", "-0.0000005000000000000000000000001",
        "0.1234564999999999999999999999999999", "-0.00000049999999999999999999999999",
        "-0.0000005", "-0.0000015", "0.0000025", "-5"])
    def test_offset_cell_is_the_exact_sum_rounded_once(self, offset):
        # 28 significant digits cannot hold these sums, so a rounded sum can
        # itself land on a half-micro tie and round up a second time
        honest = simulate_panel(ScenarioConfig(n_banks=3, n_days=6, seed=5)).micros
        config = ScenarioConfig(n_banks=3, n_days=6, seed=5,
                                strategies=(SingleOffset("1", Decimal(offset)),))
        exact = [max(Fraction(q, 10**6) + Fraction(offset), 0) for q in honest[0].tolist()]
        got = simulate_panel(config).micros
        assert got[0].tolist() == [math.floor(x * 10**6 + Fraction(1, 2)) for x in exact]
        assert (got[1:] == honest[1:]).all()

    def test_collusive_banks_quote_identically(self):
        config = ScenarioConfig(
            n_banks=6, n_days=8, seed=13,
            strategies=(CollusiveQuote(("2", "5"), Decimal("2.75"), (3, 8)),),
        )
        cells = rates_by_cell(generate(config)[0])
        days = config.dates
        for t in range(2, 8):
            assert cells["BANK02", days[t]] == Decimal("2.750000")
            assert cells["BANK05", days[t]] == Decimal("2.750000")
        assert cells["BANK02", days[0]] != cells["BANK05", days[0]]

    def test_later_strategies_win(self):
        config = ScenarioConfig(
            n_banks=4, n_days=2, seed=17,
            strategies=(
                SingleFixed("1", Decimal("2.0")),
                SingleFixed("1", Decimal("2.5")),
            ),
        )
        cells = rates_by_cell(generate(config)[0])
        assert cells["BANK01", config.dates[0]] == Decimal("2.500000")

    def test_bank_reference_forms_agree(self):
        base = ScenarioConfig(n_banks=12, n_days=3, seed=19)
        variants = []
        for ref in ("9", "BANK9", "BANK09"):
            config = ScenarioConfig(
                n_banks=12, n_days=3, seed=19,
                strategies=(SingleFixed(ref, Decimal("1.5")),),
            )
            variants.append(rates_by_cell(generate(config)[0]))
        assert variants[0] == variants[1] == variants[2]
        assert variants[0]["BANK09", base.dates[0]] == Decimal("1.500000")

    def test_unknown_bank_rejected(self):
        config = ScenarioConfig(
            n_banks=4, n_days=3,
            strategies=(SingleFixed("BANK07", Decimal("1.5")),),
        )
        with pytest.raises(InvalidStrategyTargetError):
            generate(config)

    def test_day_range_outside_scenario_rejected(self):
        config = ScenarioConfig(
            n_banks=4, n_days=3,
            strategies=(SingleFixed("1", Decimal("1.5"), (1, 4)),),
        )
        with pytest.raises(InvalidStrategyTargetError):
            generate(config)

    def test_negative_fixed_rate_rejected(self):
        config = ScenarioConfig(
            n_banks=4, n_days=3,
            strategies=(SingleFixed("1", Decimal("-1.5")),),
        )
        with pytest.raises(InvalidStrategyTargetError):
            generate(config)

    def test_offset_past_rate_limit_names_strategy_bank_and_day(self):
        config = ScenarioConfig(
            n_banks=4, n_days=3, base_curve=BaseCurve.constant(999999999),
            strategies=(SingleOffset("2", Decimal("999999999"), (2, 3)),),
        )
        with pytest.raises(InvalidStrategyTargetError,
                           match=r"single-offset strategy on bank BANK02, day 2 \("):
            generate(config)

    def test_growing_the_panel_preserves_existing_banks(self):
        small = rates_by_cell(generate(ScenarioConfig(n_banks=5, n_days=10, seed=23))[0])
        large = rates_by_cell(generate(ScenarioConfig(n_banks=8, n_days=10, seed=23))[0])
        assert small == {cell: rate for cell, rate in large.items() if cell in small}
        assert len(large) == 80

    def test_extending_the_horizon_preserves_earlier_days(self):
        short = rates_by_cell(generate(ScenarioConfig(n_banks=4, n_days=10, seed=29))[0])
        long = rates_by_cell(generate(ScenarioConfig(n_banks=4, n_days=25, seed=29))[0])
        assert short == {cell: rate for cell, rate in long.items() if cell in short}

    def test_different_seeds_differ(self):
        a = rates_by_cell(generate(ScenarioConfig(n_banks=4, n_days=5, seed=1))[0])
        b = rates_by_cell(generate(ScenarioConfig(n_banks=4, n_days=5, seed=2))[0])
        assert a != b


class TestSimulatedPanel:
    def test_writers_match_the_submission_writers_for_any_bank_prefix(self):
        for prefix in ("BANK", 'B,"%x', " b\tr"):
            config = ScenarioConfig(
                n_banks=4, n_days=3, seed=3, bank_prefix=prefix, tenor=Tenor.OVERNIGHT,
                strategies=(SingleFixed("2", Decimal("1.5"), (2, 3)),),
            )
            panel = simulate_panel(config)
            submissions, truth = generate(config)
            cells = [(s.bank, s.date) for s in submissions]
            assert panel.csv_text(config.tenor) == submissions_to_csv_text(submissions)
            assert panel.truth_csv_text() == truth_to_csv_text(truth, cells)

    def test_writers_spell_the_edge_rates(self):
        panel = SimulatedPanel(("A", "B", "C"), (date(2008, 1, 1),),
                               np.array([[0], [999_999_999_999_999], [1_000_000_005]]),
                               np.array([[False], [True], [False]]))
        assert panel.csv_text(Tenor.ONE_MONTH).splitlines() == [
            "date,bank,tenor,rate", "2008-01-01,A,1M,0.000000",
            "2008-01-01,B,1M,999999999.999999", "2008-01-01,C,1M,1000.000005"]
        assert panel.truth_csv_text().splitlines() == [
            "date,bank,manipulated", "2008-01-01,A,0", "2008-01-01,B,1", "2008-01-01,C,0"]

    def test_columns(self):
        config = ScenarioConfig(
            n_banks=3, n_days=4, noise_sigma=0.0, base_curve=BaseCurve.constant(0.25),
            strategies=(SingleOffset("3", Decimal("-1"), (2, 3)),),
        )
        panel = simulate_panel(config)
        assert panel.banks == bank_labels(config) and panel.dates == config.dates
        assert panel.micros.dtype == np.int64
        assert panel.micros.tolist() == [[250_000] * 4, [250_000] * 4, [250_000, 0, 0, 250_000]]
        assert panel.touched.tolist() == [[False] * 4, [False] * 4, [False, True, True, False]]


# micro-units at every width of the whole part, and anywhere below 10**15
_MICROS = st.one_of(
    st.integers(0, 10**15 - 1),
    st.builds(lambda whole, frac: whole * 10**6 + frac,
              st.sampled_from([0, 1, 9, 10, 99, 100, 999, 1000, 10**6 - 1, 10**6, 10**9 - 1]),
              st.integers(0, 10**6 - 1)),
)
# bank prefixes csv.writer has to quote, and text past ASCII
_PREFIX = st.text(st.one_of(st.sampled_from(',"%\t\n\r'), st.characters(codec="utf-8")),
                  max_size=4)


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), prefix=_PREFIX, tenor=st.sampled_from(list(Tenor)))
def test_panel_writers_match_the_submission_writers(data, prefix, tenor):
    banks, days = data.draw(st.integers(3, 12)), data.draw(st.integers(1, 5))
    config = ScenarioConfig(n_banks=banks, n_days=days, bank_prefix=prefix,
                            start_date=data.draw(st.dates(max_value=date(9999, 12, 27))))
    cells = list(product(bank_labels(config), config.dates))
    micros = data.draw(st.lists(_MICROS, min_size=len(cells), max_size=len(cells)))
    touched = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    panel = SimulatedPanel(bank_labels(config), config.dates,
                           np.array(micros, np.int64).reshape(banks, days),
                           np.array(touched).reshape(banks, days))
    submissions = [Submission(bank, day, tenor, Decimal(q).scaleb(-6, CONTEXT))
                   for (bank, day), q in zip(cells, micros)]
    truth = [cell for cell, hit in zip(cells, touched) if hit]
    assert panel.csv_text(tenor) == submissions_to_csv_text(submissions)
    assert panel.truth_csv_text() == truth_to_csv_text(truth, cells)


class TestFixingSeries:
    def test_zero_noise_series_is_flat(self):
        config = ScenarioConfig(n_banks=8, n_days=6, noise_sigma=0.0)
        submissions, _ = generate(config)
        series = fixing_series(submissions, config.tenor)
        assert series.errors == ()
        assert [day for day, _ in series.results] == list(config.dates)
        assert all(r.raw_mean == Decimal("3.000000") for _, r in series.results)

    def test_quarter_trim_absorbs_a_single_lowballer(self):
        config = ScenarioConfig(
            n_banks=8, n_days=6, noise_sigma=0.0,
            strategies=(SingleFixed("3", Decimal("1.0"), (3, 4)),),
        )
        submissions, _ = generate(config)
        series = fixing_series(submissions, config.tenor)
        assert all(r.raw_mean == Decimal("3.000000") for _, r in series.results)

    def test_a_colluding_pair_is_still_absorbed_by_the_trim(self):
        config = ScenarioConfig(
            n_banks=8, n_days=6, noise_sigma=0.0,
            strategies=(CollusiveQuote(("3", "5"), Decimal("1.0"), (3, 4)),),
        )
        submissions, _ = generate(config)
        series = fixing_series(submissions, config.tenor)
        assert all(r.raw_mean == Decimal("3.000000") for _, r in series.results)

    def test_three_colluders_overwhelm_the_trim(self):
        config = ScenarioConfig(
            n_banks=8, n_days=6, noise_sigma=0.0,
            strategies=(CollusiveQuote(("3", "5", "7"), Decimal("1.0"), (3, 4)),),
        )
        submissions, _ = generate(config)
        series = fixing_series(submissions, config.tenor)
        by_day = {day: r.raw_mean for day, r in series.results}
        days = config.dates
        # 2 of 8 trimmed per side, so one lowball lands in the retained four
        assert by_day[days[2]] == Decimal("2.500000")
        assert by_day[days[3]] == Decimal("2.500000")
        assert by_day[days[0]] == Decimal("3.000000")
        assert by_day[days[4]] == Decimal("3.000000")

    def test_failures_are_collected_not_raised(self):
        config = ScenarioConfig(n_banks=3, n_days=4, noise_sigma=0.0)
        submissions, _ = generate(config)
        series = fixing_series(
            submissions, config.tenor, FixingConfig(trim_fraction=Decimal("0.34"), min_retained=3)
        )
        assert series.results == ()
        assert len(series.errors) == 4

    def test_a_repeated_bank_is_that_dates_error(self):
        config = ScenarioConfig(n_banks=5, n_days=4, seed=9)
        submissions, _ = generate(config)
        clean = fixing_series(submissions, config.tenor)
        day = config.dates[2]
        repeats = [
            Submission(bank, day, config.tenor, Decimal("9.5"))
            for bank in ("BANK04", "BANK02")
        ]
        series = fixing_series([*submissions, *repeats], config.tenor)
        assert series.errors == ((day, f"duplicate submission for BANK02 on {day} (1M)"),)
        assert series.results == tuple(r for r in clean.results if r[0] != day)

    def test_compute_fixing_runs_once_per_clean_day(self, monkeypatch):
        # the bench traces fixing.compute_fixing and expects one call per day
        calls = []
        engine = ratefix.simulate.compute_fixing

        def counted(quotes, config=None):
            calls.append(None)
            return engine(quotes, config)

        monkeypatch.setattr(ratefix.simulate, "compute_fixing", counted)
        config = ScenarioConfig(n_banks=5, n_days=7, seed=2)
        submissions, _ = generate(config)
        assert len(fixing_series(submissions, config.tenor).results) == len(calls) == 7
        calls.clear()
        day = config.dates[3]
        on_day = [s for s in submissions if s.date == day]
        repeat = Submission("BANK02", day, config.tenor, Decimal("3.5"))
        assert len(fixing_series([*on_day, repeat], config.tenor).errors) == 1
        assert calls == []

    @pytest.mark.parametrize("form", ["list", "set", "table"])
    def test_a_date_with_repeats_names_its_smallest_repeated_bank(self, monkeypatch, form):
        calls = []
        engine = ratefix.simulate.compute_fixing

        def counted(quotes, config=None):
            calls.append(None)
            return engine(quotes, config)

        monkeypatch.setattr(ratefix.simulate, "compute_fixing", counted)
        config = ScenarioConfig(n_banks=6, n_days=5, seed=4)
        submissions, _ = generate(config)
        first, second = config.dates[1], config.dates[3]
        # repeats out of label order; distinct rates keep every one in a set
        repeats = [Submission(bank, first, config.tenor, Decimal(f"3.{i}1"))
                   for i, bank in enumerate(["BANK04", "BANK04", "BANK02", "BANK02", "BANK02"])]
        repeats.append(Submission("BANK05", second, config.tenor, Decimal("2.9")))
        rows = [*submissions, *repeats]
        given = {"list": rows, "set": set(rows), "table": SubmissionTable.of(rows)}[form]
        series = fixing_series(given, config.tenor)
        assert series.errors == (
            (first, f"duplicate submission for BANK02 on {first} (1M)"),
            (second, f"duplicate submission for BANK05 on {second} (1M)"),
        )
        assert len(calls) == len(series.results) == 3
        want = naive_fixing_series(given, config.tenor)
        assert series == want and _spelled(series) == _spelled(want)


# rates equal in value may differ in exponent, so the order of the retained
# quotes shows in their strings
_SERIES_RATES = st.sampled_from(["3", "3.0", "3.000000", "2.99", "2.990", "3.01", "2.95", "0"])


def _spelled(series):
    return [(day, str(r.raw_mean), str(r.published),
             *(tuple(map(str, part)) for part in (r.retained, r.trimmed_low, r.trimmed_high)))
            for day, r in series.results]


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    n_banks=st.integers(3, 6), n_days=st.integers(1, 4), seed=st.integers(0, 3),
    dropped=st.sets(st.integers(0, 23), max_size=8),
    extra=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3), st.booleans(), _SERIES_RATES),
                   max_size=8),
    form=st.sampled_from(["set", "list", "table"]), shuffle=st.randoms(use_true_random=False),
    three_month=st.booleans(), trim=st.sampled_from(["0", "0.2", "0.25", "0.34"]),
    min_retained=st.integers(1, 5),
)
def test_fixing_series_matches_the_tuple_grouping_oracle(
        n_banks, n_days, seed, dropped, extra, form, shuffle, three_month, trim, min_retained):
    config = ScenarioConfig(n_banks=n_banks, n_days=n_days, seed=seed, noise_sigma=0.02)
    generated, _ = generate(config)
    kept = [s for i, s in enumerate(sorted(generated, key=lambda s: (s.date, s.bank)))
            if i not in dropped]
    # extra quotes repeat a generated bank or add one, in either tenor
    kept += [Submission(f"BANK{b:02d}", config.dates[d % n_days],
                        Tenor.THREE_MONTHS if other else config.tenor, Decimal(rate))
             for b, d, other, rate in extra]
    shuffle.shuffle(kept)
    submissions = {"set": set(kept), "list": kept, "table": SubmissionTable.of(kept)}[form]
    tenor = Tenor.THREE_MONTHS if three_month else config.tenor
    fixing = FixingConfig(trim_fraction=Decimal(trim), min_retained=min_retained)
    got = fixing_series(submissions, tenor, fixing)
    want = naive_fixing_series(submissions, tenor, fixing)
    assert got == want
    assert _spelled(got) == _spelled(want)


class TestTruthCsv:
    def test_full_mask_with_flags(self):
        config = ScenarioConfig(
            n_banks=3, n_days=2, noise_sigma=0.0, start_date=date(2008, 1, 1),
            strategies=(SingleFixed("2", Decimal("9.0"), (2, 2)),),
        )
        submissions, truth = generate(config)
        cells = [(s.bank, s.date) for s in submissions]
        text = truth_to_csv_text(truth, cells)
        assert text.splitlines() == [
            "date,bank,manipulated",
            "2008-01-01,BANK01,0",
            "2008-01-01,BANK02,0",
            "2008-01-01,BANK03,0",
            "2008-01-02,BANK01,0",
            "2008-01-02,BANK02,1",
            "2008-01-02,BANK03,0",
        ]


def _near_tie(k: int, nudge: int) -> float:
    """``k / 1e6 + 5e-7``, next to the half-micro tie above ``k`` micro-units,
    moved ``nudge`` ulps."""
    value = k / 1e6 + 5e-7
    for _ in range(abs(nudge)):
        value = math.nextafter(value, math.copysign(math.inf, nudge))
    return value


_CELLS = st.one_of(
    st.builds(_near_tie, st.integers(0, 10**7), st.integers(-4, 4)),
    st.builds(_near_tie, st.integers(0, 10**15), st.integers(-4, 4)),
    st.builds(_near_tie, st.integers(10**15 - 20, 10**15), st.integers(-4, 4)),
    st.floats(max_value=0.0),
    st.floats(min_value=999_999_999.0, max_value=1_000_000_001.0),
    st.floats(min_value=0.0, max_value=1e3),
    st.sampled_from([-0.0, 0.0, -4.9e-7, 5e-7, 4.999999e-7, 1e-300, math.nan, math.inf,
                     -math.inf, 1e308, 999_999_999.9999995]),
    # each reprs as its half-micro tie while x * 1e6 lands a full ulp below it
    st.sampled_from([0.5095135, 1.0349585, 4.1015345, 8.2953605, 545526.4926265]),
)


@pytest.mark.slow
@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(values=st.lists(_CELLS, min_size=1, max_size=6))
def test_micro_units_round_like_the_decimal_oracle(values):
    try:
        want = [int(naive_quantize(value).scaleb(6)) for value in values]
    except DataError as exc:
        with pytest.raises(DataError) as got:
            _micro_units(np.array(values))
        assert str(got.value) == str(exc)
    else:
        got = _micro_units(np.array(values))
        assert got.dtype == np.int64 and got.tolist() == want


# offsets with two to ten decimals, negative ones included; rates some strategies refuse
_OFFSET = st.one_of(
    st.builds(lambda n, places: str(Decimal(n).scaleb(-places)),
              st.integers(-4 * 10**9, 4 * 10**9), st.integers(2, 10)),
    st.sampled_from(["999999999", "-999999999.9999999", "0", "-0", "-3.0000005"]),
)
_RATE = st.one_of(
    _OFFSET,
    st.sampled_from(["3.1", "2.8000004", "0", "-1.5", "0.0000005", "999999999.9999996"]),
)
_LEVEL = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 0.001, -0.5, 999_999_999.5]))
_BASE = st.one_of(
    st.builds("constant:{!r}".format, _LEVEL),
    st.builds("linear:{!r}:{!r}".format, _LEVEL, st.floats(-1.0, 1.0)),
    st.builds("shock:{!r}:{!r}:{}".format, _LEVEL, st.floats(-5.0, 5.0), st.integers(1, 9)),
)


@st.composite
def strategy_specs(draw, banks: int, days: int):
    """Up to four strategy specs, mostly on real banks and days, some overlapping."""
    real = st.integers(1, banks).flatmap(lambda b: st.sampled_from([str(b), f"BANK{b:02d}"]))
    refs = st.one_of(real, real, real, real, st.sampled_from(["0", "X", "BANK07", str(banks + 1)]))
    day = st.integers(1, days)
    span = st.one_of(
        st.just(""), day.map(":{}".format),
        st.tuples(day, day).map(sorted).map(lambda pair: ":{}-{}".format(*pair)),
        st.tuples(st.integers(0, days + 1), st.integers(0, days + 1))
        .map(lambda pair: ":{}-{}".format(*pair)),
    )
    kinds = st.one_of(
        st.builds("single-offset:{}:{}{}".format, refs, _OFFSET, span),
        st.builds("single-fixed:{}:{}{}".format, refs, _RATE, span),
        st.builds("collusive:{}:{}{}".format, st.lists(refs, min_size=1, max_size=3).map("+".join),
                  _RATE, span),
    )
    return draw(st.lists(kinds, max_size=4))


@st.composite
def scenarios(draw):
    banks, days = draw(st.integers(3, 6)), draw(st.integers(1, 9))
    sigma = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-7, 1.0])))
    return (banks, days, draw(_BASE), sigma, draw(st.integers(0, 2**64 - 1)),
            draw(strategy_specs(banks, days)))


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=scenarios())
# an offset whose sum needs more than 28 digits is rounded once, not twice
@example(scenario=(3, 1, "constant:3.0", 0.0, 0,
                   ["single-offset:1:0.0000004999999999999999999999999"]))
def test_generate_matches_the_cell_at_a_time_oracle(scenario, tmp_path, capsys):
    banks, days, base, sigma, seed, specs = scenario
    config = ScenarioConfig(n_banks=banks, n_days=days, base_curve=BaseCurve.parse(base),
                            noise_sigma=sigma, seed=seed,
                            strategies=tuple(parse_strategy(spec) for spec in specs))

    def outcome(make):
        try:
            submissions, truth = make(config)
        except (DataError, ValueError) as exc:
            return type(exc), str(exc)
        return rates_by_cell(submissions), truth

    want = outcome(naive_generate)
    assert outcome(generate) == want

    # the command line writes the same panel and truth mask, or the same error
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--banks", str(banks), "--days", str(days), "--base", base,
                 "--sigma", repr(sigma), "--seed", str(seed),
                 *(arg for spec in specs for arg in ("--strategy", spec)), "--output", str(out)])
    err = capsys.readouterr().err
    if isinstance(want[0], type):
        assert (code, err) == (2, f"data error: {' '.join(want[1].split())}\n")
        return
    assert code == 0
    submissions, truth = generate(config)
    assert out.read_text() == submissions_to_csv_text(submissions)
    cells = [(s.bank, s.date) for s in submissions]
    assert (tmp_path / "sim.truth.csv").read_text() == truth_to_csv_text(truth, cells)


# offsets and rates with 6 to 30 decimals, either sign, at most 10 in magnitude
_FINE = st.integers(6, 30).flatmap(lambda places: st.builds(
    exact_decimal, st.integers(0, 1), st.integers(0, 10**(places + 1)), st.just(-places)))


@st.composite
def fine_strategies(draw, banks: int, days: int):
    """Up to four strategies with fine offsets and rates on real banks and days."""
    bank = st.integers(1, banks).map(str)
    span = st.one_of(st.none(), st.tuples(st.integers(1, days), st.integers(1, days)).map(
        lambda pair: tuple(sorted(pair))))
    kinds = st.one_of(  # offsets twice as often: their add is the one that can round
        st.builds(SingleOffset, bank, _FINE, span),
        st.builds(SingleOffset, bank, _FINE, span),
        st.builds(SingleFixed, bank, _FINE, span),
        st.builds(CollusiveQuote, st.lists(bank, min_size=1, max_size=3).map(tuple), _FINE, span),
    )
    return tuple(draw(st.lists(kinds, max_size=4)))


@pytest.mark.slow
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), context=st.sampled_from(HOSTILE_CONTEXTS))
def test_simulation_does_not_depend_on_the_decimal_context(data, context):
    banks, days = data.draw(st.integers(3, 5)), data.draw(st.integers(1, 6))
    config = ScenarioConfig(n_banks=banks, n_days=days,
                            base_curve=BaseCurve.parse(data.draw(_BASE)),
                            noise_sigma=data.draw(st.floats(0.0, 1.0)),
                            seed=data.draw(st.integers(0, 2**64 - 1)),
                            strategies=data.draw(fine_strategies(banks, days)))

    def outcome():
        try:
            panel = simulate_panel(config)
            submissions, truth = generate(config)
        except (DataError, ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
        rates = rates_by_cell(submissions)
        return (panel.micros.tolist(), panel.touched.tolist(), rates,
                {cell: str(rate) for cell, rate in rates.items()}, truth)

    want = outcome()
    with localcontext(context):
        got = outcome()
    assert got == want
