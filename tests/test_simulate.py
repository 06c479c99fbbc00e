"""Scenario generator: determinism, strategy overlays, and the truth mask."""

from __future__ import annotations

from datetime import date
from decimal import Decimal

import pytest

from ratefix import (
    BaseCurve,
    CollusiveQuote,
    FixingConfig,
    InvalidStrategyTargetError,
    ScenarioConfig,
    SingleFixed,
    SingleOffset,
    Submission,
    Tenor,
    bank_labels,
    fixing_series,
    generate,
    parse_strategy,
    truth_to_csv_text,
)


def rates_by_cell(submissions):
    return {(s.bank, s.date): s.rate for s in submissions}


class TestBaseCurve:
    def test_values(self):
        assert BaseCurve.constant(3.0).value(200) == 3.0
        linear = BaseCurve.linear(3.0, 0.001)
        assert linear.value(1) == 3.0
        assert linear.value(11) == pytest.approx(3.01)
        shock = BaseCurve.shock(3.0, -0.5, 120)
        assert shock.value(119) == 3.0
        assert shock.value(120) == 2.5

    def test_spec_round_trip(self):
        for curve in (
            BaseCurve.constant(3.0),
            BaseCurve.linear(2.5, -0.0004),
            BaseCurve.shock(3.0, -0.5, 120),
        ):
            assert BaseCurve.parse(curve.spec()) == curve

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
            base_curve=BaseCurve.linear(3.0, 0.01),
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
