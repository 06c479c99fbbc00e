"""Isolation scoring, flagging, rate tables, and the collusion caveat."""

from __future__ import annotations

import random
import statistics
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import exact_decimal, window_from_rows
from oracles import naive_average_daily_rates, naive_collusion_caveat, sum_sq_distance
from ratefix import (
    ADVISORY,
    BaseCurve,
    Linkage,
    PanelTooSmallError,
    PanelWindow,
    ScenarioConfig,
    SingleOffset,
    Tenor,
    agglomerate,
    average_daily_rates,
    build_window,
    collusion_caveat_report,
    distance_matrix,
    flag_anomalies,
    generate,
    isolation_scores,
    round_half_up,
)


def scenario_window(config):
    submissions, _ = generate(config)
    days = config.dates
    return build_window(submissions, config.tenor, (days[0], days[-1]))


def random_window(rng, n_banks=None, n_dates=None):
    n_banks = n_banks or rng.randint(3, 8)
    n_dates = n_dates or rng.randint(4, 10)
    rows = {
        f"B{i:02d}": [rng.randrange(28000, 32000) / 10**4 for _ in range(n_dates)]
        for i in range(n_banks)
    }
    return window_from_rows(rows)


class TestIsolationScores:
    def test_worked_three_leaf_tree(self):
        window = window_from_rows({"A": [0.0], "B": [1.0], "C": [3.0]})
        tree = agglomerate(distance_matrix(window), Linkage.SINGLE)
        # single linkage joins C to {A, B} at min(3, 2) = 2
        scores = {s.bank: s for s in isolation_scores(tree)}
        assert scores["A"].persistence_height == 1.0
        assert scores["B"].persistence_height == 1.0
        assert scores["C"].persistence_height == 2.0
        assert scores["A"].normalized == 0.5
        assert scores["C"].normalized == 1.0

    def test_two_leaves_are_both_fully_persistent(self):
        window = window_from_rows({"A": [1.0, 1.0], "B": [2.0, 2.0]})
        tree = agglomerate(distance_matrix(window), Linkage.SINGLE)
        assert [s.normalized for s in isolation_scores(tree)] == [1.0, 1.0]

    def test_identical_series_score_zero(self):
        window = window_from_rows({b: [3.0, 3.1, 3.2] for b in ("A", "B", "C", "D")})
        report = flag_anomalies(window)
        assert all(s.persistence_height == 0.0 for s in report.scores)
        assert all(s.normalized == 0.0 for s in report.scores)
        assert report.flagged == ()

    def test_scores_stay_within_unit_interval(self):
        rng = random.Random(101)
        for _ in range(20):
            window = random_window(rng)
            for linkage in Linkage:
                tree = agglomerate(distance_matrix(window), linkage)
                for score in isolation_scores(tree):
                    assert 0.0 <= score.normalized <= 1.0
                    assert score.persistence_height <= tree.root_height


class TestFlagAnomalies:
    def test_small_panel_rejected(self):
        window = window_from_rows({"A": [3.0, 3.1], "B": [3.0, 3.2]})
        with pytest.raises(PanelTooSmallError):
            flag_anomalies(window)

    def test_bad_threshold_rejected(self):
        window = random_window(random.Random(1), n_banks=4)
        with pytest.raises(ValueError):
            flag_anomalies(window, threshold_factor=0.0)

    def test_honest_panels_stay_quiet(self):
        for seed in range(10):
            config = ScenarioConfig(n_banks=8, n_days=40, seed=seed)
            report = flag_anomalies(scenario_window(config))
            assert report.flagged == ()

    def test_planted_offset_is_flagged_by_both_linkages(self):
        config = ScenarioConfig(
            n_banks=10,
            n_days=60,
            seed=424242,
            strategies=(SingleOffset(bank="4", offset=Decimal("0.10")),),
        )
        window = scenario_window(config)
        for linkage in Linkage:
            report = flag_anomalies(window, linkage)
            assert report.flagged == ("BANK04",)
            assert report.scores[0].bank == "BANK04"
            assert report.scores[0].normalized == 1.0

    def test_two_level_groups_do_not_flag_and_cut_recovers_them(self):
        local = ScenarioConfig(
            n_banks=4, n_days=30, seed=7, bank_prefix="LOCAL",
            base_curve=BaseCurve.constant(Decimal("1.15")),
        )
        intl = ScenarioConfig(
            n_banks=5, n_days=30, seed=8, bank_prefix="INTL",
            base_curve=BaseCurve.constant(Decimal("3.45")),
        )
        submissions = generate(local)[0] | generate(intl)[0]
        window = build_window(submissions, local.tenor, (local.dates[0], local.dates[-1]))
        report = flag_anomalies(window)
        assert report.flagged == ()
        groups = {}
        for bank, group in report.group_structure.items():
            groups.setdefault(group, set()).add(bank)
        assert sorted(groups.values(), key=len) == [
            {f"LOCAL{i:02d}" for i in range(1, 5)},
            {f"INTL{i:02d}" for i in range(1, 6)},
        ]

    def test_raising_the_factor_only_removes_flags(self):
        rng = random.Random(103)
        for _ in range(10):
            window = random_window(rng)
            loose = set(flag_anomalies(window, threshold_factor=1.0).flagged)
            tight = set(flag_anomalies(window, threshold_factor=3.0).flagged)
            assert tight <= loose

    def test_threshold_used_is_factor_times_median_height(self):
        rng = random.Random(107)
        window = random_window(rng, n_banks=6, n_dates=8)
        tree = agglomerate(distance_matrix(window), Linkage.WARD)
        median = statistics.median(m.height for m in tree.merges)
        report = flag_anomalies(window, threshold_factor=1.5)
        assert report.threshold_used == 1.5 * median

    def test_scores_sorted_most_isolated_first(self):
        rng = random.Random(109)
        for _ in range(10):
            report = flag_anomalies(random_window(rng))
            keys = [(-s.normalized, s.bank) for s in report.scores]
            assert keys == sorted(keys)

    def test_doubling_rates_changes_nothing(self):
        rng = random.Random(113)
        base = random_window(rng, n_banks=6, n_dates=10)
        doubled = PanelWindow(
            banks=base.banks,
            dates=base.dates,
            rates=tuple(tuple(2 * r for r in row) for row in base.rates),
            tenor=base.tenor,
            label=base.label,
        )
        for linkage in Linkage:
            one = flag_anomalies(base, linkage)
            two = flag_anomalies(doubled, linkage)
            assert one.flagged == two.flagged
            assert [s.normalized for s in one.scores] == [s.normalized for s in two.scores]
            assert two.threshold_used == 2.0 * one.threshold_used

    def test_report_carries_window_label_and_group_per_bank(self):
        window = random_window(random.Random(127), n_banks=5)
        report = flag_anomalies(window)
        assert report.window_label == window.label
        assert set(report.group_structure) == set(window.banks)
        assert set(report.group_structure.values()) == {0, 1}


class TestRateTable:
    def test_single_bank_mean(self):
        window = window_from_rows({"A": [2.6, 2.6]})
        table = average_daily_rates(window)
        assert table.rows == (
            ("A", Decimal("2.600")),
            ("Overall", Decimal("2.600")),
        )

    def test_overall_interleaves_by_value(self):
        window = window_from_rows({"A": [3.0, 3.0], "B": [3.1, 3.1]})
        table = average_daily_rates(window)
        assert table.rows == (
            ("A", Decimal("3.000")),
            ("Overall", Decimal("3.050")),
            ("B", Decimal("3.100")),
        )

    def test_display_rounding_is_half_up(self):
        window = window_from_rows({"A": [2.0005], "B": [2.0004]})
        table = average_daily_rates(window)
        assert dict(table.rows)["A"] == Decimal("2.001")
        assert dict(table.rows)["B"] == Decimal("2.000")

    def test_means_match_exact_recomputation(self):
        rng = random.Random(131)
        for _ in range(10):
            window = random_window(rng)
            table = dict(average_daily_rates(window).rows)
            cells = []
            for bank in window.banks:
                series = window.series(bank)
                cells.extend(series)
                mean = Fraction(sum(Fraction(r) for r in series), len(series))
                assert table[bank] == round_half_up(mean, 3)
            overall = Fraction(sum(Fraction(c) for c in cells), len(cells))
            assert table["Overall"] == round_half_up(overall, 3)

    def test_rows_ascend(self):
        rng = random.Random(137)
        for _ in range(10):
            rows = average_daily_rates(random_window(rng)).rows
            rates = [rate for _, rate in rows]
            assert rates == sorted(rates)

    def test_text_and_csv_renderings(self):
        window = window_from_rows({"A": [3.0, 3.0], "B": [3.1, 3.1]})
        table = average_daily_rates(window)
        text = table.to_text()
        assert "A        3.000" in text
        assert text.endswith("\n")
        csv_text = table.to_csv_text()
        assert csv_text.splitlines()[0] == "bank,rate"
        assert "Overall,3.050" in csv_text


class TestCollusionCaveat:
    def test_identical_quoting_bloc_has_zero_cohesion(self):
        rows = {f"C{i}": [2.5] * 6 for i in range(1, 5)}
        rows.update({"H1": [3.00] * 6, "H2": [3.02] * 6, "H3": [3.04] * 6, "H4": [3.06] * 6})
        window = window_from_rows(rows)
        report = flag_anomalies(window)
        caveat = collusion_caveat_report(report, window)
        assert caveat.group_sizes == (4, 4)
        assert caveat.within_group_distance[0] == 0.0
        assert caveat.within_group_distance[1] > 0.0
        assert caveat.largest_group_cohesion == 0.0
        assert caveat.advisory == ADVISORY
        assert report.flagged == ()  # the bloc is coordinated, not isolated

    def test_singleton_group(self):
        window = window_from_rows({"A": [3.0] * 4, "B": [3.001] * 4, "C": [9.0] * 4})
        report = flag_anomalies(window)
        caveat = collusion_caveat_report(report, window)
        assert sorted(caveat.group_sizes) == [1, 2]
        singleton = caveat.group_sizes.index(1)
        assert caveat.within_group_distance[singleton] == 0.0

    def test_mean_within_distance_matches_manual_average(self):
        rng = random.Random(139)
        window = random_window(rng, n_banks=6, n_dates=8)
        report = flag_anomalies(window)
        caveat = collusion_caveat_report(report, window)
        series = {b: [float(x) for x in window.series(b)] for b in window.banks}
        for group in (0, 1):
            banks = [b for b in window.banks if report.group_structure[b] == group]
            pairs = [
                sum_sq_distance(series[a], series[b])
                for i, a in enumerate(banks)
                for b in banks[i + 1 :]
            ]
            expected = sum(pairs) / len(pairs) if pairs else 0.0
            assert caveat.within_group_distance[group] == pytest.approx(expected, rel=1e-12)

    def test_text_rendering_mentions_both_groups_and_the_caveat(self):
        window = window_from_rows({"A": [3.0] * 4, "B": [3.1] * 4, "C": [3.2] * 4})
        caveat = collusion_caveat_report(flag_anomalies(window), window)
        text = caveat.to_text()
        assert "group 0:" in text and "group 1:" in text
        assert "caveat:" in text
        assert text.rstrip().endswith(ADVISORY)


# 30-digit cells whose 28-digit sums would round, half-milli ties, -0
_CELLS = st.one_of(
    st.builds(exact_decimal, st.integers(0, 1), st.integers(0, 10**30), st.integers(-36, 24)),
    st.builds(lambda k: exact_decimal(k < 0, abs(k) * 10 + 5, -4), st.integers(-10**5, 10**5)),
    st.sampled_from([Decimal("1E+20"), Decimal("1E-20"), Decimal("-0"), Decimal("3.0415")]),
)


@st.composite
def rate_windows(draw):
    banks, days = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = tuple(tuple(draw(st.lists(_CELLS, min_size=days, max_size=days)))
                 for _ in range(banks))
    return PanelWindow(banks=tuple(f"B{b}" for b in range(banks)),
                       dates=tuple(date(2008, 1, 1 + d) for d in range(days)),
                       rates=rows, tenor=Tenor.ONE_MONTH, label="W")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(window=rate_windows())
def test_rate_table_matches_the_fraction_oracle(window):
    def rows(table):
        return [(label, str(rate)) for label, rate in table.rows]

    assert rows(average_daily_rates(window)) == rows(naive_average_daily_rates(window))


# a few rate levels plus a far outlier, so that windows with identical rows,
# all-constant rows and singleton groups all come up
_CAVEAT_CELLS = st.one_of(
    st.integers(2_990_000, 3_010_000).map(lambda k: Decimal(k).scaleb(-6)),
    st.sampled_from([Decimal("3"), Decimal("3.01"), Decimal("9.5")]),
)


@st.composite
def caveat_windows(draw):
    banks, days = draw(st.integers(3, 9)), draw(st.integers(1, 6))
    rows = []
    for _ in range(banks):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(tuple(draw(st.lists(_CAVEAT_CELLS, min_size=days, max_size=days))))
    return PanelWindow(banks=tuple(f"B{b}" for b in range(banks)),
                       dates=tuple(date(2008, 1, 1 + d) for d in range(days)),
                       rates=tuple(rows), tenor=Tenor.ONE_MONTH, label="W")


_BLOC = window_from_rows({**{f"C{i}": [2.5] * 6 for i in range(4)},
                          **{f"H{i}": [3.0 + i / 50] * 6 for i in range(4)}})
_LONE = window_from_rows({"A": [3.0, 3.1], "B": [3.001, 3.1], "C": [9.0, 9.5]})


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(window=caveat_windows(), linkage=st.sampled_from(Linkage), normalize=st.booleans())
@example(window=_BLOC, linkage=Linkage.WARD, normalize=False)
@example(window=_BLOC, linkage=Linkage.SINGLE, normalize=True)
@example(window=_LONE, linkage=Linkage.SINGLE, normalize=False)
@example(window=_LONE, linkage=Linkage.WARD, normalize=True)
def test_caveat_matches_the_pair_loop_oracle_bit_for_bit(window, linkage, normalize):
    def bits(caveat):
        return (caveat.group_sizes, [float(v).hex() for v in caveat.within_group_distance],
                float(caveat.largest_group_cohesion).hex(), caveat.advisory)

    report = flag_anomalies(window, linkage, normalize=normalize)
    got = collusion_caveat_report(report, window)
    assert bits(got) == bits(naive_collusion_caveat(report, window, normalize=normalize))
