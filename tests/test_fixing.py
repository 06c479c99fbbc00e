"""Trimmed-mean engine: worked panels, oracle equivalence, and invariants."""

from __future__ import annotations

import math
import random
from datetime import date, timedelta
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    HOSTILE_CONTEXTS,
    LOWBALL_INDEX,
    LOWBALL_QUOTES,
    TEN_BANK_QUOTES,
    exact_decimal,
    random_quotes,
    window_from_rows,
)
from oracles import naive_compute_fixing, naive_round_half_up, trimmed_mean_oracle
from ratefix import (
    DataError,
    EmptyAfterTrimError,
    FixingConfig,
    NonFiniteQuoteError,
    Submission,
    Tenor,
    average_daily_rates,
    canonical_json,
    compute_fixing,
    fixing_series,
    fixing_to_obj,
    flag_anomalies,
    influence_envelope,
    report_to_obj,
    round_half_up,
    single_bank_impact,
)
from ratefix import fixing


class TestRoundHalfUp:
    def test_ties_round_away_from_zero(self):
        assert round_half_up(Decimal("2.5"), 0) == Decimal("3")
        assert round_half_up(Decimal("3.0415"), 3) == Decimal("3.042")
        assert round_half_up(Decimal("-3.0415"), 3) == Decimal("-3.042")

    def test_no_op_when_already_on_grid(self):
        assert round_half_up(Decimal("3.042"), 3) == Decimal("3.042")

    def test_fixed_exponent(self):
        out = round_half_up(Decimal("3"), 6)
        assert out == Decimal("3.000000")
        assert out.as_tuple().exponent == -6

    def test_float_and_fraction_inputs(self):
        assert round_half_up(0.1 + 0.2, 6) == Decimal("0.300000")
        assert round_half_up(Decimal(1) / Decimal(3), 6) == Decimal("0.333333")


class TestFixingConfig:
    def test_trim_count_is_floored(self):
        assert FixingConfig(trim_fraction=Decimal("0.25")).trim_count(10) == 2
        assert FixingConfig(trim_fraction=Decimal("0.2")).trim_count(15) == 3
        assert FixingConfig(trim_fraction=Decimal("0.1")).trim_count(9) == 0
        assert FixingConfig(trim_fraction=Decimal("0.25")).trim_count(4) == 1

    def test_trim_count_floors_the_exact_product(self):
        # 16 x 0.0624999...9 (31 digits) is just under 1; rounded to 28 digits it is 1
        config = FixingConfig(trim_fraction=Decimal("0.0624999999999999999999999999999"))
        assert config.trim_count(16) == 0
        assert compute_fixing(range(16), config).trim_count == 0
        assert FixingConfig(trim_fraction=Decimal("0.0625")).trim_count(16) == 1

    def test_trim_fraction_bounds(self):
        with pytest.raises(ValueError):
            FixingConfig(trim_fraction=Decimal("0.5"))
        with pytest.raises(ValueError):
            FixingConfig(trim_fraction=Decimal("-0.1"))
        FixingConfig(trim_fraction=Decimal("0"))  # no trim is legal

    def test_other_field_validation(self):
        with pytest.raises(ValueError):
            FixingConfig(publish_precision=-1)
        with pytest.raises(ValueError, match="got 20"):
            FixingConfig(publish_precision=20)
        with pytest.raises(ValueError):
            FixingConfig(min_retained=0)


class TestWorkedTenQuotePanel:
    def test_quarter_trim(self):
        result = compute_fixing(TEN_BANK_QUOTES)
        assert result.raw_mean == Decimal("3.041700")
        assert result.published == Decimal("3.042")
        assert result.trim_count == 2
        assert result.trimmed_low == (Decimal("3.0026"), Decimal("3.0106"))
        assert result.trimmed_high == (Decimal("3.0658"), Decimal("3.0961"))
        assert len(result.retained) == 6

    def test_no_trim(self):
        config = FixingConfig(trim_fraction=Decimal("0"))
        result = compute_fixing(TEN_BANK_QUOTES, config)
        assert result.raw_mean == Decimal("3.042530")
        assert result.retained == tuple(sorted(TEN_BANK_QUOTES))

    def test_ten_percent_trim(self):
        config = FixingConfig(trim_fraction=Decimal("0.1"))
        result = compute_fixing(TEN_BANK_QUOTES, config)
        assert result.raw_mean == Decimal("3.040825")

    def test_lowball_variant(self):
        result = compute_fixing(LOWBALL_QUOTES)
        assert result.raw_mean == Decimal("3.033450")
        assert result.published == Decimal("3.033")


class TestComputeFixingEdges:
    def test_identical_quotes(self):
        result = compute_fixing([Decimal("3.1")] * 10)
        assert result.raw_mean == Decimal("3.100000")
        assert result.published == Decimal("3.1")

    def test_three_quotes_heavy_trim_leaves_median(self):
        config = FixingConfig(trim_fraction=Decimal("0.34"))
        result = compute_fixing([Decimal("1"), Decimal("9"), Decimal("2")], config)
        assert result.retained == (Decimal("2"),)
        assert result.raw_mean == Decimal("2.000000")

    def test_boundary_ties_trim_in_sorted_order(self):
        config = FixingConfig(trim_fraction=Decimal("0.25"))
        result = compute_fixing([Decimal("1"), Decimal("2"), Decimal("2"), Decimal("3")], config)
        assert result.retained == (Decimal("2"), Decimal("2"))
        assert result.raw_mean == Decimal("2.000000")

    def test_empty_panel_raises(self):
        with pytest.raises(EmptyAfterTrimError):
            compute_fixing([])

    def test_min_retained_guard(self):
        config = FixingConfig(trim_fraction=Decimal("0.34"), min_retained=2)
        with pytest.raises(EmptyAfterTrimError):
            compute_fixing([Decimal("1"), Decimal("2"), Decimal("3")], config)

    def test_non_finite_quote_raises(self):
        with pytest.raises(NonFiniteQuoteError):
            compute_fixing([Decimal("3.0"), Decimal("NaN")])

    def test_float_quotes_accepted(self):
        result = compute_fixing([3.0, 3.1, 3.2, 3.3])
        assert result.raw_mean == Decimal("3.150000")
        # numpy floats are floats whose repr is not a number
        assert compute_fixing(np.array([3.0, 3.1, 3.2, 3.3])) == result


def test_means_build_no_fraction(monkeypatch):
    # sums stay Decimal and rounding stays int; a Fraction per quote or per
    # rounding would be the rational path coming back
    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fixing, "Fraction", NoFraction)
    start = date(2008, 1, 1)
    subs = [Submission(f"B{b:02d}", start + timedelta(days=t), Tenor.ONE_MONTH,
                       Decimal(300 + 7 * b + t).scaleb(-2))
            for t in range(20) for b in range(16)]
    series = fixing_series(subs, Tenor.ONE_MONTH)
    assert len(series.results) == 20 and series.errors == ()
    result = compute_fixing(TEN_BANK_QUOTES)
    assert (result.raw_mean, result.published) == (Decimal("3.041700"), Decimal("3.042"))
    table = dict(average_daily_rates(window_from_rows({"A": [2.0005], "B": [2.0004]})).rows)
    assert table == {"A": Decimal("2.001"), "B": Decimal("2.000"), "Overall": Decimal("2.000")}


class TestOracleEquivalence:
    def test_random_panels_match_brute_force(self):
        rng = random.Random(31415)
        fractions = [Decimal("0"), Decimal("0.1"), Decimal("0.2"), Decimal("0.25")]
        for _ in range(200):
            n = rng.randint(3, 16)
            quotes = random_quotes(rng, n, decimals=rng.choice([4, 6]))
            trim = rng.choice(fractions)
            result = compute_fixing(quotes, FixingConfig(trim_fraction=trim))
            assert result.raw_mean == trimmed_mean_oracle(quotes, trim)


class TestFixingProperties:
    def test_permutation_invariance(self):
        rng = random.Random(99)
        quotes = list(TEN_BANK_QUOTES)
        reference = compute_fixing(quotes)
        for _ in range(20):
            rng.shuffle(quotes)
            again = compute_fixing(quotes)
            assert again.raw_mean == reference.raw_mean
            assert again.retained == reference.retained

    def test_translation_shifts_mean_exactly(self):
        # shifting every quote by an on-grid constant shifts the mean by it
        rng = random.Random(41)
        for _ in range(50):
            quotes = random_quotes(rng, rng.randint(4, 12))
            shift = Decimal(rng.randrange(-5000, 5000)).scaleb(-4)
            base = compute_fixing(quotes, FixingConfig(min_retained=1))
            moved = compute_fixing(
                [q + shift for q in quotes],
                FixingConfig(min_retained=1, publish_precision=6),
            )
            assert moved.raw_mean == base.raw_mean + shift

    def test_mean_bounded_by_retained_range(self):
        rng = random.Random(53)
        for _ in range(100):
            quotes = random_quotes(rng, rng.randint(4, 16))
            result = compute_fixing(quotes)
            low, high = min(result.retained), max(result.retained)
            assert low - Decimal("0.0000005") <= result.raw_mean <= high + Decimal("0.0000005")

    def test_published_is_rounded_raw_mean(self):
        rng = random.Random(67)
        for _ in range(100):
            quotes = random_quotes(rng, rng.randint(4, 16), decimals=6)
            result = compute_fixing(quotes)
            assert result.published == round_half_up(result.raw_mean, 3)


class TestSingleBankImpact:
    def test_identity_substitution_is_zero(self):
        for i in range(len(TEN_BANK_QUOTES)):
            delta = single_bank_impact(TEN_BANK_QUOTES, i, TEN_BANK_QUOTES[i])
            assert delta == Decimal("0.000000")

    def test_worked_lowball_delta(self):
        delta = single_bank_impact(TEN_BANK_QUOTES, LOWBALL_INDEX, Decimal("3.0000"))
        assert delta == Decimal("-0.008250")

    def test_raising_a_quote_never_lowers_the_fixing(self):
        rng = random.Random(73)
        for _ in range(50):
            quotes = random_quotes(rng, rng.randint(4, 12))
            i = rng.randrange(len(quotes))
            bump = Decimal(rng.randrange(1, 5000)).scaleb(-4)
            delta = single_bank_impact(quotes, i, quotes[i] + bump)
            assert delta >= 0

    def test_bad_index_raises(self):
        with pytest.raises(IndexError):
            single_bank_impact(TEN_BANK_QUOTES, 10, Decimal("3"))


class TestTrimSaturation:
    def test_impact_constant_below_lower_trim_boundary(self):
        # once the attacker quote falls under the lowest retained quote,
        # pushing further changes nothing
        quotes = TEN_BANK_QUOTES
        others = sorted(q for i, q in enumerate(quotes) if i != LOWBALL_INDEX)
        boundary = others[1]  # two quotes are trimmed per side
        deltas = {
            single_bank_impact(quotes, LOWBALL_INDEX, x)
            for x in (
                Decimal("0"),
                boundary - Decimal("1.0"),
                boundary - Decimal("0.0001"),
            )
        }
        assert len(deltas) == 1


class TestInfluenceEnvelope:
    def test_worked_envelope(self):
        low, high = influence_envelope(TEN_BANK_QUOTES, LOWBALL_INDEX)
        assert (low, high) == (Decimal("3.033450"), Decimal("3.041700"))

    def test_three_quote_envelope_by_enumeration(self):
        config = FixingConfig(trim_fraction=Decimal("0.34"))
        low, high = influence_envelope(
            [Decimal("1"), Decimal("2"), Decimal("3")], 1, config
        )
        assert low == Decimal("1.000000")
        assert high == Decimal("3.000000")

    def test_grid_search_never_escapes_envelope(self):
        rng = random.Random(89)
        for _ in range(20):
            quotes = random_quotes(rng, rng.randint(4, 10))
            i = rng.randrange(len(quotes))
            low, high = influence_envelope(quotes, i)
            grid = [Decimal(k).scaleb(-1) for k in range(0, 101)]  # 0.0 .. 10.0
            seen = [
                compute_fixing(
                    [x if j == i else q for j, q in enumerate(quotes)]
                ).raw_mean
                for x in grid
            ]
            assert low == min(seen)
            assert high == max(seen)

    def test_collapsed_bounds(self):
        pin = Decimal("3.05")
        low, high = influence_envelope(
            TEN_BANK_QUOTES, 0, rate_bounds=(pin, pin)
        )
        assert low == high

    def test_bad_bounds_raise(self):
        with pytest.raises(ValueError):
            influence_envelope(TEN_BANK_QUOTES, 0, rate_bounds=(Decimal("2"), Decimal("1")))


# quotes whose 28-digit sum would round, half-micro ties, -0, floats, ints,
# text and the non-finite values the engine refuses
_QUOTES = st.one_of(
    st.builds(exact_decimal, st.integers(0, 1), st.integers(0, 10**30), st.integers(-36, 24)),
    st.builds(exact_decimal, st.integers(0, 1), st.integers(0, 10**8), st.integers(-7, -1)),
    st.builds(lambda micros: exact_decimal(micros < 0, abs(micros) * 10 + 5, -7),
              st.integers(-10**7, 10**7)),
    st.sampled_from([Decimal("1E+20"), Decimal("1E-20"), Decimal("-1E+20"), Decimal("-0"),
                     Decimal("0E+5"), Decimal("-0.0000005"), Decimal("0.0000005"),
                     Decimal("9999999999999999999999999999.5"), Decimal("3.0415")]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(-10**30, 10**30),
    st.sampled_from(["3.0415", "-0", "1e-20", "x"]),
)
_NON_FINITE = st.sampled_from([Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"),
                               math.nan, math.inf, -math.inf, "nan"])
_TRIMS = st.one_of(
    st.sampled_from(["0", "0.1", "0.2", "0.25", "0.34", "0.4999", "-0",
                     "0.0624999999999999999999999999999", "0.3333333333333333333333333333333"]),
    st.builds(lambda k: str(Decimal(k).scaleb(-2)), st.integers(0, 49)),
)


def _fixing_outcome(compute, quotes, config):
    try:
        result = compute(quotes, config)
    except (DataError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return (str(result.raw_mean), str(result.published),
            *(tuple(map(str, part)) for part in
              (result.retained, result.trimmed_low, result.trimmed_high)))


@pytest.mark.slow
@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(
    quotes=st.one_of(
        st.lists(_QUOTES, max_size=16),
        st.lists(st.one_of(_QUOTES, _NON_FINITE), min_size=1, max_size=6),
    ),
    trim=_TRIMS,
    min_retained=st.integers(1, 5),
    precision=st.integers(0, 8),
)
def test_compute_fixing_matches_the_fraction_oracle(quotes, trim, min_retained, precision):
    config = FixingConfig(trim_fraction=trim, publish_precision=precision,
                          min_retained=min_retained)
    want = _fixing_outcome(naive_compute_fixing, quotes, config)
    assert _fixing_outcome(compute_fixing, quotes, config) == want
    if precision == 3 and min_retained == 1 and trim == "0.25":
        assert _fixing_outcome(compute_fixing, quotes, None) == want


_ROUNDABLE = st.one_of(
    _QUOTES,
    _NON_FINITE,
    st.fractions(),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**12)),
    st.floats(),
    st.booleans(),
    st.sampled_from(["1/3", "-2.5", " 7 ", "1e-9", "inf", "", Fraction(-1, 2)]),
)


@pytest.mark.slow
@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(value=_ROUNDABLE, decimals=st.integers(0, 8))
def test_round_half_up_matches_the_fraction_oracle(value, decimals):
    def outcome(round_):
        try:
            return str(round_(value, decimals))
        except (ArithmeticError, ValueError, TypeError) as exc:
            return type(exc), str(exc)

    assert outcome(round_half_up) == outcome(naive_round_half_up)


def _outcomes(*calls):
    """Each call's result with its ``str``, or its error's type and message."""
    out = []
    for call in calls:
        try:
            value = call()
        except (DataError, ArithmeticError, ValueError, IndexError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((value, str(value)))
    return out


# 2-5 banks x 1-4 days of rates of up to 21 digits, so some 3-decimal means pass 28
_WINDOW_ROWS = st.integers(2, 5).flatmap(lambda banks: st.integers(1, 4).flatmap(
    lambda days: st.lists(st.lists(
        st.builds(exact_decimal, st.just(0), st.integers(0, 10**20), st.integers(-12, 4)),
        min_size=days, max_size=days), min_size=banks, max_size=banks)))


@pytest.mark.slow
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(quotes=st.lists(_QUOTES, min_size=1, max_size=10), rate=_QUOTES,
       decimals=st.integers(0, 8), rows=_WINDOW_ROWS, context=st.sampled_from(HOSTILE_CONTEXTS))
def test_results_do_not_depend_on_the_decimal_context(quotes, rate, decimals, rows, context):
    window = window_from_rows({f"B{i}": row for i, row in enumerate(rows)})

    def outcomes():
        return _outcomes(
            lambda: compute_fixing(quotes),
            lambda: round_half_up(rate, decimals),
            lambda: fixing.exact_mean([fixing._as_decimal(q) for q in quotes], decimals),
            lambda: single_bank_impact(quotes, 0, rate),
            lambda: influence_envelope(quotes, len(quotes) - 1),
            lambda: average_daily_rates(window),
            lambda: canonical_json(fixing_to_obj(compute_fixing(quotes))),
            lambda: canonical_json(report_to_obj(flag_anomalies(window))),
        )

    want = outcomes()
    with localcontext(context):
        got = outcomes()
    assert got == want
