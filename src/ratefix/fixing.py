"""Trimmed-mean fixing: the published benchmark and single-submitter impact.

The benchmark is produced by sorting the panel's quotes, discarding an equal
count from both tails, averaging the remainder, and rounding half-up.  All
arithmetic here is exact: quotes are summed in a ``Decimal`` context that never
rounds, and the mean is rounded half-up in integers.  Neither binary floating
point nor the caller's ``decimal`` context plays a part (other ``Decimal``
operations run in ``CONTEXT``), so a reproduced fixing is bit-for-bit stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, Inexact,
    InvalidOperation, Overflow, Rounded,
)
from functools import reduce

from .errors import DataError

RAW_MEAN_DECIMALS = 6
# a rate below 10**9 has nine integer digits; nine plus 19 decimals fill the
# 28 digits of CONTEXT, so a published rate is never cut
MAX_PUBLISH_PRECISION = 19
# adds finite decimals without rounding; a sum that would round raises instead
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
# decimal's documented default, written out: the mutable DefaultContext may differ
CONTEXT = Context(prec=28, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1,
                  clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow])
_MICRO, _EXACT_UNITS = 10**RAW_MEAN_DECIMALS, 10**CONTEXT.prec


class EmptyAfterTrimError(DataError):
    """Trimming would leave fewer quotes than the configured minimum."""


class NonFiniteQuoteError(DataError):
    """A quote is NaN or infinite."""


def _as_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    try:  # CONTEXT traps malformed text, which the caller's context may not
        return Decimal(str(value), CONTEXT)
    except InvalidOperation:
        raise ValueError(f"not a decimal number: {value!r}") from None


def _all_finite(values) -> bool:
    """Whether every value is a finite ``Decimal``."""
    try:
        return all(map(Decimal.is_finite, values))
    except TypeError:  # a value that is not a Decimal
        return False


def _half_up(numerator: int, denominator: int, decimals: int) -> int:
    """``numerator / denominator`` (> 0) rounded half-up, in units of ``10**-decimals``."""
    whole, rem = divmod(abs(numerator) * 10**decimals, denominator)
    if 2 * rem >= denominator:
        whole += 1
    return -whole if numerator < 0 else whole


def exact_mean(values, decimals: int) -> Decimal:
    """Mean of a non-empty sequence of finite ``Decimal``s, rounded half-up to
    ``decimals`` fractional digits; the sum is never rounded."""
    numerator, denominator = reduce(_EXACT.add, values).as_integer_ratio()
    units = _half_up(numerator, denominator * len(values), decimals)
    return Decimal(units).scaleb(-decimals, CONTEXT)


def round_half_up(value, decimals: int) -> Decimal:
    """Round an exact rational or decimal value, ties away from zero.

    Decimals, fractions and ints are read through ``as_integer_ratio``; other
    values (floats, numeric text) through ``Fraction``."""
    from fractions import Fraction  # loaded by a call that rounds, not by every start

    if not isinstance(value, (Decimal, Fraction, int)):
        value = Fraction(value)
    return Decimal(_half_up(*value.as_integer_ratio(), decimals)).scaleb(-decimals, CONTEXT)


@dataclass(frozen=True)
class FixingConfig:
    """Trim width, publish rounding, and the degenerate-panel guard.

    ``trim_fraction`` is the fraction removed from EACH tail; the count is
    floor(trim_fraction * n).  ``min_retained`` is the smallest panel the
    trim may leave behind before the computation refuses to produce a rate.
    """

    trim_fraction: Decimal = Decimal("0.25")
    publish_precision: int = 3
    min_retained: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "trim_fraction", _as_decimal(self.trim_fraction))
        if not (self.trim_fraction.is_finite() and 0 <= self.trim_fraction < Decimal("0.5")):
            raise ValueError("trim_fraction must be in [0, 0.5), "
                             f"got {CONTEXT.to_sci_string(self.trim_fraction)}")
        if not 0 <= self.publish_precision <= MAX_PUBLISH_PRECISION:
            raise ValueError(f"publish_precision must be in 0..{MAX_PUBLISH_PRECISION}, "
                             f"got {self.publish_precision}")
        if self.min_retained < 1:
            raise ValueError(f"min_retained must be >= 1, got {self.min_retained}")
        # not a field, so repr, == and hash are the fields' alone
        object.__setattr__(self, "_trim_ratio", self.trim_fraction.as_integer_ratio())

    def trim_count(self, n: int) -> int:
        numerator, denominator = self._trim_ratio
        return numerator * n // denominator


@dataclass(frozen=True, slots=True)
class FixingResult:
    """One day's fixing: the exact mean, the published rate, and the cuts.

    ``raw_mean`` carries six fractional digits (exact rational mean of the
    retained quotes, rounded half-up at the sixth digit).  ``published`` is
    ``raw_mean`` rounded half-up again at the publish precision.
    """

    raw_mean: Decimal
    published: Decimal
    retained: tuple[Decimal, ...]
    trimmed_low: tuple[Decimal, ...]
    trimmed_high: tuple[Decimal, ...]

    @property
    def trim_count(self) -> int:
        return len(self.trimmed_low)


_DEFAULT_CONFIG = FixingConfig()


def compute_fixing(quotes, config: FixingConfig | None = None) -> FixingResult:
    """Sort, trim both tails, average the rest exactly, round half-up.

    Equal-valued quotes at a trim boundary are cut in input order (the sort
    is stable), which never changes the mean.  The exact sum is divided once
    into half-up micro-units, and that one integer gives both roundings, but
    past 28 digits CONTEXT rounds ``raw_mean`` and ``published`` rounds that.
    """
    config = config or _DEFAULT_CONFIG
    values = list(quotes)
    if not _all_finite(values):  # finite Decimals, the usual quotes, need no conversion
        values = [_as_decimal(q) for q in values]
        for value in values:
            if not value.is_finite():
                raise NonFiniteQuoteError(f"quote {CONTEXT.to_sci_string(value)} is not finite")
    if not values:
        raise EmptyAfterTrimError("no quotes supplied")
    n = len(values)
    cut = config.trim_count(n)
    if n - 2 * cut < config.min_retained:
        raise EmptyAfterTrimError(
            f"trimming {cut} per side of {n} quotes leaves fewer than "
            f"{config.min_retained}"
        )
    values.sort()
    ordered = tuple(values)
    kept = ordered[cut : n - cut]
    numerator, denominator = reduce(_EXACT.add, kept).as_integer_ratio()
    micros = _half_up(numerator, denominator * len(kept), RAW_MEAN_DECIMALS)
    raw_mean = Decimal(micros).scaleb(-RAW_MEAN_DECIMALS, CONTEXT)
    ratio = (micros, _MICRO) if abs(micros) < _EXACT_UNITS else raw_mean.as_integer_ratio()
    digits = config.publish_precision
    published = Decimal(_half_up(*ratio, digits)).scaleb(-digits, CONTEXT)
    return FixingResult(raw_mean, published, kept, ordered[:cut], ordered[n - cut :])


def single_bank_impact(quotes, bank_index: int, new_rate, config: FixingConfig | None = None) -> Decimal:
    """Change in raw_mean if the submitter at ``bank_index`` re-quotes.

    Positive means the substitution raised the fixing.
    """
    values = [_as_decimal(q) for q in quotes]
    if not 0 <= bank_index < len(values):
        raise IndexError(f"bank_index {bank_index} out of range for {len(values)} quotes")
    baseline = compute_fixing(values, config).raw_mean
    values[bank_index] = _as_decimal(new_rate)
    return CONTEXT.subtract(compute_fixing(values, config).raw_mean, baseline)


def influence_envelope(
    quotes,
    bank_index: int,
    config: FixingConfig | None = None,
    rate_bounds=(Decimal(0), Decimal(10)),
) -> tuple[Decimal, Decimal]:
    """Extreme raw means one submitter can force with a quote in [lo, hi].

    Sorted-order analysis: as the attacker's quote rises it either sits
    inside a trimmed tail (mean unchanged) or swaps places with a retained
    neighbour (mean moves weakly in the same direction), so the trimmed mean
    is non-decreasing in each individual quote and the envelope is attained
    at the interval endpoints.  Once the quote is past a trim boundary the
    mean saturates, which is why lowballing beyond the band buys nothing.
    """
    lo, hi = (_as_decimal(b) for b in rate_bounds)
    if lo > hi:
        raise ValueError("rate_bounds must satisfy lo <= hi")
    values = [_as_decimal(q) for q in quotes]
    if not 0 <= bank_index < len(values):
        raise IndexError(f"bank_index {bank_index} out of range for {len(values)} quotes")
    at_lo = list(values)
    at_lo[bank_index] = lo
    at_hi = list(values)
    at_hi[bank_index] = hi
    return (compute_fixing(at_lo, config).raw_mean, compute_fixing(at_hi, config).raw_mean)
