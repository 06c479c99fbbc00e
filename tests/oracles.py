"""Independent reference implementations used to cross-check the package.

Each oracle is deliberately coded along a different route from the module it
checks (decimal-context rounding instead of rational divmod, Prim instead of
agglomeration, direct sum-of-squares bookkeeping instead of the recurrence
update, a dict-of-pairs scan instead of the working matrix, a sorted scan
with per-cell dict probes instead of the index-matrix window build, a
per-field rate parse followed by the submission checks instead of the
checks in one place, a Submission per CSV row instead of the columnar
reader, a Decimal quantize per simulated cell instead of integer
micro-units, a ``Fraction`` sum instead of an exact decimal context, a
pair-at-a-time condensed index instead of a square submatrix, one ``np.dot``
per pair instead of one stacked product per row, a shrinking working matrix
instead of a nearest-neighbour cache or a spanning tree) so a shared bug
cannot hide.
"""

from __future__ import annotations

import csv
import io
import math
import random
import warnings
from datetime import date as Date
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from ratefix.errors import DataError
from ratefix.anomaly import OVERALL_LABEL, TABLE_DECIMALS, CollusionCaveat, RateTable
from ratefix.cluster import (
    DegeneratePanelError,
    Dendrogram,
    Linkage,
    Merge,
    NonFiniteValueError,
    distance_matrix,
)
from ratefix.fixing import (
    RAW_MEAN_DECIMALS,
    EmptyAfterTrimError,
    FixingConfig,
    FixingResult,
    NonFiniteQuoteError,
    _as_decimal,
    compute_fixing,
)
from ratefix.panel import (
    CSV_COLUMNS,
    DEFAULT_RATE_FLOOR,
    RATE_DECIMALS,
    DuplicateSubmissionError,
    EmptyWindowError,
    MissingDataPolicy,
    PanelWarning,
    PanelWindow,
    RATE_LIMIT,
    RATE_QUANTUM,
    Submission,
    SubmissionFormatError,
    Tenor,
    bounded_rate,
)
from ratefix.simulate import (
    CollusiveQuote,
    FixingSeries,
    InvalidStrategyTargetError,
    ScenarioConfig,
    SingleFixed,
    SingleOffset,
    _positive_rate,
    _resolve_bank,
    _resolve_days,
    bank_labels,
)


def trimmed_mean_oracle(quotes, trim_fraction, decimals: int = 6) -> Decimal:
    """Brute-force sort-slice-average with decimal-context rounding."""
    n = len(quotes)
    cut = int(Fraction(str(trim_fraction)) * n)
    kept = sorted(quotes)[cut : n - cut]
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for quote in kept:
            total += Decimal(str(quote))
        mean = total / len(kept)
        return mean.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)


def sum_sq_distance(a, b) -> float:
    """fsum-based Euclidean distance, no numpy."""
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def prim_mst_weights(square) -> list[float]:
    """Prim's minimum spanning tree; edge weights sorted ascending."""
    n = len(square)
    in_tree = [False] * n
    best = [math.inf] * n
    best[0] = 0.0
    weights = []
    for step in range(n):
        u = min((i for i in range(n) if not in_tree[i]), key=lambda i: best[i])
        in_tree[u] = True
        if step > 0:
            weights.append(best[u])
        for v in range(n):
            if not in_tree[v] and square[u][v] < best[v]:
                best[v] = square[u][v]
    return sorted(weights)


def _ess(points, members) -> float:
    dim = len(points[0])
    count = len(members)
    centroid = [math.fsum(points[m][d] for m in members) / count for d in range(dim)]
    return math.fsum(
        (points[m][d] - centroid[d]) ** 2 for m in members for d in range(dim)
    )


def ward_greedy_steps(points):
    """Greedy minimum-variance agglomeration computed straight from points.

    At every step the pair whose union least increases the within-cluster
    sum of squares is merged.  Returns (partitions, costs): the set of
    clusters after each merge and each merge's sum-of-squares increase.
    """
    clusters = [frozenset({i}) for i in range(len(points))]
    ess_of = {c: _ess(points, c) for c in clusters}
    partitions = []
    costs = []
    while len(clusters) > 1:
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                union = clusters[ai] | clusters[bi]
                cost = _ess(points, union) - ess_of[clusters[ai]] - ess_of[clusters[bi]]
                if best is None or cost < best[0]:
                    best = (cost, ai, bi, union)
        cost, ai, bi, union = best
        clusters = [c for idx, c in enumerate(clusters) if idx not in (ai, bi)]
        clusters.append(union)
        ess_of[union] = _ess(points, union)
        partitions.append(frozenset(clusters))
        costs.append(cost)
    return partitions, costs


def naive_agglomeration(square, ward: bool):
    """Textbook agglomeration over a dict of ordered pairs.

    Every step scans the active node ids in ascending order with a strict
    ``<``, so ties go to the smallest (left, right) pair; distances are
    updated with the Lance-Williams formula (squared distances for Ward).
    Returns (left, right, height, size) per merge.
    """
    n = len(square)
    work = {(i, j): square[i][j] * square[i][j] if ward else square[i][j]
            for i in range(n) for j in range(n)}
    size = {i: 1 for i in range(n)}
    merges = []
    for new in range(n, 2 * n - 1):
        best = None
        for i in sorted(size):
            for j in sorted(size):
                if i < j and (best is None or work[i, j] < work[best]):
                    best = (i, j)
        i, j = best
        d_ij, s_i, s_j = work[best], size.pop(i), size.pop(j)
        for k, s_k in size.items():
            d_ik, d_jk = work[i, k], work[j, k]
            if ward:
                d = ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij) / (s_i + s_j + s_k)
            else:
                d = d_ik if d_ik < d_jk else d_jk
            work[new, k] = work[k, new] = d
        size[new] = s_i + s_j
        merges.append((i, j, math.sqrt(max(d_ij, 0.0)) if ward else d_ij, s_i + s_j))
    return merges


def matrix_agglomeration(dist, linkage) -> Dendrogram:
    """The earlier working-matrix agglomeration, O(n^3).

    The working metric is the raw distance for single linkage and the
    squared distance for Ward; at every step the smallest active pair wins,
    with ties going to the lexicographically smallest (left, right) node
    pair because the working rows are kept in ascending node-id order and
    ``argmin`` returns the first minimum in row-major order.
    """
    n = dist.size
    if n < 2:
        raise DegeneratePanelError("agglomeration needs at least two series")
    ward = linkage is Linkage.WARD
    work = dist.to_square()
    if ward:
        # an overflowed Ward value is refused at its merge, not warned about
        with np.errstate(over="ignore"):
            work = work * work
    np.fill_diagonal(work, np.inf)
    nodes = list(range(n))
    sizes = np.ones(n, dtype=np.int64)
    merges: list[Merge] = []
    for new_id in range(n, 2 * n - 1):
        a, b = divmod(int(np.argmin(work)), len(work))
        merge_metric = float(work[a, b])
        # checking merges suffices: argmin returns a NaN first, and an
        # overflowed Ward value only grows until it is merged
        if not math.isfinite(merge_metric):
            raise NonFiniteValueError(f"non-finite {linkage} working distance {merge_metric}")
        rest = np.ones(len(work), dtype=bool)
        rest[[a, b]] = False
        d_ik, d_jk, sk = work[a, rest], work[b, rest], sizes[rest]
        if ward:
            si, sj = sizes[a], sizes[b]
            with np.errstate(over="ignore", invalid="ignore"):
                updated = ((si + sk) * d_ik + (sj + sk) * d_jk - sk * merge_metric) / (si + sj + sk)
        else:
            updated = np.where(d_ik < d_jk, d_ik, d_jk)
        work = np.pad(work[np.ix_(rest, rest)], (0, 1), constant_values=np.inf)
        work[-1, :-1] = work[:-1, -1] = updated
        size = int(sizes[a] + sizes[b])
        sizes = np.append(sizes[rest], size)
        height = math.sqrt(max(merge_metric, 0.0)) if ward else merge_metric
        merges.append(Merge(nodes[a], nodes[b], height, size))
        nodes = [node for node, keep in zip(nodes, rest) if keep] + [new_id]
    return Dendrogram(dist.labels, tuple(merges))


def per_pair_distances(window: PanelWindow, normalize: bool = False) -> np.ndarray:
    """The earlier condensed distances: one ``np.dot`` and ``math.sqrt`` per pair."""
    rows = window.values
    with np.errstate(over="ignore", invalid="ignore"):
        if normalize:
            mean = rows.mean(axis=1, keepdims=True)
            std = rows.std(axis=1, keepdims=True)
            safe = np.where(std > 0.0, std, 1.0)
            rows = np.where(std > 0.0, (rows - mean) / safe, 0.0)
        n = len(rows)
        return np.fromiter((math.sqrt(float(np.dot(d, d)))
                            for i in range(n - 1) for d in rows[i] - rows[i + 1 :]), float)


def dendrogram_step_partitions(dendrogram):
    """Active clusters (as frozensets of leaf indices) after each merge."""
    n = dendrogram.n_leaves
    members = {i: frozenset({i}) for i in range(n)}
    active = set(members)
    out = []
    for step, merge in enumerate(dendrogram.merges):
        node = n + step
        members[node] = members[merge.left] | members[merge.right]
        active -= {merge.left, merge.right}
        active.add(node)
        out.append(frozenset(members[a] for a in active))
    return out


def merge_members(dendrogram) -> tuple[frozenset[int], ...]:
    """Leaf-index membership of each merge node, in merge order."""
    n = dendrogram.n_leaves
    members = {i: frozenset({i}) for i in range(n)}
    out = []
    for step, merge in enumerate(dendrogram.merges):
        joined = members[merge.left] | members[merge.right]
        members[n + step] = joined
        out.append(joined)
    return tuple(out)


def parse_newick(text: str):
    """Minimal reader for the Newick subset the package writes.

    Returns a node as (children, label, branch_length); children is a tuple,
    empty for leaves, and branch_length is None only at the root.
    """
    body = text.strip()
    if not body.endswith(";"):
        raise ValueError("newick text must end with ';'")
    s = body[:-1]
    pos = 0

    def parse_label():
        nonlocal pos
        if s[pos] == "'":
            pos += 1
            out = []
            while True:
                if s[pos] == "'":
                    if pos + 1 < len(s) and s[pos + 1] == "'":
                        out.append("'")
                        pos += 2
                    else:
                        pos += 1
                        return "".join(out)
                else:
                    out.append(s[pos])
                    pos += 1
        start = pos
        while pos < len(s) and s[pos] not in "(),:":
            pos += 1
        return s[start:pos]

    def parse_length():
        nonlocal pos
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in ",()":
                pos += 1
            return float(s[start:pos])
        return None

    # one list of finished branches per open '(', innermost last, so that a
    # tree of any depth reads without recursion
    open_kids: list[list] = []
    while True:
        if s[pos] == "(":
            pos += 1
            open_kids.append([])
            continue
        node = ((), parse_label())
        while open_kids:
            open_kids[-1].append((*node, parse_length()))
            if s[pos] == ",":
                pos += 1
                break
            if s[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            node = (tuple(open_kids.pop()), "")
        else:
            if pos != len(s):
                raise ValueError(f"trailing newick text at {pos}")
            return (*node, None)


def newick_internal_nodes(text: str):
    """Reconstruct (leaf-label set, height) for every internal node.

    Uses the ultrametric property: every leaf sits at depth equal to the
    root height, so node height = root height - node depth.  Internal nodes
    come in post-order, children left to right.
    """
    tree = parse_newick(text)
    leaf_depths = []
    internals = []
    done = []  # the leaf-label set of each finished node not yet merged into its parent
    stack = [(tree, 0.0, False)]
    while stack:
        node, depth, closing = stack.pop()
        children, label, length = node
        if closing:
            labels = frozenset().union(*done[-len(children):])
            del done[-len(children):]
            internals.append((labels, depth))
            done.append(labels)
            continue
        here = depth + (length or 0.0)
        if not children:
            leaf_depths.append(here)
            done.append(frozenset({label}))
            continue
        stack.append((node, here, True))
        stack.extend((child, here, False) for child in reversed(children))

    root_height = max(leaf_depths)
    if root_height > 0 and max(leaf_depths) - min(leaf_depths) > 1e-9 * root_height:
        raise ValueError("tree is not ultrametric")
    return [(labels, root_height - depth) for labels, depth in internals], root_height


def random_symmetric_square(rng: random.Random, n: int, lo: float = 0.1, hi: float = 10.0):
    square = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            square[i][j] = square[j][i] = rng.uniform(lo, hi)
    return square


def naive_window(
    submissions,
    tenor: Tenor,
    date_range: tuple[Date, Date],
    policy: MissingDataPolicy | None = None,
    *,
    min_coverage: float = 0.0,
    label: str | None = None,
) -> PanelWindow:
    """Construct a complete window from a raw submission stream.

    Reference copy of the dict-based build: one sorted scan into a dict of
    cells, then per-(bank, day) probes for coverage, forward-fill and
    survival.

    Submissions are restricted to ``tenor`` and the inclusive ``date_range``,
    the matrix is completed per ``policy`` (default: drop incomplete dates),
    and the result is ordered with banks lexicographic and dates ascending
    regardless of input order.

    ``min_coverage`` drops banks whose raw submission coverage of the
    window's candidate dates falls below the given fraction, before the
    policy runs (the yearly pipeline passes 0.9 so that late joiners and
    leavers do not wipe out the surviving dates; the default keeps every
    bank).  Dropped banks are reported with a PanelWarning.
    """
    policy = policy or MissingDataPolicy.drop_incomplete()
    start, end = date_range
    if start > end:
        raise ValueError("date_range start must not be after end")

    picked: dict[tuple[str, Date], Decimal] = {}
    for sub in sorted(submissions, key=lambda s: (s.date, s.bank)):
        if sub.tenor is not tenor or not start <= sub.date <= end:
            continue
        key = (sub.bank, sub.date)
        if key in picked:
            raise DuplicateSubmissionError(
                f"duplicate submission for {sub.bank} on {sub.date} ({tenor})"
            )
        picked[key] = sub.rate

    candidates = sorted({day for _, day in picked})
    if not candidates:
        raise EmptyWindowError("no submissions in range")

    all_banks = sorted({bank for bank, _ in picked})
    banks = []
    for bank in all_banks:
        have = sum(1 for day in candidates if (bank, day) in picked)
        coverage = have / len(candidates)
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

    cells = dict(picked)
    if policy.fill:
        for bank in banks:
            last: Decimal | None = None
            run = 0
            for day in candidates:
                if (bank, day) in picked:
                    last = picked[(bank, day)]
                    run = 0
                else:
                    run += 1
                    # a copy may bridge at most max_gap consecutive missing dates
                    if last is not None and run <= policy.max_gap:
                        cells[(bank, day)] = last

    surviving = [d for d in candidates if all((b, d) in cells for b in banks)]
    if not surviving:
        raise EmptyWindowError("no date survives the missing-data policy")

    rows = tuple(tuple(cells[(bank, day)] for day in surviving) for bank in banks)
    if label is None:
        label = f"{start.isoformat()}..{end.isoformat()}"
    return PanelWindow(tuple(banks), tuple(surviving), rows, tenor, label)


_RATE_DECIMALS = 6
_RATE_LIMIT = Decimal(10) ** 9


def _bounded_rate(rate: Decimal) -> Decimal:
    if not (rate.is_finite() and rate.copy_abs() < _RATE_LIMIT):
        raise ValueError(f"rate {rate} is not below {_RATE_LIMIT} in magnitude")
    return rate


def _parse_rate(text: str, floor: Decimal) -> Decimal:
    try:
        rate = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"bad rate {text!r}")
    if not rate.is_finite():
        raise ValueError(f"rate {text!r} is not finite")
    _bounded_rate(rate)
    if -rate.as_tuple().exponent > _RATE_DECIMALS:
        raise ValueError(f"rate {text!r} has more than {_RATE_DECIMALS} fractional digits")
    if rate < floor:
        raise ValueError(f"rate {text!r} is below the allowed floor {floor}")
    return rate


def ingested_rate(raw: str, floor: Decimal = Decimal(0)) -> Decimal:
    """The rate a CSV rate field becomes; ValueError if the line is refused.

    Reference copy of the two-stage ingest: a per-field parse that checks
    finiteness, the magnitude bound, the six-digit rule and the floor, then
    the submission's own finiteness and floor checks on the parsed value.
    """
    rate = _parse_rate(raw.strip(), floor)
    if not rate.is_finite():
        raise ValueError(f"rate must be finite, got {rate}")
    if rate < floor:
        raise ValueError(f"rate {rate} is below the allowed floor {floor}")
    return rate


# Reference copy of the row-at-a-time reader: one Submission per row, each
# rate checked by Submission and then on its written digits.
def naive_read_submissions_csv(path, *, rate_floor: Decimal = DEFAULT_RATE_FLOOR) -> list[Submission]:
    """Parse a submissions CSV with columns exactly ``date,bank,tenor,rate``.

    Dates are ISO 8601 and rates are decimal percent with at most six
    fractional digits written (``3.1234560`` is refused); Submission checks
    the value, with ``rate_floor`` as its floor.  Any bad row fails the whole
    file with a SubmissionFormatError listing every offending line number.
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
                text = raw_date.strip()  # YYYY-MM-DD only, as Python 3.10 reads it
                if not (len(text) == 10 and text[4] == text[7] == "-" and text.isascii()):
                    raise ValueError(f"Invalid isoformat string: {text!r}")
                day = days[raw_date] = Date.fromisoformat(raw_date.strip())
            bank = raw_bank.strip()
            if not bank:
                raise ValueError("empty bank label")
            tenor = tenors.get(raw_tenor)
            if tenor is None:
                tenor = tenors[raw_tenor] = Tenor.parse(raw_tenor.strip())
            try:
                rate = Decimal(raw_rate)
            except InvalidOperation:
                raise ValueError(f"bad rate {raw_rate.strip()!r}") from None
            sub = Submission(bank, day, tenor, rate, floor=rate_floor)
            # tested on the exponent, so trailing zeros count as digits
            if -rate.as_tuple().exponent > RATE_DECIMALS:
                raise ValueError(
                    f"rate {raw_rate.strip()!r} has more than {RATE_DECIMALS} fractional digits"
                )
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        subs.append(sub)
    if problems:
        raise SubmissionFormatError(f"{path}: " + "; ".join(problems))
    return subs


# Reference copy of the cell-at-a-time simulator: one Decimal quantize per
# honest cell into a dict, strategies applied to the dict, a Submission set.
def naive_quantize(value: float) -> Decimal:
    try:
        rate = Decimal(repr(float(value))).quantize(RATE_QUANTUM, rounding=ROUND_HALF_UP)
        if rate < 0:
            rate = Decimal(0).quantize(RATE_QUANTUM)
        if rate < RATE_LIMIT:
            return rate
    except InvalidOperation:
        pass
    raise DataError(
        f"simulated rate {value} cannot be quoted to six decimals below {RATE_LIMIT}; "
        "check the base curve and the noise sigma"
    )


def naive_generate(config: ScenarioConfig) -> tuple[set[Submission], list[tuple[str, Date]]]:
    """Draw the honest panel, then apply strategies in declaration order.

    Returns the submissions plus the truth mask: the (bank, date) cells any
    strategy touched, sorted by date then bank.  Rates are clamped at zero
    and quantized to six fractional digits.
    """
    labels = bank_labels(config)
    dates = config.dates
    matrix: dict[tuple[str, Date], Decimal] = {}
    for b, label in enumerate(labels):
        rng = np.random.default_rng([config.seed, b])
        noise = rng.normal(0.0, 1.0, config.n_days)
        for t in range(config.n_days):
            honest = config.base_curve.value(t + 1) + config.noise_sigma * noise[t]
            matrix[(label, dates[t])] = naive_quantize(honest)

    touched: set[tuple[str, Date]] = set()
    for strategy in config.strategies:
        span = _resolve_days(strategy.days, config.n_days)
        if isinstance(strategy, SingleOffset):
            bank = _resolve_bank(strategy.bank, labels, config)
            offset = bounded_rate(_as_decimal(strategy.offset))
            for t in span:
                cell = (bank, dates[t - 1])
                exact = max(Fraction(matrix[cell]) + Fraction(offset), Fraction(0))
                shifted = naive_round_half_up(exact, RATE_DECIMALS)
                if shifted >= RATE_LIMIT:
                    raise InvalidStrategyTargetError(
                        f"single-offset strategy on bank {bank}, day {t} ({cell[1]}): "
                        f"shifted rate {shifted} is not below {RATE_LIMIT}"
                    )
                matrix[cell] = shifted
                touched.add(cell)
        elif isinstance(strategy, SingleFixed):
            bank = _resolve_bank(strategy.bank, labels, config)
            rate = _positive_rate(strategy.rate)
            for t in span:
                cell = (bank, dates[t - 1])
                matrix[cell] = rate
                touched.add(cell)
        elif isinstance(strategy, CollusiveQuote):
            banks = [_resolve_bank(b, labels, config) for b in strategy.banks]
            rate = _positive_rate(strategy.rate)
            for bank in banks:
                for t in span:
                    cell = (bank, dates[t - 1])
                    matrix[cell] = rate
                    touched.add(cell)
        else:
            raise TypeError(f"unknown strategy {strategy!r}")

    submissions = {
        Submission(bank, day, config.tenor, rate) for (bank, day), rate in matrix.items()
    }
    truth = sorted(touched, key=lambda cell: (cell[1], cell[0]))
    return submissions, truth


# Reference copies of the rational-arithmetic means: every sum is a
# ``Fraction`` and every rounding a ``Fraction`` divmod.
def naive_round_half_up(value, decimals: int) -> Decimal:
    """Round an exact rational or decimal value, ties away from zero."""
    frac = Fraction(value)
    scaled = frac * 10**decimals
    whole, rem = divmod(abs(scaled.numerator), scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    if scaled < 0:
        whole = -whole
    return Decimal(whole).scaleb(-decimals)


def naive_compute_fixing(quotes, config: FixingConfig | None = None) -> FixingResult:
    """Sort, trim both tails, average the rest exactly, round half-up.

    Equal-valued quotes at a trim boundary are cut in input order (the sort
    is stable), which never changes the mean.
    """
    config = config or FixingConfig()
    values = [_as_decimal(q) for q in quotes]
    if not values:
        raise EmptyAfterTrimError("no quotes supplied")
    for value in values:
        if not value.is_finite():
            raise NonFiniteQuoteError(f"quote {value} is not finite")
    n = len(values)
    cut = config.trim_count(n)
    if n - 2 * cut < config.min_retained:
        raise EmptyAfterTrimError(
            f"trimming {cut} per side of {n} quotes leaves fewer than "
            f"{config.min_retained}"
        )
    ordered = sorted(values)
    low = tuple(ordered[:cut])
    kept = tuple(ordered[cut : n - cut])
    high = tuple(ordered[n - cut :]) if cut else ()
    total = sum(Fraction(v) for v in kept)
    raw_mean = naive_round_half_up(total / len(kept), RAW_MEAN_DECIMALS)
    published = naive_round_half_up(raw_mean, config.publish_precision)
    return FixingResult(raw_mean, published, kept, low, high)



def naive_fixing_series(
    submissions, tenor: Tenor, config: FixingConfig | None = None
) -> FixingSeries:
    """One fixing per distinct date, quotes taken in bank-label order.

    A bank quoting twice on a date fails that date: its error names the bank.
    Each quote is grouped as a (bank, rate) tuple and each date's tuples are
    sorted whole, so a repeated bank is found between neighbours.
    """
    by_date: dict[Date, list[tuple[str, Decimal]]] = {}
    for sub in submissions:
        if sub.tenor is tenor:
            by_date.setdefault(sub.date, []).append((sub.bank, sub.rate))
    results = []
    errors = []
    for day in sorted(by_date):
        pairs = sorted(by_date[day])
        try:
            for (bank, _), (twin, _) in zip(pairs, pairs[1:]):
                if bank == twin:
                    raise DuplicateSubmissionError.of(bank, day, tenor)
            results.append((day, compute_fixing([rate for _, rate in pairs], config)))
        except DataError as exc:
            errors.append((day, str(exc)))
    return FixingSeries(tuple(results), tuple(errors))


def naive_average_daily_rates(window: PanelWindow) -> RateTable:
    """Mean submitted rate per bank plus the overall mean of every cell.

    Means are exact rationals rounded half-up to three decimals for display;
    rows are sorted ascending so level tiers read off directly, with the
    overall row interleaved at its own value.
    """
    rows = []
    total = Fraction(0)
    for bank, series in zip(window.banks, window.rates):
        bank_sum = sum(Fraction(rate) for rate in series)
        total += bank_sum
        rows.append((bank, naive_round_half_up(bank_sum / window.n_dates, TABLE_DECIMALS)))
    overall = total / (window.n_banks * window.n_dates)
    rows.append((OVERALL_LABEL, naive_round_half_up(overall, TABLE_DECIMALS)))
    rows.sort(key=lambda row: (row[1], row[0]))
    return RateTable(tuple(rows))


def naive_collusion_caveat(report, window: PanelWindow, *, normalize: bool = False
                           ) -> CollusionCaveat:
    """Sizes and cohesion of the report's two-way cut, plus the fixed caveat.

    Each within-group pair is read from the condensed upper triangle by its
    row-major index, one pair at a time, and the pairs are summed left to
    right.  ``normalize`` must be what produced the report.
    """
    dist = distance_matrix(window, normalize=normalize)
    n = dist.size
    members: dict[int, list[int]] = {0: [], 1: []}
    for index, bank in enumerate(window.banks):
        members[report.group_structure[bank]].append(index)
    sizes = (len(members[0]), len(members[1]))
    cohesion = []
    for group in (0, 1):
        indices = members[group]
        pairs = [
            dist.condensed[a * (2 * n - a - 1) // 2 + (b - a - 1)]
            for pos, a in enumerate(indices)
            for b in indices[pos + 1 :]
        ]
        cohesion.append(sum(pairs) / len(pairs) if pairs else 0.0)
    largest = cohesion[0] if sizes[0] >= sizes[1] else cohesion[1]
    return CollusionCaveat(
        group_sizes=sizes,
        within_group_distance=(cohesion[0], cohesion[1]),
        largest_group_cohesion=largest,
    )
