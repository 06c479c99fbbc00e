"""Independent reference implementations used to cross-check the package.

Each oracle is deliberately coded along a different route from the module it
checks (decimal-context rounding instead of rational divmod, Prim instead of
agglomeration, direct sum-of-squares bookkeeping instead of the recurrence
update, a dict-of-pairs scan instead of the working matrix, a sorted scan
with per-cell dict probes instead of the index-matrix window build) so a
shared bug cannot hide.
"""

from __future__ import annotations

import math
import random
import warnings
from datetime import date as Date
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

from ratefix.panel import (
    DuplicateSubmissionError,
    EmptyWindowError,
    MissingDataPolicy,
    PanelWarning,
    PanelWindow,
    Tenor,
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

    def parse_node():
        nonlocal pos
        if s[pos] == "(":
            pos += 1
            kids = [parse_branch()]
            while s[pos] == ",":
                pos += 1
                kids.append(parse_branch())
            if s[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            return (tuple(kids), "")
        return ((), parse_label())

    def parse_branch():
        nonlocal pos
        children, label = parse_node()
        length = None
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in ",()":
                pos += 1
            length = float(s[start:pos])
        return (children, label, length)

    children, label = parse_node()
    if pos != len(s):
        raise ValueError(f"trailing newick text at {pos}")
    return (children, label, None)


def newick_internal_nodes(text: str):
    """Reconstruct (leaf-label set, height) for every internal node.

    Uses the ultrametric property: every leaf sits at depth equal to the
    root height, so node height = root height - node depth.
    """
    tree = parse_newick(text)
    leaf_depths = []
    internals = []

    def walk(node, depth):
        children, label, length = node
        here = depth + (length or 0.0)
        if not children:
            leaf_depths.append(here)
            return frozenset({label})
        labels = frozenset()
        for child in children:
            labels |= walk(child, here)
        internals.append((labels, here))
        return labels

    walk(tree, 0.0)
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
