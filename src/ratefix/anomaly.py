"""Dendrogram-based submitter surveillance.

A submitter whose quotes sit persistently away from the pack keeps its own
branch until late in the agglomeration, so its singleton survives to an
unusually large merge height.  Isolation scores formalize that early-split
reading of the tree; the flag rule compares each bank's persistence height
against a multiple of the median merge height, a unit-free cutoff that is
insensitive to panel-wide volatility shifts.  The rule is a heuristic
formalization and every rendered report says so: flags are leads, not
findings.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain

import numpy as np

from .cluster import Dendrogram, Linkage, agglomerate, cut, distance_matrix
from .errors import DataError
from .fixing import CONTEXT, exact_mean
from .panel import PanelWindow, rows_to_csv_text

DEFAULT_THRESHOLD_FACTOR = 2.0
OVERALL_LABEL = "Overall"
TABLE_DECIMALS = 3
# a ``str.translate`` table: control characters as Python escapes, one text line per label
LABEL_ESCAPES = {code: repr(chr(code))[1:-1] for code in (*range(0x20), *range(0x7F, 0xA0))}

ADVISORY = (
    "Group cohesion is not evidence of honesty: a large cluster quoting "
    "near-identical rates is indistinguishable, from the tree alone, from a "
    "benign peer group, so coordinated mild manipulation by a big enough "
    "group can be neither ruled in nor ruled out without outside evidence."
)


class PanelTooSmallError(DataError):
    """Anomaly scoring needs at least three banks."""


@dataclass(frozen=True, slots=True)
class IsolationScore:
    """How long a bank stayed alone in the tree.

    ``persistence_height`` is the height of the first merge containing the
    bank; ``normalized`` divides that by the root height (0 when the root
    height is 0, i.e. all series identical).
    """

    bank: str
    persistence_height: float
    normalized: float


@dataclass(frozen=True)
class AnomalyReport:
    window_label: str
    linkage: Linkage
    scores: tuple[IsolationScore, ...]
    flagged: tuple[str, ...]
    threshold_used: float
    group_structure: dict[str, int]
    normalize: bool  # the distance_matrix setting the tree was built with


def isolation_scores(dendrogram: Dendrogram) -> list[IsolationScore]:
    """Per-leaf singleton persistence, in leaf order."""
    n = dendrogram.n_leaves
    root = dendrogram.root_height
    joined_at: dict[int, float] = {}
    for merge in dendrogram.merges:
        for child in (merge.left, merge.right):
            if child < n:
                joined_at[child] = merge.height
    return [
        IsolationScore(
            bank=leaf,
            persistence_height=joined_at[index],
            normalized=joined_at[index] / root if root > 0.0 else 0.0,
        )
        for index, leaf in enumerate(dendrogram.leaves)
    ]


def flag_anomalies(
    window: PanelWindow,
    linkage: Linkage = Linkage.WARD,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    *,
    normalize: bool = False,
) -> AnomalyReport:
    """Cluster the window and flag banks whose singleton persists too high.

    A bank is flagged when persistence_height strictly exceeds
    ``threshold_factor`` times the median of all merge heights.  The report
    also carries the two-way cut of the tree so a flag can be read against
    the window's coarse group structure.
    """
    if window.n_banks < 3:
        raise PanelTooSmallError(
            f"anomaly scoring needs at least 3 banks, got {window.n_banks}"
        )
    if threshold_factor <= 0:
        raise ValueError("threshold_factor must be positive")
    dend = agglomerate(distance_matrix(window, normalize=normalize), linkage)
    scores = isolation_scores(dend)
    median_height = statistics.median(m.height for m in dend.merges)
    threshold = threshold_factor * median_height
    if not math.isfinite(threshold):
        raise DataError(f"threshold factor {threshold_factor!r} times median merge height "
                        f"{median_height!r} is not finite")
    ordered = tuple(sorted(scores, key=lambda s: (-s.normalized, s.bank)))
    flagged = tuple(s.bank for s in ordered if s.persistence_height > threshold)
    groups = dict(zip(dend.leaves, cut(dend, 2)))
    return AnomalyReport(
        window_label=window.label,
        linkage=linkage,
        scores=ordered,
        flagged=flagged,
        threshold_used=threshold,
        group_structure=groups,
        normalize=normalize,
    )


@dataclass(frozen=True)
class RateTable:
    """Per-bank mean rates plus an overall row, ascending by rate."""

    rows: tuple[tuple[str, Decimal], ...]

    def to_text(self) -> str:
        rows = [(label.translate(LABEL_ESCAPES), CONTEXT.to_sci_string(rate))
                for label, rate in self.rows]
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}}  {rate}" for label, rate in rows]
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        return rows_to_csv_text(("bank", "rate"),
                                ((label, CONTEXT.to_sci_string(rate)) for label, rate in self.rows))


def average_daily_rates(window: PanelWindow) -> RateTable:
    """Mean submitted rate per bank plus the overall mean of every cell.

    Means are exact, rounded half-up to three decimals for display;
    rows are sorted ascending so level tiers read off directly, with the
    overall row interleaved at its own value.
    """
    rows = [(bank, exact_mean(series, TABLE_DECIMALS))
            for bank, series in zip(window.banks, window.rates)]
    cells = tuple(chain.from_iterable(window.rates))
    rows.append((OVERALL_LABEL, exact_mean(cells, TABLE_DECIMALS)))
    rows.sort(key=lambda row: (row[1], row[0]))
    return RateTable(tuple(rows))


@dataclass(frozen=True)
class CollusionCaveat:
    """Companion to an AnomalyReport for the coordinated-quoting blind spot."""

    group_sizes: tuple[int, int]
    within_group_distance: tuple[float, float]
    largest_group_cohesion: float
    advisory: str = field(default=ADVISORY)

    def to_text(self) -> str:
        lines = []
        for index in range(2):
            lines.append(
                f"group {index}: {self.group_sizes[index]} banks, "
                f"mean within-group distance {self.within_group_distance[index]:.6f}"
            )
        lines.append(f"largest group cohesion: {self.largest_group_cohesion:.6f}")
        lines.append(f"caveat: {self.advisory}")
        return "\n".join(lines) + "\n"


def collusion_caveat_report(report: AnomalyReport, window: PanelWindow) -> CollusionCaveat:
    """Sizes and cohesion of the report's two-way cut, plus the fixed caveat.

    The distances are taken as the report took them (``report.normalize``).
    A group's cohesion is the mean of its members' pairwise distances: the
    row-major upper-triangle pairs in window order, summed left to right.
    """
    square = distance_matrix(window, normalize=report.normalize).to_square()
    members: dict[int, list[int]] = {0: [], 1: []}
    for index, bank in enumerate(window.banks):
        members[report.group_structure[bank]].append(index)
    sizes = (len(members[0]), len(members[1]))
    cohesion = []
    for group in (0, 1):
        m = members[group]
        pairs = square[np.ix_(m, m)][np.triu_indices(len(m), 1)].tolist()
        # Python's sum adds left to right; np.sum's pairwise order moves last bits
        cohesion.append(sum(pairs) / len(pairs) if pairs else 0.0)
    largest = cohesion[0] if sizes[0] >= sizes[1] else cohesion[1]
    return CollusionCaveat(
        group_sizes=sizes,
        within_group_distance=(cohesion[0], cohesion[1]),
        largest_group_cohesion=largest,
    )
