"""Agglomerative clustering of raw submission series.

Distances are plain Euclidean between equal-length series.  The merge tree
is built bottom-up with one of two linkages:

* single: clusters merge at the minimum pairwise member distance, so merge
  heights are always copies of original matrix entries (this is what makes
  the minimum-spanning-tree equivalence exact, not approximate);
* ward: clusters merge where the within-cluster sum of squares grows least,
  tracked with the Lance-Williams update on squared distances

      d2(ij,k) = ((ni+nk) d2(i,k) + (nj+nk) d2(j,k) - nk d2(i,j)) / (ni+nj+nk)

  and reported heights are square roots of the squared merge distances.

Agglomeration runs on one square working matrix whose rows and columns are
the active nodes in ascending id order: a merge drops the two merged rows and
appends the new node last.  A row-major ``argmin`` then returns the first
minimum, so ties always resolve to the lexicographically smallest (left,
right) pair of node indices, and a given distance matrix yields one
well-defined tree.  Node references follow the usual convention: 0..n-1 are
leaves in label order, n..2n-2 are merges in creation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .panel import PanelWindow


class InvalidClusterDataError(DataError, ValueError):
    """A distance matrix or dendrogram breaks its structural invariants."""


class NonFiniteValueError(DataError):
    """A series or distance entry is NaN or infinite."""


class DegeneratePanelError(DataError):
    """Too few series to cluster."""


class InvalidKError(DataError):
    """Requested cluster count is outside 1..n_leaves."""


class Linkage(Enum):
    SINGLE = "single"
    WARD = "ward"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distances stored as the condensed upper triangle,
    row-major, in one read-only C-contiguous float64 array (a sequence is
    converted on construction).  Equal when labels and values are."""

    labels: tuple[str, ...]
    condensed: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n < 1:
            raise InvalidClusterDataError("need at least one label")
        if len(set(self.labels)) != n:
            raise InvalidClusterDataError("labels must be unique")
        values = np.array(self.condensed, dtype=float, order="C")
        if values.shape != (n * (n - 1) // 2,):
            raise InvalidClusterDataError("condensed length does not match label count")
        if not np.isfinite(values).all():
            raise NonFiniteValueError("distances must be finite")
        if (values < 0).any():
            raise InvalidClusterDataError("distances must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "condensed", values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.condensed, other.condensed)

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_square(self) -> np.ndarray:
        n = self.size
        square = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        square[upper] = self.condensed
        square.T[upper] = self.condensed
        return square

    @classmethod
    def from_square(cls, labels, square) -> "DistanceMatrix":
        labels = tuple(labels)
        n = len(labels)
        arr = np.asarray(square, dtype=float)
        if arr.shape != (n, n):
            raise InvalidClusterDataError(f"square matrix must be {n}x{n}")
        if (arr.diagonal() != 0.0).any():
            raise InvalidClusterDataError("diagonal must be zero")
        if (arr != arr.T).any():
            i, j = np.argwhere(arr != arr.T)[0]
            raise InvalidClusterDataError(f"matrix not symmetric at ({i},{j})")
        return cls(labels, arr[np.triu_indices(n, 1)])


def distance_matrix(window: PanelWindow, normalize: bool = False) -> DistanceMatrix:
    """Pairwise distances between the window's bank series.

    With ``normalize`` each series is z-scored first (population standard
    deviation; constant series map to all zeros), making the comparison
    shape-only.  The default compares raw rate levels, which is what lets a
    persistently offset submitter stand out.
    """
    if window.n_banks < 2:
        raise DegeneratePanelError("distance matrix needs at least two banks")
    rows = window.values
    if not np.isfinite(rows).all():
        raise NonFiniteValueError("series contain non-finite values")
    # an overflow ends in a non-finite value, which is refused, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if normalize:
            mean = rows.mean(axis=1, keepdims=True)
            std = rows.std(axis=1, keepdims=True)
            if not np.isfinite(std).all():
                raise NonFiniteValueError("z-score standard deviation is not finite")
            safe = np.where(std > 0.0, std, 1.0)
            rows = np.where(std > 0.0, (rows - mean) / safe, 0.0)
        n = len(rows)
        # one np.dot per pair: its BLAS kernel fixes the distances' last bits
        values = np.fromiter((math.sqrt(float(np.dot(d, d)))
                              for i in range(n - 1) for d in rows[i] - rows[i + 1 :]), float)
    return DistanceMatrix(window.banks, values)


@dataclass(frozen=True)
class Merge:
    """One agglomeration step; children reference leaves 0..n-1, merges n..2n-2."""

    left: int
    right: int
    height: float
    size: int


# construction-time guard: mathematically both linkages are monotone, but the
# Ward update may jitter by ~1 ulp under near-exact ties
_HEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class Dendrogram:
    """A full merge tree over the labelled leaves: exactly n-1 merges."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if n < 2:
            raise InvalidClusterDataError("dendrogram needs at least two leaves")
        if len(set(self.leaves)) != n:
            raise InvalidClusterDataError("leaf labels must be unique")
        if len(self.merges) != n - 1:
            raise InvalidClusterDataError(f"expected {n - 1} merges, got {len(self.merges)}")
        sizes = {i: 1 for i in range(n)}
        consumed = set()
        previous = 0.0
        for step, merge in enumerate(self.merges):
            node = n + step
            if merge.left >= merge.right:
                raise InvalidClusterDataError(f"merge {step}: children must satisfy left < right")
            for child in (merge.left, merge.right):
                if child not in sizes:
                    raise InvalidClusterDataError(f"merge {step}: unknown or reused child {child}")
                if child in consumed:
                    raise InvalidClusterDataError(f"merge {step}: child {child} consumed twice")
                consumed.add(child)
            if merge.size != sizes[merge.left] + sizes[merge.right]:
                raise InvalidClusterDataError(f"merge {step}: size bookkeeping is wrong")
            if not math.isfinite(merge.height) or merge.height < 0:
                raise InvalidClusterDataError(f"merge {step}: bad height {merge.height}")
            if merge.height + _HEIGHT_SLACK * max(1.0, previous) < previous:
                raise InvalidClusterDataError(f"merge {step}: heights must be non-decreasing")
            sizes[node] = merge.size
            previous = merge.height
        if self.merges[-1].size != n:
            raise InvalidClusterDataError("root must cover every leaf")

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def root_height(self) -> float:
        return self.merges[-1].height


def agglomerate(dist: DistanceMatrix, linkage: Linkage = Linkage.WARD) -> Dendrogram:
    """Build the full merge tree for a distance matrix.

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


def cut(dendrogram: Dendrogram, k: int) -> tuple[int, ...]:
    """Partition leaves into k clusters by undoing the last k-1 merges.

    Returns one cluster index per leaf; clusters are numbered by the order
    of their first leaf.
    """
    n = dendrogram.n_leaves
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidKError(f"k must be in 1..{n}, got {k}")
    parent: dict[int, int] = {}
    for step, merge in enumerate(dendrogram.merges[: n - k]):
        node = n + step
        parent[merge.left] = node
        parent[merge.right] = node
    numbered: dict[int, int] = {}
    assignment = []
    for leaf in range(n):
        node = leaf
        while node in parent:
            node = parent[node]
        if node not in numbered:
            numbered[node] = len(numbered)
        assignment.append(numbered[node])
    return tuple(assignment)
