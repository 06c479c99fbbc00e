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

Both linkages merge the closest pair of active clusters at every step, ties
going to the lexicographically smallest (left, right) pair of node ids, so a
distance matrix yields one tree.  Nodes 0..n-1 are leaves in label order,
n..2n-2 merges in creation order.  Ward caches each row's nearest neighbour
of larger id (smallest id on a tie) in one fixed square (Muellner 2011,
arXiv:1109.2378), one array scan filling every row's cache: a new node takes
its left child's row and the largest id, so it replaces a row's neighbour
only when strictly closer, and the rows whose neighbour merged are scanned
again by one array scan over that set of rows.  Single linkage replays
Prim's spanning tree in weight order (Gower and Ross 1969); where tree edges
share a weight, every pair of clusters at that distance competes, not only
the tree's edges.
"""

from __future__ import annotations

import itertools
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
        object.__setattr__(self, "labels", tuple(self.labels))
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
        # one stacked 1-by-m times m-by-1 product per row: numpy hands each
        # pair to the same BLAS dot kernel, which fixes the distances' last bits
        values = np.sqrt(np.concatenate([np.matmul(d[:, None, :], d[:, :, None]).ravel() for d in
                                         (rows[i] - rows[i + 1 :] for i in range(len(rows) - 1))]))
    return DistanceMatrix(window.banks, values)


@dataclass(frozen=True, slots=True)
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
        vars(self).update(leaves=tuple(self.leaves), merges=tuple(self.merges))
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
    """Build the full merge tree over raw distances (single linkage) or squared
    distances (Ward), with the tie rule of the module docstring."""
    n = dist.size
    if n < 2:
        raise DegeneratePanelError("agglomeration needs at least two series")
    build = _ward_merges if linkage is Linkage.WARD else _single_merges
    return Dendrogram(dist.labels, tuple(build(dist.to_square())))


def _ward_merges(work: np.ndarray) -> list[Merge]:
    """Ward merges over a fixed square of squared distances, one node per slot."""
    n = len(work)
    # an overflowed Ward value is refused at its merge, not warned about
    with np.errstate(over="ignore"):
        np.multiply(work, work, out=work)
    ids, sizes = np.arange(n), np.ones(n, dtype=np.int64)  # a dead slot's id is -1
    # each live slot's smallest value over slots of larger node id, and that
    # slot (smallest id on a tie); inf for the newest node and dead slots
    best, partner = np.full(n, np.inf), np.zeros(n, dtype=np.intp)

    def scan(rows) -> None:
        """Fill the caches of ``rows``, an index array, in one array scan."""
        values = np.where(ids > ids[rows, None], work[rows], np.inf)
        best[rows] = low = values.min(axis=1)
        partner[rows] = np.argmin(np.where(values == low[:, None], ids, 2 * n), axis=1)

    scan(np.arange(n - 1))
    merges: list[Merge] = []
    for node in range(n, 2 * n - 1):
        metric = float(best.min())
        # checking merges suffices: an overflowed value only grows until it
        # is merged, and no NaN can arise from finite non-negative inputs
        if not math.isfinite(metric):
            raise NonFiniteValueError(f"non-finite ward working distance {metric}")
        a = np.argmin(np.where(best == metric, ids, 2 * n))
        b = partner[a]
        si, sj = sizes[a], sizes[b]
        merges.append(Merge(int(ids[a]), int(ids[b]), math.sqrt(max(metric, 0.0)), int(si + sj)))
        ids[[a, b]] = -1
        rest = np.flatnonzero(ids >= 0)
        sk = sizes[rest]
        with np.errstate(over="ignore", invalid="ignore"):
            updated = ((si + sk) * work[a, rest] + (sj + sk) * work[b, rest]
                       - sk * metric) / (si + sj + sk)
        work[a, rest] = work[rest, a] = updated
        ids[a], sizes[a] = node, si + sj
        best[[a, b]] = np.inf
        lost = (partner[rest] == a) | (partner[rest] == b)
        closer = updated < best[rest]
        best[rest[closer]], partner[rest[closer]] = updated[closer], a
        scan(rest[lost & ~closer])
    return merges


def _single_merges(square: np.ndarray) -> list[Merge]:
    """Single-linkage merges replayed from Prim's minimum spanning tree."""
    n = len(square)
    outside = np.arange(n) > 0
    near, via = np.where(outside, square[0], np.inf), np.zeros(n, dtype=np.intp)
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(near))
        edges.append((float(near[v]), int(via[v]), v))
        outside[v], near[v] = False, np.inf
        closer = outside & (square[v] < near)
        near[closer], via[closer] = square[v, closer], v
    edges.sort()

    label = np.arange(n)  # each leaf's current cluster id
    sizes = [1] * n
    merges: list[Merge] = []

    def join(x: int, y: int, height: float) -> int:
        label[(label == x) | (label == y)] = node = n + len(merges)
        sizes.append(sizes[x] + sizes[y])
        merges.append(Merge(x, y, height, sizes[node]))
        return node

    for height, group in itertools.groupby(edges, key=lambda edge: edge[0]):
        tree = [(int(label[i]), int(label[j])) for _, i, j in group]
        if len(tree) == 1:
            join(*sorted(tree[0]), height)
            continue
        # tied tree edges: the smallest id with a neighbour at this height
        # merges with its smallest neighbour.  A cluster without one never
        # gains one, and new ids are the largest, so one pass in id order
        # over the clusters these edges touch, then the new nodes, suffices
        queue, todo = sorted({x for edge in tree for x in edge}), len(tree)
        for x in queue:
            if not todo:
                break
            members = label == x
            near = (square[members] == height).any(axis=0) & ~members
            if near.any():
                queue.append(join(x, int(label[near].min()), height))
                todo -= 1
    return merges


def cut(dendrogram: Dendrogram, k: int) -> tuple[int, ...]:
    """Partition leaves into k clusters by undoing the last k-1 merges.

    Returns one cluster index per leaf; clusters are numbered by the order
    of their first leaf.
    """
    n = dendrogram.n_leaves
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise InvalidKError(f"k must be in 1..{n}, got {k}")
    # children take their parent's top cluster, newest merge first
    top = list(range(2 * n - k))
    for step in range(n - k - 1, -1, -1):
        merge = dendrogram.merges[step]
        top[merge.left] = top[merge.right] = top[n + step]
    numbered: dict[int, int] = {}
    return tuple(numbered.setdefault(top[leaf], len(numbered)) for leaf in range(n))
