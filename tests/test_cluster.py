"""Distances and agglomeration, cross-checked against MST and variance oracles."""

from __future__ import annotations

import math
import random
from dataclasses import astuple
from decimal import Decimal

import numpy as np
import pytest

from conftest import points_to_matrix, random_points, window_from_rows
from oracles import (
    dendrogram_step_partitions,
    matrix_agglomeration,
    naive_agglomeration,
    per_pair_distances,
    prim_mst_weights,
    random_symmetric_square,
    sum_sq_distance,
    ward_greedy_steps,
)
from ratefix import (
    DataError,
    DegeneratePanelError,
    Dendrogram,
    DistanceMatrix,
    InvalidClusterDataError,
    InvalidKError,
    Linkage,
    Merge,
    NonFiniteValueError,
    PanelWindow,
    agglomerate,
    cut,
    distance_matrix,
)


WORKED = points_to_matrix([(0.0,), (1.0,), (3.0,)])


class TestDistanceMatrix:
    def test_condensed_layout_is_row_major_upper_triangle(self):
        square = [
            [0, 1, 2, 3],
            [1, 0, 4, 5],
            [2, 4, 0, 6],
            [3, 5, 6, 0],
        ]
        dist = DistanceMatrix.from_square(("a", "b", "c", "d"), square)
        assert dist.condensed.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_condensed_is_one_read_only_float64_array(self):
        source = np.array([1.0, 2.0, 3.0])
        dist = DistanceMatrix(("a", "b", "c"), source)
        source[0] = 9.0
        assert dist.condensed.dtype == np.float64
        assert dist.condensed.flags.c_contiguous and not dist.condensed.flags.writeable
        with pytest.raises(ValueError):
            dist.condensed[0] = 5.0
        assert dist == DistanceMatrix(("a", "b", "c"), (1, 2, 3))
        assert dist == DistanceMatrix(["a", "b", "c"], [1.0, 2.0, 3.0])
        assert dist != DistanceMatrix(("a", "b", "c"), (1.0, 2.0, 4.0))
        assert dist != DistanceMatrix(("a", "b", "d"), (1.0, 2.0, 3.0))
        with pytest.raises(InvalidClusterDataError, match="condensed length"):
            DistanceMatrix(("a", "b", "c"), [[1.0, 2.0, 3.0]])

    def test_value_is_symmetric_with_zero_diagonal(self):
        square = WORKED.to_square()
        for i in range(3):
            assert square[i, i] == 0.0
            for j in range(3):
                assert square[i, j] == square[j, i]

    def test_square_round_trip(self):
        square = WORKED.to_square()
        again = DistanceMatrix.from_square(WORKED.labels, square)
        assert again == WORKED
        assert isinstance(square, np.ndarray)

    def test_from_square_rejects_bad_input(self):
        labels = ("a", "b")
        with pytest.raises(ValueError):
            DistanceMatrix.from_square(labels, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            DistanceMatrix.from_square(labels, [[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix.from_square(labels, [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix.from_square(labels, [[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NonFiniteValueError):
            DistanceMatrix.from_square(labels, [[0.0, math.inf], [math.inf, 0.0]])

    def test_bad_matrix_raises_the_named_error(self):
        with pytest.raises(InvalidClusterDataError, match="condensed length"):
            DistanceMatrix(("a", "b", "c"), (1.0,))

    def test_bad_square_raises_the_named_error(self):
        with pytest.raises(InvalidClusterDataError, match=r"not symmetric at \(0,1\)"):
            DistanceMatrix.from_square(("a", "b"), [[0.0, 1.0], [2.0, 0.0]])

    def test_named_error_is_a_data_error_and_a_value_error(self):
        assert issubclass(InvalidClusterDataError, DataError)
        assert issubclass(InvalidClusterDataError, ValueError)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "a"), (1.0,))


class TestPanelDistanceMatrix:
    def test_matches_pairwise_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            rows = {
                f"B{i}": [rng.randrange(20000, 40000) / 10**4 for _ in range(6)]
                for i in range(rng.randint(2, 6))
            }
            window = window_from_rows(rows)
            square = distance_matrix(window).to_square()
            series = {b: [float(x) for x in row] for b, row in zip(window.banks, window.rates)}
            for i, bi in enumerate(window.banks):
                for j in range(i + 1, len(window.banks)):
                    expected = sum_sq_distance(series[bi], series[window.banks[j]])
                    assert square[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_identical_series_have_zero_distance(self):
        window = window_from_rows({"A": [3, 3.1, 3.2], "B": [3, 3.1, 3.2]})
        assert distance_matrix(window).condensed.tolist() == [0.0]

    def test_normalize_removes_level_and_scale(self):
        window = window_from_rows({"A": [1, 2, 3, 4], "B": [7, 9, 11, 13]})
        plain = distance_matrix(window)
        scored = distance_matrix(window, normalize=True)
        assert plain.condensed[0] > 1.0
        assert scored.condensed[0] == pytest.approx(0.0, abs=1e-12)

    def test_normalize_maps_constant_series_to_zero(self):
        window = window_from_rows({"A": [3, 3, 3], "B": [4, 4, 4]})
        scored = distance_matrix(window, normalize=True)
        assert scored.condensed.tolist() == [0.0]

    def test_normalize_refuses_overflowed_standard_deviation(self):
        window = window_from_rows({"A": [1e200, -1e200], "B": [1e200, -1e200]})
        assert distance_matrix(window).condensed.tolist() == [0.0]
        with pytest.raises(NonFiniteValueError):
            distance_matrix(window, normalize=True)

    def test_single_bank_window_rejected(self):
        window = window_from_rows({"A": [3, 3.1]})
        with pytest.raises(DegeneratePanelError):
            distance_matrix(window)

    def test_float_matrix_layout_does_not_change_a_bit(self):
        # the per-pair dot product's last bits depend on the rows' memory
        # layout, so the window makes its float matrix in C order whatever
        # the layout of the cells it is given
        rng = random.Random(29)
        window = window_from_rows({
            f"B{i:02d}": [rng.randrange(20000, 40000) / 10**4 for _ in range(250)]
            for i in range(12)
        })
        cells = np.asfortranarray(np.array(window.rates, object))
        again = PanelWindow(window.banks, window.dates, cells, window.tenor, window.label)
        assert again.values.flags.c_contiguous
        for normalize in (False, True):
            want = np.array(distance_matrix(window, normalize=normalize).condensed)
            got = np.array(distance_matrix(again, normalize=normalize).condensed)
            assert got.tobytes() == want.tobytes()

    def test_stacked_product_matches_per_pair_dot_bit_for_bit(self):
        rng = np.random.default_rng(31)
        windows = []
        for n_banks, n_dates, level in ((2, 1, 3), (2, 9, 3), (7, 1, 3), (17, 63, 3),
                                        (40, 250, 3), (12, 40, 999_999_990)):
            micros = rng.integers(-5_000_000, 5_000_000, size=(n_banks, n_dates)) + level * 10**6
            windows.append(window_from_rows({
                f"B{i:02d}": [Decimal(int(m)).scaleb(-6) for m in row] for i, row in enumerate(micros)
            }))
        last = windows[-2]
        windows.append(PanelWindow(last.banks, last.dates,
                                   np.asfortranarray(np.array(last.rates, object)),
                                   last.tenor, last.label))
        for window in windows:
            for normalize in (False, True):
                got = distance_matrix(window, normalize=normalize).condensed
                assert got.tobytes() == per_pair_distances(window, normalize).tobytes()


class TestAgglomerateWorked:
    def test_two_leaves_both_linkages(self):
        dist = points_to_matrix([(0.0,), (1.5,)])
        for linkage in Linkage:
            tree = agglomerate(dist, linkage)
            assert tree.merges == (Merge(0, 1, 1.5, 2),)

    def test_three_points_single(self):
        tree = agglomerate(WORKED, Linkage.SINGLE)
        assert [(m.left, m.right, m.size) for m in tree.merges] == [(0, 1, 2), (2, 3, 3)]
        assert [m.height for m in tree.merges] == [1.0, 2.0]

    def test_three_points_ward(self):
        tree = agglomerate(WORKED, Linkage.WARD)
        assert [(m.left, m.right, m.size) for m in tree.merges] == [(0, 1, 2), (2, 3, 3)]
        assert tree.merges[0].height == 1.0
        # merging {0,1} with {3}: the variance step works out to sqrt(25/3)
        assert tree.merges[1].height == pytest.approx(math.sqrt(25.0 / 3.0), rel=1e-15)

    def test_all_equal_distances_break_ties_lexicographically(self):
        square = [[0.0 if i == j else 2.0 for j in range(4)] for i in range(4)]
        dist = DistanceMatrix.from_square(("a", "b", "c", "d"), square)
        for linkage in Linkage:
            tree = agglomerate(dist, linkage)
            assert [(m.left, m.right) for m in tree.merges] == [(0, 1), (2, 3), (4, 5)]
            assert [m.height for m in tree.merges] == [2.0, 2.0, 2.0]

    def test_overflowed_ward_distance_refused(self):
        dist = DistanceMatrix(("a", "b", "c"), (1e200,) * 3)
        assert agglomerate(dist, Linkage.SINGLE).root_height == 1e200
        with pytest.raises(NonFiniteValueError):
            agglomerate(dist, Linkage.WARD)

    def test_degenerate_inputs(self):
        single = DistanceMatrix(("only",), ())
        with pytest.raises(DegeneratePanelError):
            agglomerate(single)


class TestSingleLinkageIsMst:
    def test_heights_equal_sorted_mst_edges_exactly(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(2, 10)
            square = random_symmetric_square(rng, n)
            labels = tuple(f"L{i}" for i in range(n))
            tree = agglomerate(DistanceMatrix.from_square(labels, square), Linkage.SINGLE)
            assert [m.height for m in tree.merges] == prim_mst_weights(square)


class TestWardMatchesVarianceOracle:
    def test_merge_sequence_and_costs(self):
        rng = random.Random(43)
        for trial in range(30):
            dim = 1 if trial % 2 == 0 else 3
            n = rng.randint(3, 8)
            points = random_points(rng, n, dim)
            tree = agglomerate(points_to_matrix(points), Linkage.WARD)
            partitions, costs = ward_greedy_steps(points)
            assert dendrogram_step_partitions(tree) == partitions
            for merge, cost in zip(tree.merges, costs):
                assert merge.height**2 == pytest.approx(2.0 * cost, rel=1e-9, abs=1e-9)


class TestTreeInvariants:
    def test_heights_non_decreasing(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(2, 12)
            square = random_symmetric_square(rng, n)
            labels = tuple(f"L{i}" for i in range(n))
            dist = DistanceMatrix.from_square(labels, square)
            for linkage in Linkage:
                merges = agglomerate(dist, linkage).merges
                for earlier, later in zip(merges, merges[1:]):
                    assert later.height >= earlier.height

    def test_doubling_distances_doubles_heights_exactly(self):
        rng = random.Random(59)
        for _ in range(10):
            n = rng.randint(2, 9)
            square = random_symmetric_square(rng, n)
            doubled = [[2.0 * x for x in row] for row in square]
            labels = tuple(f"L{i}" for i in range(n))
            for linkage in Linkage:
                base = agglomerate(DistanceMatrix.from_square(labels, square), linkage)
                scaled = agglomerate(DistanceMatrix.from_square(labels, doubled), linkage)
                assert [(m.left, m.right, m.size) for m in base.merges] == [
                    (m.left, m.right, m.size) for m in scaled.merges
                ]
                assert [2.0 * m.height for m in base.merges] == [
                    m.height for m in scaled.merges
                ]

    def test_relabelling_gives_isomorphic_tree(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(3, 9)
            square = random_symmetric_square(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    shuffled[perm[i]][perm[j]] = square[i][j]
            labels = tuple(f"L{i}" for i in range(n))
            for linkage in Linkage:
                base = agglomerate(DistanceMatrix.from_square(labels, square), linkage)
                moved = agglomerate(DistanceMatrix.from_square(labels, shuffled), linkage)
                assert [m.height for m in base.merges] == [m.height for m in moved.merges]
                inverse = {perm[i]: i for i in range(n)}
                moved_parts = [
                    frozenset(frozenset(inverse[x] for x in cluster) for cluster in part)
                    for part in dendrogram_step_partitions(moved)
                ]
                assert moved_parts == dendrogram_step_partitions(base)


class TestExactTies:
    """Merges equal a naive reference bit for bit where ties are everywhere."""

    @staticmethod
    def check(square):
        labels = tuple(f"L{i}" for i in range(len(square)))
        dist = DistanceMatrix.from_square(labels, square)
        for linkage in Linkage:
            got = [astuple(m) for m in agglomerate(dist, linkage).merges]
            assert got == naive_agglomeration(square, linkage is Linkage.WARD)

    def test_entries_from_one_two_three(self):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(2, 30)
            square = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    square[i][j] = square[j][i] = float(rng.choice((1, 2, 3)))
            self.check(square)

    def test_integer_grid_point_clouds(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(2, 30)
            dim = rng.choice((1, 2, 3))
            points = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n)]
            self.check([[math.dist(a, b) for b in points] for a in points])


class TestAgainstWorkingMatrix:
    """Merges equal the earlier working-matrix loop on a few hundred leaves."""

    @staticmethod
    def check(points):
        square = np.array([np.sqrt(((points - point) ** 2).sum(axis=1)) for point in points])
        dist = DistanceMatrix.from_square(tuple(f"L{i}" for i in range(len(points))), square)
        for linkage in Linkage:
            assert agglomerate(dist, linkage) == matrix_agglomeration(dist, linkage)

    def test_integer_grid_clouds(self):
        rng = np.random.default_rng(97)
        for n, dim in ((200, 1), (400, 2), (600, 3)):
            self.check(rng.integers(0, 6, size=(n, dim)).astype(float))

    def test_clouds_with_duplicate_row_groups(self):
        # a group of identical rows ties at height 0 and sits at one distance
        # from every other row, like a collusive group of equal submissions
        rng = np.random.default_rng(101)
        for n, groups in ((200, 1), (400, 3), (600, 5)):
            points = rng.normal(size=(n, 40))
            for _ in range(groups):
                members = rng.choice(n, size=int(rng.integers(2, 12)), replace=False)
                points[members] = points[members[0]]
            self.check(points)


def test_ward_keeps_its_traced_peak_near_two_squares_at_a_thousand_leaves():
    # the first cache fill scans blocks of rows, so its temporaries stay
    # small beside the working square and its square copy
    import tracemalloc

    n = 1000
    points = np.random.default_rng(5).normal(size=(n, 40))
    square = np.array([np.sqrt(((points - point) ** 2).sum(axis=1)) for point in points])
    dist = DistanceMatrix.from_square(tuple(f"L{i}" for i in range(n)), square)
    del square
    tracemalloc.start()
    try:
        agglomerate(dist, Linkage.WARD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * 8 * n * n


class TestAgainstScipy:
    def test_sorted_heights_match_reference_library(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = random.Random(67)
        for _ in range(15):
            n = rng.randint(3, 12)
            square = random_symmetric_square(rng, n)
            labels = tuple(f"L{i}" for i in range(n))
            dist = DistanceMatrix.from_square(labels, square)
            for linkage, method in ((Linkage.SINGLE, "single"), (Linkage.WARD, "ward")):
                ours = sorted(m.height for m in agglomerate(dist, linkage).merges)
                theirs = sorted(hierarchy.linkage(np.asarray(dist.condensed), method)[:, 2])
                assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


class TestCut:
    def test_worked_three_point_cut(self):
        tree = agglomerate(WORKED, Linkage.SINGLE)
        assert cut(tree, 2) == (0, 0, 1)
        assert cut(tree, 1) == (0, 0, 0)
        assert cut(tree, 3) == (0, 1, 2)

    def test_invalid_k(self):
        tree = agglomerate(WORKED, Linkage.SINGLE)
        with pytest.raises(InvalidKError):
            cut(tree, 0)
        with pytest.raises(InvalidKError):
            cut(tree, 4)

    def test_every_k_yields_exactly_k_clusters(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(2, 12)
            square = random_symmetric_square(rng, n)
            labels = tuple(f"L{i}" for i in range(n))
            tree = agglomerate(DistanceMatrix.from_square(labels, square))
            for k in range(1, n + 1):
                assignment = cut(tree, k)
                assert len(assignment) == n
                assert set(assignment) == set(range(k))
                assert cut(tree, np.int64(k)) == assignment

    def test_finer_cuts_refine_coarser_ones(self):
        rng = random.Random(79)
        for _ in range(10):
            n = rng.randint(3, 10)
            square = random_symmetric_square(rng, n)
            labels = tuple(f"L{i}" for i in range(n))
            tree = agglomerate(DistanceMatrix.from_square(labels, square))
            for k in range(1, n):
                coarse = cut(tree, k)
                fine = cut(tree, k + 1)
                owners = {}
                for leaf in range(n):
                    owners.setdefault(fine[leaf], set()).add(coarse[leaf])
                assert all(len(seen) == 1 for seen in owners.values())


class TestDendrogramValidation:
    def test_list_fields_are_stored_as_tuples(self):
        from_lists = agglomerate(DistanceMatrix(["a", "b", "c"], [1.0, 2.0, 3.0]))
        from_tuples = agglomerate(DistanceMatrix(("a", "b", "c"), (1.0, 2.0, 3.0)))
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        tree = Dendrogram(["a", "b", "c"], [Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 3)])
        assert tree == Dendrogram(("a", "b", "c"), (Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 3)))
        assert isinstance(tree.leaves, tuple) and isinstance(tree.merges, tuple)
        hash(tree)

    def test_merge_count_checked(self):
        with pytest.raises(ValueError):
            Dendrogram(leaves=("a", "b", "c"), merges=(Merge(0, 1, 1.0, 2),))

    def test_child_cannot_be_reused(self):
        with pytest.raises(ValueError):
            Dendrogram(
                leaves=("a", "b", "c"),
                merges=(Merge(0, 1, 1.0, 2), Merge(1, 3, 2.0, 3)),
            )

    def test_size_bookkeeping_checked(self):
        with pytest.raises(ValueError):
            Dendrogram(
                leaves=("a", "b", "c"),
                merges=(Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 2)),
            )

    def test_heights_must_not_decrease(self):
        with pytest.raises(ValueError):
            Dendrogram(
                leaves=("a", "b", "c"),
                merges=(Merge(0, 1, 2.0, 2), Merge(2, 3, 1.0, 3)),
            )

    def test_bad_tree_raises_the_named_error(self):
        with pytest.raises(InvalidClusterDataError, match="merge 1: size bookkeeping"):
            Dendrogram(leaves=("a", "b", "c"), merges=(Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 2)))
