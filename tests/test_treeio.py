"""Newick, DOT, and merge-list round trips."""

from __future__ import annotations

import json
import random

import pytest

from oracles import merge_members, newick_internal_nodes, random_symmetric_square
from ratefix import (
    DistanceMatrix,
    Linkage,
    agglomerate,
    canonical_json,
    dendrogram_from_obj,
    merges_to_obj,
    to_dot,
    to_newick,
)


def random_tree(rng, n=None, labels=None, linkage=Linkage.WARD):
    n = n or rng.randint(2, 10)
    labels = labels or tuple(f"L{i}" for i in range(n))
    square = random_symmetric_square(rng, n)
    return agglomerate(DistanceMatrix.from_square(labels, square), linkage)


def two_leaf_tree(a="A", b="B", height=1.5):
    square = [[0.0, height], [height, 0.0]]
    return agglomerate(DistanceMatrix.from_square((a, b), square), Linkage.SINGLE)


def members_and_heights(tree):
    """(leaf-label set, height) per merge, the same shape the parser returns."""
    out = []
    for members, merge in zip(merge_members(tree), tree.merges):
        out.append((frozenset(tree.leaves[i] for i in members), merge.height))
    return sorted(out, key=lambda item: (sorted(item[0]), item[1]))


class TestNewick:
    def test_two_leaf_tree_is_written_verbatim(self):
        assert to_newick(two_leaf_tree()) == "(A:1.5,B:1.5);"

    def test_label_quoting_round_trips(self):
        tree = two_leaf_tree(a="Banque d'Or", b="plain_one")
        text = to_newick(tree)
        assert "'Banque d''Or'" in text
        nodes, root = newick_internal_nodes(text)
        assert nodes == [(frozenset({"Banque d'Or", "plain_one"}), 1.5)]
        assert root == 1.5

    def test_random_trees_round_trip_members_and_heights(self):
        rng = random.Random(211)
        for _ in range(20):
            tree = random_tree(rng, linkage=rng.choice(list(Linkage)))
            nodes, root = newick_internal_nodes(to_newick(tree))
            assert root == pytest.approx(tree.root_height, rel=1e-12, abs=1e-12)
            expected = members_and_heights(tree)
            got = sorted(nodes, key=lambda item: (sorted(item[0]), item[1]))
            assert [labels for labels, _ in got] == [labels for labels, _ in expected]
            for (_, h_got), (_, h_want) in zip(got, expected):
                assert h_got == pytest.approx(h_want, rel=1e-9, abs=1e-12)

    def test_leaves_sit_at_height_zero(self):
        # ultrametric check: every root-to-leaf path has the same length,
        # which newick_internal_nodes verifies internally
        rng = random.Random(223)
        for _ in range(10):
            newick_internal_nodes(to_newick(random_tree(rng)))


class TestDot:
    def test_structure_counts(self):
        rng = random.Random(227)
        tree = random_tree(rng, n=6)
        text = to_dot(tree)
        assert text.startswith("digraph dendrogram {")
        assert text.count("shape=box") == 6
        assert text.count("h=") == 5
        assert text.count("->") == 10

    def test_labels_are_escaped(self):
        tree = two_leaf_tree(a='say "hi"', b="B")
        assert '\\"hi\\"' in to_dot(tree)

    def test_heights_rendered_at_six_digits(self):
        assert 'label="h=1.500000"' in to_dot(two_leaf_tree())


class TestMergeListObject:
    def test_shape(self):
        obj = merges_to_obj(two_leaf_tree())
        assert obj == {
            "leaves": ["A", "B"],
            "merges": [{"left": 0, "right": 1, "height": 1.5, "size": 2}],
        }

    def test_round_trip_is_exact(self):
        rng = random.Random(229)
        for _ in range(20):
            tree = random_tree(rng, linkage=rng.choice(list(Linkage)))
            again = dendrogram_from_obj(merges_to_obj(tree))
            assert again == tree

    def test_round_trip_through_rendered_json(self):
        rng = random.Random(233)
        for _ in range(10):
            tree = random_tree(rng)
            decoded = json.loads(canonical_json(merges_to_obj(tree)))
            again = dendrogram_from_obj(decoded)
            assert again.leaves == tree.leaves
            assert [(m.left, m.right, m.size) for m in again.merges] == [
                (m.left, m.right, m.size) for m in tree.merges
            ]
            # canonical JSON renders heights at six fractional digits
            for got, want in zip(again.merges, tree.merges):
                assert got.height == pytest.approx(want.height, abs=5.0000001e-7)

    def test_corrupt_objects_rejected(self):
        obj = merges_to_obj(two_leaf_tree())
        with pytest.raises((ValueError, KeyError, TypeError)):
            dendrogram_from_obj({"leaves": obj["leaves"], "merges": []})
        with pytest.raises((ValueError, KeyError, TypeError)):
            dendrogram_from_obj({"leaves": [], "merges": obj["merges"]})
        broken = {
            "leaves": ["A", "B", "C"],
            "merges": [
                {"left": 0, "right": 1, "height": 1.0, "size": 2},
                {"left": 1, "right": 3, "height": 2.0, "size": 3},
            ],
        }
        with pytest.raises(ValueError):
            dendrogram_from_obj(broken)
