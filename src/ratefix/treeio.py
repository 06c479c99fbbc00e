"""Dendrogram serialization: Newick, DOT, and a plain merge-list object."""

from __future__ import annotations

import re

from .cluster import Dendrogram, Merge

_PLAIN_LABEL = re.compile(r"[A-Za-z0-9_.|-]+")


def _newick_label(label: str) -> str:
    if _PLAIN_LABEL.fullmatch(label):
        return label
    return "'" + label.replace("'", "''") + "'"


def to_newick(dendrogram: Dendrogram) -> str:
    """Parenthesized ultrametric tree, branch length = parent height - child height.

    Branch lengths are written with full float precision so a reader can
    reconstruct merge heights exactly (leaves sit at height zero).
    """
    n, leaves, merges = dendrogram.n_leaves, dendrogram.leaves, dendrogram.merges
    # a stack of text and (node, parent height): no recursion limit on depth
    parts, stack = [], [(2 * n - 2, merges[-1].height)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, parent_height = item
        if node < n:
            # minus the leaf's zero height, so an int parent height prints as a float
            parts.append(f"{_newick_label(leaves[node])}:{parent_height - 0.0!r}")
            continue
        merge = merges[node - n]
        parts.append("(")
        stack += [f"):{parent_height - merge.height!r}", (merge.right, merge.height), ",",
                  (merge.left, merge.height)]
    parts[-1] = ");"  # the root's closing text, which carries no branch length
    return "".join(parts)


def to_dot(dendrogram: Dendrogram) -> str:
    """Directed tree for graphviz; internal nodes carry their merge height."""
    n = dendrogram.n_leaves
    lines = ["digraph dendrogram {", "  rankdir=BT;"]
    for index, leaf in enumerate(dendrogram.leaves):
        text = leaf.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{index} [label="{text}" shape=box];')
    for step, merge in enumerate(dendrogram.merges):
        node = n + step
        lines.append(f'  n{node} [label="h={merge.height:.6f}"];')
        lines.append(f"  n{merge.left} -> n{node};")
        lines.append(f"  n{merge.right} -> n{node};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def merges_to_obj(dendrogram: Dendrogram) -> dict:
    """JSON-ready object: the leaf labels and the merges array verbatim."""
    return {
        "leaves": list(dendrogram.leaves),
        "merges": [
            {"left": m.left, "right": m.right, "height": m.height, "size": m.size}
            for m in dendrogram.merges
        ],
    }


def dendrogram_from_obj(obj: dict) -> Dendrogram:
    """Rebuild a Dendrogram from the merges object (validates on construction)."""
    leaves = tuple(str(leaf) for leaf in obj["leaves"])
    merges = tuple(
        Merge(int(m["left"]), int(m["right"]), float(m["height"]), int(m["size"]))
        for m in obj["merges"]
    )
    return Dendrogram(leaves, merges)
