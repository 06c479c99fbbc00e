"""Acceptance gate: one test per criterion, at the stated tolerance and budget,
and one time budget for the tree layer at 2000 leaves.

Each test finishes by printing a single ``[acceptance] Cnn PASS`` line with
its runtime (visible with ``pytest -rA`` or ``-s``); pytest's own PASSED or
FAILED marker per test is the authoritative pass/fail signal.
"""

from __future__ import annotations

import json
import random
import time
from decimal import Decimal

import numpy as np

from conftest import (
    LOWBALL_INDEX,
    LOWBALL_QUOTES,
    TEN_BANK_QUOTES,
    points_to_matrix,
    random_points,
    random_quotes,
)
from oracles import (
    dendrogram_step_partitions,
    merge_members,
    newick_internal_nodes,
    prim_mst_weights,
    random_symmetric_square,
    ward_greedy_steps,
)
from ratefix import (
    BaseCurve,
    DistanceMatrix,
    FixingConfig,
    Linkage,
    ScenarioConfig,
    SingleOffset,
    agglomerate,
    build_window,
    canonical_json,
    compute_fixing,
    dendrogram_from_obj,
    flag_anomalies,
    generate,
    merges_to_obj,
    single_bank_impact,
    to_newick,
)
from ratefix.cli import main
from oracles import trimmed_mean_oracle


def _passed(cid: str, elapsed: float, budget: float | None, detail: str) -> None:
    if budget is not None:
        assert elapsed < budget, f"{cid}: {elapsed:.4f}s over the {budget}s budget"
        print(f"[acceptance] {cid} PASS in {elapsed * 1000:.1f} ms "
              f"(budget {budget * 1000:.0f} ms): {detail}")
    else:
        print(f"[acceptance] {cid} PASS: {detail}")


def _scenario_window(config: ScenarioConfig):
    submissions, _ = generate(config)
    days = config.dates
    return build_window(submissions, config.tenor, (days[0], days[-1]))


def test_c01_reference_panel_reproduction():
    compute_fixing(TEN_BANK_QUOTES)  # warm-up before timing
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        result = compute_fixing(TEN_BANK_QUOTES)
        best = min(best, time.perf_counter() - start)
    assert abs(result.raw_mean - Decimal("3.04168")) <= Decimal("0.0005")
    assert result.raw_mean == Decimal("3.041700")
    assert result.published == Decimal("3.042")
    _passed("C01", best, 0.001, "ten-quote panel reproduces the published fixing")


def test_c02_lowball_panel_and_impact():
    result = compute_fixing(LOWBALL_QUOTES)
    assert abs(result.raw_mean - Decimal("3.0334")) <= Decimal("0.0005")
    assert result.raw_mean == Decimal("3.033450")
    delta = single_bank_impact(TEN_BANK_QUOTES, LOWBALL_INDEX, Decimal("3.0000"))
    assert abs(delta - Decimal("-0.008250")) <= Decimal("0.000001")
    _passed("C02", 0.0, None, "one lowballed quote moves the fixing by -0.008250")


def test_c03_trimmed_mean_matches_oracle_exactly():
    rng = random.Random(20080415)
    fractions = (Decimal("0.1"), Decimal("0.2"), Decimal("0.25"))
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(4, 16)
        quotes = random_quotes(rng, n, decimals=rng.choice((4, 6)))
        trim = rng.choice(fractions)
        got = compute_fixing(quotes, FixingConfig(trim_fraction=trim)).raw_mean
        assert got == trimmed_mean_oracle(quotes, trim)
    elapsed = time.perf_counter() - start
    _passed("C03", elapsed, 1.0, "1000 random panels equal the sort-slice-average oracle")


def test_c04_impact_saturates_below_the_lower_trim_boundary():
    rng = random.Random(19920701)
    config = FixingConfig(trim_fraction=Decimal("0.25"))
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(4, 16)
        quotes = random_quotes(rng, n)
        index = rng.randrange(n)
        others = sorted(q for j, q in enumerate(quotes) if j != index)
        boundary = others[config.trim_count(n) - 1]
        probes = (Decimal(0), boundary / 2, boundary - Decimal("0.0001"))
        deltas = [single_bank_impact(quotes, index, p, config) for p in probes]
        assert max(deltas) - min(deltas) <= Decimal("1e-12")
    elapsed = time.perf_counter() - start
    _passed("C04", elapsed, 1.0, "500 panels: impact constant under the trim floor")


def test_c05_single_linkage_heights_are_the_mst_edges():
    rng = random.Random(5150)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(2, 10)
        square = random_symmetric_square(rng, n)
        labels = tuple(f"L{i}" for i in range(n))
        tree = agglomerate(DistanceMatrix.from_square(labels, square), Linkage.SINGLE)
        assert [m.height for m in tree.merges] == prim_mst_weights(square)
    elapsed = time.perf_counter() - start
    _passed("C05", elapsed, 2.0, "500 matrices: merge heights == sorted MST weights")


def test_c06_ward_merges_match_the_greedy_variance_oracle():
    rng = random.Random(6280)
    start = time.perf_counter()
    for trial in range(200):
        dim = 1 if trial % 2 == 0 else 3
        n = rng.randint(2, 8)
        points = random_points(rng, n, dim)
        tree = agglomerate(points_to_matrix(points), Linkage.WARD)
        partitions, _ = ward_greedy_steps(points)
        assert dendrogram_step_partitions(tree) == partitions
    elapsed = time.perf_counter() - start
    _passed("C06", elapsed, 5.0, "200 point sets: same partitions at every merge step")


def test_c07_planted_offset_detection_power():
    start = time.perf_counter()
    recalled = 0
    ranked_first = 0
    for seed in range(100):
        bank = (seed % 12) + 1
        label = f"BANK{bank:02d}"
        config = ScenarioConfig(
            n_banks=12,
            n_days=250,
            noise_sigma=0.01,
            seed=seed,
            strategies=(SingleOffset(str(bank), Decimal("0.10")),),
        )
        report = flag_anomalies(_scenario_window(config))
        if label in report.flagged:
            recalled += 1
        if report.scores[0].bank == label:
            ranked_first += 1
    elapsed = time.perf_counter() - start
    assert recalled >= 95, f"recall {recalled}/100"
    assert ranked_first >= 95, f"top-score rank {ranked_first}/100"
    _passed(
        "C07", elapsed, 30.0,
        f"planted +0.10 bank: recall {recalled}/100, top score {ranked_first}/100",
    )


def test_c08_level_groups_stay_unflagged_and_separate():
    start = time.perf_counter()
    false_flag_seeds = 0
    groups_recovered = 0
    local_banks = {f"LOCAL{i:02d}" for i in range(1, 5)}
    intl_banks = {f"INTL{i:02d}" for i in range(1, 6)}
    for seed in range(100):
        local = ScenarioConfig(
            n_banks=4, n_days=250, noise_sigma=0.01, seed=2 * seed,
            bank_prefix="LOCAL", base_curve=BaseCurve.constant(1.15),
        )
        intl = ScenarioConfig(
            n_banks=5, n_days=250, noise_sigma=0.01, seed=2 * seed + 1,
            bank_prefix="INTL", base_curve=BaseCurve.constant(3.45),
        )
        submissions = generate(local)[0] | generate(intl)[0]
        window = build_window(
            submissions, local.tenor, (local.dates[0], local.dates[-1])
        )
        report = flag_anomalies(window)
        if report.flagged:
            false_flag_seeds += 1
        sides = {}
        for bank, group in report.group_structure.items():
            sides.setdefault(group, set()).add(bank)
        if sorted(sides.values(), key=len) == [local_banks, intl_banks]:
            groups_recovered += 1
    elapsed = time.perf_counter() - start
    assert false_flag_seeds <= 5, f"false flags in {false_flag_seeds}/100 seeds"
    assert groups_recovered >= 95, f"groups recovered in {groups_recovered}/100"
    _passed(
        "C08", elapsed, 30.0,
        f"two-tier panel: {false_flag_seeds}/100 false flags, "
        f"{groups_recovered}/100 exact group recoveries",
    )


def test_c09_dendrogram_invariants_and_round_trips():
    rng = random.Random(909)
    start = time.perf_counter()
    for trial in range(60):
        n = rng.randint(2, 12)
        square = random_symmetric_square(rng, n)
        labels = tuple(f"BANK{i:02d}" for i in range(n))
        linkage = Linkage.SINGLE if trial % 2 else Linkage.WARD
        tree = agglomerate(DistanceMatrix.from_square(labels, square), linkage)

        # structural bookkeeping
        assert tree.n_leaves == n
        assert len(tree.merges) == n - 1
        for earlier, later in zip(tree.merges, tree.merges[1:]):
            assert later.height >= earlier.height
        for members, merge in zip(merge_members(tree), tree.merges):
            assert merge.size == len(members)
        assert merge_members(tree)[-1] == frozenset(range(n))

        # relabeling invariance
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                shuffled[perm[i]][perm[j]] = square[i][j]
        moved = agglomerate(DistanceMatrix.from_square(labels, shuffled), linkage)
        assert [m.height for m in moved.merges] == [m.height for m in tree.merges]
        inverse = {perm[i]: i for i in range(n)}
        moved_parts = [
            frozenset(frozenset(inverse[x] for x in cluster) for cluster in part)
            for part in dendrogram_step_partitions(moved)
        ]
        assert moved_parts == dendrogram_step_partitions(tree)

        # Newick round trip (parser reconstructs member sets and heights)
        nodes, root = newick_internal_nodes(to_newick(tree))
        assert abs(root - tree.root_height) <= 1e-9 * max(1.0, tree.root_height)
        by_members = lambda item: (sorted(item[0]), item[1])
        expected = sorted(
            (
                (frozenset(labels[i] for i in members), merge.height)
                for members, merge in zip(merge_members(tree), tree.merges)
            ),
            key=by_members,
        )
        got = sorted(nodes, key=by_members)
        assert [m for m, _ in got] == [m for m, _ in expected]
        for (_, h_got), (_, h_want) in zip(got, expected):
            assert abs(h_got - h_want) <= 1e-9 * max(1.0, h_want)

        # JSON round trip through the canonical renderer
        again = dendrogram_from_obj(json.loads(canonical_json(merges_to_obj(tree))))
        assert again.leaves == tree.leaves
        assert [(m.left, m.right, m.size) for m in again.merges] == [
            (m.left, m.right, m.size) for m in tree.merges
        ]
        for got_merge, want_merge in zip(again.merges, tree.merges):
            assert abs(got_merge.height - want_merge.height) <= 5.1e-7
    elapsed = time.perf_counter() - start
    _passed("C09", elapsed, 5.0, "60 trees: invariants, relabeling, Newick/JSON round trips")


def test_c10_pipeline_artifacts_are_byte_identical(tmp_path, capsys):
    start = time.perf_counter()
    simulate_argv = [
        "simulate", "--banks", "12", "--days", "60", "--seed", "2718",
        "--strategy", "single-offset:7:0.10:10-50",
    ]
    for name in ("one", "two"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        panel = run_dir / "panel.csv"
        assert main(simulate_argv + ["--output", str(panel)]) == 0
        assert main([
            "detect", "--input", str(panel),
            "--format", "json", "--output", str(run_dir / "report.json"),
        ]) == 0
        assert main([
            "cluster", "--input", str(panel),
            "--out-format", "json", "--output", str(run_dir / "tree.json"),
        ]) == 0
    capsys.readouterr()
    for artifact in ("panel.csv", "panel.truth.csv", "report.json", "tree.json"):
        first = (tmp_path / "one" / artifact).read_bytes()
        second = (tmp_path / "two" / artifact).read_bytes()
        assert first == second, f"{artifact} differs between runs"
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["flagged"] == ["BANK07"]
    elapsed = time.perf_counter() - start
    _passed("C10", elapsed, 5.0, "simulate/detect/cluster artifacts identical across runs")


def test_tree_layer_scales_to_2000_leaves():
    n = 2000
    rng = np.random.default_rng(2000)
    points = rng.normal(size=(n, 250))
    sums = (points * points).sum(axis=1)
    cloud = np.sqrt(np.maximum(sums[:, None] + sums[None, :] - 2.0 * (points @ points.T), 0.0))
    # one date quoted on a 1bp grid: nearly every distance ties with thousands of others
    quotes = 3.0 + rng.integers(0, 50, n) * 1e-4
    grid = np.abs(quotes[:, None] - quotes[None, :])
    labels = tuple(f"L{i:04d}" for i in range(n))
    matrices = [DistanceMatrix(labels, square[np.triu_indices(n, 1)]) for square in (cloud, grid)]
    start = time.perf_counter()
    for dist in matrices:
        for linkage in Linkage:
            assert agglomerate(dist, linkage).merges[-1].size == n
    elapsed = time.perf_counter() - start
    _passed("SCALE", elapsed, 5.0,
            f"{n} leaves, a 250-dimensional cloud and a tied one-date grid, both linkages")
