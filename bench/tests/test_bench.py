"""Smoke tests for the benchmark harness at tiny sizes.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                    sizes=W.TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_same_seed_gives_identical_inputs_and_another_seed_changes_them(tmp_path):
    for name in W.NAMES:
        digests = []
        for index, seed in enumerate((1, 1, 2)):
            work = tmp_path / f"{name}-{index}"
            work.mkdir()
            digests.append(W.prepare(name, seed, work, W.TINY).inputs)
        assert digests[0] == digests[1], name
        assert digests[0] != digests[2], name


@pytest.mark.parametrize("name", W.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, name):
    report, result = _bench(capsys, name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["fail_frac"] == {"value": 0.0, "unit": "fraction"}
    assert report["inputs_sha256"] and report["artifacts_sha256"]
    assert {"git_rev", "python", "numpy", "blas", "nproc", "num_threads_env"} <= set(report["environment"])


def _wrapped_names():
    return [
        f"{key}.{attr}"
        for key, module in list(sys.modules.items())
        if key == "ratefix" or key.startswith("ratefix.")
        for attr, value in vars(module).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]


@pytest.mark.parametrize("name", ["detect-long", "fix-series"])
def test_traced_run_reports_every_per_layer_metric_then_unwraps(capsys, tmp_path, name):
    report, result = _bench(capsys, name, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    if name == "detect-long":
        assert result["metrics"]["cluster.distance_matrix.calls"]["value"] == 2
    else:
        assert result["metrics"]["fixing.compute_fixing.calls"]["value"] == W.TINY[name]["days"]
    # fix-series wrapped ratefix in this very process; no wrapper may remain
    import ratefix.fixing
    import ratefix.simulate

    assert _wrapped_names() == []
    original = ratefix.fixing.compute_fixing
    tracer = spans.Tracer()
    with tracer.installed():
        assert ratefix.simulate.compute_fixing.__wrapped__ is original
    assert ratefix.simulate.compute_fixing is original
    subs = W.prepare("fix-series", 1, tmp_path, W.TINY).submissions
    ratefix.simulate.fixing_series(subs, subs[0].tenor)
    assert tracer.spans == []


def test_a_traced_operation_that_breaks_a_fixed_count_fails():
    runner = run.Runner("fix-series", 7, W.TINY, True, 0.0)
    assert runner._count_failure({"fixing.compute_fixing.calls": 50}) is None
    assert runner._count_failure({"fixing.compute_fixing.calls": 49}) == (
        "fixing.compute_fixing.calls is 49, not 50")


def test_end_to_end_times_are_scaled_by_the_measured_host_speed():
    prep = W.Prepared("cluster-wide", 600, ["cluster"], [], {})
    samples = [run.Sample(wall, rss_mb=40.0) for wall in (1.9, 2.0, 2.1)]
    slow = [2 * run.reference.NOMINAL_S] * 3  # the host ran at half speed
    metrics, extra = run._end_to_end(samples, prep, [0.8, 1.0, 0.9], slow, None)
    assert metrics == pytest.approx(
        {"norm_wall_s": 1.0, "norm_cells_per_s": 600.0, "peak_rss_mb": 40.0, "setup_s": 0.45})
    assert extra["raw_wall_s"] == pytest.approx({"samples": 3, "median": 2.0, "mean": 2.0})
    assert extra["host_speed"]["factor"] == 0.5


def test_self_time_subtracts_child_spans():
    spans_ = [
        [0, 0, None, "a", 0.0, 10.0, None],
        [0, 1, 0, "b", 1.0, 4.0, {"rows": 5}],
        [0, 2, 0, "b", 5.0, 6.0, {"rows": 2}],
    ]
    out = spans.summarize(spans_)
    assert out["a.s"] == 10.0 and out["a.self_s"] == 6.0
    assert out["b.s"] == 4.0 and out["b.calls"] == 2 and out["b.rows"] == 7
    assert out["top_s"] == 10.0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "detect-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
