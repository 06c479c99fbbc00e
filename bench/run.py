"""ratefix benchmark: run one workload in a closed loop and report its metrics.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The load is a closed loop with one client: one operation
at a time until ``S`` seconds have passed (at least one operation).  An
operation of a CLI workload is one ``ratefix`` invocation in a fresh child
process, from spawn to exit, because users pay interpreter and numpy start-up
on every call; ``fix-series`` calls ``ratefix.simulate.fixing_series``
in-process on submissions built during set-up.

Every operation is checked: a non-zero exit, a traceback, stderr other than
the one summary line, an artifact whose sha256 differs from the pinned digest
(``digests.json``, default seed and full sizes) or from the run's first
operation (other seeds), or output that misses the planted signal, counts it
as failed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Their times are host-normalized seconds: the run times a fixed reference
kernel (``reference.py``) before every set-up and operation, and scales the
mean operation time and the median set-up time by the kernel's nominal over
its mean measured time, so that minutes in which other guests slow the whole
machine do not read as a slower program.  The raw median, mean and p90 wall
times, the sample count and the scale factor are in the report.
``peak_rss_mb`` is the child's peak RSS from ``wait4``; for ``fix-series`` it
is the traced Python heap peak of one extra, untimed ``fixing_series`` call,
its input included.
``--trace 1`` wraps ratefix's public functions from outside (see
``spans.py``), alternates untraced and traced operations, and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is the
result object; the line before it is a report with the environment, the
input and artifact digests, every sample, and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import spans
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
RUN_LIMIT_S = 170
CLI = "import sys; from ratefix.cli import main; sys.exit(main())"
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
# per-layer metrics computed here rather than from span totals
RUN_METRICS = {"cli.self_s", "cli.import_s", "trace.overhead_frac"}


@dataclass
class Sample:
    """One operation: its wall time, peak RSS, artifact digests and verdict."""

    wall_s: float
    rss_mb: float | None = None
    digests: dict[str, str] = field(default_factory=dict)
    failure: str | None = None
    traced: bool = False
    main_s: float | None = None
    layers: dict[str, float] | None = None


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config.get("SIMD Extensions"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Set-up and operations of one workload at one seed."""

    def __init__(self, name: str, seed: int, sizes: dict, trace: bool, run_deadline: float):
        self.name, self.seed, self.sizes, self.trace = name, seed, sizes, trace
        self.run_deadline = run_deadline
        self.work = WORK / f"{name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.prep: W.Prepared | None = None
        self.expected: dict[str, str] | None = None
        self.pinned = False
        self.tracer = spans.Tracer()
        self.spans: list[list] = []
        self.traced_ops = 0
        self.reference_s: list[float] = []

    def set_up(self) -> float:
        """Generate the inputs and warm the program's import; returns seconds."""
        self.prep = None
        self.reference_s.append(reference.measure())
        start = perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        prep = W.prepare(self.name, self.seed, self.work, self.sizes)
        if prep.argv:
            warm = subprocess.run(
                [sys.executable, "-c", "import ratefix.cli; print(ratefix.cli.__file__)"],
                env=self.env, capture_output=True, text=True, timeout=120)
            _require_src(warm.stdout.strip(), warm.stderr)
        else:
            import ratefix

            _require_src(ratefix.__file__, "")
        elapsed = perf_counter() - start
        self.prep = prep
        return elapsed

    def operation(self, traced: bool) -> Sample:
        self.reference_s.append(reference.measure())
        if self.prep.argv:
            sample = self._cli(traced)
        else:
            sample = self._fix_series(traced)
        sample.traced = traced
        self.traced_ops += traced
        if sample.failure is None and sample.layers is not None:
            sample.failure = self._count_failure(sample.layers)
        if sample.failure is None and self.expected is None:
            self.expected = sample.digests
        elif sample.failure is None and sample.digests != self.expected:
            sample.failure = "artifact digest differs from " + (
                "the pinned digest" if self.pinned else "the run's first operation")
        return sample

    def _count_failure(self, layers: dict[str, float]) -> str | None:
        """A traced operation fails if a count ``predictions.json`` fixes differs."""
        for check in PREDICTIONS["checks"]:
            if check["workload"] == self.name and "metric" in check:
                want = check["equals"]
                want = self.sizes[self.name][want] if isinstance(want, str) else want
                got = layers.get(check["metric"], 0)
                if got != want:
                    return f"{check['metric']} is {got}, not {want}"
        return None

    def _cli(self, traced: bool) -> Sample:
        for artifact in self.prep.artifacts:
            artifact.unlink(missing_ok=True)
        result_path = self.work / "child.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH / "child.py"), str(result_path),
                   "1" if traced else "0", "--", *self.prep.argv]
        else:
            cmd = [sys.executable, "-c", CLI, *self.prep.argv]
        wall, rss_mb, code, stderr = self._spawn(cmd)
        sample = Sample(wall, rss_mb)
        sample.failure = _process_failure(code, stderr)
        if self.trace and code == 0:
            child = json.loads(result_path.read_text(encoding="utf-8"))
            sample.main_s = child["main_s"]
            if traced:
                self.spans.extend([self.traced_ops, *span[1:]] for span in child["spans"])
                sample.layers = spans.summarize(child["spans"])
                sample.layers["cli.self_s"] = (
                    child["main_s"] - sample.layers.get("top_s", 0.0) - child["bookkeeping_s"])
                sample.layers["cli.import_s"] = child["import_s"]
        if sample.failure is None:
            missing = [a.name for a in self.prep.artifacts if not a.exists()]
            if missing:
                sample.failure = f"missing artifact {', '.join(missing)}"
            else:
                outputs = {a.name: a.read_bytes() for a in self.prep.artifacts}
                sample.digests = {name: W.sha256(data) for name, data in outputs.items()}
                sample.failure = W.check(self.prep, outputs)
        return sample

    def _spawn(self, cmd) -> tuple[float, float, int, bytes]:
        """Run ``cmd`` to exit; returns wall seconds, peak RSS in MB, exit code, stderr."""
        err_path = self.work / "stderr"
        limit = max(1.0, self.run_deadline - perf_counter())
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode, err_path.read_bytes()

    def _fix_series(self, traced: bool) -> Sample:
        import ratefix.simulate
        from ratefix.panel import Tenor

        tenor = Tenor.parse(W.TENOR)
        first_span = len(self.tracer.spans)
        self.tracer.op = self.traced_ops
        with self.tracer.installed() if traced else nullcontext():
            start = perf_counter()
            series = ratefix.simulate.fixing_series(self.prep.submissions, tenor)
            wall = perf_counter() - start
        sample = Sample(wall, main_s=wall)
        if traced:
            op_spans = self.tracer.spans[first_span:]
            self.spans.extend(op_spans)
            sample.layers = spans.summarize(op_spans)
        text = W.fixing_series_json(series)
        sample.digests = {"fixing_series.json": W.sha256(text.encode())}
        sample.failure = W.check(self.prep, {}, series)
        return sample

    def fix_series_peak_mb(self) -> float:
        """Traced heap peak of one untimed ``fixing_series`` call, in MB.

        The peak counts the submissions the call reads (built again while
        tracing) and everything the call allocates on top of them, but not
        the harness's own set-ups and checks.
        """
        import ratefix.simulate
        from ratefix.panel import Tenor

        self.prep.submissions = None  # the timed operations' copy
        tracemalloc.start()
        try:
            subs = W.prepare(self.name, self.seed, self.work, self.sizes).submissions
            tracemalloc.reset_peak()
            ratefix.simulate.fixing_series(subs, Tenor.parse(W.TENOR))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _require_src(path: str, stderr: str) -> None:
    if not path or not Path(path).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: ratefix is not imported from {SRC}: {path or stderr.strip()}")


def _process_failure(code: int, stderr: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if stderr.count(b"\n") != 1 or not stderr.endswith(b"\n"):
        return "stderr is not one summary line"
    return None


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (report, result)."""
    started = perf_counter()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        unknown = {m["name"] for m in metric_specs} - spans.metric_names() - RUN_METRICS
        if unknown:
            raise SystemExit(f"bench: BENCHMARK.json names unknown per-layer metrics {sorted(unknown)}")
    full = sizes is None
    pins = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    pin = pins["workloads"].get(name) if full and seed == pins["seed"] else None

    runner = Runner(name, seed, sizes or W.FULL, trace, started + RUN_LIMIT_S)
    try:
        setup_s = [runner.set_up()]
        inputs = runner.prep.inputs
        for _ in range(0 if trace else SETUP_REPEATS - 1):
            setup_s.append(runner.set_up())
            if runner.prep.inputs != inputs:
                raise SystemExit("bench: the same seed generated different inputs")
        if pin is not None:
            if inputs != pin["inputs"]:
                raise SystemExit("bench: generated inputs differ from the pinned digests; "
                                 "the generator or numpy changed, so artifacts are not comparable")
            runner.expected, runner.pinned = pin["artifacts"], True

        samples: list[Sample] = []
        deadline = perf_counter() + seconds
        while True:
            samples.append(runner.operation(traced=False))
            if trace:
                samples.append(runner.operation(traced=True))
            if perf_counter() >= deadline:
                break
        heap_mb = None if trace or runner.prep.argv else runner.fix_series_peak_mb()
        if trace:
            WORK.mkdir(exist_ok=True)
            spans_path = WORK / f"spans-{name}-seed{seed}.json"
            spans_path.write_text(json.dumps({
                "fields": ["op", "id", "parent", "name", "start", "end", "counts"],
                "spans": runner.spans}), encoding="utf-8")
    finally:
        runner.close()

    failed = [s for s in samples if s.failure is not None]
    prep = runner.prep
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "size": (sizes or W.FULL)[name], "cells": prep.cells,
        "environment": environment(),
        "inputs_sha256": prep.inputs,
        "artifacts_sha256": next((s.digests for s in samples if s.failure is None), {}),
        "pinned": pin is not None,
        "operations": len(samples),
        "fail_frac": {"value": len(failed) / len(samples), "unit": "fraction"},
        "failures": sorted({s.failure for s in failed}),
        "setup_s": setup_s,
        "wall_s": [s.wall_s for s in samples],
    }
    if trace:
        metrics, extra = _per_layer(samples, prep, name)
        report.update(extra, spans_file=str(spans_path.relative_to(ROOT)))
    else:
        metrics, extra = _end_to_end(samples, prep, setup_s, runner.reference_s, heap_mb)
        report.update(extra)
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    return report, result


def _end_to_end(samples, prep, setup_s, reference_s, heap_mb):
    """End-to-end metrics: times in host-normalized seconds (see ``reference``).

    ``norm_wall_s`` is a ratio of means, operation seconds over reference
    seconds: time lost to other guests adds to both in proportion to the time
    each ran, which medians of two differently skewed samples do not share.
    """
    walls = sorted(s.wall_s for s in samples)
    speed = reference.NOMINAL_S / statistics.mean(reference_s)
    if prep.argv:
        peak_mb = statistics.median(s.rss_mb for s in samples)
    else:
        peak_mb = heap_mb
    norm_wall = statistics.mean(walls) * speed
    metrics = {
        "norm_wall_s": norm_wall,
        "norm_cells_per_s": prep.cells / norm_wall,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_s) * speed,
    }
    raw = {"samples": len(walls), "median": statistics.median(walls), "mean": statistics.mean(walls)}
    if len(walls) >= 11:
        raw["p90"] = walls[math.ceil(0.9 * len(walls)) - 1]  # nearest rank
    extra = {"raw_wall_s": raw, "raw_setup_s": statistics.median(setup_s),
             "host_speed": {"factor": speed, "reference_s": reference_s}}
    return metrics, extra


def _per_layer(samples, prep, name):
    traced = [s for s in samples if s.traced and s.layers is not None]
    plain = [s for s in samples if not s.traced]
    keys = set().union(*(s.layers for s in traced)) if traced else set()
    medians = spans.median_metrics([s.layers for s in traced],
                                   keys | spans.metric_names() | RUN_METRICS)
    untraced_s = _median(s.main_s for s in plain)
    medians["trace.overhead_frac"] = (
        _median(s.main_s for s in traced) / untraced_s - 1 if untraced_s else 0.0)
    # informational: which span is largest is an expectation about speed, not
    # a correctness condition (count checks fail operations in Runner)
    checks = {}
    for check in PREDICTIONS["checks"]:
        if check["workload"] == name and "largest_span" in check:
            got = max((k for k in medians if k.endswith(".s")), key=medians.__getitem__)
            checks[f"largest span is {check['largest_span']}"] = got == check["largest_span"]
    return medians, {"trace_overhead_frac": medians["trace.overhead_frac"],
                     "untraced_in_process_s": untraced_s, "predictions": checks}


def main(argv=None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ratefix" / "cli.py").is_file():
        print(f"bench: no ratefix source at {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
