"""Spans around ratefix's public functions, installed from outside the package.

``Tracer.installed()`` replaces each target function, in every loaded
``ratefix`` module that holds a reference to it (``cli`` imports
``read_submissions_csv`` by name, ``anomaly`` imports ``distance_matrix``, and
so on), with a wrapper that records a span, then puts every original back.
Nothing in ``src/`` knows about the tracer, and an untraced operation runs the
original functions with no wrapper in the way.

A span is ``[op, id, parent, name, start, end, counts]``; spans are kept in
memory and written out by the caller at the end of a run.  Counts such as rows
parsed are taken after the span has ended, and the time spent taking them is
kept in ``bookkeeping_s`` so it can be left out of ``cli.self_s``.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _build_window_counts(arguments, window):
    subs, tenor, (start, end) = (arguments()[k] for k in ("submissions", "tenor", "date_range"))
    picked = [s for s in subs if s.tenor is tenor and start <= s.date <= end]
    return {
        "cells_out": window.n_banks * window.n_dates,
        "dates_dropped": len({s.date for s in picked}) - window.n_dates,
        "banks_dropped": len({s.bank for s in picked}) - window.n_banks,
    }


def _file_bytes(arguments, _result):
    return {"bytes": os.path.getsize(arguments()["path"])}


def _read_counts(arguments, result):
    return {"rows": len(result), **_file_bytes(arguments, result)}


# (module, function, span name, counter, count keys).  A counter maps a
# callable that binds the call's arguments by name, and the return value, to
# the span's counts; binding is left to the counters that need it, since it is
# slow next to a function called once per day of a fixing series.
TARGETS = (
    ("ratefix.panel", "read_submissions_csv", "panel.read_csv", _read_counts, ("rows", "bytes")),
    ("ratefix.panel", "build_window", "panel.build_window", _build_window_counts,
     ("cells_out", "dates_dropped", "banks_dropped")),
    ("ratefix.panel", "submissions_to_csv_text", "panel.write_csv",
     lambda a, r: {"bytes": len(r.encode())}, ("bytes",)),
    ("ratefix.cluster", "distance_matrix", "cluster.distance_matrix",
     lambda a, r: {"pairs": len(r.condensed)}, ("pairs",)),
    ("ratefix.cluster", "agglomerate", "cluster.agglomerate",
     lambda a, r: {"merges": len(r.merges)}, ("merges",)),
    ("ratefix.anomaly", "flag_anomalies", "anomaly.flag_anomalies", None, ()),
    ("ratefix.anomaly", "collusion_caveat_report", "anomaly.collusion_caveat_report", None, ()),
    ("ratefix.fixing", "compute_fixing", "fixing.compute_fixing",
     lambda a, r: {"quotes": len(r.retained) + len(r.trimmed_low) + len(r.trimmed_high)},
     ("quotes",)),
    ("ratefix.simulate", "generate", "simulate.generate", None, ()),
    ("ratefix.simulate", "truth_to_csv_text", "simulate.truth_csv", None, ()),
    ("ratefix.simulate", "fixing_series", "simulate.fixing_series", None, ()),
    ("ratefix.serialize", "canonical_json", "serialize.canonical_json", None, ()),
    ("ratefix.serialize", "write_text_atomic", "serialize.write_text_atomic", _file_bytes,
     ("bytes",)),
    ("ratefix.treeio", "to_newick", "treeio.to_newick", None, ()),
    ("ratefix.treeio", "merges_to_obj", "treeio.merges_to_obj", None, ()),
)


def metric_names() -> set[str]:
    """Every per-span metric ``summarize`` can produce."""
    return {
        f"{span}.{key}"
        for _, _, span, _, counts in TARGETS
        for key in ("s", "self_s", "calls", *counts)
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span = [self.op, len(self.spans), self._stack[-1] if self._stack else None,
                    name, perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(span[1])
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[6] = counter(lambda: signature.bind(*args, **kwargs).arguments, result)
                self.bookkeeping_s += perf_counter() - span[5]
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ratefix" or key.startswith("ratefix."))]
        try:
            for module_name, func_name, span_name, counter, _ in TARGETS:
                original = getattr(sys.modules[module_name], func_name)
                traced = self._wrap(span_name, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, traced)
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)


def summarize(spans) -> dict[str, float]:
    """Per-span-name totals for one operation's spans.

    For each name: ``.s`` (summed duration), ``.self_s`` (duration minus the
    child spans it contains), ``.calls`` and the summed counts.  ``top_s`` is
    the summed duration of spans with no parent.
    """
    child_s: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for _, span_id, parent, name, start, end, counts in spans:
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_s[span_id]
        out[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] += value
        if parent is None:
            out["top_s"] += end - start
    return dict(out)


def median_metrics(per_op: list[dict[str, float]], names) -> dict[str, float]:
    """Median over operations of each named metric (0 where a layer never ran)."""
    return {name: statistics.median(op.get(name, 0.0) for op in per_op) for name in names}
