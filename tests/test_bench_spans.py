"""The benchmark's span targets still name functions of the package.

``bench/spans.py`` wraps each function its ``TARGETS`` table names, and some
of its counters read the wrapped call's arguments by name.  A rename or a
deletion in ``src/`` would only show when a traced benchmark run crashes, so
this checks the table against the package.  It reads ``bench/`` and changes
nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# arguments that the counters bind by name, per target function
BOUND_ARGUMENTS = {
    "build_window": {"submissions", "tenor", "date_range"},
    "read_submissions_csv": {"path"},
    "write_text_atomic": {"path"},
}


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_a_function_with_the_arguments_its_counter_binds():
    targets = load_targets()
    assert {name for _, name, *_ in targets} >= set(BOUND_ARGUMENTS)
    for module_name, func_name, *_ in targets:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert inspect.isfunction(func), f"{module_name}.{func_name}"
        parameters = inspect.signature(func).parameters
        missing = BOUND_ARGUMENTS.get(func_name, set()) - set(parameters)
        assert not missing, f"{module_name}.{func_name} lost {sorted(missing)}"
