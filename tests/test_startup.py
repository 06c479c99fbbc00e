"""Process start-up: ``import ratefix`` loads numpy's OpenBLAS with one thread.

Each case runs in a fresh interpreter, since OpenBLAS reads its thread count
only when numpy first loads it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import ratefix

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(ratefix.__file__).parents[1])
# how many OS threads the process has, and whether os.environ came through untouched
PROBE = ("import os; before = dict(os.environ); {imports}; "
         "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")
MULTICORE = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


def run(args, **env) -> str:
    """stdout of a child python with no thread variable but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**base, **env}, check=True)
    return done.stdout


@needs_proc
def test_import_leaves_one_thread_and_the_environment_as_it_was():
    assert run(["-c", PROBE.format(imports="import ratefix")]).split() == ["1", "True"]


@needs_proc
@pytest.mark.parametrize("name", THREAD_VARS)
def test_a_thread_count_the_caller_chose_is_kept(name):
    threads, same = run(["-c", PROBE.format(imports="import ratefix")], **{name: "3"}).split()
    assert same == "True"
    assert int(threads) > 1 or not MULTICORE


@needs_proc
def test_numpy_imported_first_keeps_its_threads():
    threads, same = run(["-c", PROBE.format(imports="import numpy; import ratefix")]).split()
    assert same == "True"
    assert int(threads) > 1 or not MULTICORE


def test_long_window_distances_do_not_depend_on_the_thread_count(tmp_path):
    # past 10000 terms a threaded OpenBLAS splits each dot across cores,
    # which moves the last bits of the sum
    rng = random.Random(3)
    panel = tmp_path / "long.csv"
    rows = ["date,bank,tenor,rate"]
    for day in range(12000):
        when = date(1990, 1, 1) + timedelta(days=day)
        rows += (f"{when},{bank},1M,{rng.randrange(2, 4)}.{rng.randrange(10**6):06d}"
                 for bank in "ABCD")
    panel.write_text("\n".join(rows) + "\n")
    trees = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"tree{len(trees)}.nwk"
        run(["-c", "import sys; from ratefix.cli import main; sys.exit(main())", "cluster",
             "--input", str(panel), "--linkage", "single", "--out-format", "newick",
             "--output", str(out)], **env)
        trees.append(out.read_bytes())
    assert trees[0] == trees[1]
