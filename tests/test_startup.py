"""Process start-up: ``import ratefix`` loads numpy's OpenBLAS with one thread,
and the program entry freezes the import-time heap.

Each case runs in a fresh interpreter, since OpenBLAS reads its thread count
only when numpy first loads it, and a frozen heap stays frozen.
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
    return child(args, **env).stdout


def child(args, check=True, **env) -> subprocess.CompletedProcess:
    """A child python with no thread variable but those in ``env``; text output."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**base, **env}, check=check)


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


# the freeze count before and after one ``main`` call, then its exit code
FREEZE = ("import gc; from ratefix.cli import main; before = gc.get_freeze_count(); "
          "code = main({argv}); print(before, gc.get_freeze_count(), code)")
FIX = ["fix", "--quotes", "3.1,3.2,3.3,3.4"]


def test_the_program_entry_freezes_the_import_heap():
    before, after, code = run(["-c", FREEZE.format(argv=""), *FIX]).split()[-3:]
    assert (before, code) == ("0", "0")
    assert int(after) > 0


def test_main_with_an_argument_list_leaves_the_collector_alone():
    assert run(["-c", FREEZE.format(argv=FIX)]).split()[-3:] == ["0", "0", "0"]


def test_python_m_ratefix_is_the_program_entry():
    done = child(["-m", "ratefix", *FIX])
    assert done.stdout.startswith("quotes        4\n") and done.stderr.startswith("fix: ")
    done = child(["-m", "ratefix"], check=False)
    assert done.returncode == 1 and done.stderr.startswith("usage error: a subcommand")


def test_detect_stdout_is_the_same_from_the_program_entry_and_in_process(tmp_path, capsys):
    from ratefix.cli import main

    panel = tmp_path / "p.csv"
    argv = ["detect", "--input", str(panel)]
    assert main(["simulate", "--banks", "9", "--days", "60", "--seed", "5",
                 "--strategy", "single-offset:4:0.2", "--output", str(panel)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    done = subprocess.run([sys.executable, "-m", "ratefix", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert done.stdout == in_process.encode()
    assert in_process.startswith("window     P\n")


def test_the_cli_import_leaves_configparser_unloaded():
    # only a run that reads or writes a config file pays for the INI parser,
    # and only one that scores, rounds or writes JSON for the other three
    modules = ("configparser", "statistics", "fractions", "json")
    probe = f"import sys, ratefix.cli; print(*(m in sys.modules for m in {modules!r}))"
    assert run(["-c", probe]).split() == ["False"] * len(modules)
