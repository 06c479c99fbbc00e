"""End-to-end command-line behaviour, driven in process through main(); the
import check and the run under a memory limit alone run a child process."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import subprocess
import sys
import warnings
from contextlib import suppress
from dataclasses import fields
from datetime import date, timedelta
from decimal import Context, Decimal, localcontext
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import TEN_BANK_QUOTES
from oracles import (
    matrix_agglomeration,
    naive_read_submissions_csv,
    naive_window,
    parse_newick,
    per_pair_distances,
)
import ratefix
from ratefix import (
    DistanceMatrix,
    Linkage,
    MissingDataPolicy,
    RunConfig,
    Submission,
    Tenor,
    average_daily_rates,
    build_window,
    canonical_json,
    flag_anomalies,
    merges_to_obj,
    read_submissions_csv,
    report_to_obj,
    submissions_to_csv_text,
    to_dot,
    to_newick,
)
from ratefix.errors import DataError
from ratefix.cli import build_parser, main
from ratefix.panel import rows_to_csv_text
from ratefix.config import flag, options

FIX_DATE = date(2008, 4, 15)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_panel_csv(path, quotes=TEN_BANK_QUOTES, day=FIX_DATE):
    subs = [
        Submission(f"B{i:02d}", day, Tenor.ONE_MONTH, rate)
        for i, rate in enumerate(quotes, start=1)
    ]
    path.write_text(submissions_to_csv_text(subs))
    return path


def write_label_panel(path, label):
    """Four close banks and ``label``'s far one over three dates, written by csv."""
    rows = [(f"2010-01-0{day}", bank, "1M", f"3.{day}{i}" if i < 4 else f"4.{day}0")
            for day in (4, 5, 6) for i, bank in enumerate(["A", "B", "C", "D", label])]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("date", "bank", "tenor", "rate"), *rows])
    path.parent.mkdir(exist_ok=True)
    path.write_text(buf.getvalue())
    return path


# a label with a tab and a line break, and its twin that spells the escapes out
CONTROL_LABEL, ESCAPED_LABEL = "Bank\tof\nTokyo", "Bank\\tof\\nTokyo"


@pytest.fixture()
def sim_panel(tmp_path, capsys):
    out = tmp_path / "panel.csv"
    code = main([
        "simulate", "--banks", "8", "--days", "30", "--seed", "33",
        "--strategy", "single-offset:3:0.10:1-30", "--output", str(out),
    ])
    assert code == 0
    capsys.readouterr()  # drop the simulate summary before the test runs
    return out


class TestFix:
    def test_quotes_text_output(self, capsys):
        quotes = ",".join(str(q) for q in TEN_BANK_QUOTES)
        code, out, err = run(capsys, "fix", "--quotes", quotes)
        assert code == 0
        lines = out.splitlines()
        assert "quotes        10" in lines
        assert "raw mean      3.041700" in lines
        assert "published     3.042" in lines
        assert err.startswith("fix: quotes=10 trimmed=2")

    def test_quotes_json_output(self, capsys):
        quotes = ",".join(str(q) for q in TEN_BANK_QUOTES)
        code, out, _ = run(capsys, "fix", "--quotes", quotes, "--format", "json")
        assert code == 0
        decoded = json.loads(out)
        assert decoded["raw_mean"] == 3.0417
        assert decoded["published"] == 3.042
        assert len(decoded["retained"]) == 6

    def test_csv_input(self, capsys, tmp_path):
        panel = write_panel_csv(tmp_path / "one_day.csv")
        code, out, _ = run(capsys, "fix", "--input", str(panel))
        assert code == 0
        assert "published     3.042" in out.splitlines()

    def test_multi_date_csv_needs_date_flag(self, capsys, tmp_path):
        subs = [
            Submission(f"B{i:02d}", day, Tenor.ONE_MONTH, rate)
            for day in (FIX_DATE, date(2008, 4, 16))
            for i, rate in enumerate(TEN_BANK_QUOTES, start=1)
        ]
        panel = tmp_path / "two_days.csv"
        panel.write_text(submissions_to_csv_text(subs))
        code, _, err = run(capsys, "fix", "--input", str(panel))
        assert code == 2
        assert "data error:" in err
        code, out, _ = run(capsys, "fix", "--input", str(panel), "--date", "2008-04-15")
        assert code == 0
        assert "published     3.042" in out.splitlines()

    def test_input_fixes_only_the_picked_date(self, capsys, tmp_path, monkeypatch):
        import ratefix.simulate

        calls = []
        compute = ratefix.simulate.compute_fixing
        monkeypatch.setattr(ratefix.simulate, "compute_fixing",
                            lambda *args: calls.append(args) or compute(*args))
        subs = [Submission(f"B{i:02d}", day, Tenor.ONE_MONTH, rate)
                for day in (FIX_DATE, date(2008, 4, 16), date(2008, 4, 17))
                for i, rate in enumerate(TEN_BANK_QUOTES, start=1)]
        panel = tmp_path / "three_days.csv"
        panel.write_text(submissions_to_csv_text(subs))
        for argv, code, said in (
            ((), 2, f"data error: {panel}: quotes span 3 dates; pass --date\n"),
            (("--date", "2008-04-18"), 2, f"data error: {panel}: no matching quotes\n"),
            (("--tenor", "3M"), 2, f"data error: {panel}: no matching quotes\n"),
            (("--date", "2008-04-16"), 0, "fix: quotes=10 trimmed=2 per side published=3.042\n"),
        ):
            calls.clear()
            assert run(capsys, "fix", "--input", str(panel), *argv)[::2] == (code, said)
            assert len(calls) == (code == 0)

    def test_trim_and_precision_flags(self, capsys):
        quotes = ",".join(str(q) for q in TEN_BANK_QUOTES)
        code, out, _ = run(
            capsys, "fix", "--quotes", quotes,
            "--trim-fraction", "0", "--precision", "5",
        )
        assert code == 0
        assert "raw mean      3.042530" in out.splitlines()
        assert "published     3.04253" in out.splitlines()

    def test_widest_precision_prints_every_decimal(self, capsys):
        quotes = "123456789.1,123456789.2,123456789.3,123456789.4"
        code, out, _ = run(capsys, "fix", "--quotes", quotes, "--precision", "19")
        assert code == 0
        assert "published     123456789.2500000000000000000" in out.splitlines()

    def test_text_spells_exponents_in_capitals_whatever_the_context(self, capsys):
        with localcontext(capitals=0):
            code, out, err = run(capsys, "fix", "--quotes", "1e2,1e2,1e2")
        assert code == 0
        assert "retained      1E+2 1E+2 1E+2" in out.splitlines()
        assert "published     100.000" in out.splitlines()
        assert err.startswith("fix: quotes=3 trimmed=0 per side published=100.000")

    def test_trim_fraction_is_floored_exactly(self, capsys):
        # 16 quotes x 0.0624999...9 (31 digits) is just under one quote per side
        quotes = ",".join(str(q) for q in range(1, 17))
        code, out, err = run(capsys, "fix", "--quotes", quotes,
                             "--trim-fraction", "0.0624999999999999999999999999999")
        assert code == 0
        assert "trimmed low   -" in out.splitlines()
        assert "raw mean      8.500000" in out.splitlines()
        assert "trimmed=0 per side" in err

    def test_quotes_and_input_conflict(self, capsys, tmp_path):
        panel = write_panel_csv(tmp_path / "p.csv")
        code, _, err = run(capsys, "fix", "--quotes", "3.0,3.1", "--input", str(panel))
        assert code == 1
        assert "usage error:" in err

    def test_bad_quote_text(self, capsys):
        code, _, err = run(capsys, "fix", "--quotes", "3.0,potato")
        assert code == 1
        assert "usage error:" in err

    def test_duplicate_bank_row_is_data_error(self, capsys, tmp_path):
        panel = tmp_path / "dup.csv"
        panel.write_text(
            "date,bank,tenor,rate\n"
            "2008-04-15,A,1M,1.0\n2008-04-15,A,1M,2.0\n2008-04-15,B,1M,3.0\n"
        )
        code, out, err = run(capsys, "fix", "--input", str(panel))
        assert code == 2
        assert out == ""
        assert err == "data error: duplicate submission for A on 2008-04-15 (1M)\n"

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        quotes = ",".join(str(q) for q in TEN_BANK_QUOTES)
        _, out, _ = run(capsys, "fix", "--quotes", quotes, "--format", "json")
        target = tmp_path / "fix.json"
        code, piped, _ = run(
            capsys, "fix", "--quotes", quotes, "--format", "json",
            "--output", str(target),
        )
        assert code == 0
        assert piped == ""  # artifact went to the file, not stdout
        assert target.read_text() == out


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage error:" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "melt")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "fix", "--quotes", "3,4", "--frobnicate")[0] == 1

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "detect", "--input", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "data error:" in err

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,bank,tenor,rate\n2008-01-01,A,1M,zero\n")
        code, _, err = run(capsys, "detect", "--input", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_bad_threshold_factor_is_usage(self, capsys, sim_panel):
        code, _, err = run(
            capsys, "detect", "--input", str(sim_panel), "--threshold-factor", "0"
        )
        assert code == 1
        assert "usage error:" in err

    def test_panel_too_small_is_data(self, capsys, tmp_path):
        subs = [
            Submission(bank, FIX_DATE, Tenor.ONE_MONTH, Decimal("3.0"))
            for bank in ("A", "B")
        ]
        panel = tmp_path / "two.csv"
        panel.write_text(submissions_to_csv_text(subs))
        code, _, err = run(capsys, "detect", "--input", str(panel))
        assert code == 2
        assert "data error:" in err

    def test_output_into_missing_directory(self, capsys, sim_panel, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        errors = set()
        for _ in range(2):
            code, _, err = run(
                capsys, "detect", "--input", str(sim_panel),
                "--format", "json", "--output", str(target),
            )
            assert code == 2
            errors.add(err)
        assert not target.exists()
        # the path asked for, not the temp file beside it, in the same words each run
        assert errors == {f"data error: [Errno 2] No such file or directory: '{target}'\n"}

    def test_output_onto_a_directory_names_it(self, capsys, sim_panel, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, _, err = run(capsys, "detect", "--input", str(sim_panel), "--output", ".")
        assert code == 2
        assert err.startswith("data error: [Errno ")
        assert err.endswith(": '.'\n")
        assert ".tmp" not in err
        assert sorted(tmp_path.iterdir()) == before


class TestSimulate:
    def test_requires_output(self, capsys):
        code, _, err = run(capsys, "simulate", "--banks", "4")
        assert code == 1
        assert "usage error:" in err

    def test_writes_panel_and_default_truth(self, capsys, tmp_path):
        out = tmp_path / "panel.csv"
        code, _, err = run(
            capsys, "simulate", "--banks", "4", "--days", "3", "--seed", "1",
            "--strategy", "single-fixed:2:1.5:2", "--output", str(out),
        )
        assert code == 0
        truth = tmp_path / "panel.truth.csv"
        assert out.exists() and truth.exists()
        assert "simulate:" in err and "manipulated_cells=1" in err
        panel_lines = out.read_text().splitlines()
        assert panel_lines[0] == "date,bank,tenor,rate"
        assert len(panel_lines) == 13
        truth_lines = truth.read_text().splitlines()
        assert truth_lines[0] == "date,bank,manipulated"
        assert sum(line.endswith(",1") for line in truth_lines) == 1
        assert "2008-01-02,BANK02,1" in truth_lines

    def test_truth_output_flag(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        mask = tmp_path / "mask.csv"
        code, _, _ = run(
            capsys, "simulate", "--banks", "4", "--days", "2",
            "--output", str(out), "--truth-output", str(mask),
        )
        assert code == 0
        assert mask.exists()
        assert not (tmp_path / "p.truth.csv").exists()

    def test_one_path_for_both_outputs_is_refused_before_writing(self, capsys, tmp_path,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "simulate", "--banks", "4", "--days", "2",
                           "--output", "x.csv", "--truth-output", "./x.csv")
        assert (code, err) == (1, "usage error: --truth-output ./x.csv is the --output file\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_horizon_past_the_last_date_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--start-date", "9999-12-31", "--days", "2",
                           "--output", str(tmp_path / "p.csv"))
        assert (code, err) == (1, "usage error: 2 days from start date 9999-12-31 "
                                  "run past 9999-12-31\n")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_strategies_compose(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "simulate", "--banks", "4", "--days", "2", "--sigma", "0",
            "--strategy", "single-fixed:1:1.100000",
            "--strategy", "single-fixed:2:2.200000",
            "--output", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.count(",BANK01,1M,1.100000") == 2
        assert text.count(",BANK02,1M,2.200000") == 2

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "simulate", "--banks", "6", "--days", "10", "--seed", "404",
            "--strategy", "collusive:2+5:3.6:4-9",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.truth.csv").read_bytes() == (tmp_path / "b.truth.csv").read_bytes()

    def test_rates_clamp_to_plain_zero(self, capsys, tmp_path):
        # noise of 1e-7 around zero rounds to zero on both sides; the
        # negative side must not be written as -0.000000
        out = tmp_path / "z.csv"
        code, _, _ = run(
            capsys, "simulate", "--banks", "3", "--days", "5", "--base", "constant:0",
            "--sigma", "1e-7", "--output", str(out),
        )
        assert code == 0
        rates = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert rates == ["0.000000"] * 15

    def test_bad_strategy_spec(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--strategy", "sneaky:1:2",
            "--output", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "usage error:" in err


class TestCluster:
    def test_newick_to_stdout(self, capsys, sim_panel):
        code, out, err = run(capsys, "cluster", "--input", str(sim_panel))
        assert code == 0
        assert out.startswith("(") and out.rstrip().endswith(");")
        assert "BANK03" in out
        assert err.startswith("cluster: window=PANEL banks=8")

    def test_deep_single_linkage_tree_writes_newick(self, capsys, tmp_path):
        # gaps that grow bank by bank make each merge absorb one more leaf,
        # a tree 2000 levels deep
        n = 2000
        subs = [Submission(f"B{i:04d}", FIX_DATE, Tenor.ONE_MONTH,
                           Decimal(1) + Decimal(i * (i + 1) // 2).scaleb(-6)) for i in range(n)]
        panel = tmp_path / "deep.csv"
        panel.write_text(submissions_to_csv_text(subs))
        code, out, err = run(capsys, "cluster", "--input", str(panel), "--linkage", "single",
                             "--out-format", "newick")
        assert code == 0, err
        tree = parse_newick(out)
        stack, leaves, depth = [(tree, 0)], [], 0
        while stack:
            (children, label, _), level = stack.pop()
            depth = max(depth, level)
            leaves += [] if children else [label]
            stack += [(child, level + 1) for child in children]
        assert sorted(leaves) == [sub.bank for sub in subs]
        assert depth == n - 1

    def test_json_object_shape(self, capsys, sim_panel):
        code, out, _ = run(
            capsys, "cluster", "--input", str(sim_panel), "--out-format", "json"
        )
        assert code == 0
        decoded = json.loads(out)
        assert list(decoded) == ["window_label", "linkage", "leaves", "merges"]
        assert decoded["linkage"] == "ward"
        assert len(decoded["merges"]) == 7

    def test_dot_output(self, capsys, sim_panel):
        code, out, _ = run(
            capsys, "cluster", "--input", str(sim_panel), "--out-format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph dendrogram {")

    def test_single_linkage_flag(self, capsys, sim_panel):
        code, out, _ = run(
            capsys, "cluster", "--input", str(sim_panel),
            "--linkage", "single", "--out-format", "json",
        )
        assert code == 0
        assert json.loads(out)["linkage"] == "single"

    def test_yearly_window_selection(self, capsys, sim_panel):
        code, out, err = run(
            capsys, "cluster", "--input", str(sim_panel), "--window", "PANEL-2008"
        )
        assert code == 0
        assert "window=PANEL-2008" in err
        code, _, err = run(
            capsys, "cluster", "--input", str(sim_panel), "--window", "PANEL-1999"
        )
        assert code == 2
        assert "PANEL-2008" in err  # the error names the windows that do exist

    def test_window_builds_and_warns_for_its_year_only(self, capsys, tmp_path):
        # D is sparse in 2007 and complete in 2008; A is repeated in 2007
        subs = [
            Submission(bank, date(year, 12 if year == 2007 else 1, 1) + timedelta(days=t),
                       Tenor.ONE_MONTH, Decimal("3.0") + t + b)
            for year in (2007, 2008)
            for t in range(10)
            for b, bank in enumerate("ABCD")
            if not (year == 2007 and bank == "D" and t % 2)
        ]
        subs.append(Submission("A", date(2007, 12, 1), Tenor.ONE_MONTH, Decimal("9")))
        panel = tmp_path / "two_years.csv"
        panel.write_text(submissions_to_csv_text(subs))
        code, out, err = run(capsys, "report", "--input", str(panel), "--dataset", "X",
                             "--window", "X-2008")
        assert code == 0
        assert err.splitlines() == ["report: window=X-2008 banks=4 dates=10"]
        assert "D" in out.split()
        code, _, err = run(capsys, "report", "--input", str(panel), "--dataset", "X",
                           "--window", "X-2009")
        assert code == 2
        assert err == "data error: no window labelled 'X-2009' (have: X-2007, X-2008)\n"

    def test_normalize_flag_accepted(self, capsys, sim_panel):
        assert run(capsys, "cluster", "--input", str(sim_panel), "--normalize")[0] == 0


class TestDetect:
    def test_json_flags_the_planted_bank(self, capsys, sim_panel):
        code, out, err = run(
            capsys, "detect", "--input", str(sim_panel), "--format", "json"
        )
        assert code == 0
        decoded = json.loads(out)
        assert decoded["flagged"] == ["BANK03"]
        assert decoded["scores"][0]["bank"] == "BANK03"
        assert decoded["scores"][0]["normalized"] == 1.0
        assert set(decoded["group_structure"]) == {f"BANK{i:02d}" for i in range(1, 9)}
        assert err.startswith("detect: window=PANEL flagged=BANK03")

    def test_single_linkage_also_flags(self, capsys, sim_panel):
        code, out, _ = run(
            capsys, "detect", "--input", str(sim_panel),
            "--linkage", "single", "--format", "json",
        )
        assert code == 0
        decoded = json.loads(out)
        assert decoded["flagged"] == ["BANK03"]
        assert decoded["linkage"] == "single"

    def test_text_output_shows_rule_table_and_caveat(self, capsys, sim_panel):
        code, out, _ = run(capsys, "detect", "--input", str(sim_panel))
        assert code == 0
        assert "flag rule" in out
        assert "(heuristic early-split reading)" in out
        assert "caveat:" in out
        flagged_rows = [line for line in out.splitlines() if line.endswith("*")]
        assert len(flagged_rows) == 1 and flagged_rows[0].startswith("BANK03")

    def test_text_escapes_control_characters_in_a_label(self, capsys, tmp_path):
        outputs = []
        for kind, label in (("raw", CONTROL_LABEL), ("twin", ESCAPED_LABEL)):
            panel = write_label_panel(tmp_path / kind / "panel.csv", label)
            outputs.append(run(capsys, "detect", "--input", str(panel)))
        (code, out, err), twin = outputs
        assert code == 0
        # the twin has no control character, so it renders as it always has
        assert outputs[0] == twin
        lines = out.splitlines()
        assert "flagged    Bank\\tof\\nTokyo" in lines
        assert "Bank\\tof\\nTokyo     2.158027    1.000000      1 *" in lines
        assert len(lines) == 16 and "\t" not in out
        assert err == "detect: window=PANEL flagged=Bank\\tof\\nTokyo\n"

    def test_json_reruns_are_byte_identical(self, capsys, sim_panel, tmp_path):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        for target in (first, second):
            code, _, _ = run(
                capsys, "detect", "--input", str(sim_panel),
                "--format", "json", "--output", str(target),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestReport:
    def test_text_table_ascends_with_overall(self, capsys, sim_panel):
        code, out, _ = run(capsys, "report", "--input", str(sim_panel))
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("Overall") for line in lines)
        rates = [Decimal(line.split()[-1]) for line in lines]
        assert rates == sorted(rates)
        # the +0.10 offset puts the planted bank at the top of the table
        assert lines[-1].startswith("BANK03")

    def test_csv_format(self, capsys, sim_panel):
        code, out, _ = run(capsys, "report", "--input", str(sim_panel), "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bank,rate"
        assert len(lines) == 10

    def test_csv_quotes_a_label_that_holds_a_comma_or_a_quote(self, capsys, tmp_path):
        panel = tmp_path / "quoted.csv"
        panel.write_text("date,bank,tenor,rate\n" + "".join(
            f"2008-01-0{day},{bank},1M,3.{day}{i}\n"
            for day in (2, 3) for i, bank in enumerate(['"A,B"', '"C""D"', "E"])))
        code, out, _ = run(capsys, "report", "--input", str(panel), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["bank", "rate"], ["A,B", "3.250"], ['C"D', "3.260"],
                        ["Overall", "3.260"], ["E", "3.270"]]

    def test_text_escapes_control_characters_in_a_label(self, capsys, tmp_path):
        outputs = []
        for kind, label in (("raw", CONTROL_LABEL), ("twin", ESCAPED_LABEL)):
            panel = write_label_panel(tmp_path / kind / "panel.csv", label)
            outputs.append(run(capsys, "report", "--input", str(panel)))
        assert outputs[0] == outputs[1]
        code, out, _ = outputs[0]
        assert code == 0
        # the column is as wide as the escaped label, 15 characters
        assert out == ("A                3.500\nB                3.510\nC                3.520\n"
                       "D                3.530\nOverall          3.712\n"
                       "Bank\\tof\\nTokyo  4.500\n")


class TestConfigFile:
    def test_config_file_sets_defaults(self, capsys, sim_panel, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[ratefix]\nlinkage = single\nthreshold_factor = 9.0\n")
        code, out, _ = run(
            capsys, "--config", str(ini),
            "detect", "--input", str(sim_panel), "--format", "json",
        )
        assert code == 0
        decoded = json.loads(out)
        assert decoded["linkage"] == "single"
        assert decoded["flagged"] == []  # factor 9 is out of reach

    def test_flags_beat_config_file(self, capsys, sim_panel, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[ratefix]\nlinkage = single\n")
        code, out, _ = run(
            capsys, "--config", str(ini),
            "detect", "--input", str(sim_panel),
            "--linkage", "ward", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["linkage"] == "ward"

    def test_environment_variable_is_honoured(self, capsys, sim_panel, tmp_path, monkeypatch):
        ini = tmp_path / "env.ini"
        ini.write_text("[ratefix]\nlinkage = single\n")
        monkeypatch.setenv("RATEFIX_CONFIG", str(ini))
        code, out, _ = run(
            capsys, "detect", "--input", str(sim_panel), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["linkage"] == "single"

    def test_unknown_config_key_is_data_error(self, capsys, sim_panel, tmp_path):
        ini = tmp_path / "typo.ini"
        ini.write_text("[ratefix]\nlinkages = single\n")
        code, _, err = run(
            capsys, "--config", str(ini), "detect", "--input", str(sim_panel)
        )
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--config", str(tmp_path / "absent.ini"), "fix", "--quotes", "3,4"
        )
        assert code == 2
        assert "data error:" in err


# Each subcommand's flags as the hand-written parser defined them before the
# parser was generated from the RunConfig table.
FLAGS = {
    "fix": "--date --format --input --min-retained --output --precision --quotes --tenor "
           "--trim-fraction",
    "cluster": "--dataset --end --input --linkage --max-gap --min-coverage --normalize "
               "--out-format --output --policy --start --tenor --window --year",
    "detect": "--dataset --end --format --input --linkage --max-gap --min-coverage --normalize "
              "--output --policy --start --tenor --threshold-factor --window --year",
    "report": "--dataset --end --format --input --max-gap --min-coverage --output --policy "
              "--start --tenor --window --year",
    "simulate": "--banks --base --days --output --seed --sigma --start-date --strategy --tenor "
                "--truth-output",
}


def test_flag_sets_are_unchanged():
    parser = build_parser()
    top = {s for action in parser._actions for s in action.option_strings}
    assert top == {"-h", "--help", "--config"}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for a in command._actions for s in a.option_strings} - {"-h", "--help"}
        for name, command in sub.choices.items()
    }
    assert got == {name: set(text.split()) for name, text in FLAGS.items()}


class TestBoundaries:
    """Bad settings end in one stderr line that names the value, never a traceback."""

    CASES = [
        # argv ({panel}, {huge}, {other}, {binary}, {wide}, {spread} and {out} are filled
        # in), INI body or None, exit, named value
        ("detect --input {panel} --threshold-factor nan", None, 1, "'nan'"),
        ("simulate --sigma nan --output {out}", None, 1, "'nan'"),
        ("detect --input {panel} --policy forward-fill --max-gap 0", None, 1, "got 0"),
        ("detect --input {panel} --start 2008-02-01 --end 2008-01-01", None, 1, "2008-02-01"),
        ("detect --input {panel} --min-coverage 7", None, 1, "got 7"),
        ("detect --input {panel}", "format = yaml", 1, "'yaml'"),
        ("detect --input {panel}", "min_coverage = nan", 2, "run.ini: key 'min_coverage'"),
        ("simulate --sigma 1e308 --output {out}", None, 2, "e+30"),
        ("fix --quotes 1,2,x", None, 1, "'x'"),
        ("fix --quotes 1,2 --trim-fraction nan", None, 1, "NaN"),
        ("fix --quotes 1e999999,2", None, 1, "1E+999999"),
        ("fix --quotes 1e30,2,3", None, 1, "1E+30"),
        ("fix --quotes 1,2 --precision 20", None, 1, "got 20"),
        ("fix --quotes 1,2 --precision 2000000", None, 1, "got 2000000"),
        ("fix --quotes 1,2", "publish_precision = 20", 1, "got 20"),
        ("report --input {panel} --window PANEL-2008 --year 2008", None, 1, "--window and --year"),
        ("detect --input {panel} --year 2008 --start 2008-01-01 --end 2008-01-31", None, 1,
         "--year and --start/--end"),
        ("cluster --input {panel} --window PANEL-2008 --end 2008-01-31", None, 1,
         "--window and --start/--end"),
        ("simulate --strategy single-offset:1:1e30 --output {out}", None, 1, "1E+30"),
        ("fix --quotes 3,nan", None, 1, "rate must be finite, got NaN"),
        ("fix --quotes 3,-inf", None, 1, "rate must be finite, got -Infinity"),
        ("simulate --strategy single-offset:1:nan --output {out}", None, 1,
         "bad strategy spec 'single-offset:1:nan': rate must be finite, got NaN"),
        ("simulate --strategy collusive:1+2:sNaN --output {out}", None, 1,
         "bad strategy spec 'collusive:1+2:sNaN': rate must be finite, got sNaN"),
        ("simulate --base constant:999999999 --strategy single-offset:1:999999999 --output {out}",
         None, 2, "single-offset strategy on bank BANK01, day 1 (2008-01-01): shifted rate "
                  "1999999998.001257 is not below 1000000000"),
        ("detect --input {huge}", None, 2, "line 3: rate 1E+200"),
        ("detect --input {binary}", None, 2, "binary.csv: line 3: byte 0xff is not UTF-8"),
        ("detect --input {wide}", None, 2,
         "wide.csv: line 2: field larger than field limit (131072)"),
        ("report --input {other} --window OTHER-2008 --tenor 3M", None, 2,
         "other.csv: window OTHER-2008: fewer than two banks survive"),
        ("report --input {panel} --year 0", None, 1, "--year 0 picks no window"),
        ("report --input {panel} --window=", None, 1, "--window '' picks no window"),
        ("report --input {panel} --start=", None, 1, "--start '' picks no window"),
        ("report --input {panel} --year 10000", None, 1, "--year must be in 1..9999, got 10000"),
        ("detect --input {panel} --year -3", None, 1, "--year must be in 1..9999, got -3"),
        ("cluster --input {panel} --year 99999999999999999999", None, 1,
         "--year must be in 1..9999, got 99999999999999999999"),
        ("report --input {panel}", "year = 10000", 1, "--year must be in 1..9999, got 10000"),
        ("simulate --strategy single-fixed:1:abc --output {out}", None, 1,
         "bad strategy spec 'single-fixed:1:abc': not a decimal number: 'abc'"),
        ("simulate --strategy single-offset::0.1 --output {out}", None, 2,
         "strategy targets unknown bank ''"),
        ("simulate --strategy collusive:+:3 --output {out}", None, 1,
         "bad strategy spec 'collusive:+:3': empty bank list"),
        # the factor times the median merge height overflows to inf, which JSON cannot spell
        ("detect --input {spread} --threshold-factor 1e308 --output {out}", None, 2,
         "threshold factor 1e+308 times median merge height 2.74834823350586"),
        ("detect --input {spread} --threshold-factor 1e308 --format json --output {out}", None, 2,
         "threshold factor 1e+308 times median merge height 2.74834823350586"),
    ]

    @pytest.mark.parametrize("argv, ini, code, named", CASES)
    def test_bad_setting(self, capsys, sim_panel, tmp_path, argv, ini, code, named):
        huge = tmp_path / "huge.csv"
        huge.write_text("date,bank,tenor,rate\n2008-01-01,A,1M,3\n2008-01-01,B,1M,1e200\n")
        other = tmp_path / "other.csv"
        other.write_text("date,bank,tenor,rate\n2008-01-01,A,1M,3\n2008-01-01,B,1M,3.1\n"
                         "2008-01-01,A,3M,3.2\n")
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"date,bank,tenor,rate\n2008-01-01,A,1M,3\n2008-01-01,\xff,1M,3.1\n")
        wide = tmp_path / "wide.csv"
        wide.write_text(f"date,bank,tenor,rate\n2008-01-01,{'W' * 200_000},1M,3\n")
        spread = tmp_path / "spread.csv"
        spread.write_text("date,bank,tenor,rate\n" + "".join(
            f"2008-01-0{day},{bank},1M,{rate}\n" for day in (1, 2) for bank, rate in
            (("A", 1), ("B", 2), ("C", 4))))
        argv = argv.format(panel=sim_panel, huge=huge, other=other, binary=binary, wide=wide,
                           spread=spread, out=tmp_path / "out.csv")
        argv = argv.split()
        if ini is not None:
            (tmp_path / "run.ini").write_text(f"[ratefix]\n{ini}\n")
            argv = ["--config", str(tmp_path / "run.ini"), *argv]
        got, _, err = run(capsys, *argv)
        assert got == code
        [line] = err.splitlines()
        assert line.startswith("usage error:" if code == 1 else "data error:")
        assert named in line
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv, ini, code, named", [c for c in CASES if "E+" in c[3]])
    def test_exponent_is_named_in_capitals_whatever_the_context(
            self, capsys, sim_panel, tmp_path, argv, ini, code, named):
        with localcontext(capitals=0):
            self.test_bad_setting(capsys, sim_panel, tmp_path, argv, ini, code, named)


@pytest.mark.parametrize("command", ["detect", "cluster"])
def test_a_run_does_not_import_numpy_ma(sim_panel, tmp_path, command):
    # a plain np.unique imports numpy.ma, about 10 ms of every process
    script = ("import sys; from ratefix.cli import main; "
              f"code = main([{command!r}, '--input', {str(sim_panel)!r}, "
              f"'--output', {str(tmp_path / 'out')!r}]); "
              "print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(ratefix.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["0", "False"]


def _array_memory_error(shape):
    """numpy's own MemoryError, as a failed array allocation raises it."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy 1.x
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError(shape, np.dtype(float))


@pytest.mark.parametrize("error, said", [
    (MemoryError(), "data error: out of memory\n"),
    (_array_memory_error((12000, 12000)), "data error: Unable to allocate 1.07 GiB for an "
                                          "array with shape (12000, 12000) and data type float64\n"),
])
def test_running_out_of_memory_is_one_data_error(capsys, sim_panel, monkeypatch, error, said):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr("ratefix.cli.flag_anomalies", exhausted)
    assert run(capsys, "detect", "--input", str(sim_panel)) == (2, "", said)


@pytest.mark.slow
def test_a_many_bank_window_under_a_memory_limit_is_one_data_error(tmp_path):
    resource = pytest.importorskip("resource")
    rng = random.Random(12000)
    panel = tmp_path / "many.csv"
    panel.write_text("date,bank,tenor,rate\n" + "".join(
        f"2008-01-0{day},B{bank:05d},1M,{rng.randrange(2_900_000, 3_100_000) / 10**6:.6f}\n"
        for day in (2, 3, 4) for bank in range(12000)))
    # the distances of 12000 banks need about 1.1 GB at once, more than the
    # 1.5 GB of address space leaves after the interpreter and numpy
    limit = 1500 * 2**20

    def limit_the_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(ratefix.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ratefix", "detect", "--input", str(panel),
                           "--format", "json"], capture_output=True, text=True, env=env,
                          preexec_fn=limit_the_child)
    assert (done.returncode, done.stdout) == (2, "")
    [line] = done.stderr.splitlines()
    assert line.startswith("data error: ")


class TestSelectorPrecedence:
    """A window selector given as a flag replaces the config file's other kinds."""

    CASES = [
        # INI body, flags after `report --input {panel}`, start of stderr
        ("year = 2008", "--window PANEL-2008", "report: window=PANEL-2008 "),
        ("window = PANEL-2008", "--year 2008", "report: window=PANEL-2008 "),
        ("year = 2008", "--start 2008-01-03 --end 2008-01-09",
         "report: window=PANEL-2008-01-03..2008-01-09 "),
        ("start = 2008-01-03\nyear = 2008", "--end 2008-01-09",
         "report: window=PANEL-2008-01-03..2008-01-09 "),
        ("start = 2008-01-03\nend = 2008-01-09", "--window PANEL-2008",
         "report: window=PANEL-2008 "),
        ("window = PANEL-2008\nyear = 2008", "--end 2008-01-09",
         "usage error: --start and --end must be given together"),
        ("start = 2008-01-03", "--year 2008 --window PANEL-2008",
         "usage error: --window and --year each pick a window"),
        ("window = PANEL-2007\nyear = 2008", "", "usage error: --window and --year each pick"),
    ]

    @pytest.mark.parametrize("ini, flags, said", CASES)
    def test_flag_kind_beats_file_kinds(self, capsys, sim_panel, tmp_path, ini, flags, said):
        (tmp_path / "run.ini").write_text(f"[ratefix]\n{ini}\n")
        code, _, err = run(capsys, "--config", str(tmp_path / "run.ini"), "report",
                           "--input", str(sim_panel), *flags.split())
        assert code == (1 if said.startswith("usage error") else 0)
        assert err.startswith(said)


def test_bad_number_text_is_named_whatever_the_decimal_traps(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,bank,tenor,rate\n2008-01-01,A,1M,3.1\n2008-01-01,B,1M,x\n")
    out = str(tmp_path / "out.csv")
    for argv in (("fix", "--quotes", "3.0,potato"), ("fix", "--input", str(bad)),
                 ("simulate", "--strategy", "single-fixed:1:x", "--output", out)):
        want = run(capsys, *argv)
        assert want[0] != 0 and "'" in want[2]
        with localcontext(Context(traps=[])):
            assert run(capsys, *argv) == want


def test_panel_warnings_are_one_line_each(capsys, tmp_path):
    start = date(2008, 1, 1)
    subs = [
        Submission(bank, start + timedelta(days=t), Tenor.ONE_MONTH, Decimal("3.0") + t + b)
        for t in range(10)
        for b, bank in enumerate(("A", "B", "C", "D"))
        if bank != "D" or t % 2
    ]
    panel = tmp_path / "sparse.csv"
    panel.write_text(submissions_to_csv_text(subs))
    code, _, err = run(capsys, "report", "--input", str(panel), "--window", "SPARSE-2008")
    assert code == 0
    assert err.splitlines() == [
        "warning: bank D dropped: coverage 50.0% below 90.0% of 10 candidate dates",
        "report: window=SPARSE-2008 banks=3 dates=10",
    ]


@pytest.mark.parametrize("quoted", [False, True], ids=["whole-file", "row-loop"])
def test_a_byte_order_mark_leaves_every_artifact_byte_as_it_is(capsys, sim_panel, tmp_path,
                                                                quoted):
    text = sim_panel.read_bytes()
    if quoted:
        text = text.replace(b",BANK01,", b',"BANK01",', 1)
    panels = {}
    for kind, head in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        # same file name, as the window label comes from it
        (tmp_path / kind).mkdir()
        panels[kind] = tmp_path / kind / "panel.csv"
        panels[kind].write_bytes(head + text)
    for argv in (["report"], ["detect"], ["detect", "--format", "json"],
                 ["cluster", "--out-format", "newick"], ["fix", "--date", "2008-01-02"]):
        outputs = []
        for kind, panel in panels.items():
            out = tmp_path / kind / "out"
            code, _, err = run(capsys, *argv, "--input", str(panel), "--output", str(out))
            assert code == 0, (argv, err)
            outputs.append((out.read_bytes(), err))
        assert outputs[0] == outputs[1], argv


def test_window_commands_build_no_submission_objects(capsys, sim_panel, monkeypatch):
    # the CLI reads a clean CSV into columns; a Submission per row would be
    # the per-row path coming back
    made = []
    checks = Submission.__post_init__
    monkeypatch.setattr(Submission, "__post_init__",
                        lambda self, floor: made.append(self) or checks(self, floor))
    for argv in (["detect"], ["detect", "--format", "json"], ["cluster"], ["report"],
                 ["report", "--window", "PANEL-2008", "--policy", "forward-fill"]):
        code, _, _ = run(capsys, *argv, "--input", str(sim_panel))
        assert code == 0, argv
    assert made == []
    # fix keeps its date's rows before it makes a Submission of each: one per bank
    code, _, _ = run(capsys, "fix", "--input", str(sim_panel), "--date", "2008-01-02")
    assert code == 0
    assert sorted((s.bank, s.date) for s in made) == [(f"BANK0{b}", date(2008, 1, 2))
                                                     for b in range(1, 9)]


def test_simulate_builds_no_submission_objects(capsys, tmp_path, monkeypatch):
    # both CSVs are written from the integer panel
    made = []
    checks = Submission.__post_init__
    monkeypatch.setattr(Submission, "__post_init__",
                        lambda self, floor: made.append(self) or checks(self, floor))
    code, _, _ = run(capsys, "simulate", "--banks", "5", "--days", "6",
                     "--strategy", "single-offset:2:0.1", "--output", str(tmp_path / "p.csv"))
    assert code == 0 and made == []


COMMANDS = sorted({c for spec in fields(RunConfig) for c in spec.metadata.get("commands", ())})
ODD_VALUES = ("nan", "inf", "-1", "0", "7", "", "1e308", "x")


@st.composite
def argvs(draw):
    """A subcommand and flags drawn from the option table, with odd values."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if draw(st.booleans()):
        argv += ["--output", "sim.csv"] if command == "simulate" else ["--input", "panel.csv"]
    for spec, choices in draw(st.lists(st.sampled_from(options(command)), max_size=5)):
        argv.append(flag(spec))
        if spec.type != "bool":
            inputs = ("panel.csv", "bad.csv") if spec.name == "input_path" else ()
            argv.append(draw(st.sampled_from((*(choices or ()), *inputs, *ODD_VALUES))))
    return argv


@pytest.mark.slow
@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_any_argv_ends_in_one_of_three_exits(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "panel.csv").exists():
        subs = [
            Submission(f"B{b}", FIX_DATE + timedelta(days=t), Tenor.ONE_MONTH,
                       Decimal("3.0") + Decimal(b * t) / 100)
            for t in range(6) for b in range(4) if (b, t) != (2, 3)
        ]
        (tmp_path / "panel.csv").write_text(submissions_to_csv_text(subs))
        (tmp_path / "bad.csv").write_text("date,bank,tenor,rate\n2008-01-01,A,1M,zero\n")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    prefix = {0: f"{argv[0]}:", 1: "usage error:", 2: "data error:"}[code]
    assert err.splitlines()[-1].startswith(prefix)


@pytest.mark.parametrize("argv", [["detect"], ["report"], ["cluster", "--out-format", "newick"]],
                         ids=lambda argv: argv[0])
def test_a_window_label_with_a_line_break_stays_on_one_line(capsys, sim_panel, argv):
    raw, twin = (run(capsys, *argv, "--input", str(sim_panel), "--dataset", dataset)
                 for dataset in ("X\nY", "X\\nY"))
    # the twin spells the escape out, so it renders as it always has
    assert raw == twin
    code, out, err = raw
    assert code == 0
    assert len(err.splitlines()) == 1 and f"{argv[0]}: window=X\\nY " in err
    if argv == ["detect"]:
        assert out.splitlines()[0] == "window     X\\nY"


def test_a_window_label_with_a_line_break_is_kept_in_json(capsys, sim_panel):
    code, out, err = run(capsys, "detect", "--input", str(sim_panel), "--dataset", "X\nY",
                         "--format", "json")
    assert code == 0 and json.loads(out)["window_label"] == "X\nY"
    assert err == "detect: window=X\\nY flagged=BANK03\n"


def test_an_output_path_with_a_line_break_stays_on_one_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raw, twin = (run(capsys, "simulate", "--banks", "4", "--days", "2", "--output", name)
                 for name in ("a\nb.csv", "a\\nb.csv"))
    assert raw == twin
    assert raw[2] == ("simulate: banks=4 days=2 seed=0 manipulated_cells=0 -> "
                      "a\\nb.csv, a\\nb.truth.csv\n")
    assert (tmp_path / "a\nb.csv").read_bytes() == (tmp_path / "a\\nb.csv").read_bytes()
    assert (tmp_path / "a\nb.truth.csv").exists()


def test_a_dropped_bank_with_a_line_break_is_warned_on_one_line(capsys, tmp_path):
    # three banks quote both dates and the fourth only one, so --year drops it
    said = {}
    for bank in ("E\nF", "E\\nF", "E F"):
        rows = [(f"2008-01-0{day}", name, "1M", f"3.{day}") for day in (2, 3)
                for name in ("A", "B", "C", bank) if name != bank or day == 2]
        panel = tmp_path / "p.csv"
        panel.write_text(rows_to_csv_text(("date", "bank", "tenor", "rate"), rows))
        code, out, err = run(capsys, "report", "--input", str(panel), "--year", "2008")
        assert code == 0 and len(err.splitlines()) == 2
        said[bank] = err.splitlines()[0]
    # the twin spells the escape out, so it warns as it always has
    assert said["E\nF"] == said["E\\nF"] == (
        "warning: bank E\\nF dropped: coverage 50.0% below 90.0% of 2 candidate dates")
    assert said["E F"] == "warning: bank E F dropped: coverage 50.0% below 90.0% of 2 candidate dates"


@pytest.mark.parametrize("command", ["report", "detect"])
def test_no_rows_in_the_tenor_is_one_data_error(capsys, tmp_path, command):
    panel = tmp_path / "p.csv"
    panel.write_text("date,bank,tenor,rate\n" + "".join(
        f"2008-01-0{day},{bank},3M,3.{day}\n" for day in (2, 3) for bank in "ABC"))
    code, out, err = run(capsys, command, "--input", str(panel))
    assert (code, out, err) == (2, "", f"data error: {panel}: no submissions for tenor 1M\n")


@st.composite
def yearly_panels(draw):
    """Panel CSV text over a few dates in each of two to three years, some
    cells missing, some rows in another tenor, and the years it spans."""
    first = draw(st.integers(2006, 2008))
    years = list(range(first, first + draw(st.integers(2, 3))))
    banks = [f"B{b}" for b in range(draw(st.integers(3, 5)))]
    rows = []
    for year in years:
        for day in sorted(draw(st.sets(st.integers(0, 364), min_size=1, max_size=4))):
            when = (date(year, 1, 1) + timedelta(days=day)).isoformat()
            for b, bank in enumerate(banks):
                if draw(st.integers(0, 9)):  # one cell in ten missing
                    rows.append(f"{when},{bank},1M,{3 + b}.{draw(st.integers(0, 99)):02d}")
            rows.append(f"{when},{banks[0]},3M,9.9")
    return "date,bank,tenor,rate\n" + "\n".join(rows) + "\n", years


def naive_selection(selector, days, dataset):
    """The span and label a window selector picks from the quoted ``days``, or
    None where there is none: no quoted date, or no quoted year for a label."""
    if not selector:
        return ((days[0], days[-1]), dataset) if days else None
    kind, value = selector[:2]
    if kind == "--start":
        start, end = date.fromisoformat(value), date.fromisoformat(selector[3])
        return (start, end), f"{dataset}-{start}..{end}"
    year = int(value.rsplit("-", 1)[-1])
    if kind == "--window" and year not in {day.year for day in days}:
        return None
    return (date(year, 1, 1), date(year, 12, 31)), f"{dataset}-{year}"


@pytest.mark.slow
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(panel=yearly_panels(), data=st.data())
def test_window_selectors_pick_the_window_the_library_builds(panel, data, capsys, tmp_path):
    text, years = panel
    path = tmp_path / "yearly.csv"
    path.write_text(text)
    dataset = data.draw(st.sampled_from(["", "LIBOR"]))
    stem = dataset or "YEARLY"
    year = data.draw(st.sampled_from([*years, years[-1] + 1]))
    start, end = sorted(data.draw(st.lists(
        st.dates(date(years[0], 1, 1), date(years[-1], 12, 31)), min_size=2, max_size=2)))
    days = sorted({date.fromisoformat(line[:10]) for line in text.splitlines()[1:]
                   if ",1M," in line})
    for selector in (("--year", str(year)), ("--window", f"{stem}-{year}"),
                     ("--start", start.isoformat(), "--end", end.isoformat()), ()):
        picked = naive_selection(selector, days, stem)
        for argv, render in (
                (["report", "--format", "csv"], lambda w: average_daily_rates(w).to_csv_text()),
                (["detect", "--format", "json"], lambda w: canonical_json(report_to_obj(
                    flag_anomalies(w, Linkage.WARD, 2.0))))):
            code, out, err = run(capsys, *argv, "--input", str(path), *selector,
                                 *(["--dataset", dataset] if dataset else []))
            expected = None
            if picked:
                with warnings.catch_warnings(record=True) as caught, suppress(DataError):
                    warnings.simplefilter("always")
                    expected = render(build_window(
                        read_submissions_csv(path), Tenor.ONE_MONTH, picked[0],
                        MissingDataPolicy.drop_incomplete(), min_coverage=0.9, label=picked[1]))
            if expected is None:  # the library refuses, so the CLI must exit 2
                assert (code, out) == (2, ""), (selector, argv, err)
            else:
                assert (code, out) == (0, expected), (selector, argv, err)
                assert err.splitlines()[:-1] == [f"warning: {w.message}" for w in caught]


@st.composite
def tied_panels(draw):
    """Panel CSV text of 3-25 banks over 1-30 dates, rows in shuffled order and
    about one cell in ten missing.  Each bank quotes one of a few series, each
    drawn from up to eight four-decimal rates, so equal series and equal
    distances are common."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    banks, days = draw(st.integers(3, 25)), sorted(rng.sample(range(60), draw(st.integers(1, 30))))
    rates = [f"{rng.randint(1, 5)}.{rng.randrange(10**4):04d}" for _ in range(rng.randint(1, 8))]
    pool = [[rng.choice(rates) for _ in days] for _ in range(rng.randint(1, banks))]
    series = [rng.choice(pool) for _ in range(banks)]
    rows = [((date(2009, 1, 1) + timedelta(days=day)).isoformat(), f"B{b:02d}", "1M", series[b][i])
            for i, day in enumerate(days) for b in range(banks) if rng.random() >= 0.1]
    rng.shuffle(rows)
    return rows_to_csv_text(("date", "bank", "tenor", "rate"), rows)


def oracle_tree_text(subs, fill, linkage, normalize, out_format):
    """The artifact ``cluster`` writes for ``subs``, built from the oracles
    only; DataError where the oracle pipeline raises."""
    days = sorted({sub.date for sub in subs})
    if not days:
        raise DataError("no submissions")
    window = naive_window(subs, Tenor.ONE_MONTH, (days[0], days[-1]), MissingDataPolicy(fill),
                          min_coverage=0.9, label="LIBOR")
    dend = matrix_agglomeration(
        DistanceMatrix(window.banks, per_pair_distances(window, normalize)), linkage)
    if out_format == "newick":
        return to_newick(dend) + "\n"
    if out_format == "dot":
        return to_dot(dend)
    return canonical_json({"window_label": window.label, "linkage": linkage.value,
                           **merges_to_obj(dend)})


@pytest.mark.slow
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=tied_panels())
def test_cluster_writes_the_bytes_of_the_oracle_pipeline(text, capsys, tmp_path):
    path, out = tmp_path / "libor.csv", tmp_path / "tree.out"
    path.write_text(text)
    subs = naive_read_submissions_csv(path)
    for fill, linkage, normalize, out_format in product(
            (False, True), Linkage, (False, True), ("newick", "json", "dot")):
        expected = None
        with warnings.catch_warnings(record=True) as caught, suppress(DataError):
            warnings.simplefilter("always")
            expected = oracle_tree_text(subs, fill, linkage, normalize, out_format)
        out.unlink(missing_ok=True)
        setting = ["--policy", "forward-fill" if fill else "drop-incomplete",
                   "--linkage", linkage.value, "--out-format", out_format,
                   *(["--normalize"] if normalize else [])]
        code, _, err = run(capsys, "cluster", "--input", str(path), *setting,
                           "--output", str(out))
        if expected is None:  # the oracle pipeline refuses, so the CLI must exit 2
            assert (code, out.exists()) == (2, False), (setting, err)
        else:
            assert (code, out.read_text()) == (0, expected), (setting, err)
            assert err.splitlines()[:-1] == [f"warning: {w.message}" for w in caught]
