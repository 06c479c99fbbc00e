"""End-to-end command-line behaviour, driven in process through main()."""

from __future__ import annotations

import argparse
import json
from dataclasses import fields
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import TEN_BANK_QUOTES
from ratefix import RunConfig, Submission, Tenor, submissions_to_csv_text
from ratefix.cli import build_parser, main
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

    def test_trim_and_precision_flags(self, capsys):
        quotes = ",".join(str(q) for q in TEN_BANK_QUOTES)
        code, out, _ = run(
            capsys, "fix", "--quotes", quotes,
            "--trim-fraction", "0", "--precision", "5",
        )
        assert code == 0
        assert "raw mean      3.042530" in out.splitlines()
        assert "published     3.04253" in out.splitlines()

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
        code, _, err = run(
            capsys, "detect", "--input", str(sim_panel),
            "--format", "json", "--output", str(target),
        )
        assert code == 2
        assert not target.exists()


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
        # argv ({panel}, {huge} and {out} are filled in), INI body or None, exit, named value
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
        ("simulate --strategy single-offset:1:1e30 --output {out}", None, 1, "1E+30"),
        ("simulate --base constant:999999999 --strategy single-offset:1:999999999 --output {out}",
         None, 2, "single-offset strategy on bank BANK01, day 1 (2008-01-01): shifted rate "
                  "1999999998.001257 is not below 1000000000"),
        ("detect --input {huge}", None, 2, "line 3: rate 1E+200"),
    ]

    @pytest.mark.parametrize("argv, ini, code, named", CASES)
    def test_bad_setting(self, capsys, sim_panel, tmp_path, argv, ini, code, named):
        huge = tmp_path / "huge.csv"
        huge.write_text("date,bank,tenor,rate\n2008-01-01,A,1M,3\n2008-01-01,B,1M,1e200\n")
        argv = argv.format(panel=sim_panel, huge=huge, out=tmp_path / "out.csv").split()
        if ini is not None:
            (tmp_path / "run.ini").write_text(f"[ratefix]\n{ini}\n")
            argv = ["--config", str(tmp_path / "run.ini"), *argv]
        got, _, err = run(capsys, *argv)
        assert got == code
        [line] = err.splitlines()
        assert line.startswith("usage error:" if code == 1 else "data error:")
        assert named in line


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
