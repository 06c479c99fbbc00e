"""Command-line pipelines: fix, cluster, detect, simulate, report.

Exit codes: 0 success, 1 usage error, 2 data error.  Artifacts go to
``--output`` (written atomically) or stdout; the one-line run summary always
goes to stderr so piped artifacts stay clean.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from datetime import date as Date
from pathlib import Path
from types import SimpleNamespace

from .anomaly import LABEL_ESCAPES, average_daily_rates, collusion_caveat_report, flag_anomalies
from .cluster import Linkage, agglomerate, distance_matrix
from .config import CONFIG_ENV_VAR, RunConfig, flag, options, parse_value
from .errors import DataError
from .fixing import CONTEXT, FixingConfig, _as_decimal, compute_fixing
from .panel import (
    EmptyWindowError,
    MissingDataPolicy,
    Tenor,
    bounded_rate,
    build_window,
    parse_date,
    read_submissions_csv,
)
from .serialize import canonical_json, fixing_to_obj, report_to_obj, write_text_atomic
from .simulate import BaseCurve, ScenarioConfig, fixing_series, parse_strategy, simulate_panel
from .treeio import merges_to_obj, to_dot, to_newick


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise UsageError(message)


def _flag_type(kind: str):
    def convert(text: str):
        try:
            return parse_value(kind, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> _Parser:
    """The command line, one flag per option in the ``RunConfig`` table."""
    parser = _Parser(prog="ratefix", description="Panel fixing forensics toolkit")
    parser.add_argument("--config", default=None, help=f"INI config file (also ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (_, summary) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for spec, choices in options(command):
            kind = {"action": "store_true"} if spec.type == "bool" else {
                "type": _flag_type(spec.type),
                "action": "append" if spec.metadata.get("repeat") else "store",
                "metavar": spec.metadata.get("metavar", choices and "{" + ",".join(choices) + "}"),
            }
            command_parser.add_argument(flag(spec), dest=spec.name, default=None,
                                        help=spec.metadata["help"], **kind)
    return parser


def _merge_config(ns) -> RunConfig:
    base = RunConfig()
    path = ns.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        base = RunConfig.from_ini_text(Path(path).read_text(encoding="utf-8"), source=str(path))
    overrides = {key: value for key, value in vars(ns).items() if key != "config"}
    if overrides.get("strategies"):
        overrides["strategies"] = ";".join(overrides["strategies"])
    selectors = [name for name in ("window", "year", "start", "end")
                 if overrides.get(name) is not None]
    for name in selectors:
        if overrides[name] == getattr(RunConfig, name):  # a config file's way to say "not given"
            raise UsageError(f"--{name} {overrides[name]!r} picks no window")
    if selectors:
        dates = {} if overrides.get("start") or overrides.get("end") else dict(start="", end="")
        base = base.with_overrides(window="", year=0, **dates)  # a selector flag beats the file's
    return base.with_overrides(**overrides)


def _settings(cfg: RunConfig) -> SimpleNamespace:
    """Check cfg and build the domain values its command uses.

    Every setting is checked before any input is read, and each refusal is
    a usage error.
    """
    got = SimpleNamespace(span=None)
    try:
        cfg.check()
        got.tenor = Tenor.parse(cfg.tenor)
        if cfg.command == "fix":
            got.quotes = [bounded_rate(_as_decimal(q)) for q in cfg.quotes.split(",") if q.strip()]
            got.date = cfg.date and parse_date(cfg.date)
            got.fixing = FixingConfig(cfg.trim_fraction, cfg.publish_precision, cfg.min_retained)
        elif cfg.command == "simulate":
            got.scenario = ScenarioConfig(
                n_banks=cfg.banks,
                n_days=cfg.days,
                base_curve=BaseCurve.parse(cfg.base),
                noise_sigma=cfg.sigma,
                seed=cfg.seed,
                strategies=tuple(
                    parse_strategy(part) for part in cfg.strategies.split(";") if part.strip()
                ),
                start_date=parse_date(cfg.start_date),
                tenor=got.tenor,
            )
        else:
            got.policy = MissingDataPolicy(cfg.policy == "forward-fill", cfg.max_gap)
            got.linkage = Linkage(cfg.linkage)
            selectors = [name for name, given in (("--window", cfg.window), ("--year", cfg.year),
                                                  ("--start/--end", cfg.start or cfg.end)) if given]
            if len(selectors) > 1:
                raise ValueError(f"{' and '.join(selectors)} each pick a window; give one")
            if cfg.start or cfg.end:
                if not (cfg.start and cfg.end):
                    raise ValueError("--start and --end must be given together")
                got.span = (parse_date(cfg.start), parse_date(cfg.end))
                if got.span[0] > got.span[1]:
                    raise ValueError(f"--start {cfg.start} is after --end {cfg.end}")
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc)) from None
    return got


def _load_window(cfg: RunConfig, got: SimpleNamespace):
    if not cfg.input_path:
        raise UsageError("--input is required")
    table = read_submissions_csv(cfg.input_path)
    dataset = cfg.dataset or Path(cfg.input_path).stem.upper()
    span, year = got.span, cfg.year
    if cfg.window:
        years = sorted({day.year for day in table.quoted_dates(got.tenor)})
        labels = {f"{dataset}-{y}": y for y in years}
        if cfg.window not in labels:
            raise DataError(f"no window labelled {cfg.window!r} "
                            f"(have: {', '.join(labels) or 'none'})")
        year = labels[cfg.window]
    if year:
        span = (Date(year, 1, 1), Date(year, 12, 31))
        label = f"{dataset}-{year}"
    elif span:
        label = f"{dataset}-{span[0].isoformat()}..{span[1].isoformat()}"
    else:
        days = table.quoted_dates(got.tenor)
        if not days:
            raise DataError(f"{cfg.input_path}: no submissions for tenor {got.tenor}")
        span = (days[0], days[-1])
        label = dataset
    try:
        return build_window(
            table, got.tenor, span, got.policy, min_coverage=cfg.min_coverage, label=label
        )
    except EmptyWindowError as exc:
        raise EmptyWindowError(f"{cfg.input_path}: window {label}: {exc}") from None


def _emit(cfg: RunConfig, text: str, summary: str) -> None:
    """Write ``text`` to ``--output`` or stdout, then the one-line summary to
    stderr, its control characters escaped as the text renderings escape labels."""
    if cfg.output_path:
        write_text_atomic(cfg.output_path, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    print(summary.translate(LABEL_ESCAPES), file=sys.stderr)


def _cmd_fix(cfg: RunConfig, got: SimpleNamespace) -> None:
    if cfg.quotes and cfg.input_path:
        raise UsageError("give either --quotes or --input, not both")
    if cfg.quotes:
        result = compute_fixing(got.quotes, got.fixing)
    elif cfg.input_path:
        table = read_submissions_csv(cfg.input_path)
        days = [day for day in table.quoted_dates(got.tenor) if day == got.date or not got.date]
        if not days:
            raise DataError(f"{cfg.input_path}: no matching quotes")
        if len(days) > 1:
            raise DataError(f"{cfg.input_path}: quotes span {len(days)} dates; pass --date")
        series = fixing_series(table.on(days[0]), got.tenor, got.fixing)
        if series.errors:
            raise DataError(series.errors[0][1])
        [(_, result)] = series.results
    else:
        raise UsageError("fix needs --quotes or --input")
    n_quotes = len(result.trimmed_low) + len(result.retained) + len(result.trimmed_high)
    spell = CONTEXT.to_sci_string
    if cfg.format == "json":
        text = canonical_json(fixing_to_obj(result))
    else:
        rows = [
            ("quotes", str(n_quotes)),
            ("trimmed low", " ".join(map(spell, result.trimmed_low)) or "-"),
            ("retained", " ".join(map(spell, result.retained))),
            ("trimmed high", " ".join(map(spell, result.trimmed_high)) or "-"),
            ("raw mean", spell(result.raw_mean)),
            ("published", spell(result.published)),
        ]
        text = "\n".join(f"{name:<13} {value}" for name, value in rows) + "\n"
    _emit(cfg, text, f"fix: quotes={n_quotes} trimmed={result.trim_count} "
                     f"per side published={spell(result.published)}")


def _cmd_cluster(cfg: RunConfig, got: SimpleNamespace) -> None:
    window = _load_window(cfg, got)
    dend = agglomerate(distance_matrix(window, normalize=cfg.normalize), got.linkage)
    if cfg.out_format == "newick":
        text = to_newick(dend) + "\n"
    elif cfg.out_format == "dot":
        text = to_dot(dend)
    else:
        obj = {"window_label": window.label, "linkage": got.linkage.value}
        obj.update(merges_to_obj(dend))
        text = canonical_json(obj)
    _emit(cfg, text, f"cluster: window={window.label} banks={window.n_banks} "
                     f"linkage={got.linkage} out={cfg.out_format}")


def _cmd_detect(cfg: RunConfig, got: SimpleNamespace) -> None:
    window = _load_window(cfg, got)
    report = flag_anomalies(window, got.linkage, cfg.threshold_factor, normalize=cfg.normalize)
    if cfg.format == "json":
        text = canonical_json(report_to_obj(report))
    else:
        caveat = collusion_caveat_report(report, window)
        lines = [
            f"window     {report.window_label.translate(LABEL_ESCAPES)}",
            f"linkage    {report.linkage}",
            f"flag rule  persistence_height > {cfg.threshold_factor} x median merge height"
            f" = {report.threshold_used:.6f}  (heuristic early-split reading)",
            f"flagged    {', '.join(report.flagged).translate(LABEL_ESCAPES) or '-'}",
            "",
            f"{'bank':<12} {'persistence':>12} {'normalized':>11} {'group':>6} flag",
        ]
        flagged = set(report.flagged)
        for score in report.scores:
            lines.append(
                f"{score.bank.translate(LABEL_ESCAPES):<12} {score.persistence_height:>12.6f} "
                f"{score.normalized:>11.6f} {report.group_structure[score.bank]:>6} "
                f"{'*' if score.bank in flagged else ''}".rstrip()
            )
        lines.append("")
        lines.append(caveat.to_text().rstrip("\n"))
        text = "\n".join(lines) + "\n"
    _emit(cfg, text, f"detect: window={report.window_label} "
                     f"flagged={','.join(report.flagged) or '-'}")


def _cmd_report(cfg: RunConfig, got: SimpleNamespace) -> None:
    window = _load_window(cfg, got)
    table = average_daily_rates(window)
    text = table.to_csv_text() if cfg.format == "csv" else table.to_text()
    _emit(cfg, text, f"report: window={window.label} banks={window.n_banks} "
                     f"dates={window.n_dates}")


def _cmd_simulate(cfg: RunConfig, got: SimpleNamespace) -> None:
    if not cfg.output_path:
        raise UsageError("simulate needs --output")
    truth_path = cfg.truth_output or str(Path(cfg.output_path).with_suffix(".truth.csv"))
    if os.path.realpath(truth_path) == os.path.realpath(cfg.output_path):
        raise UsageError(f"--truth-output {truth_path} is the --output file")
    scenario = got.scenario
    panel = simulate_panel(scenario)
    write_text_atomic(truth_path, panel.truth_csv_text())
    _emit(cfg, panel.csv_text(scenario.tenor),
          f"simulate: banks={scenario.n_banks} days={scenario.n_days} "
          f"seed={scenario.seed} manipulated_cells={int(panel.touched.sum())} -> "
          f"{cfg.output_path}, {truth_path}")


_COMMANDS = {
    "fix": (_cmd_fix, "compute one date's trimmed-mean fixing"),
    "cluster": (_cmd_cluster, "build and serialize the merge tree"),
    "detect": (_cmd_detect, "score and flag isolated submitters"),
    "report": (_cmd_report, "average daily rates per bank"),
    "simulate": (_cmd_simulate, "generate a synthetic panel with planted manipulation"),
}


def _say(kind: str, message) -> None:
    print(f"{kind}: {str(message).translate(LABEL_ESCAPES)}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command.  ``main()``, the program entry, first freezes the objects left
    from import, so no collection or teardown walks them; ``main(argv)`` does not."""
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: _say("warning", message)
            ns = build_parser().parse_args(list(argv))
            if not ns.command:
                raise UsageError(f"a subcommand is required ({', '.join(_COMMANDS)})")
            cfg = _merge_config(ns)
            _COMMANDS[ns.command][0](cfg, _settings(cfg))
        return 0
    except UsageError as exc:
        _say("usage error", exc)
        return 1
    except (DataError, OSError, ValueError, ArithmeticError) as exc:
        _say("data error", exc)
        return 2
    except MemoryError as exc:  # numpy's names the allocation it failed; a bare one is empty
        _say("data error", str(exc) or "out of memory")
        return 2


if __name__ == "__main__":
    sys.exit(main())
