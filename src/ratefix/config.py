"""Run configuration: the one table of options, with INI round-trip.

Every ``RunConfig`` field but ``command`` is an option; the command line is
built from the table.  Precedence is defaults < config file < command-line
flags.  Flag and file text both go through ``parse_value``, and ``check``
runs once on the merged result, so a file can set nothing a flag cannot.
The config file is plain INI with a single ``[ratefix]`` section keyed by
field name; its path comes from ``--config`` or the ``RATEFIX_CONFIG``
environment variable.  Unset-able fields use the empty string (or 0 for
``year``) as their "not given" value so every field stays a plain scalar
and serializes losslessly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields, replace

CONFIG_SECTION = "ratefix"
CONFIG_ENV_VAR = "RATEFIX_CONFIG"

_WINDOWED = ("cluster", "detect", "report")
_READS = ("fix", *_WINDOWED)
_ALL = (*_READS, "simulate")
_TREE = ("cluster", "detect")
_SIM = ("simulate",)
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_KINDS = {"bool": "a boolean", "int": "an integer", "float": "a finite number"}
_CASTS = {"int": int, "float": float}


def _option(default, commands, help, *, choices=None, **meta):
    """A field that each subcommand in ``commands`` takes as a flag.

    ``commands`` is a tuple sharing ``choices``, or a dict of choices by
    subcommand.  ``meta`` may set ``flag`` (default: the name with dashes),
    ``metavar``, ``repeat`` (values are joined with ``;``) and ``check``, a
    (predicate, rule) pair the value must meet.
    """
    if not isinstance(commands, dict):
        commands = dict.fromkeys(commands, choices)
    return field(default=default, metadata={"commands": commands, "help": help, **meta})


def options(command: str) -> list:
    """(field, choices) for each option ``command`` takes, in table order."""
    return [(spec, spec.metadata["commands"][command]) for spec in fields(RunConfig)
            if command in spec.metadata.get("commands", ())]


def flag(spec) -> str:
    return spec.metadata.get("flag") or "--" + spec.name.replace("_", "-")


def parse_value(kind: str, text: str):
    """Turn flag or file text into a value of field type ``kind``."""
    if kind == "str":
        return text
    try:
        value = _BOOLEANS.get(text.strip().lower()) if kind == "bool" else _CASTS[kind](text)
    except ValueError:
        value = None
    if value is None or (kind == "float" and not math.isfinite(value)):
        raise ValueError(f"not {_KINDS[kind]}: {text!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    command: str = ""
    input_path: str = _option("", _READS, "submissions CSV", flag="--input", metavar="CSV")
    output_path: str = _option("", _ALL, "artifact file (default: stdout)", flag="--output")
    truth_output: str = _option("", _SIM, "truth mask (default: OUTPUT.truth.csv)", metavar="CSV")
    tenor: str = _option("1M", _ALL, "tenor code, e.g. 1M or O/N")
    dataset: str = _option("", _WINDOWED, "label stem (default: input file stem)")
    window: str = _option("", _WINDOWED, "pick a yearly window by label, e.g. LIBOR-2008")
    year: int = _option(0, _WINDOWED, "window on one calendar year",
                        check=(lambda value: not value or 1 <= value <= 9999, "in 1..9999"))
    start: str = _option("", _WINDOWED, "first date of the window", metavar="DATE")
    end: str = _option("", _WINDOWED, "last date of the window", metavar="DATE")
    date: str = _option("", ("fix",), "pick one date when the CSV has several")
    quotes: str = _option("", ("fix",), "comma-separated quotes instead of a CSV")
    trim_fraction: str = _option("0.25", ("fix",), "fraction trimmed from each tail")
    publish_precision: int = _option(3, ("fix",), "published decimals", flag="--precision")
    min_retained: int = _option(1, ("fix",), "fewest quotes the trim may leave")
    linkage: str = _option("ward", _TREE, "merge rule", choices=("single", "ward"))
    normalize: bool = _option(False, _TREE, "z-score each series first (compare shapes)")
    threshold_factor: float = _option(2.0, ("detect",), "flag above this x the median merge height",
                                      check=(lambda value: value > 0, "positive"))
    format: str = _option("text", {"fix": ("text", "json"), "detect": ("text", "json"),
                                   "report": ("text", "csv")}, "artifact format")
    out_format: str = _option("newick", ("cluster",), "tree format",
                              choices=("newick", "dot", "json"))
    policy: str = _option("drop-incomplete", _WINDOWED, "missing-data policy",
                          choices=("drop-incomplete", "forward-fill"))
    max_gap: int = _option(5, _WINDOWED, "longest run of dates forward-fill may bridge")
    min_coverage: float = _option(0.9, _WINDOWED, "drop banks quoting on less of the window",
                                  check=(lambda value: 0 <= value <= 1, "in [0, 1]"))
    seed: int = _option(0, _SIM, "noise seed")
    banks: int = _option(12, _SIM, "panel size")
    days: int = _option(250, _SIM, "panel length")
    base: str = _option("constant:3.0", _SIM, "constant:L | linear:L:SLOPE | shock:L:DELTA:DAY")
    sigma: float = _option(0.01, _SIM, "noise standard deviation")
    start_date: str = _option("2008-01-01", _SIM, "first simulated date")
    strategies: str = _option("", _SIM, "e.g. single-fixed:BANK09:3.0:10-20 (repeatable)",
                              flag="--strategy", metavar="SPEC", repeat=True)

    def check(self) -> None:
        """Refuse a value outside its option's choices or rule for ``command``."""
        for spec, choices in options(self.command):
            value = getattr(self, spec.name)
            if choices and value not in choices:
                raise ValueError(f"{flag(spec)} must be one of {', '.join(choices)}, got {value!r}")
            test, rule = spec.metadata.get("check", (None, None))
            if test and not test(value):
                raise ValueError(f"{flag(spec)} must be {rule}, got {value!r}")

    def to_ini_text(self) -> str:
        import configparser  # on use: most runs read no config file
        parser = configparser.ConfigParser()
        parser[CONFIG_SECTION] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            parser[CONFIG_SECTION][spec.name] = str(value)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        import configparser
        parser = configparser.ConfigParser()
        bad = f"bad config file {source}"
        try:
            parser.read_string(text, source=source)
            raw = dict(parser.items(CONFIG_SECTION))
        except configparser.NoSectionError:
            raise ValueError(f"{bad}: missing [{CONFIG_SECTION}] section") from None
        except configparser.Error as exc:
            raise ValueError(f"{bad}: {exc}") from None
        kinds = {spec.name: spec.type for spec in fields(cls)}
        values = {}
        for key, value in raw.items():
            if key not in kinds:
                raise ValueError(f"{bad}: unknown key {key!r}")
            try:
                values[key] = parse_value(kinds[key], value)
            except ValueError as exc:
                raise ValueError(f"{bad}: key {key!r}: {exc}") from None
        return cls(**values)

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply non-None overrides (command-line flags beat file values)."""
        given = {key: value for key, value in overrides.items() if value is not None}
        return replace(self, **given) if given else self
