"""Seeded inputs, operations and output checks for the four bench workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` (PCG64, the same
stream on every platform) by this module's own generator, never by
``ratefix.simulate``, so a change to the simulator cannot change what the
other workloads read.  The program under test sees only the generated files
and its argv.

Each workload is sized so that a different ratefix module does most of the
work:

* ``detect-long``: CSV ingest and the forward-fill window dominate; the
  series are long and agglomerating 80 leaves is cheap.
* ``cluster-wide``: cubic Ward agglomeration over 240 short series dominates;
  ingest is less than a tenth of the operation.
* ``simulate-long``: the simulator and the CSV writers; nothing is read.
* ``fix-series``: the exact trimmed-mean engine, called in-process once per
  day over a paper-scale panel of 16 banks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

TENOR = "1M"
CSV_HEADER = "date,bank,tenor,rate\n"
MICRO = 1_000_000

# Full sizes, chosen so that one operation takes about a second on a 2-core
# x86_64 VM: a run then holds about twenty operations, which its median needs
# on a machine whose speed varies by 15% from one operation to the next.
# ``TINY`` shrinks every workload for the smoke tests; digests are pinned for
# the full sizes only.
FULL = {
    "detect-long": {"banks": 80, "days": 1000},
    "cluster-wide": {"banks": 240, "days": 40},
    "simulate-long": {"banks": 50, "days": 1000},
    "fix-series": {"banks": 16, "days": 5000},
}
TINY = {
    "detect-long": {"banks": 12, "days": 60},
    "cluster-wide": {"banks": 20, "days": 15},
    "simulate-long": {"banks": 12, "days": 40},
    "fix-series": {"banks": 16, "days": 50},
}
NAMES = tuple(FULL)

COLLUSIVE_GROUP = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def business_days(start: Date, n: int) -> list[Date]:
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def bank_names(n: int) -> list[str]:
    return [f"B{i:03d}" for i in range(1, n + 1)]


def honest_micros(rng, n_banks: int, n_days: int) -> np.ndarray:
    """Rates in micro-percent: a common random-walk curve plus per-bank noise."""
    curve = 3.0 + np.cumsum(rng.normal(0.0, 0.002, n_days))
    noise = rng.normal(0.0, 0.01, (n_banks, n_days))
    return np.rint((curve + noise) * MICRO).astype(np.int64)


def rate_texts(rng, micros: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round each cell half-up to 4, 5 or 6 fractional digits and render it.

    Returns the rendered texts and the rounded values in micro-percent.
    """
    digits = rng.integers(4, 7, micros.shape)
    step = 10 ** (6 - digits)
    rounded = (micros + step // 2) // step * step
    out = np.empty(micros.shape, dtype=object)
    for index, (value, keep) in enumerate(zip(rounded.ravel().tolist(), digits.ravel().tolist())):
        text = f"{value // MICRO}.{value % MICRO:06d}"
        out.flat[index] = text[: len(text) - (6 - keep)]
    return out, rounded


def panel_csv(days: list[Date], banks: list[str], texts: np.ndarray, present=None) -> str:
    """Submissions CSV, rows ordered by date then bank."""
    lines = [CSV_HEADER]
    for t, day in enumerate(days):
        iso = day.isoformat()
        for b, bank in enumerate(banks):
            if present is None or present[b, t]:
                lines.append(f"{iso},{bank},{TENOR},{texts[b, t]}\n")
    return "".join(lines)


@dataclass
class Prepared:
    """One workload's inputs, ready to run.

    ``argv`` is the ratefix command line for CLI workloads (empty for the
    in-process one); ``artifacts`` are the files an operation writes;
    ``expect`` holds what the checks need to know about the planted signal.
    """

    name: str
    cells: int
    argv: list[str]
    artifacts: list[Path]
    inputs: dict[str, str]
    expect: dict = field(default_factory=dict)
    submissions: list | None = None


def prepare(name: str, seed: int, work: Path, sizes: dict | None = None) -> Prepared:
    """Generate the workload's inputs under ``work`` and describe its operation."""
    size = (sizes or FULL)[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n_banks, n_days = size["banks"], size["days"]
    banks = bank_names(n_banks)
    cells = n_banks * n_days

    if name == "detect-long":
        micros = honest_micros(rng, n_banks, n_days)
        offset = int(rng.integers(n_banks))
        micros[offset] += 50_000  # +0.05 percentage points, five noise sigmas
        present = rng.random((n_banks, n_days)) >= 0.01
        texts, _ = rate_texts(rng, micros)
        text = panel_csv(business_days(Date(2010, 1, 4), n_days), banks, texts, present)
        path = work / "detect_long.csv"
        path.write_text(text, encoding="utf-8")
        out = work / "detect.txt"
        argv = ["detect", "--input", str(path), "--policy", "forward-fill", "--max-gap", "3",
                "--format", "text", "--output", str(out)]
        return Prepared(name, cells, argv, [out], {path.name: sha256(text.encode())},
                        {"offset_bank": banks[offset]})

    if name == "cluster-wide":
        micros = honest_micros(rng, n_banks, n_days)
        group = sorted(rng.choice(n_banks, COLLUSIVE_GROUP, replace=False).tolist())
        micros[group] = micros[group[0]]
        texts, _ = rate_texts(rng, micros)
        texts[group] = texts[group[0]]
        text = panel_csv(business_days(Date(2012, 1, 2), n_days), banks, texts)
        path = work / "cluster_wide.csv"
        path.write_text(text, encoding="utf-8")
        out = work / "cluster.json"
        argv = ["cluster", "--input", str(path), "--linkage", "ward", "--out-format", "json",
                "--output", str(out)]
        return Prepared(name, cells, argv, [out], {path.name: sha256(text.encode())},
                        {"group": group, "banks": n_banks})

    if name == "simulate-long":
        picks = rng.choice(n_banks, 4, replace=False).tolist()
        first = int(rng.integers(1, n_days // 2))
        last = first + n_days // 4
        offset_spec = f"single-offset:{picks[0] + 1}:0.05"
        collusive_spec = "collusive:" + "+".join(str(b + 1) for b in picks[1:]) + f":3.1:{first}-{last}"
        panel, truth = work / "sim.csv", work / "sim.truth.csv"
        argv = ["simulate", "--banks", str(n_banks), "--days", str(n_days), "--seed", str(seed),
                "--strategy", offset_spec, "--strategy", collusive_spec,
                "--output", str(panel), "--truth-output", str(truth)]
        spec = "\0".join(argv[:-4]).encode()
        return Prepared(name, cells, argv, [panel, truth], {"argv": sha256(spec)},
                        {"rows": cells, "manipulated": n_days + 3 * (last - first + 1)})

    if name == "fix-series":
        from decimal import Decimal

        from ratefix.panel import Submission, Tenor

        micros = honest_micros(rng, n_banks, n_days)
        texts, rounded = rate_texts(rng, micros)
        days = business_days(Date(1950, 1, 2), n_days)
        text = panel_csv(days, banks, texts)
        tenor = Tenor.parse(TENOR)
        subs = [
            Submission(bank, day, tenor, Decimal(texts[b, t]))
            for t, day in enumerate(days)
            for b, bank in enumerate(banks)
        ]
        return Prepared(name, cells, [], [], {"fix_series.csv": sha256(text.encode())},
                        {"days": n_days, "micros": rounded}, subs)

    raise ValueError(f"unknown workload {name!r}")


def fixing_series_json(series) -> str:
    """Canonical JSON of a fixing series: per day, the raw mean and published rate."""
    from ratefix.serialize import canonical_json

    return canonical_json({
        "results": [
            {"date": day.isoformat(), "raw_mean": r.raw_mean, "published": r.published}
            for day, r in series.results
        ],
        "errors": [[day.isoformat(), message] for day, message in series.errors],
    })


def _half_up(numerator: np.ndarray, denominator: int) -> np.ndarray:
    return (2 * numerator + denominator) // (2 * denominator)


def check(prep: Prepared, outputs: dict[str, bytes], series=None) -> str | None:
    """Semantic check of one operation's outputs; returns a reason or None.

    Byte digests are compared separately; this catches output that is
    well-formed but wrong for the planted signal.
    """
    if prep.name == "detect-long":
        text = outputs["detect.txt"].decode()
        flagged = next((ln for ln in text.splitlines() if ln.startswith("flagged")), "")
        if prep.expect["offset_bank"] not in flagged.split(None, 1)[-1].split(", "):
            return f"planted bank {prep.expect['offset_bank']} not flagged"
        return None
    if prep.name == "cluster-wide":
        obj = json.loads(outputs["cluster.json"])
        merges = obj["merges"]
        if len(obj["leaves"]) != prep.expect["banks"] or len(merges) != prep.expect["banks"] - 1:
            return "merge list does not cover every bank"
        group = set(prep.expect["group"])
        n = len(obj["leaves"])
        first = merges[: len(group) - 1]
        leaves = {m[side] for m in first for side in ("left", "right") if m[side] < n}
        if leaves != group or any(m["height"] != 0 for m in first):
            return "collusive group is not the first cluster at height zero"
        return None
    if prep.name == "simulate-long":
        panel = outputs["sim.csv"].decode()
        truth = outputs["sim.truth.csv"].decode()
        if panel.count("\n") != prep.expect["rows"] + 1 or truth.count("\n") != prep.expect["rows"] + 1:
            return "panel or truth CSV has the wrong number of rows"
        if truth.count(",1\n") != prep.expect["manipulated"]:
            return "truth mask does not mark exactly the planted cells"
        return None
    if prep.name == "fix-series":
        if series.errors or len(series.results) != prep.expect["days"]:
            return "fixing series is missing days"
        # independent integer oracle: trim 4 of 16 per side, mean of 8, half-up
        ordered = np.sort(prep.expect["micros"], axis=0)
        n = ordered.shape[0]
        cut = n // 4
        raw = _half_up(ordered[cut : n - cut].sum(axis=0), n - 2 * cut)
        published = _half_up(raw, 1000) * 1000
        got_raw = np.array([int(r.raw_mean.scaleb(6)) for _, r in series.results])
        got_pub = np.array([int(r.published.scaleb(6)) for _, r in series.results])
        if not (np.array_equal(got_raw, raw) and np.array_equal(got_pub, published)):
            return "fixing differs from the integer trimmed-mean oracle"
        return None
    raise ValueError(prep.name)
