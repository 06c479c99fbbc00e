"""Canonical artifact serialization and atomic file output.

JSON artifacts are rendered by a small canonical writer so that identical
inputs produce identical bytes: object keys keep insertion order and every
real number is printed with exactly six fractional digits.  Files are
written to a temp file in the destination directory and renamed into place,
so a crashed run never leaves a half-written artifact.
"""

from __future__ import annotations

import os
import tempfile
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .anomaly import AnomalyReport
from .fixing import CONTEXT, FixingResult

_SIX = Decimal("0.000001")


def format_number(value) -> str:
    """Fixed six-fractional-digit rendering shared by all JSON artifacts."""
    if isinstance(value, Decimal):
        text = f"{value.quantize(_SIX, ROUND_HALF_UP, CONTEXT):f}"
    else:
        text = f"{float(value):.6f}"
    return "0.000000" if text == "-0.000000" else text


def _render(obj, indent: int, dumps) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {dumps(str(key))}: {_render(value, indent + 1, dumps)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render(value, indent + 1, dumps)}" for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None or isinstance(obj, bool):
        return dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, Decimal)):
        return format_number(obj)
    if isinstance(obj, str):
        return dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    import json  # loaded by the first artifact, not by every start of the CLI

    return _render(obj, 0, json.dumps) + "\n"


def fixing_to_obj(result: FixingResult) -> dict:
    return {
        "raw_mean": result.raw_mean,
        "published": result.published,
        "retained": list(result.retained),
        "trimmed_low": list(result.trimmed_low),
        "trimmed_high": list(result.trimmed_high),
    }


def report_to_obj(report: AnomalyReport) -> dict:
    return {
        "window_label": report.window_label,
        "linkage": report.linkage.value,
        "scores": [
            {
                "bank": score.bank,
                "persistence_height": score.persistence_height,
                "normalized": score.normalized,
            }
            for score in report.scores
        ],
        "flagged": list(report.flagged),
        "threshold_used": report.threshold_used,
        "group_structure": dict(report.group_structure),
    }


def write_text_atomic(path, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file plus rename.

    The file gets the mode a plain ``open`` would give it under the process
    umask, not the owner-only mode of the temp file.  An OSError names
    ``path``, not the temp file.
    """
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            # the umask can only be read by setting it; a file another thread
            # makes in that instant is owner-only, like the temp file itself
            umask = os.umask(0o077)
            os.umask(umask)
            os.chmod(tmp_name, 0o666 & ~umask)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
