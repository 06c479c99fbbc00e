"""Canonical JSON rendering and atomic writes."""

from __future__ import annotations

import errno
import json
import os
import random
import stat
from decimal import Decimal

import pytest

from conftest import TEN_BANK_QUOTES, window_from_rows
from ratefix import (
    canonical_json,
    compute_fixing,
    fixing_to_obj,
    flag_anomalies,
    format_number,
    report_to_obj,
    write_text_atomic,
)


class TestFormatNumber:
    def test_decimals_and_floats_share_the_grid(self):
        assert format_number(Decimal("3.042")) == "3.042000"
        assert format_number(3.042) == "3.042000"
        assert format_number(0) == "0.000000"
        assert format_number(2.0 / 3.0) == "0.666667"

    def test_negative_zero_is_normalized(self):
        assert format_number(-0.0) == "0.000000"
        assert format_number(-1e-9) == "0.000000"
        assert format_number(Decimal("-0.0000004")) == "0.000000"

    def test_half_up_on_decimals(self):
        assert format_number(Decimal("0.0000005")) == "0.000001"


class TestCanonicalJson:
    def test_insertion_order_and_layout(self):
        text = canonical_json({"b": 1, "a": [True, None, "x"], "c": {}})
        assert text == (
            "{\n"
            '  "b": 1,\n'
            '  "a": [\n'
            "    true,\n"
            "    null,\n"
            '    "x"\n'
            "  ],\n"
            '  "c": {}\n'
            "}\n"
        )

    def test_reals_rendered_at_six_digits(self):
        decoded = json.loads(canonical_json({"x": Decimal("3.0417"), "y": 0.1 + 0.2}))
        assert decoded == {"x": 3.0417, "y": 0.3}

    def test_ints_stay_ints(self):
        assert canonical_json([7]) == "[\n  7\n]\n"

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_identical_input_identical_bytes(self):
        obj = fixing_to_obj(compute_fixing(TEN_BANK_QUOTES))
        assert canonical_json(obj) == canonical_json(obj)


class TestArtifactObjects:
    def test_fixing_schema(self):
        obj = fixing_to_obj(compute_fixing(TEN_BANK_QUOTES))
        assert list(obj) == ["raw_mean", "published", "retained", "trimmed_low", "trimmed_high"]
        decoded = json.loads(canonical_json(obj))
        assert decoded["raw_mean"] == 3.0417
        assert decoded["published"] == 3.042
        assert len(decoded["retained"]) == 6

    def test_report_schema(self):
        window = window_from_rows(
            {"A": [3.0, 3.0, 3.0], "B": [3.01, 3.01, 3.0], "C": [3.5, 3.6, 3.7]}
        )
        report = flag_anomalies(window)
        decoded = json.loads(canonical_json(report_to_obj(report)))
        assert list(decoded) == [
            "window_label",
            "linkage",
            "scores",
            "flagged",
            "threshold_used",
            "group_structure",
        ]
        assert decoded["linkage"] == "ward"
        assert list(decoded["scores"][0]) == ["bank", "persistence_height", "normalized"]
        assert decoded["group_structure"] == {"A": 0, "B": 0, "C": 1}


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "artifact.json"
        write_text_atomic(target, "one\n")
        assert target.read_text() == "one\n"
        write_text_atomic(target, "two\n")
        assert target.read_text() == "two\n"

    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "artifact.json"
        for index in range(5):
            write_text_atomic(target, f"{index}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        target, plain = tmp_path / "artifact.json", tmp_path / "plain.json"
        previous = os.umask(umask)
        try:
            write_text_atomic(target, "x\n")
            plain.write_text("x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert target.stat().st_mode == plain.stat().st_mode
        assert target.read_bytes() == plain.read_bytes()

    def test_missing_directory_raises_and_leaves_nothing(self, tmp_path):
        rng = random.Random(0)
        missing = tmp_path / f"absent-{rng.randrange(10**6)}" / "artifact.json"
        with pytest.raises(FileNotFoundError) as err:
            write_text_atomic(missing, "x\n")
        assert not missing.parent.exists()
        assert (err.value.errno, err.value.filename) == (errno.ENOENT, str(missing))
        assert str(err.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'"

    def test_a_failed_rename_names_the_target_and_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.mkdir()
        with pytest.raises(OSError) as err:
            write_text_atomic(target, "x\n")
        code = err.value.errno
        assert code is not None and err.value.filename == str(target)
        assert err.value.filename2 is None
        assert str(err.value) == f"[Errno {code}] {os.strerror(code)}: '{target}'"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
