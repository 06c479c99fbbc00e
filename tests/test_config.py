"""RunConfig defaults, INI round trip, and override precedence."""

from __future__ import annotations

import pytest

from ratefix import RunConfig


class TestDefaults:
    def test_constructs_with_no_arguments(self):
        config = RunConfig()
        assert config.tenor == "1M"
        assert config.trim_fraction == "0.25"
        assert config.linkage == "ward"
        assert config.threshold_factor == 2.0
        assert config.min_coverage == 0.9
        assert config.policy == "drop-incomplete"


class TestIniRoundTrip:
    def test_round_trip_preserves_every_field(self):
        config = RunConfig(
            command="detect",
            input_path="panel.csv",
            year=2008,
            trim_fraction="0.2",
            publish_precision=5,
            linkage="single",
            normalize=True,
            threshold_factor=1.5,
            seed=42,
            banks=16,
            sigma=0.02,
            strategies="single-offset:9:-0.25:30-60;collusive:2+5:3.6",
        )
        assert RunConfig.from_ini_text(config.to_ini_text()) == config

    def test_defaults_round_trip(self):
        config = RunConfig()
        assert RunConfig.from_ini_text(config.to_ini_text()) == config

    def test_partial_file_keeps_other_defaults(self):
        config = RunConfig.from_ini_text("[ratefix]\nlinkage = single\nseed = 7\n")
        assert config.linkage == "single"
        assert config.seed == 7
        assert config.threshold_factor == 2.0

    def test_boolean_spellings(self):
        for raw, expected in (("true", True), ("1", True), ("yes", True), ("no", False)):
            config = RunConfig.from_ini_text(f"[ratefix]\nnormalize = {raw}\n")
            assert config.normalize is expected

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            RunConfig.from_ini_text("[other]\nlinkage = single\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            RunConfig.from_ini_text("[ratefix]\nlinkages = single\n")

    def test_bad_int_rejected_with_source(self):
        with pytest.raises(ValueError, match="mine.ini"):
            RunConfig.from_ini_text("[ratefix]\nseed = soon\n", source="mine.ini")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            RunConfig.from_ini_text("[ratefix]\nnormalize = maybe\n")

    def test_unparseable_ini_rejected(self):
        with pytest.raises(ValueError, match="bad config file"):
            RunConfig.from_ini_text("linkage = single\n")

    def test_bad_interpolation_rejected(self):
        with pytest.raises(ValueError, match="bad config file"):
            RunConfig.from_ini_text("[ratefix]\ndataset = 5%\n")

    def test_non_finite_float_rejected_with_key(self):
        with pytest.raises(ValueError, match="key 'sigma': not a finite number"):
            RunConfig.from_ini_text("[ratefix]\nsigma = inf\n")


class TestOverrides:
    def test_none_means_keep(self):
        config = RunConfig(linkage="single", seed=7)
        assert config.with_overrides(linkage=None, seed=None) == config

    def test_values_replace(self):
        config = RunConfig().with_overrides(linkage="single", threshold_factor=1.5)
        assert config.linkage == "single"
        assert config.threshold_factor == 1.5

    def test_falsy_values_still_override(self):
        config = RunConfig(seed=7, normalize=True)
        overridden = config.with_overrides(seed=0, normalize=False)
        assert overridden.seed == 0
        assert overridden.normalize is False
