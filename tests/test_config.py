"""Scenario file parsing and the typed accessors built on top of it."""

import math

import pytest

from pcraft.cli import main
from pcraft.config import _FIELD_TYPES, ConfigError, ScenarioConfig, load_config, parse_config
from pcraft.planner import plan_capacity
from pcraft.units import HOUR, MONTH, YEAR
from pcraft.variants import NODE_VARIANTS


class TestParsing:
    def test_full_scenario_round_trip(self):
        cfg = parse_config(
            """
            # A cloud auto-repair sizing scenario.
            technique = ARA
            deployment = cloud          # inline comment
            node_variant = ft_tx
            hw_crash_per_year = 6
            crash_recovery_seconds = 1800
            target_nines = 3
            search_cap = 64
            parallel_recovery = off
            """
        )
        assert cfg.technique == "ARA"
        assert cfg.deployment == "cloud"
        assert cfg.node_variant == "ft_tx"
        assert cfg.hw_crash_per_year == 6.0
        assert cfg.crash_recovery_seconds == 1800.0
        assert cfg.target_nines == 3.0
        assert cfg.search_cap == 64
        assert cfg.parallel_recovery is False

    def test_defaults_survive_empty_file(self):
        cfg = parse_config("# nothing but comments\n\n")
        assert cfg == ScenarioConfig()
        assert cfg.sert_multiplier == 10.0
        assert cfg.horizon_hours == 8766.0
        assert cfg.pool_repair_per_hour is None
        # Read from the integrity module's recovery constants.
        assert (cfg.crash_recovery_seconds, cfg.sdc_recovery_hours, cfg.retry_tx_us) == (
            15.0, 6.0, 2.5)

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown configuration key 'targt_nines'"):
            parse_config("technique = PF\ntargt_nines = 3\n")

    def test_duplicate_key_is_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate configuration key 'target_nines'"):
            parse_config("target_nines = 3\n\ntarget_nines = 4\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
            parse_config("just some words\n")

    def test_bad_float_names_the_key(self):
        with pytest.raises(ConfigError, match=r"'hw_crash_per_year'.*expected a number.*'often'"):
            parse_config("hw_crash_per_year = often\n")

    def test_bad_int_names_the_key(self):
        with pytest.raises(ConfigError, match=r"'extra_nodes'.*expected an integer.*'2.5'"):
            parse_config("extra_nodes = 2.5\n")

    @pytest.mark.parametrize("key,text,least", [
        ("search_cap", "-1", 0), ("extra_nodes", "-2", 0), ("seed", "-1", 0),
        ("replications", "1", 2),
    ])
    def test_int_below_its_range_names_the_key(self, key, text, least):
        with pytest.raises(ConfigError,
                           match=rf"'{key}'.*at least {least}, got '{text}'"):
            parse_config(f"{key} = {text}\n")
        assert getattr(parse_config(f"{key} = {least}\n"), key) == least

    @pytest.mark.parametrize("key", [name for name, kind in _FIELD_TYPES.items()
                                     if kind.startswith("float")])
    def test_float_outside_its_range_names_the_key(self, key):
        percent = key.endswith("_pct")
        may_be_zero = percent or key == "retry_crash_per_hour"
        bad = (["nan", "inf", "-inf", "-5"] + (["100.5"] if percent else [])
               + ([] if may_be_zero else ["0"]))
        for text in bad:
            with pytest.raises(ConfigError, match=rf"^configuration key '{key}': "
                                                  rf"expected .*, got '{text}'$"):
                parse_config(f"{key} = {text}\n")
        for text in ("0" if may_be_zero else "1e-9", "100" if percent else "1e300"):
            assert getattr(parse_config(f"{key} = {text}\n"), key) == float(text)

    def test_bad_bool_names_the_key(self):
        with pytest.raises(ConfigError, match=r"'parallel_recovery'.*expected a boolean"):
            parse_config("parallel_recovery = maybe\n")

    def test_bad_choice_lists_alternatives(self):
        with pytest.raises(ConfigError, match=r"'deployment'.*cloud, on-premises.*'onprem'"):
            parse_config("deployment = onprem\n")

    def test_bad_variant_lists_the_variant_table(self):
        names = ", ".join(NODE_VARIANTS)
        with pytest.raises(ConfigError, match=rf"'node_variant'.*{names}.*'ft_xyz'"):
            parse_config("node_variant = ft_xyz\n")

    @pytest.mark.parametrize("word,value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("NO", False), ("off", False), ("0", False),
    ])
    def test_boolean_spellings(self, word, value):
        assert parse_config(f"parallel_recovery = {word}\n").parallel_recovery is value

    def test_load_config_reads_utf8(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# naïve scenario\ntechnique = PF\n", encoding="utf-8")
        assert load_config(path).technique == "PF"

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestAccessors:
    def test_horizon_seconds(self):
        assert ScenarioConfig().horizon_s == YEAR
        assert ScenarioConfig(horizon_hours=24.0).horizon_s == 24 * HOUR

    def test_require_names_the_missing_key(self):
        with pytest.raises(ConfigError, match=r"'technique' is required here"):
            ScenarioConfig().require("technique")
        ScenarioConfig(technique="PF").require("technique")

    def test_avail_rates_unit_conversion(self):
        rates = ScenarioConfig(hw_crash_per_year=6.0, crash_recovery_seconds=1800.0,
                               pool_repair_per_hour=1.0).avail_rates()
        assert rates.hw_crash_per_year == 6.0
        assert math.isclose(rates.hw_crash_per_s, 6.0 / YEAR)
        assert rates.crash_recovery_per_s == 1.0 / 1800.0
        assert rates.pool_repair_per_s == 1.0 / HOUR

    def test_avail_rates_without_repair(self):
        assert ScenarioConfig().avail_rates().pool_repair_per_s is None

    def test_plan_request_requires_identity(self):
        cfg = ScenarioConfig(technique="PF")
        with pytest.raises(ConfigError, match="deployment"):
            cfg.plan_request("native")
        cfg.deployment = "cloud"
        with pytest.raises(ConfigError, match="node_variant"):
            cfg.plan_request()

    def test_plan_request_carries_knobs(self):
        cfg = ScenarioConfig(technique="ARA", deployment="on-premises",
                             sert_multiplier=3.0, target_nines=2.0,
                             search_cap=17, parallel_recovery=False)
        req = cfg.plan_request("ft_ilr")
        assert req.node_variant == "ft_ilr"
        assert req.sert_multiplier == 3.0
        assert req.target_nines == 2.0
        assert req.search_cap == 17
        assert req.parallel_recovery is False
        assert req.horizon_s == YEAR

    def test_plan_request_variant_argument_wins(self):
        cfg = ScenarioConfig(technique="PF", deployment="cloud", node_variant="native")
        assert cfg.plan_request("ft_tx").node_variant == "ft_tx"
        assert cfg.plan_request().node_variant == "native"

    @pytest.mark.parametrize("ratio", [None, 0.5])
    def test_base_nodes_agree_with_the_planner(self, ratio):
        cfg = ScenarioConfig(technique="ARA", deployment="cloud", throughput_ratio=ratio)
        for variant in NODE_VARIANTS:
            assert cfg.base_nodes(variant) == plan_capacity(cfg.plan_request(variant)).base
        assert cfg.base_nodes("ft_tx") == (15 if ratio is None else 20)

    def test_plan_without_variant_lists_the_table_in_order(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("technique = ARA\ndeployment = cloud\n", encoding="utf-8")
        assert main(["plan", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == list(NODE_VARIANTS)

    def test_transient_split_shipped_table(self):
        split = ScenarioConfig().transient_split("ft_tx")
        assert (split.corrupt, split.crash, split.retried) == (0.0117, 0.0772, 0.6699)

    def test_transient_split_percent_overrides(self):
        cfg = ScenarioConfig(node_variant="native", crash_pct=50.0)
        split = cfg.transient_split()
        assert split.corrupt == pytest.approx(0.2619)
        assert split.crash == 0.5

    def test_transient_split_fully_custom(self):
        cfg = ScenarioConfig(corrupt_pct=1.0, crash_pct=2.0, retry_pct=3.0)
        split = cfg.transient_split()
        assert (split.corrupt, split.crash, split.retried) == (0.01, 0.02, 0.03)

    def test_transient_split_without_variant_or_overrides(self):
        with pytest.raises(ConfigError, match="node_variant"):
            ScenarioConfig(corrupt_pct=1.0).transient_split()

    def test_integrity_rates_requires_transient_rate(self):
        with pytest.raises(ConfigError, match="transient_rate_per_month"):
            ScenarioConfig(node_variant="native").integrity_rates()

    def test_integrity_rates_cloud_replaces_crashed_nodes(self):
        cfg = ScenarioConfig(deployment="cloud", transient_rate_per_month=1.0)
        rates = cfg.integrity_rates("native")
        assert rates.crash_recovery_per_s == 1.0 / 15.0
        assert math.isclose(rates.sdc_per_s, 0.2619 / MONTH)

    def test_integrity_rates_on_premises_leaves_crash_absorbing(self):
        cfg = ScenarioConfig(deployment="on-premises", transient_rate_per_month=1.0)
        assert cfg.integrity_rates("native").crash_recovery_per_s is None
