"""Command-line behaviour: exit codes, CSV contracts, error routing."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcraft.ctmc
from pcraft.cli import _build_parser, main
from pcraft.config import ScenarioConfig
from pcraft.integrity import build_integrity_model, integrity_breakdown
from pcraft.units import YEAR

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def write_cfg(tmp_path, body):
    path = tmp_path / "scenario.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "ingest" in out and "simulate" in out

    def test_no_command_is_usage_error(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(["plan", "--bogus"], capsys)
        assert code == 2
        assert "--bogus" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["plan", "--config", "/no/such/file.cfg"], capsys)
        assert code == 2
        assert "file.cfg" in err

    def test_config_violation_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "technique = PF\ntarget_nines = oops\n")
        code, _, err = run(["plan", "--config", cfg], capsys)
        assert code == 2
        assert "target_nines" in err

    def test_missing_required_key(self, capsys):
        code, _, err = run(["plan"], capsys)
        assert code == 2
        assert "technique" in err

    def test_computation_error_exits_one(self, capsys):
        curve = str(DATA / "apache_static_native.csv")
        code, _, err = run(
            ["ingest", f"apache_static:native:{curve}",
             "--latency-threshold-ms", "1e-9"], capsys)
        assert code == 1
        assert "latency threshold" in err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        # numpy's own message ("expected non-negative integer") names no
        # parameter; the flag is checked as the config key it overrides.
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        code, out, err = run(["simulate", "--config", cfg, "--replications", "20",
                              "--seed", "-1"], capsys)
        assert (code, out, err) == (
            2, "", "pcraft: configuration key 'seed': expected an integer of at least 0, "
                   "got '-1'\n")

    def test_single_replication_flag_is_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        code, out, err = run(["simulate", "--config", cfg, "--replications", "1"], capsys)
        assert (code, out, err) == (
            2, "", "pcraft: configuration key 'replications': expected an integer of "
                   "at least 2, got '1'\n")

    @pytest.mark.parametrize("command,line", [
        ("plan", "search_cap = -1"), ("avail", "extra_nodes = -2"),
        ("simulate", "seed = -1"), ("simulate", "replications = 1"),
        ("avail", "crash_recovery_seconds = 0"), ("avail", "horizon_hours = -5"),
        ("plan", "target_nines = nan"),
    ])
    def test_out_of_range_config_value_is_a_configuration_error(
            self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, f"technique = PF\ndeployment = cloud\n{line}\n")
        code, out, err = run([command, "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert repr(line.split(" = ")[0]) in err

    def test_unconverged_solve_exits_one(self, tmp_path, capsys, monkeypatch):
        # n = 1040 goes to the implicit route; a step ceiling it cannot
        # meet makes the solve fail instead of returning an answer.
        monkeypatch.setattr(pcraft.ctmc, "_IMPLICIT_MAX_STEPS", 32)
        cfg = write_cfg(tmp_path, """
            technique = PF
            deployment = on-premises
            node_variant = ft_tx
            hw_crash_per_year = 6
            horizon_hours = 2700
            extra_nodes = 64
        """)
        code, out, err = run(["avail", "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("pcraft: implicit solve of a 1040-state chain")
        assert "did not converge" in err

    def test_python_dash_m_matches_main(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        argv = ["simulate", "--config", cfg, "--replications", "50"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "pcraft", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv, capsys)
        assert proc.returncode == 0 and rows_of(proc.stdout)[1][9] == "50"

    def test_back_to_back_calls_match_fresh_ones(self, tmp_path, capsys):
        # The parser is built once per process; options given to one call
        # (simulate --seed) must not leak into the next.
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = cloud
            node_variant = native
            replications = 40
        """)
        calls = [
            ["simulate", "--config", cfg, "--replications", "20", "--seed", "9"],
            ["avail", "--config", cfg],
            ["simulate", "--config", cfg],
            ["plan", "--bogus"],
            ["--help"],
        ]
        back_to_back = [run(argv, capsys) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert back_to_back == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
        assert rows_of(fresh[2][1])[1][9:11] == ["40", "0"]


class TestPlan:
    def test_csv_columns_contract(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        code, out, _ = run(["plan", "--config", cfg], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["variant", "base", "extra", "availability", "nines"]
        assert [r[0] for r in rows[1:]] == ["native", "ft_ilr", "ft_tx"]
        assert [r[1] for r in rows[1:]] == ["10", "11", "15"]

    def test_single_variant_when_configured(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "technique = ARA\ndeployment = cloud\nnode_variant = ft_tx\n")
        _, out, _ = run(["plan", "--config", cfg], capsys)
        rows = rows_of(out)
        assert len(rows) == 2
        assert rows[1][:3] == ["ft_tx", "15", "0"]

    def test_cloud_slow_recovery_needs_one_extra(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = cloud
            node_variant = native
            hw_crash_per_year = 6
            crash_recovery_seconds = 1800
        """)
        _, out, _ = run(["plan", "--config", cfg], capsys)
        row = rows_of(out)[1]
        assert row[2] == "1"
        assert float(row[3]) > 0.999

    def test_infeasible_extra_is_written_as_x(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = PF
            deployment = on-premises
            node_variant = native
            hw_crash_per_year = 6
            crash_recovery_seconds = 1800
            search_cap = 5
        """)
        code, out, _ = run(["plan", "--config", cfg], capsys)
        assert code == 0
        row = rows_of(out)[1]
        assert row[2] == "x"
        assert float(row[3]) < 0.999

    def test_availability_an_ulp_above_one_is_clipped(self, tmp_path, capsys):
        # The family solve at this tiny horizon left one occupancy an ulp
        # above the horizon, and the plan failed with availability > 1.
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = on-premises
            node_variant = native
            sert_multiplier = 10
            target_nines = 12.5
            horizon_hours = 2e-05
            hw_crash_per_year = 100
        """)
        code, out, err = run(["plan", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        assert 0.0 <= float(rows_of(out)[1][3]) <= 1.0

    def test_out_writes_identical_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        _, out, _ = run(["plan", "--config", cfg], capsys)
        dest = tmp_path / "plan.csv"
        code, piped, _ = run(["plan", "--config", cfg, "--out", str(dest)], capsys)
        assert code == 0
        assert piped == ""
        assert dest.read_text() == out

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, where):
        cfg = write_cfg(tmp_path, "technique = ARA\ndeployment = cloud\n")
        dest = str(tmp_path / where)
        code, out, err = run(["avail", "--config", cfg, "--out", dest], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("pcraft: cannot write ") and dest in err
        assert "Traceback" not in err


class TestAvail:
    def test_reports_each_variant(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = PF
            deployment = cloud
            hw_crash_per_year = 6
        """)
        code, out, _ = run(["avail", "--config", cfg], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["technique", "deployment", "variant", "base", "extra",
                           "availability", "nines", "downtime_hours"]
        assert [r[2] for r in rows[1:]] == ["native", "ft_ilr", "ft_tx"]
        for row in rows[1:]:
            assert 0.0 < float(row[5]) <= 1.0

    def test_tiny_downtime_on_a_large_chain(self, tmp_path, capsys):
        # A 311-state chain whose all-up start is down 1.49e-12 of the year:
        # quadrature of P(Bin(310, e^{-lam s}) < 10) gives 1.494413e-12.
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = on-premises
            node_variant = native
            hw_crash_per_year = 2
            extra_nodes = 300
        """)
        code, out, _ = run(["avail", "--config", cfg], capsys)
        assert code == 0
        downtime_hours = float(rows_of(out)[1][7])
        assert downtime_hours / 8766.0 == pytest.approx(1.494413e-12, rel=1e-4)

    def test_extra_nodes_raise_availability(self, tmp_path, capsys):
        base = """
            technique = PF
            deployment = on-premises
            node_variant = native
            hw_crash_per_year = 1
        """
        _, bare, _ = run(["avail", "--config", write_cfg(tmp_path, base)], capsys)
        padded_cfg = write_cfg(tmp_path, base + "extra_nodes = 18\n")
        _, padded, _ = run(["avail", "--config", padded_cfg], capsys)
        assert float(rows_of(padded)[1][5]) > float(rows_of(bare)[1][5])


class TestChainsPastTheSolveGuard:
    """The solvers' dense memory guard limits the chains they solve, not
    the chains the simulator runs."""

    @pytest.fixture
    def just_past(self, tmp_path):
        physical = pcraft.ctmc._physical_memory()
        if physical is None:
            pytest.skip("physical memory is unknown on this system")
        limit = math.isqrt(physical // (3 * 8))   # three dense n x n float arrays
        # native serves one unit of load per node: base = limit, so limit + 1 states.
        return limit, write_cfg(tmp_path, f"""
            technique = ARA
            deployment = cloud
            node_variant = native
            sert_multiplier = {limit}
            horizon_hours = 1
            replications = 20
        """)

    @pytest.mark.parametrize("command", ["avail", "plan"])
    def test_solving_commands_refuse_it_before_building(self, command, just_past,
                                                        capsys, monkeypatch):
        limit, cfg = just_past

        def build_ctmc(*args):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(sys.modules["pcraft.availability"], "build_ctmc", build_ctmc)
        code, out, err = run([command, "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert f"solving a {limit + 1}-state chain needs about" in err
        assert "the dense arrays" in err and "sert_multiplier" in err

    def test_simulate_runs_it(self, just_past, capsys):
        limit, cfg = just_past
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        row = rows_of(out)[1]
        assert row[3] == str(limit)
        assert 0.0 <= float(row[5]) <= 1.0


class TestChainsPastTheSimulatorGuard:
    """``pcraft simulate`` sizes the chain by its spec and refuses, unbuilt,
    one whose build, jump table and batch together cannot fit in physical
    memory."""

    @pytest.mark.parametrize("key, value, states, physical", [
        ("sert_multiplier", "1e300", int(1e300) + 1, None),   # native: one node per unit of load
        ("extra_nodes", "1" + "0" * 400, 10**400 + 11, None),  # base 10 at the default sert 10
        # In 100 MB the jump table (under 10 MB) fits, but not the Python build.
        ("sert_multiplier", "200000", 200_001, 10**8),
        ("extra_nodes", "200000", 200_011, 10**8),
    ], ids=["sert_multiplier", "extra_nodes", "sert_multiplier-100MB", "extra_nodes-100MB"])
    def test_refuses_it_before_building(self, key, value, states, physical, tmp_path, capsys,
                                        monkeypatch):
        if physical is not None:
            monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: physical)
        elif pcraft.ctmc._physical_memory() is None:
            pytest.skip("physical memory is unknown on this system")

        def build_ctmc(*args):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(sys.modules["pcraft.availability"], "build_ctmc", build_ctmc)
        cfg = write_cfg(tmp_path, f"""
            technique = ARA
            deployment = cloud
            node_variant = native
            {key} = {value}
        """)
        code, out, err = run(["simulate", "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert f"simulating a {states}-state chain needs about" in err
        assert "the chain build" in err and key in err


class TestIntegrity:
    def test_time_shares_sum_to_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            deployment = cloud
            transient_rate_per_month = 1
            horizon_hours = 730.5
        """)
        code, out, _ = run(["integrity", "--config", cfg], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["variant", "transient_rate_per_month", "horizon_hours",
                           "correct", "corrupt", "down"]
        for row in rows[1:]:
            correct, corrupt, down = map(float, row[3:6])
            assert correct + corrupt + down == pytest.approx(1.0, abs=1e-12)
        native = rows[1]
        assert float(native[4]) == pytest.approx(0.0021289, abs=1e-6)

    def test_default_horizon_is_a_year(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "deployment = cloud\ntransient_rate_per_month = 1\n")
        code, out, _ = run(["integrity", "--config", cfg], capsys)
        assert code == 0
        native = rows_of(out)[1]
        assert native[0] == "native" and native[2] == "8766.0"
        scenario = ScenarioConfig(deployment="cloud", transient_rate_per_month=1.0)
        model = build_integrity_model(scenario.integrity_rates("native"))
        assert float(native[4]) == integrity_breakdown(model, YEAR).corrupt

    @pytest.mark.parametrize("lines", [
        "corrupt_pct = 60\ncrash_pct = 60", "node_variant = native\ncrash_pct = 95"],
        ids=["both-overrides", "override-and-table"])
    def test_outcome_percentages_past_100_are_a_configuration_error(
            self, tmp_path, capsys, lines):
        cfg = write_cfg(tmp_path, f"deployment = cloud\ntransient_rate_per_month = 1\n{lines}\n")
        code, out, err = run(["integrity", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert "crash_pct" in err and "sum to at most 1" in err

    def test_overflowing_q_times_horizon_names_the_horizon(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "deployment = cloud\ntransient_rate_per_month = 1e308\n")
        code, out, err = run(["integrity", "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("pcraft: time horizon 31557600.0 is too long")
        assert "q*t overflows" in err

    def test_requires_transient_rate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "deployment = cloud\n")
        code, _, err = run(["integrity", "--config", cfg], capsys)
        assert code == 2
        assert "transient_rate_per_month" in err


class TestIngest:
    def test_ratios_against_native(self, capsys):
        argv = ["ingest", "--latency-threshold-ms", "10"]
        for variant in ("native", "ft_ilr", "ft_tx"):
            argv.append(f"apache_static:{variant}:{DATA / f'apache_static_{variant}.csv'}")
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["application", "variant", "nodt", "ratio_vs_native"]
        table = {r[1]: (float(r[2]), float(r[3])) for r in rows[1:]}
        assert table["native"] == (200000.0, 1.0)
        assert table["ft_ilr"] == (184000.0, 0.92)
        assert table["ft_tx"] == (142000.0, 0.71)

    def test_ratio_blank_without_native(self, capsys):
        curve = str(DATA / "memcached_ft_tx.csv")
        code, out, _ = run(["ingest", f"memcached:ft_tx:{curve}",
                            "--latency-threshold-ms", "1"], capsys)
        assert code == 0
        assert rows_of(out)[1] == ["memcached", "ft_tx", "629060.0", ""]

    def test_threshold_from_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "latency_threshold_ms = 10\n")
        curve = str(DATA / "apache_static_native.csv")
        code, out, _ = run(["ingest", "--config", cfg,
                            f"apache_static:native:{curve}"], capsys)
        assert code == 0
        assert rows_of(out)[1][2] == "200000.0"

    def test_threshold_required(self, capsys):
        curve = str(DATA / "apache_static_native.csv")
        code, _, err = run(["ingest", f"a:native:{curve}"], capsys)
        assert code == 2
        assert "latency_threshold_ms" in err

    @pytest.mark.parametrize("text", ["0", "-1", "nan", "fast"])
    def test_bad_threshold_flag_is_a_configuration_error(self, capsys, text):
        curve = str(DATA / "apache_static_native.csv")
        code, out, err = run(["ingest", f"a:native:{curve}",
                              "--latency-threshold-ms", text], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("pcraft: configuration key 'latency_threshold_ms'")

    def test_ratio_errors_name_the_application(self, tmp_path, capsys):
        curve = tmp_path / "dead.csv"
        curve.write_text("offered_rate,achieved_rate,latency_ms\n100,0,1\n",
                         encoding="utf-8")
        code, out, err = run(["ingest", f"web:native:{curve}",
                              "--latency-threshold-ms", "10"], capsys)
        assert (code, out) == (1, "")
        assert "application 'web': native throughput must be positive" in err

    def test_repeated_label_is_a_configuration_error(self, tmp_path, capsys):
        curves = []
        for name, saturation in (("a", 200), ("b", 60)):
            curve = tmp_path / f"{name}.csv"
            curve.write_text("offered_rate,achieved_rate,latency_ms\n"
                             f"{saturation},{saturation},1\n1000,{saturation},50\n",
                             encoding="utf-8")
            curves.append(f"web:native:{curve}")
        code, out, err = run(["ingest", "--latency-threshold-ms", "5", *curves], capsys)
        assert (code, out) == (2, "")
        assert "web:native" in err

    def test_bad_label(self, capsys):
        code, _, err = run(["ingest", "only-a-path.csv",
                            "--latency-threshold-ms", "1"], capsys)
        assert code == 2
        assert "APP:VARIANT:CSV" in err


class TestSweepAndSimulate:
    def test_sweep_unknown_suite_is_usage_error(self, capsys):
        assert run(["sweep", "--suite", "nope"], capsys)[0] == 2

    def test_sweep_integrity_suite(self, capsys):
        code, out, _ = run(["sweep", "--suite", "integrity-time-shares"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0][0] == "variant"
        assert len(rows) == 16

    def test_simulate_matches_analytic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = cloud
            node_variant = native
            hw_crash_per_year = 6
            crash_recovery_seconds = 1800
            extra_nodes = 1
            replications = 300
        """)
        code, out, _ = run(["simulate", "--config", cfg], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["technique", "deployment", "variant", "base", "extra",
                           "mean", "ci_half_width", "ci_low", "ci_high",
                           "replications", "seed"]
        row = rows[1]
        assert row[9] == "300"
        assert float(row[6]) < float(row[5]) <= 1.0
        analytic = 0.9999935764300234
        assert float(row[7]) <= analytic <= float(row[8])

    def test_simulate_flag_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = ARA
            deployment = cloud
            node_variant = native
            replications = 300
        """)
        code, out, _ = run(
            ["simulate", "--config", cfg, "--replications", "50", "--seed", "9"],
            capsys)
        assert code == 0
        assert rows_of(out)[1][9:11] == ["50", "9"]

    def test_simulate_is_reproducible(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
            technique = PF
            deployment = cloud
            node_variant = native
            replications = 100
        """)
        _, first, _ = run(["simulate", "--config", cfg], capsys)
        _, second, _ = run(["simulate", "--config", cfg], capsys)
        assert first == second
