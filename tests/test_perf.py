"""Benchmark CSV ingestion, saturation extraction, and degradation ratios."""

import io
from pathlib import Path

import pytest

from pcraft import (
    PerfRow,
    degradation_ratios,
    parse_benchmark_csv,
    saturation_throughput,
)

DATA = Path(__file__).parent / "data"

APACHE_FILES = {
    "native": DATA / "apache_static_native.csv",
    "ft_ilr": DATA / "apache_static_ft_ilr.csv",
    "ft_tx": DATA / "apache_static_ft_tx.csv",
}
MEMCACHED_FILES = {
    "native": DATA / "memcached_native.csv",
    "ft_ilr": DATA / "memcached_ft_ilr.csv",
    "ft_tx": DATA / "memcached_ft_tx.csv",
}


class TestParsing:
    def test_fixture_parses_with_cpu_column(self):
        curve = parse_benchmark_csv(APACHE_FILES["native"], application="apache")
        assert curve.application == "apache"
        assert len(curve.rows) == 8
        assert curve.rows[0] == PerfRow(25000.0, 25000.0, 0.9, 11.0)

    def test_fixture_parses_without_cpu_column(self):
        curve = parse_benchmark_csv(MEMCACHED_FILES["native"])
        assert all(row.cpu_pct is None for row in curve.rows)

    def test_rows_sorted_by_offered_rate(self):
        text = ("offered_rate,achieved_rate,latency_ms\n"
                "300,290,2.0\n100,100,1.0\n200,199,1.5\n")
        curve = parse_benchmark_csv(io.StringIO(text))
        assert [r.offered_rate for r in curve.rows] == [100.0, 200.0, 300.0]

    def test_blank_lines_skipped(self):
        text = ("offered_rate,achieved_rate,latency_ms\n"
                "100,100,1.0\n\n200,199,1.5\n")
        curve = parse_benchmark_csv(io.StringIO(text))
        assert len(curve.rows) == 2

    def test_missing_column_is_named(self):
        text = "offered_rate,latency_ms\n100,1.0\n"
        with pytest.raises(ValueError, match="achieved_rate"):
            parse_benchmark_csv(io.StringIO(text))

    def test_bad_cell_names_row_and_column(self):
        text = ("offered_rate,achieved_rate,latency_ms\n"
                "100,100,1.0\n200,fast,1.5\n")
        with pytest.raises(ValueError, match="row 3.*achieved_rate"):
            parse_benchmark_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, cell):
        # A nan achieved rate would make the saturation throughput depend
        # on row order.
        for rows in (f"1,100,1\n2,{cell},1\n", f"2,{cell},1\n1,100,1\n"):
            text = "offered_rate,achieved_rate,latency_ms\n" + rows
            line = 2 + rows.splitlines().index(f"2,{cell},1")
            with pytest.raises(ValueError, match=f"row {line}, column 'achieved_rate'"):
                parse_benchmark_csv(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="header"):
            parse_benchmark_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_benchmark_csv(io.StringIO("offered_rate,achieved_rate,latency_ms\n"))

    def test_short_row_reports_missing_value(self):
        text = ("offered_rate,achieved_rate,latency_ms\n"
                "100,100\n")
        with pytest.raises(ValueError, match="row 2.*latency_ms"):
            parse_benchmark_csv(io.StringIO(text))


class TestSaturation:
    def test_apache_static_peak(self):
        curve = parse_benchmark_csv(APACHE_FILES["native"])
        assert saturation_throughput(curve, latency_threshold_ms=10.0) == 200000.0

    def test_memcached_peak(self):
        curve = parse_benchmark_csv(MEMCACHED_FILES["native"])
        assert saturation_throughput(curve, latency_threshold_ms=1.0) == 886000.0

    def test_threshold_changes_the_answer(self):
        curve = parse_benchmark_csv(APACHE_FILES["native"])
        assert saturation_throughput(curve, latency_threshold_ms=2.5) == 149500.0

    def test_no_qualifying_rows(self):
        curve = parse_benchmark_csv(APACHE_FILES["native"])
        with pytest.raises(ValueError, match="latency threshold"):
            saturation_throughput(curve, latency_threshold_ms=0.1)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("inf")])
    def test_rejects_bad_threshold(self, threshold):
        curve = parse_benchmark_csv(APACHE_FILES["native"])
        with pytest.raises(ValueError, match="threshold"):
            saturation_throughput(curve, latency_threshold_ms=threshold)


class TestDegradation:
    @staticmethod
    def fixture_nodt():
        table = {}
        for app, files, threshold in (
            ("apache_static", APACHE_FILES, 10.0),
            ("memcached", MEMCACHED_FILES, 1.0),
        ):
            table[app] = {
                variant: saturation_throughput(parse_benchmark_csv(path), threshold)
                for variant, path in files.items()
            }
        return table

    def test_fixture_ratios(self):
        profile = degradation_ratios(self.fixture_nodt())
        assert profile.ratios["native"] == pytest.approx(1.0, abs=1e-12)
        assert profile.ratios["ft_ilr"] == pytest.approx(0.92, abs=1e-12)
        assert profile.ratios["ft_tx"] == pytest.approx(0.71, abs=1e-12)

    def test_nodt_is_arithmetic_mean(self):
        profile = degradation_ratios(self.fixture_nodt())
        assert profile.nodt["native"] == pytest.approx((200000 + 886000) / 2)

    def test_missing_native_is_an_error(self):
        with pytest.raises(ValueError, match="native"):
            degradation_ratios({"app": {"ft_tx": 70.0}})

    def test_rejects_nonpositive_throughput(self):
        with pytest.raises(ValueError, match="positive"):
            degradation_ratios({"app": {"native": 100.0, "ft_tx": 0.0}})

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no applications"):
            degradation_ratios({})
