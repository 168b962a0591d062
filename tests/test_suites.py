"""Canned sweep suites: shapes, determinism, and a few anchored cells."""

import pytest

from pcraft.config import ScenarioConfig
from pcraft.suites import SUITES, run_suite


def test_every_suite_is_self_describing():
    for name, suite in SUITES.items():
        assert suite.name == name
        assert suite.description
        assert len(suite.header) >= 4


def test_unknown_suite_lists_available():
    with pytest.raises(ValueError, match="unknown suite 'nope'.*cloud-ara-extras"):
        run_suite("nope", ScenarioConfig())


def test_cloud_ara_extras_grid():
    header, rows = run_suite("cloud-ara-extras", ScenarioConfig())
    assert len(rows) == 18
    columns = dict(zip(header, zip(*rows)))
    assert set(columns["variant"]) == {"native", "ft_ilr", "ft_tx"}
    assert set(columns["hw_crash_per_year"]) == {1.0, 6.0}
    assert set(columns["crash_recovery_s"]) == {15.0, 60.0, 1800.0}
    assert all(columns["feasible"])
    # Only the harshest cell per variant needs padding.
    extras = {(r[0], r[1], r[2]): r[4] for r in rows}
    for variant in ("native", "ft_ilr", "ft_tx"):
        for rate in (1.0, 6.0):
            for recovery in (15.0, 60.0, 1800.0):
                want = 1 if (rate, recovery) == (6.0, 1800.0) else 0
                assert extras[(variant, rate, recovery)] == want


def test_onprem_ara_extras_matches_known_cells():
    header, rows = run_suite("onprem-ara-extras", ScenarioConfig(search_cap=64))
    assert len(rows) == 6
    cells = {(r[0], r[1]): r for r in rows}
    for variant, extra in (("native", 35), ("ft_ilr", 37), ("ft_tx", 46)):
        row = cells[(variant, 1.0)]
        assert row[3] == extra and row[-1] is True
    # The high fault rate cannot be planned within this small cap.
    assert cells[("native", 6.0)][-1] is False


def test_onprem_pf_pool_shapes_and_repair_column():
    config = ScenarioConfig(search_cap=2)
    header, rows = run_suite("onprem-pf-pool", config)
    assert len(rows) == 36
    idx = {name: header.index(name) for name in header}
    for row in rows:
        if row[idx["pool_repair_per_hour"]] == 1.0 and row[idx["feasible"]]:
            assert row[idx["extra"]] <= 2
        if row[idx["pool_repair_per_hour"]] is None:
            assert row[idx["crash_recovery_s"]] in (15.0, 60.0, 1800.0)


def test_single_node_availability_grid():
    header, rows = run_suite("single-node-availability", ScenarioConfig())
    assert len(rows) == 48
    cloud = [r for r in rows if r[0] == "cloud"]
    onprem = [r for r in rows if r[0] == "on-premises"]
    assert len(cloud) == 36 and len(onprem) == 12
    assert all(r[1] is None for r in onprem)
    assert all(r[3] > 0.999 for r in cloud if r[1] == 15.0)
    # One on-premises node at one crash per year is up ~63% of the year.
    base = next(r for r in onprem if r[2] == 1.0)
    assert base[3] == pytest.approx(0.6321205588, abs=1e-9)


def test_cluster_availability_monotone_in_size():
    header, rows = run_suite("cluster-availability", ScenarioConfig())
    assert len(rows) == 80
    series = {}
    for deployment, rate, num, avail, _ in rows:
        series.setdefault((deployment, rate), []).append((num, avail))
    for (deployment, rate), points in series.items():
        assert [n for n, _ in points] == list(range(1, 21))
        availabilities = [a for _, a in points]
        assert availabilities == sorted(availabilities, reverse=True)


def test_deployment_fault_rates_sizes_from_variant():
    header, rows = run_suite("deployment-fault-rates", ScenarioConfig())
    assert len(rows) == 24
    assert all(r[2] == 10 for r in rows)  # defaults to the native ratio
    _, rows = run_suite("deployment-fault-rates",
                        ScenarioConfig(node_variant="ft_tx"))
    assert all(r[2] == 15 for r in rows)
    # An explicit throughput ratio wins over the variant's.
    _, rows = run_suite("deployment-fault-rates", ScenarioConfig(throughput_ratio=0.5))
    assert all(r[2] == 20 for r in rows)
    _, rows = run_suite("deployment-fault-rates",
                        ScenarioConfig(node_variant="ft_tx", throughput_ratio=1.0))
    assert all(r[2] == 10 for r in rows)


@pytest.mark.parametrize("name,knobs", [
    ("cloud-ara-extras", {}),
    ("onprem-ara-extras", {"search_cap": 64}),
    ("single-node-availability", {}),
    ("cluster-availability", {}),
    ("deployment-fault-rates", {}),
])
def test_suites_without_a_repair_axis_ignore_pool_repair(name, knobs):
    # These grids model no pool repair; a configured rate must not leak in.
    plain = run_suite(name, ScenarioConfig(**knobs))
    repaired = run_suite(name, ScenarioConfig(pool_repair_per_hour=1.0, **knobs))
    assert repaired == plain


def test_integrity_time_shares_partition():
    header, rows = run_suite("integrity-time-shares", ScenarioConfig())
    assert len(rows) == 15
    for _, _, correct, corrupt, down in rows:
        assert correct + corrupt + down == pytest.approx(1.0, abs=1e-12)
    native_month = next(r for r in rows if r[0] == "native" and r[1] == 1.0)
    assert native_month[3] == pytest.approx(0.00212892, abs=1e-7)


def test_suites_are_deterministic():
    first = run_suite("cloud-ara-extras", ScenarioConfig())
    second = run_suite("cloud-ara-extras", ScenarioConfig())
    assert first == second
