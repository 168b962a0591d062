"""Canned parameter sweeps.

Each suite regenerates one of the report tables or figure datasets as
CSV rows: node-count tables for both over-provisioning techniques, the
single-node and cluster availability curves, and the integrity time
shares.  Grids are fixed; knobs that are not swept (service target,
availability target, horizon, search cap) come from the scenario
configuration, so a config file can shrink an expensive sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

from .availability import (
    ARA,
    CLOUD,
    ON_PREMISES,
    PF,
    AvailabilityReport,
    ClusterSpec,
    _model_to_solve,
    availability,
)
from .config import ScenarioConfig
from .integrity import build_integrity_model, integrity_breakdown
from .planner import plan_capacity
from .units import MONTH
from .variants import NODE_VARIANTS

__all__ = ["SUITES", "Suite", "run_suite"]

CRASH_RATES_PER_YEAR = (1.0, 6.0)
RECOVERY_SECONDS = (15.0, 60.0, 1800.0)
FAULT_RATE_SPAN = tuple(float(r) for r in range(1, 13))
# Transient fault arrivals per month; 30.4375 is exactly one per day.
TRANSIENT_RATES_PER_MONTH = (1.0, 3.0, 10.0, 30.4375, 100.0)
CLUSTER_SIZES = tuple(range(1, 21))


class Suite(NamedTuple):
    name: str
    description: str
    header: tuple[str, ...]
    build: Callable[[ScenarioConfig], list[list]]


def _cloud_ara_extras(config: ScenarioConfig) -> list[list]:
    rows = []
    for variant in NODE_VARIANTS:
        for crashes in CRASH_RATES_PER_YEAR:
            for recovery_s in RECOVERY_SECONDS:
                cell = replace(config, technique=ARA, deployment=CLOUD,
                               hw_crash_per_year=crashes,
                               crash_recovery_seconds=recovery_s,
                               pool_repair_per_hour=None)
                r = plan_capacity(cell.plan_request(variant))
                rows.append([variant, crashes, recovery_s, r.base, r.extra,
                             r.availability, r.nines, r.feasible])
    return rows


def _onprem_ara_extras(config: ScenarioConfig) -> list[list]:
    rows = []
    for variant in NODE_VARIANTS:
        for crashes in CRASH_RATES_PER_YEAR:
            cell = replace(config, technique=ARA, deployment=ON_PREMISES,
                           hw_crash_per_year=crashes, pool_repair_per_hour=None)
            r = plan_capacity(cell.plan_request(variant))
            rows.append([variant, crashes, r.base, r.extra,
                         r.availability, r.nines, r.feasible])
    return rows


def _onprem_pf_pool(config: ScenarioConfig) -> list[list]:
    rows = []
    for variant in NODE_VARIANTS:
        for crashes in CRASH_RATES_PER_YEAR:
            for recovery_s in RECOVERY_SECONDS:
                for repair in (None, 1.0):
                    cell = replace(config, technique=PF, deployment=ON_PREMISES,
                                   hw_crash_per_year=crashes,
                                   crash_recovery_seconds=recovery_s,
                                   pool_repair_per_hour=repair)
                    r = plan_capacity(cell.plan_request(variant))
                    rows.append([variant, crashes, recovery_s, repair,
                                 r.base, r.extra, r.availability, r.nines,
                                 r.feasible])
    return rows


def _no_spares(cell: ScenarioConfig, deployment: str, num: int) -> AvailabilityReport:
    """Availability of ``num`` PF nodes without a standby pool, at the cell's rates."""
    model = _model_to_solve(ClusterSpec(PF, deployment, num=num),
                            cell.avail_rates(), cell.parallel_recovery)
    return availability(model, cell.horizon_s)


def _single_node_availability(config: ScenarioConfig) -> list[list]:
    rows = []
    for recovery_s in RECOVERY_SECONDS:
        for crashes in FAULT_RATE_SPAN:
            cell = replace(config, hw_crash_per_year=crashes,
                           crash_recovery_seconds=recovery_s,
                           pool_repair_per_hour=None)
            report = _no_spares(cell, CLOUD, 1)
            rows.append([CLOUD, recovery_s, crashes,
                         report.availability, report.nines])
    for crashes in FAULT_RATE_SPAN:
        cell = replace(config, hw_crash_per_year=crashes, pool_repair_per_hour=None)
        report = _no_spares(cell, ON_PREMISES, 1)
        # No automatic recovery on-premises, so the recovery column is empty.
        rows.append([ON_PREMISES, None, crashes, report.availability, report.nines])
    return rows


def _cluster_availability(config: ScenarioConfig) -> list[list]:
    rows = []
    for deployment in (CLOUD, ON_PREMISES):
        for crashes in CRASH_RATES_PER_YEAR:
            cell = replace(config, hw_crash_per_year=crashes, pool_repair_per_hour=None)
            for num in CLUSTER_SIZES:
                report = _no_spares(cell, deployment, num)
                rows.append([deployment, crashes, num,
                             report.availability, report.nines])
    return rows


def _deployment_fault_rates(config: ScenarioConfig) -> list[list]:
    num = config.base_nodes(config.node_variant or "native")
    rows = []
    for deployment in (CLOUD, ON_PREMISES):
        for crashes in FAULT_RATE_SPAN:
            cell = replace(config, hw_crash_per_year=crashes, pool_repair_per_hour=None)
            report = _no_spares(cell, deployment, num)
            rows.append([deployment, crashes, num,
                         report.availability, report.nines])
    return rows


def _integrity_time_shares(config: ScenarioConfig) -> list[list]:
    # Shares are reported over one month regardless of the availability
    # horizon; the transient-rate axis is the sweep.
    rows = []
    for variant in NODE_VARIANTS:
        for rate in TRANSIENT_RATES_PER_MONTH:
            scenario = replace(config, transient_rate_per_month=rate)
            model = build_integrity_model(scenario.integrity_rates(variant))
            report = integrity_breakdown(model, MONTH)
            rows.append([variant, rate, report.correct, report.corrupt,
                         report.down])
    return rows


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "cloud-ara-extras",
            "Extra active nodes for a cloud cluster per variant, crash rate, "
            "and recovery time",
            ("variant", "hw_crash_per_year", "crash_recovery_s", "base",
             "extra", "availability", "nines", "feasible"),
            _cloud_ara_extras,
        ),
        Suite(
            "onprem-ara-extras",
            "Extra active nodes for an on-premises cluster per variant and "
            "crash rate",
            ("variant", "hw_crash_per_year", "base", "extra", "availability",
             "nines", "feasible"),
            _onprem_ara_extras,
        ),
        Suite(
            "onprem-pf-pool",
            "Standby pool sizes for on-premises failover per variant, crash "
            "rate, failover time, and repair policy",
            ("variant", "hw_crash_per_year", "crash_recovery_s",
             "pool_repair_per_hour", "base", "extra", "availability", "nines",
             "feasible"),
            _onprem_pf_pool,
        ),
        Suite(
            "single-node-availability",
            "Yearly availability of one node versus crash rate, cloud (three "
            "recovery times) and on-premises",
            ("deployment", "crash_recovery_s", "hw_crash_per_year",
             "availability", "nines"),
            _single_node_availability,
        ),
        Suite(
            "cluster-availability",
            "All-nodes-up availability versus cluster size, by deployment and "
            "crash rate",
            ("deployment", "hw_crash_per_year", "num", "availability",
             "nines"),
            _cluster_availability,
        ),
        Suite(
            "deployment-fault-rates",
            "Availability of a fixed-size cluster versus fault rate, cloud "
            "against on-premises",
            ("deployment", "hw_crash_per_year", "num", "availability",
             "nines"),
            _deployment_fault_rates,
        ),
        Suite(
            "integrity-time-shares",
            "Monthly time shares spent correct, corrupt, and down per variant "
            "and transient fault rate",
            ("variant", "transient_rate_per_month", "correct", "corrupt",
             "down"),
            _integrity_time_shares,
        ),
    )
}


def run_suite(name: str, config: ScenarioConfig) -> tuple[tuple[str, ...], list[list]]:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; available: {known}")
    suite = SUITES[name]
    return suite.header, suite.build(config)
