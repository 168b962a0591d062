"""Every public numeric parameter follows one rule.

A bool, a non-number, NaN, an infinity, or an int too large for a float
where a float is taken, is refused with a ``ValueError`` that names the
parameter, whichever constructor or function takes it.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pcraft import (
    ARA,
    CLOUD,
    NODE_VARIANTS,
    ON_PREMISES,
    PF,
    AvailRates,
    ClusterSpec,
    PlanRequest,
    TransientSplit,
    build_pf_model,
    cumulative_occupancy,
    degradation_ratios,
    derive_integrity_rates,
    occupancy_from_each_start,
    required_base_nodes,
    saturation_throughput,
    simulate_ctmc,
    transient_distribution,
)
from pcraft.ctmc import build_ctmc
from pcraft.perf import PerfCurve, PerfRow
from pcraft.units import YEAR

RATES = AvailRates(1.0, 1.0 / 15.0)
REQUEST = PlanRequest(ARA, CLOUD, "native", 10.0, 3.0, YEAR, RATES)
SPLIT = NODE_VARIANTS["ft_tx"].split
CHAIN = build_ctmc([("up", "down", 1.0), ("down", "up", 10.0)], {"up": 1.0, "down": 0.0})
REWARD = np.array([1.0, 0.0])
CURVE = PerfCurve((PerfRow(100.0, 100.0, 1.0), PerfRow(200.0, 150.0, 20.0)))

# Each case: the name its error message starts with, and a call passing
# the value under test to that parameter alone.
CASES = {
    "AvailRates.hw_crash_per_year": ("hw_crash_per_year", lambda v: AvailRates(v, 1.0)),
    "AvailRates.crash_recovery_per_s": ("crash_recovery_per_s", lambda v: AvailRates(1.0, v)),
    "AvailRates.pool_repair_per_s": ("pool_repair_per_s", lambda v: AvailRates(1.0, 1.0, v)),
    "ClusterSpec.num": ("num", lambda v: ClusterSpec(ARA, CLOUD, num=v)),
    "ClusterSpec.op": ("op", lambda v: ClusterSpec(ARA, CLOUD, num=1, op=v)),
    "ClusterSpec.pool": ("pool", lambda v: ClusterSpec(PF, ON_PREMISES, num=1, pool=v)),
    "build_pf_model.depth": (
        "depth", lambda v: build_pf_model(ClusterSpec(PF, ON_PREMISES, num=3, pool=2), RATES,
                                          depth=v)),
    "PlanRequest.target_nines": ("target_nines", lambda v: replace(REQUEST, target_nines=v)),
    "PlanRequest.horizon_s": ("horizon_s", lambda v: replace(REQUEST, horizon_s=v)),
    "PlanRequest.search_cap": ("search_cap", lambda v: replace(REQUEST, search_cap=v)),
    "required_base_nodes.sert_multiplier": (
        "sert_multiplier", lambda v: required_base_nodes(v, 1.0)),
    "required_base_nodes.ratio": ("throughput ratio", lambda v: required_base_nodes(10.0, v)),
    "derive_integrity_rates.transient_rate_per_s": (
        "transient fault rate", lambda v: derive_integrity_rates(v, SPLIT, 15.0)),
    "derive_integrity_rates.crash_recovery_s": (
        "crash_recovery_s", lambda v: derive_integrity_rates(1.0, SPLIT, v)),
    "derive_integrity_rates.sdc_recovery_s": (
        "sdc_recovery_s", lambda v: derive_integrity_rates(1.0, SPLIT, 15.0, sdc_recovery_s=v)),
    "derive_integrity_rates.retry_s": (
        "retry_s", lambda v: derive_integrity_rates(1.0, SPLIT, 15.0, retry_s=v)),
    "derive_integrity_rates.retry_crash_per_s": (
        "retry_crash_per_s",
        lambda v: derive_integrity_rates(1.0, SPLIT, 15.0, retry_crash_per_s=v)),
    "TransientSplit.corrupt": ("corrupt fraction", lambda v: TransientSplit(v, 0.0)),
    "TransientSplit.crash": ("crash fraction", lambda v: TransientSplit(0.0, v)),
    "TransientSplit.retried": ("retried fraction", lambda v: TransientSplit(0.0, 0.0, v)),
    "simulate_ctmc.horizon_s": (
        "time horizon", lambda v: simulate_ctmc(CHAIN, REWARD, v, replications=4)),
    "simulate_ctmc.replications": (
        "replications", lambda v: simulate_ctmc(CHAIN, REWARD, 1.0, replications=v)),
    "simulate_ctmc.seed": (
        "seed", lambda v: simulate_ctmc(CHAIN, REWARD, 1.0, replications=4, seed=v)),
    "cumulative_occupancy.horizon": (
        "time horizon", lambda v: cumulative_occupancy(CHAIN, REWARD, v)),
    "occupancy_from_each_start.horizon": (
        "time horizon", lambda v: occupancy_from_each_start(CHAIN, REWARD, v)),
    "transient_distribution.t": ("time horizon", lambda v: transient_distribution(CHAIN, v)),
    "saturation_throughput.latency_threshold_ms": (
        "latency threshold", lambda v: saturation_throughput(CURVE, v)),
    "degradation_ratios.native": (
        "application 'a': native throughput",
        lambda v: degradation_ratios({"a": {"native": v, "ft_tx": 3.0}})),
    "degradation_ratios.variant": (
        "application 'a', variant 'ft_tx': throughput",
        lambda v: degradation_ratios({"a": {"native": 10.0, "ft_tx": v}})),
}


@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf],
                         ids=["True", "str", "nan", "inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_numeric_parameter_refuses_bools_strings_nan_and_inf(case, bad):
    name, call = CASES[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(bad)


# Counts take ints of any size; every other parameter is a float, and an
# int too large for one is refused like an infinity.
COUNTS = {"ClusterSpec.num", "ClusterSpec.op", "ClusterSpec.pool", "build_pf_model.depth",
          "PlanRequest.search_cap",
          "simulate_ctmc.replications", "simulate_ctmc.seed"}


@pytest.mark.parametrize("case", sorted(set(CASES) - COUNTS))
def test_float_parameters_refuse_an_int_past_the_float_range(case):
    name, call = CASES[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(10**400)
