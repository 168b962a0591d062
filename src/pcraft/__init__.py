"""Capacity planning for fault-tolerant services.

The package answers sizing questions for clusters built from
fault-tolerant node variants: how many nodes serve the load once the
variant's throughput penalty is paid, and how many extras (standbys or
over-provisioned actives) reach an availability target.  Everything is
grounded in small continuous-time Markov chains, solved by repeated
squaring or implicit Radau IIA steps, with a discrete-event simulator
as an independent cross-check.
"""

from .availability import (
    ARA,
    CLOUD,
    ON_PREMISES,
    PF,
    AvailRates,
    AvailabilityModel,
    AvailabilityReport,
    ClusterSpec,
    availability,
    build_ara_model,
    build_availability_model,
    build_pf_model,
    nines,
)
from .ctmc import (
    Ctmc,
    NotErgodicError,
    build_ctmc,
    cumulative_occupancy,
    indicator_reward,
    occupancy_from_each_start,
    steady_state,
    transient_distribution,
)
from .integrity import (
    IntegrityRates,
    IntegrityReport,
    build_integrity_model,
    derive_integrity_rates,
    integrity_breakdown,
)
from .perf import (
    PerfCurve,
    PerfProfile,
    PerfRow,
    degradation_ratios,
    parse_benchmark_csv,
    saturation_throughput,
)
from .planner import PlanRequest, PlanResult, plan_capacity, required_base_nodes
from .simulate import SimEstimate, simulate_ctmc
from .units import DAY, HOUR, MINUTE, MONTH, SECOND, YEAR
from .variants import NODE_VARIANTS, TransientSplit

__version__ = "0.1.0"

__all__ = [
    "ARA",
    "CLOUD",
    "DAY",
    "HOUR",
    "MINUTE",
    "MONTH",
    "NODE_VARIANTS",
    "ON_PREMISES",
    "PF",
    "SECOND",
    "YEAR",
    "AvailRates",
    "AvailabilityModel",
    "AvailabilityReport",
    "ClusterSpec",
    "Ctmc",
    "IntegrityRates",
    "IntegrityReport",
    "NotErgodicError",
    "PerfCurve",
    "PerfProfile",
    "PerfRow",
    "PlanRequest",
    "PlanResult",
    "SimEstimate",
    "TransientSplit",
    "availability",
    "build_ara_model",
    "build_availability_model",
    "build_ctmc",
    "build_integrity_model",
    "build_pf_model",
    "cumulative_occupancy",
    "degradation_ratios",
    "derive_integrity_rates",
    "indicator_reward",
    "integrity_breakdown",
    "nines",
    "occupancy_from_each_start",
    "parse_benchmark_csv",
    "plan_capacity",
    "required_base_nodes",
    "saturation_throughput",
    "simulate_ctmc",
    "steady_state",
    "transient_distribution",
]
