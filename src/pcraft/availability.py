"""Cluster availability models.

Two fault-tolerance techniques are modelled, each in a cloud and an
on-premises flavour:

* Passive failover (``PF``): ``num`` active nodes backed by a pool of
  cold standbys.  A crashed node is replaced from the pool at the
  failover rate; in the cloud the pool is unbounded, on premises a
  broken node can optionally be repaired back into the pool.  The
  service is up only while all ``num`` nodes run.
* Active redundancy (``ARA``): ``num + op`` active nodes where any
  ``num`` suffice.  Cloud deployments re-provision crashed nodes at the
  recovery rate; on premises crashed nodes stay down, so the all-down
  state is absorbing.

States track live node counts (plus the standby pool on premises), so
chains stay small: crash transitions carry ``up * lambda`` and recovery
transitions are multiplied by the number of pending repairs (every node
recovers in parallel).  ``parallel_recovery=False`` switches to a single
repair facility for sensitivity studies.  Every chain is built one way:
as the states reachable from the all-up start under its moves.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ctmc import Ctmc, _is_integer, build_ctmc, cumulative_occupancy
from .units import YEAR

__all__ = [
    "ARA",
    "PF",
    "CLOUD",
    "ON_PREMISES",
    "AvailRates",
    "AvailabilityModel",
    "AvailabilityReport",
    "ClusterSpec",
    "availability",
    "build_ara_model",
    "build_availability_model",
    "build_pf_model",
    "nines",
]

PF = "PF"
ARA = "ARA"
CLOUD = "cloud"
ON_PREMISES = "on-premises"

MAX_NINES = 12.0


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster shape: technique, deployment, and node counts.

    ``num`` is the base cluster size, ``op`` the over-provisioned active
    extras (ARA only), ``pool`` the cold standby pool (on-premises PF
    only; the cloud pool is unbounded and ``pool`` is ignored there).
    """

    technique: str
    deployment: str
    num: int
    op: int = 0
    pool: int = 0

    def __post_init__(self) -> None:
        if self.technique not in (PF, ARA):
            raise ValueError(f"technique must be {PF!r} or {ARA!r}, got {self.technique!r}")
        if self.deployment not in (CLOUD, ON_PREMISES):
            raise ValueError(
                f"deployment must be {CLOUD!r} or {ON_PREMISES!r}, got {self.deployment!r}")
        for name in ("num", "op", "pool"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.num < 1:
            raise ValueError(f"num must be at least 1, got {self.num}")
        if self.op < 0 or self.pool < 0:
            raise ValueError("op and pool must be nonnegative")
        if self.technique == PF and self.op:
            raise ValueError("PF clusters have no over-provisioned nodes; use pool")
        if self.technique == ARA and self.pool:
            raise ValueError("ARA clusters have no standby pool; use op")

    @classmethod
    def with_extra(cls, technique: str, deployment: str, num: int,
                   extra: int) -> ClusterSpec:
        """``extra`` nodes as over-provisioned actives (ARA) or standbys (PF)."""
        if technique == ARA:
            return cls(technique, deployment, num=num, op=extra)
        return cls(technique, deployment, num=num, pool=extra)


@dataclass(frozen=True)
class AvailRates:
    """Failure and recovery rates.

    hw_crash_per_year is per node; the recovery and repair rates are per
    second, matching how operators quote them (crashes per year, seconds
    to fail over).
    """

    hw_crash_per_year: float
    crash_recovery_per_s: float
    pool_repair_per_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("hw_crash_per_year", "crash_recovery_per_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.pool_repair_per_s is not None and (
                not math.isfinite(self.pool_repair_per_s) or self.pool_repair_per_s <= 0):
            raise ValueError("pool_repair_per_s must be positive and finite when given")

    @property
    def hw_crash_per_s(self) -> float:
        return self.hw_crash_per_year / YEAR


@dataclass(frozen=True)
class AvailabilityModel:
    """A built chain plus the predicate making it an availability model."""

    ctmc: Ctmc
    spec: ClusterSpec
    rates: AvailRates
    up_reward: np.ndarray


@dataclass(frozen=True)
class AvailabilityReport:
    availability: float
    nines: float
    downtime_hours: float
    horizon_s: float


def nines(avail: float) -> float:
    """Number of nines: ``-log10(1 - avail)``, capped at 12."""
    if not 0.0 <= avail <= 1.0:
        raise ValueError(f"availability must lie in [0, 1], got {avail!r}")
    if avail >= 1.0:
        return MAX_NINES
    return min(-math.log10(1.0 - avail), MAX_NINES)


def build_pf_model(spec: ClusterSpec, rates: AvailRates,
                   parallel_recovery: bool = True) -> AvailabilityModel:
    """Passive-failover chain for the given cluster and rates.

    Cloud states are live-node counts 0..num: the unbounded pool makes it
    the ARA chain without extras.  On-premises states are ``(up, pool)``
    pairs reachable from the fully-provisioned start; broken nodes rejoin
    the pool only when ``rates.pool_repair_per_s`` is set.
    """
    if spec.technique != PF:
        raise ValueError(f"expected a {PF} cluster spec, got {spec.technique!r}")
    num = spec.num

    if spec.deployment == CLOUD:
        ctmc = _birth_death(spec, num, rates, parallel_recovery)
        live = ctmc.states
    else:
        lam = rates.hw_crash_per_s
        rho = rates.crash_recovery_per_s
        repair = rates.pool_repair_per_s
        total = num + spec.pool

        def moves(state: tuple[int, int]) -> Iterable[tuple[tuple[int, int], float]]:
            u, p = state
            if u > 0:
                yield (u - 1, p), u * lam
            pending = num - u
            if pending > 0 and p > 0:
                rate = min(pending, p) * rho if parallel_recovery else rho
                yield (u + 1, p - 1), rate
            broken = total - u - p
            if repair is not None and broken > 0:
                yield (u, p + 1), (broken * repair if parallel_recovery else repair)

        ctmc = _explore((num, spec.pool), moves)
        live = [u for u, _ in ctmc.states]

    up = np.array([1.0 if u == num else 0.0 for u in live])
    return AvailabilityModel(ctmc=ctmc, spec=spec, rates=rates, up_reward=up)


def build_ara_model(spec: ClusterSpec, rates: AvailRates,
                    parallel_recovery: bool = True) -> AvailabilityModel:
    """Active-redundancy chain: ``num + op`` live nodes, any ``num`` suffice."""
    if spec.technique != ARA:
        raise ValueError(f"expected an {ARA} cluster spec, got {spec.technique!r}")
    ctmc = _birth_death(spec, spec.num + spec.op, rates, parallel_recovery)
    up = np.array([1.0 if u >= spec.num else 0.0 for u in ctmc.states])
    return AvailabilityModel(ctmc=ctmc, spec=spec, rates=rates, up_reward=up)


def build_availability_model(spec: ClusterSpec, rates: AvailRates,
                             parallel_recovery: bool = True) -> AvailabilityModel:
    builder = build_pf_model if spec.technique == PF else build_ara_model
    return builder(spec, rates, parallel_recovery)


def availability(model: AvailabilityModel, horizon_s: float) -> AvailabilityReport:
    """Interval availability over ``horizon_s`` seconds from the all-up start."""
    up_time = cumulative_occupancy(model.ctmc, model.up_reward, horizon_s)
    avail = min(up_time / horizon_s, 1.0)
    return AvailabilityReport(
        availability=avail,
        nines=nines(avail),
        downtime_hours=(1.0 - avail) * horizon_s / 3600.0,
        horizon_s=horizon_s,
    )


def _birth_death(spec: ClusterSpec, top: int, rates: AvailRates,
                 parallel_recovery: bool) -> Ctmc:
    """Live-node counts 0..top from ``top``: each live node crashes, and in
    the cloud each of the ``top - up`` crashed nodes is re-provisioned."""
    lam = rates.hw_crash_per_s
    rho = rates.crash_recovery_per_s
    recovers = spec.deployment == CLOUD

    def moves(u: int) -> Iterable[tuple[int, float]]:
        if u > 0:
            yield u - 1, u * lam
        down = top - u
        if down > 0 and recovers:
            yield u + 1, (down * rho if parallel_recovery else rho)

    return _explore(top, moves)


def _explore(start, moves) -> Ctmc:
    """Breadth-first reachability closure; states ordered lexicographically."""
    seen = {start}
    frontier = deque([start])
    transitions = []
    while frontier:
        state = frontier.popleft()
        for target, rate in moves(state):
            transitions.append((state, target, rate))
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    dist = {s: (1.0 if s == start else 0.0) for s in sorted(seen)}
    return build_ctmc(transitions, dist)
