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

An on-premises PF chain can be cut at a depth: the states where many
nodes await failover at once carry almost no probability, and a crash
past the depth goes to an absorbing ``SINK`` instead.  Counting the sink
as down gives a lower bound on the up-time, counting it as up an upper
bound (finite state projection: Munsky & Khammash, *J. Chem. Phys.*
124, 2006; bounds as in Muntz, de Souza e Silva & Goyal, *IEEE TC*,
1989).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ctmc import (Ctmc, _check_memory, _check_number, _dense_arrays, build_ctmc,
                   cumulative_occupancy)
from .simulate import _footprint
from .units import YEAR

__all__ = [
    "ARA",
    "PF",
    "CLOUD",
    "DOWN",
    "ON_PREMISES",
    "SINK",
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

# The absorbing states of a cut on-premises PF chain; both count as down.
SINK = "sink"   # a crash past the depth
DOWN = "down"   # no pool repair: every pool-exhausted state with a node down


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
        for name, least in (("num", 1), ("op", 0), ("pool", 0)):
            _check_number(name, getattr(self, name), least, above=False, integer=True)
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
    """Failure and recovery rates: positive, finite numbers, never bools.

    hw_crash_per_year is per node; the recovery and repair rates are per
    second, matching how operators quote them (crashes per year, seconds
    to fail over).
    """

    hw_crash_per_year: float
    crash_recovery_per_s: float
    pool_repair_per_s: float | None = None

    def __post_init__(self) -> None:
        _check_number("hw_crash_per_year", self.hw_crash_per_year)
        _check_number("crash_recovery_per_s", self.crash_recovery_per_s)
        if self.pool_repair_per_s is not None:
            _check_number("pool_repair_per_s", self.pool_repair_per_s)

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
    return min(0.0 - math.log10(1.0 - avail), MAX_NINES)   # +0.0, never -0.0


def build_pf_model(spec: ClusterSpec, rates: AvailRates, parallel_recovery: bool = True,
                   depth: int | None = None) -> AvailabilityModel:
    """Passive-failover chain for the given cluster and rates.

    Cloud states are live-node counts 0..num: the unbounded pool makes it
    the ARA chain without extras.  On-premises states are ``(up, pool)``
    pairs reachable from the fully-provisioned start; broken nodes rejoin
    the pool only when ``rates.pool_repair_per_s`` is set.

    ``depth``, a nonnegative integer below ``num``, cuts an on-premises
    chain: it keeps the states with at most ``depth`` nodes awaiting
    failover (``num - up``), and a crash past them goes to the absorbing
    ``SINK``.  Without pool repair, every pool-exhausted state ``(up, 0)``
    with ``up < num`` is lumped into the absorbing ``DOWN``, which is
    exact: such a state only loses nodes.  Both count as down in
    ``up_reward``, so from every start the cut chain's up-time is at most
    the whole chain's, and that plus the time spent in ``SINK`` at least
    it.  ``None``, a depth of ``num`` or more, and the cloud chain build
    the whole chain.
    """
    if spec.technique != PF:
        raise ValueError(f"expected a {PF} cluster spec, got {spec.technique!r}")
    if depth is not None:
        _check_number("depth", depth, above=False, integer=True)
    num = spec.num

    if spec.deployment == CLOUD:
        ctmc = _birth_death(spec, num, rates, parallel_recovery)
        up = [u == num for u in ctmc.states]
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

        if depth is not None and depth < num:
            moves = _cut(moves, num, depth, lump=repair is None)
        ctmc = _explore((num, spec.pool), moves)
        up = [s not in (SINK, DOWN) and s[0] == num for s in ctmc.states]

    return AvailabilityModel(ctmc=ctmc, spec=spec, rates=rates,
                             up_reward=np.array(up, dtype=float))


def _cut(moves, num: int, depth: int, lump: bool):
    """``moves`` of an on-premises PF chain cut at ``depth``: a move past it
    lands in ``SINK`` and, with ``lump``, one to a pool-exhausted down
    state in ``DOWN``; neither has moves."""
    def cut_moves(state) -> Iterable[tuple[object, float]]:
        if state in (SINK, DOWN):
            return
        for (u, p), rate in moves(state):
            if lump and p == 0 and u < num:
                yield DOWN, rate
            else:
                yield (SINK if num - u > depth else (u, p)), rate
    return cut_moves


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


def _model_to_solve(spec: ClusterSpec, rates: AvailRates, parallel_recovery: bool = True,
                    depth: int | None = None) -> AvailabilityModel:
    """``build_availability_model`` for a chain that will be solved, refused
    unbuilt when the whole chain's dense solve would not fit in memory; a
    ``depth`` builds the PF chain cut there (``build_pf_model``)."""
    n = _chain_shape(spec, rates)[0]
    _check_memory("solving", n, _dense_arrays(n))
    if depth is not None:
        return build_pf_model(spec, rates, parallel_recovery, depth)
    return build_availability_model(spec, rates, parallel_recovery)


def _model_to_simulate(spec: ClusterSpec, rates: AvailRates, parallel_recovery: bool,
                       replications: int) -> AvailabilityModel:
    """``build_availability_model`` for a chain that will be simulated, refused
    unbuilt when its build, jump table and batch together would not fit."""
    n, width = _chain_shape(spec, rates)
    _check_memory("simulating", n, *_footprint(replications, n, width),
                  ("the chain build", _BUILD_BYTES * n, "extra_nodes or sert_multiplier"))
    return build_availability_model(spec, rates, parallel_recovery)


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


def _chain_shape(spec: ClusterSpec, rates: AvailRates) -> tuple[int, int]:
    """States of the chain built for ``spec``, and the most moves out of one,
    known without building it."""
    if spec.technique == ARA or spec.deployment == CLOUD:   # live counts 0..num+op
        return spec.num + spec.op + 1, 2 if spec.deployment == CLOUD else 1
    if rates.pool_repair_per_s is None:                     # up <= num, pool <= its start
        return (spec.num + 1) * (spec.pool + 1), 2
    return (spec.num + 1) * (spec.num + 2 * spec.pool + 2) // 2, 3   # up + pool <= total


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


# Bytes a state the chain build may hold: tracemalloc peaks at up to 900 for
# out-degree 2 and 1,270 for on-premises PF with pool repair, from 100 states up.
_BUILD_BYTES = 1500


def _explore(start, moves) -> Ctmc:
    """Breadth-first reachability closure; states ordered lexicographically,
    then ``DOWN`` and ``SINK`` where reached."""
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
    absorbing = [s for s in (DOWN, SINK) if s in seen]
    dist = {s: (1.0 if s == start else 0.0)
            for s in sorted(seen.difference(absorbing)) + absorbing}
    return build_ctmc(transitions, dist)
